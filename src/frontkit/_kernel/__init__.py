"""The trace kernel.

The hot loop of the package is the single left-to-right pass over an event
word (``trace``), implemented in pure Python in :mod:`.pure` and tested in
``tests/test_kernel.py``.  Its input is the word exactly as the package
stores it: a sequence of ``(kind, level)`` pairs whose kinds are the
strings ``"L"``, ``"R"`` and ``"X"``, so an ``Event`` tuple needs no
translation.  ``BACKEND`` names the implementation for reports.
"""

from __future__ import annotations

from .pure import CROSSING, LEFT_CUSP, RIGHT_CUSP, TraceResult, trace

BACKEND = "pure"

__all__ = [
    "trace",
    "BACKEND",
    "TraceResult",
    "LEFT_CUSP",
    "RIGHT_CUSP",
    "CROSSING",
]
