"""The trace kernel.

The hot loop of the package is the single left-to-right pass over an event
word (``trace``), implemented in pure Python in :mod:`.pure` and tested in
``tests/test_kernel.py``.  Its input is the word exactly as the package
stores it: a sequence of ``(kind, level)`` pairs whose kinds are the
strings ``"L"``, ``"R"`` and ``"X"``, so an ``Event`` tuple needs no
translation.  ``BACKEND`` names the implementation for reports.

``slices(events, trace(events, ...))`` is the one slice model: the strand
ids of every vertical slice, one tuple per word position, rebuilt on
demand from the strands the trace recorded for each event.  Every module
that needs to know which strand sits at which level reads it; ``trace``
does not build it, so the hot loop pays nothing for it.
"""

from __future__ import annotations

from .pure import CROSSING, LEFT_CUSP, RIGHT_CUSP, TraceResult, slices, trace

BACKEND = "pure"

__all__ = [
    "trace",
    "slices",
    "BACKEND",
    "TraceResult",
    "LEFT_CUSP",
    "RIGHT_CUSP",
    "CROSSING",
]
