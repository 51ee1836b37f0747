"""Trace-kernel selection.

The hot loop of the package is the single left-to-right pass over an event
word (``trace``).  A Cython translation is built at install time when a C
compiler is available; otherwise, or when ``FRONTKIT_PURE=1`` is set, the
pure-Python implementation is used.  Both produce identical results (see
``tests/test_kernel.py`` and ``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

import os

from .pure import CROSSING, KIND_NAMES, LEFT_CUSP, RIGHT_CUSP, TraceResult
from .pure import trace as _pure_trace

if os.environ.get("FRONTKIT_PURE"):
    trace = _pure_trace
    BACKEND = "pure"
else:
    try:
        from ._fast import trace as _fast_trace

        trace = _fast_trace
        BACKEND = "compiled"
    except ImportError:  # pragma: no cover - depends on build environment
        trace = _pure_trace
        BACKEND = "pure"

pure_trace = _pure_trace

__all__ = [
    "trace",
    "pure_trace",
    "BACKEND",
    "TraceResult",
    "LEFT_CUSP",
    "RIGHT_CUSP",
    "CROSSING",
    "KIND_NAMES",
]
