"""Per-layer spans for the traced run, recorded from outside the package.

Each wrapped function becomes a span: calls and self time (the span's
duration minus the time its child spans cover), plus a few counts taken
at the same boundary.  Modules bind several of these
functions by name (``explore`` imports ``enumerate_moves``, ``gallery``
imports the handle moves), so :func:`instrumented` replaces every
binding of a wrapped function in every loaded ``frontkit`` module, and
puts the originals back on exit.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from frontkit.errors import BudgetExhausted

perf_counter = time.perf_counter


def _kernel_trace(tracer, args, result, exc):
    tracer.counts["kernel.trace.events"] += len(args[0])


def _enumerate(tracer, args, result, exc):
    tracer.counts["moves.enumerate_moves.events_scanned"] += len(args[0].events)
    if result is not None:
        tracer.counts["moves.enumerate_moves.moves_found"] += len(result)


def _apply(tracer, args, result, exc):
    if tracer.open["explore.bfs_max_tb"]:
        tracer.counts["explore.bfs.children"] += 1


def _cable_expand(tracer, args, result, exc):
    if result is not None:
        tracer.counts["satellite.cable_expand.events_out"] += len(result.events)


def _parse(tracer, args, result, exc):
    tracer.counts["textio.parse.bytes_in"] += len(args[0].encode())


def _render(tracer, args, result, exc):
    if result is not None:
        tracer.counts["textio.render.bytes_out"] += len(result.encode())


def _bfs(tracer, args, result, exc):
    if isinstance(exc, BudgetExhausted):
        tracer.counts["explore.bfs.exhausted"] += 1
        result = exc.partial
    if result is not None:
        tracer.counts["explore.bfs.nodes"] += result.nodes_expanded


def _fuzz(tracer, args, result, exc):
    if result is not None:
        tracer.counts["explore.fuzz.steps_applied"] += result.steps_applied


# (module, function, span name, count hook).  Spans sharing a name add up.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("frontkit._kernel", "trace", "kernel.trace", _kernel_trace),
    ("frontkit.front", "encode_word", "front.encode_word", None),
    ("frontkit.moves", "enumerate_moves", "moves.enumerate_moves", _enumerate),
    ("frontkit.moves", "apply_move", "moves.apply_move", _apply),
    ("frontkit.moves", "handle_slide", "moves.handle_slide", None),
    ("frontkit.moves", "pull_off", "moves.pull_off", None),
    ("frontkit.moves", "cancel_pair", "moves.cancel_pair", None),
    ("frontkit.moves", "clean_band_sites", "moves.clean_band_sites", None),
    ("frontkit.standard", "tb_standard", "standard", None),
    ("frontkit.standard", "homology_vector", "standard", None),
    ("frontkit.standard", "pass_signs", "standard", None),
    ("frontkit.standard", "stein_check", "standard", None),
    ("frontkit.standard", "geometric_passes", "standard", None),
    ("frontkit.satellite", "cable", "satellite.cable", None),
    ("frontkit.satellite", "cable_expand", "satellite.cable_expand", _cable_expand),
    ("frontkit.gallery", "step3_pipeline", "gallery.step3_pipeline", None),
    ("frontkit.gallery", "stein_rep_max", "gallery.stein_rep_max", None),
    ("frontkit.textio", "parse", "textio.parse", _parse),
    ("frontkit.textio", "print_text", "textio.print_text", None),
    ("frontkit.textio", "render", "textio.render", _render),
    ("frontkit.explore", "bfs_max_tb", "explore.bfs_max_tb", _bfs),
    ("frontkit.explore", "fuzz_moves", "explore.fuzz_moves", _fuzz),
]

# Every per-layer metric: name, unit, and the end-to-end metric it should
# move.  A later change names its claim by these names.
METRICS: List[Tuple[str, str, str]] = [
    ("kernel.trace.calls", "count", "ops_per_s on search and pipeline; nothing on fuzz"),
    ("kernel.trace.events", "count", "ops_per_s on search and pipeline; nothing on fuzz"),
    ("kernel.trace.self_s", "s", "ops_per_s on search and pipeline; nothing on fuzz"),
    ("front.encode_word.calls", "count", "ops_per_s on search"),
    ("front.encode_word.self_s", "s", "ops_per_s on search"),
    ("moves.enumerate_moves.calls", "count", "fuzz ops_per_s, latency_p90_ms; search ops_per_s; nothing on pipeline"),
    ("moves.enumerate_moves.events_scanned", "count", "fuzz ops_per_s, latency_p90_ms; search ops_per_s; nothing on pipeline"),
    ("moves.enumerate_moves.moves_found", "count", "fuzz ops_per_s, latency_p90_ms; search ops_per_s; nothing on pipeline"),
    ("moves.enumerate_moves.self_s", "s", "fuzz ops_per_s, latency_p90_ms; search ops_per_s; nothing on pipeline"),
    ("moves.enumerate_moves.used_ratio", "ratio", "fuzz ops_per_s, latency_p90_ms; search ops_per_s; nothing on pipeline"),
    ("moves.apply_move.calls", "count", "ops_per_s on search"),
    ("moves.apply_move.self_s", "s", "ops_per_s on search"),
    ("moves.handle_slide.self_s", "s", "latency_p50_ms on pipeline"),
    ("moves.pull_off.self_s", "s", "latency_p50_ms on pipeline"),
    ("moves.cancel_pair.self_s", "s", "latency_p50_ms on pipeline"),
    ("moves.clean_band_sites.self_s", "s", "latency_p50_ms on pipeline"),
    ("standard.calls", "count", "latency_p50_ms on pipeline"),
    ("standard.self_s", "s", "latency_p50_ms on pipeline"),
    ("satellite.cable.self_s", "s", "latency_p90_ms on pipeline"),
    ("satellite.cable_expand.self_s", "s", "latency_p90_ms on pipeline"),
    ("satellite.cable_expand.events_out", "count", "latency_p90_ms on pipeline"),
    ("gallery.step3_pipeline.self_s", "s", "latency_p50_ms on pipeline"),
    ("gallery.stein_rep_max.self_s", "s", "latency_p50_ms on pipeline"),
    ("textio.parse.self_s", "s", "ops_per_s on pipeline"),
    ("textio.parse.bytes_in", "B", "ops_per_s on pipeline"),
    ("textio.print_text.self_s", "s", "ops_per_s on pipeline"),
    ("textio.render.self_s", "s", "ops_per_s on pipeline"),
    ("textio.render.bytes_out", "B", "ops_per_s on pipeline"),
    ("explore.bfs_max_tb.self_s", "s", "latency_p90_ms and peak_rss_mb on search"),
    ("explore.bfs.nodes", "count", "latency_p90_ms and peak_rss_mb on search"),
    ("explore.bfs.children", "count", "latency_p90_ms and peak_rss_mb on search"),
    ("explore.bfs.new_ratio", "ratio", "latency_p90_ms and peak_rss_mb on search"),
    ("explore.bfs.exhausted", "count", "latency_p90_ms and peak_rss_mb on search"),
    ("explore.fuzz_moves.self_s", "s", "ops_per_s on fuzz"),
    ("explore.fuzz.steps_applied", "count", "ops_per_s on fuzz"),
    ("trace.overhead_ratio", "ratio", "none: traced wall / untraced wall of the same ops"),
    ("trace.accounted_ratio", "ratio", "none: share of the traced op wall inside layer spans"),
]


class Tracer:
    """Span and count totals, kept in memory; recording only while
    ``active`` is set, so checks between ops are not traced."""

    def __init__(self):
        self.active = False
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, self time]
        self.counts: Counter = Counter()
        self.open: Counter = Counter()  # span name -> calls in progress
        self.top_s = 0.0  # time covered by outermost spans
        self._stack: List[List[float]] = []  # child time of each open span

    def wrap(self, span: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        totals = self.spans.setdefault(span, [0, 0.0])

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, result, exc = self._stack, None, None
            child = [0.0]
            stack.append(child)
            self.open[span] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = perf_counter() - t0
                self.open[span] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_s += dur
                totals[0] += 1
                totals[1] += dur - child[0]
                if hook is not None:
                    hook(self, args, result, exc)

        return traced

    def metrics(self, op_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
        """Every metric of :data:`METRICS` for the ops traced so far."""
        out: Dict[str, float] = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        found = out.get("moves.enumerate_moves.moves_found", 0)
        children = out.get("explore.bfs.children", 0)
        out["moves.enumerate_moves.used_ratio"] = (
            out["moves.apply_move.calls"] / found if found else 0.0)
        out["explore.bfs.new_ratio"] = (
            out.get("explore.bfs.nodes", 0) / children if children else 0.0)
        out["trace.overhead_ratio"] = (
            op_wall_s / untraced_wall_s if untraced_wall_s else 0.0)
        out["trace.accounted_ratio"] = self.top_s / op_wall_s if op_wall_s else 0.0
        return {name: out.get(name, 0) for name, _, _ in METRICS}


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every wrapped function in every loaded frontkit module."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "frontkit" or n.startswith("frontkit."))]
    wrappers = {}
    for module, attr, span, hook in TARGETS:
        original = getattr(sys.modules[module], attr)
        wrappers[id(original)] = (original, tracer.wrap(span, original, hook))
    saved = []
    for m in modules:
        for attr, value in list(vars(m).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                saved.append((m, attr, value))
                setattr(m, attr, wrappers[id(value)][1])
    try:
        yield tracer
    finally:
        for m, attr, value in saved:
            setattr(m, attr, value)
