"""Run one frontkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Every workload is a closed loop: one process, one thread, one client,
and the next op starts when the previous one has returned and been
checked.  Only the ops are timed; the checks run between them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of :mod:`layers`.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90
SETUP_PROBES = 7

# The host's CPU speed drifts by up to 1.6x over minutes (README, Noise),
# more than any bound a raw wall time could keep.  So a fixed reference
# loop, which allocates nothing and never calls the package, runs before
# the first and after every timed op and set-up probe, and each time is
# reported at nominal host speed: measured time x REF_NOMINAL_S / the
# median of the six reference times nearest to it.  Raw times are
# printed as well.
REF_NOMINAL_S = 1e-3
REF_ROUNDS = 60
_REF_DATA = tuple(range(256))
_REF_NEXT = {x: (7 * x + 1) & 255 for x in _REF_DATA}

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_workloads():
    """Import the package from ``src/`` and the workloads built on it."""
    if not os.path.isdir(os.path.join(SRC, "frontkit")):
        raise SystemExit(f"perfbench: no package sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import frontkit

    if os.path.dirname(os.path.dirname(os.path.abspath(frontkit.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported frontkit from {frontkit.__file__}")
    import workloads

    return workloads


def reference_s() -> float:
    """Time one run of the reference loop."""
    s = 0
    t0 = time.perf_counter()
    for _ in range(REF_ROUNDS):
        for x in _REF_DATA:
            s = _REF_NEXT[s ^ x]
    return time.perf_counter() - t0


def at_nominal_speed(raw, refs):
    """Scale each raw time by the reference times around it; ``refs[i]``
    ran just before ``raw[i]`` and ``refs[i + 1]`` just after."""
    return [t * REF_NOMINAL_S / statistics.median(refs[max(0, i - 2): i + 4])
            for i, t in enumerate(raw)]


def run_phase(wl, seconds=0.0, min_ops=MIN_OPS, cycle=None, count=None,
              tracer=None, reference=False):
    """Run ops until ``count`` are done or, without a count, until
    ``seconds`` have passed, at least ``min_ops`` ran and a cycle is
    complete.  Returns raw per-op times, the reference times around them
    (when ``reference`` is set), digests (None for a failed op) and one
    line of problems per failed op."""
    cycle = cycle or wl.cycle
    raw, refs, digests, problems = [], [], [], []
    if reference:
        refs.append(reference_s())
    start = time.perf_counter()
    i = 0
    while (i < count if count is not None else not (
            i >= min_ops and i % cycle == 0
            and time.perf_counter() - start >= seconds)):
        spec = wl.input(i)
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, found = wl.run(spec), []
        except Exception as exc:  # outside the op's documented outcomes
            out, found = None, [f"raised {exc!r}"]
        raw.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if reference:
            refs.append(reference_s())
        digest = None
        if not found:
            try:
                found = wl.check(spec, out)
                digest = wl.digest(spec, out)
            except Exception as exc:
                found = [f"check raised {exc!r}"]
        digests.append(None if found else digest)
        if found:
            problems.append(f"op {i} {spec!r}: " + "; ".join(found))
        i += 1
    return raw, refs, digests, problems


def latency_metrics(times) -> dict:
    """Throughput, median and nearest-rank p90 of per-op times."""
    ordered = sorted(times)
    p90 = ordered[max(1, math.ceil(0.9 * len(ordered))) - 1]
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES):
    """Median time from starting a fresh interpreter to the first op
    being ready: ``import frontkit`` plus building the inputs.  Returns
    it at nominal speed and raw."""
    raw, refs = [], [reference_s()]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            p.stdout.read()
            code = p.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        raw.append(elapsed)
        refs.append(reference_s())
    return statistics.median(at_nominal_speed(raw, refs)), statistics.median(raw)


def _environment(workload: str, seed: int, trace: int) -> dict:
    from frontkit import _kernel

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": _kernel.BACKEND,
    }


def benchmark(workload, seed, seconds, trace, min_ops=MIN_OPS, cycle=None,
              setup_probes=SETUP_PROBES, options=None, out=sys.stdout):
    """Run one workload and print its report; returns the result object."""
    wlmod = load_workloads()
    wl = wlmod.WORKLOADS[workload](seed, **(options or {}))
    env = _environment(workload, seed, trace)
    print("env " + json.dumps(env), file=out)
    if not trace:
        setup_s, setup_raw = (measure_setup(workload, seed, setup_probes)
                              if setup_probes else (0.0, 0.0))
        raw, refs, digests, problems = run_phase(wl, seconds, min_ops, cycle,
                                                 reference=True)
        times = at_nominal_speed(raw, refs)
        metrics = {**latency_metrics(times), "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        raw_metrics = {**latency_metrics(raw), "setup_s": setup_raw}
        print("raw wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in raw_metrics.items()),
              file=out)
        units = UNITS
        attempted = len(times)
        beyond = len(times) - math.ceil(0.9 * len(times))
        extra = {"latency_p90_ms": f"{len(times)} samples, {beyond} beyond p90"}
    else:
        import layers

        times_a, _, digests_a, problems = run_phase(wl, seconds / 2, min_ops, cycle)
        tracer = layers.Tracer()
        with layers.instrumented(tracer):
            times, _, digests, problems_b = run_phase(wl, count=len(times_a), tracer=tracer)
        problems += problems_b
        problems += [f"op {i}: traced output differs from untraced"
                     for i, (a, b) in enumerate(zip(digests_a, digests))
                     if a and b and a != b]
        metrics = tracer.metrics(sum(times), sum(times_a))
        print(f"wall traced {sum(times):.6g} s, untraced {sum(times_a):.6g} s,"
              f" layer self times {sum(s for _, s in tracer.spans.values()):.6g} s",
              file=out)
        units = {name: unit for name, unit, _ in layers.METRICS}
        attempted = len(times_a) + len(times)
        extra = {name: f"should move: {why}" for name, _, why in layers.METRICS}
    failed = len(problems)
    for p in problems[:10]:
        print(f"FAILED {p}", file=sys.stderr)
    digest_ops = min(min_ops, len(digests))
    stream = wlmod.sha("\n".join(map(str, digests[:digest_ops])))
    print(f"digest {workload} {stream} (first {digest_ops} ops)", file=out)
    for name, value in metrics.items():
        note = f"  # {extra[name]}" if name in extra else ""
        print(f"{name} {value:.6g} {units[name]}{note}", file=out)
    print(f"failed_ops_ratio {failed / attempted:.6g} ratio  # {failed} of {attempted} ops",
          file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("fuzz", "search", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        load_workloads().WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    benchmark(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
