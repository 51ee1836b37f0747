"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size in both modes and checks that every
metric named in ``BENCHMARK.json`` is printed with its unit, that the
traced run reproduces the untraced run's outputs, and that a wrong
search reference is counted as a failed op.
"""

from __future__ import annotations

import io
import json
import os
import sys

import oracle
import run

SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(workload: str, trace: int, **options):
    """A run of two ops; returns the result object and the printout."""
    buf = io.StringIO()
    result = run.benchmark(workload, SEED, seconds=0, trace=trace, min_ops=2,
                           cycle=1, setup_probes=1, options=options, out=buf)
    return result, buf.getvalue()


def printed(text: str, prefix: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.startswith(prefix)]
    expect(len(lines) == 1, f"expected one line starting {prefix!r}")
    return lines[0]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Literature values, independent of the package under test.
    expect(oracle.invariants([("L", 1), ("R", 1)]) == [(-1, 0)], "unknot")
    expect(oracle.invariants([("L", 1), ("L", 3), ("X", 2), ("X", 2), ("X", 2),
                              ("R", 1), ("R", 1)]) == [(1, 0)], "trefoil")

    options = {"fuzz": {"steps": 2}, "search": {}, "pipeline": {}}
    for workload, opts in options.items():
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = tiny(workload, trace, **opts)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace} failed ops")
            expect(text.splitlines()[-1] == json.dumps(result),
                   "the result is not the last line")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace} metrics {got} != {want}")
            for name, unit in want.items():
                expect(printed(text, name + " ").split()[2] == unit,
                       f"{name} printed without its unit {unit}")
            digests.append(printed(text, "digest "))
            if trace and workload == "pipeline":
                expect(result["metrics"]["moves.enumerate_moves.calls"]["value"] == 0,
                       "pipeline enumerated moves")
        expect(digests[0] == digests[1], f"{workload} traced digest differs")

    wrong = {k: v + 1 for k, v in run.load_workloads().SEARCH_REFERENCE.items()}
    result, _ = tiny("search", 0, reference=wrong)
    expect(not result["correct"] and result["failed"] == result["attempted"] >= 1,
           "a wrong search reference was not counted as a failed op")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
