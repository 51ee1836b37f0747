"""The three workloads: seeded inputs, one operation each, output checks.

Each workload builds its inputs from the seed (this is the set-up that
``setup_s`` times), then serves an endless stream of op inputs in
cycles.  A cycle holds a fixed multiset of inputs in a seeded order, so
a run that stops on a cycle boundary always has the same mix of small
and large inputs, whatever the seed.

Ops call the package through module attributes (``explore.fuzz_moves``
and so on), so the traced run's wrappers see every call.  The checks
recompute invariants with :mod:`oracle`, which does not use the package.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, List

from frontkit import explore, gallery, moves, satellite, textio
from frontkit.errors import BudgetExhausted
from frontkit.front import FrontDiagram, trefoil, unknot

from oracle import invariants

# Short walks on the criterion-9 fronts: the full 1000-step walk takes
# minutes, and a run needs at least 100 ops.
FUZZ_STEPS = 10

# Depth 3 undoes up to three stabilizations; the budget cuts the larger
# twist-knot queries short, so BudgetExhausted is exercised too.
SEARCH_DEPTH = 3
SEARCH_BUDGET = 300

# The tb each query must recover: the tb of the unstabilized front.
# Every one of the 48 queries reached it at the commit that added this
# benchmark, including those that exhaust the budget.
SEARCH_REFERENCE = {"unknot": -1, "trefoil": 1, "K_m(-1)": -1, "K_m(-2)": -1}

PIPELINE_N = (2, 3, 4)
PIPELINE_M_SPAN = 9  # m runs from -4n+3 down to -4n-5


def word(d) -> List[tuple]:
    """A diagram's events as plain ``(kind, level)`` pairs."""
    return [(e.kind, e.level) for e in d.events]


def word_text(d) -> str:
    return " ".join(f"{kind}{level}" for kind, level in word(d))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """A seeded op stream plus the op, its check and its digest."""

    name = ""

    def __init__(self, seed: int):
        self._rng = random.Random(f"{self.name}:{seed}")
        self._inputs: List = []

    def make_cycle(self, rng: random.Random) -> List:
        """One cycle of op inputs, in an order drawn from ``rng``."""
        raise NotImplementedError

    def input(self, i: int):
        """The i-th op's input; the same seed gives the same stream."""
        while len(self._inputs) <= i:
            self._inputs += self.make_cycle(self._rng)
        return self._inputs[i]

    def run(self, spec):
        raise NotImplementedError

    def check(self, spec, out) -> List[str]:
        """Problems with ``out``; empty when the op is correct."""
        raise NotImplementedError

    def digest(self, spec, out) -> str:
        raise NotImplementedError


class Fuzz(Workload):
    """``fuzz_moves`` walks on the closed fronts of criterion 9."""

    name = "fuzz"

    def __init__(self, seed: int, steps: int = FUZZ_STEPS):
        super().__init__(seed)
        self.steps = steps
        self.fronts = [
            (f"{e.name}{tuple(e.parameters.values())}", e.artifact)
            for e in gallery.gallery_manifest()
            if isinstance(e.artifact, FrontDiagram)
        ]
        self.cycle = len(self.fronts)
        self._want: Dict[int, list] = {}

    def make_cycle(self, rng):
        order = list(range(len(self.fronts)))
        rng.shuffle(order)
        return [(j, rng.randrange(2**32)) for j in order]

    def run(self, spec):
        j, walk_seed = spec
        return explore.fuzz_moves(self.fronts[j][1], seed=walk_seed, steps=self.steps)

    def check(self, spec, report):
        j, _ = spec
        if j not in self._want:
            self._want[j] = invariants(word(self.fronts[j][1]))
        problems = [f"violation: {v}" for v in report.violations]
        if not 0 <= report.steps_applied <= self.steps:
            problems.append(f"applied {report.steps_applied} of {self.steps} steps")
        got = invariants(word(report.final))
        if got != self._want[j]:
            problems.append(f"(tb, |rot|) moved from {self._want[j]} to {got}")
        return problems

    def digest(self, spec, report):
        j, walk_seed = spec
        return sha(f"{self.fronts[j][0]}|{walk_seed}|{report.steps_applied}|"
                   f"{word_text(report.final)}")


class Search(Workload):
    """``bfs_max_tb`` on small knots stabilized two or three times."""

    name = "search"

    def __init__(self, seed: int, reference: Dict[str, int] = SEARCH_REFERENCE):
        super().__init__(seed)
        self.reference = reference
        self.config = explore.SearchConfig(max_depth=SEARCH_DEPTH, budget=SEARCH_BUDGET)
        knots = [("unknot", unknot()), ("trefoil", trefoil()),
                 ("K_m(-1)", gallery.K_m_front(-1)), ("K_m(-2)", gallery.K_m_front(-2))]
        self.queries = []
        for name, base in knots:
            for k in (2, 3):
                for signs in itertools.product((1, -1), repeat=k):
                    d = base
                    for sign in signs:
                        d = moves.stabilize(d, None, sign)
                    self.queries.append((name, signs, d))
        # Twist-knot queries run twice per cycle, so they are two thirds of
        # the ops.  With four equal blocks the median op would fall in the
        # gap between the trefoil and the twist-knot queries, and p50 would
        # jump across it from run to run.
        self._order = [i for i, (name, _, _) in enumerate(self.queries)
                       for _ in range(2 if name.startswith("K_m") else 1)]
        self.cycle = len(self._order)

    def make_cycle(self, rng):
        order = list(self._order)
        rng.shuffle(order)
        return order

    def run(self, spec):
        try:
            return explore.bfs_max_tb(self.queries[spec][2], self.config)
        except BudgetExhausted as exc:  # a documented outcome, not a failure
            return exc.partial

    def check(self, spec, res):
        name, _, start = self.queries[spec]
        if res is None:
            return ["budget exhausted without a partial result"]
        problems = []
        start_tb = invariants(word(start))[0][0]
        reached = invariants(word(res.witness.replay(start)))
        if len(reached) != 1 or reached[0][0] != res.best_tb:
            problems.append(f"witness reaches {reached}, best_tb {res.best_tb}")
        if res.best_tb < start_tb:
            problems.append(f"best_tb {res.best_tb} below the start's {start_tb}")
        if res.best_tb != self.reference[name]:
            problems.append(f"best_tb {res.best_tb} != reference {self.reference[name]}")
        return problems

    def digest(self, spec, res):
        name, signs, _ = self.queries[spec]
        witness = ";".join(map(str, res.witness.moves))
        return sha(f"{name}|{signs}|{res.best_tb}|{witness}")


class Pipeline(Workload):
    """The build job: Stein representative, step 3, cable, text round trip."""

    name = "pipeline"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.grid = [(-4 * n + 3 - k, n)
                     for n in PIPELINE_N for k in range(PIPELINE_M_SPAN)]
        self.cycle = len(self.grid)

    def make_cycle(self, rng):
        grid = list(self.grid)
        rng.shuffle(grid)
        return grid

    def run(self, spec):
        m, n = spec
        rep = gallery.stein_rep_max(m, n)
        closed, script = gallery.step3_pipeline(m, n)
        cab = satellite.cable(gallery.K_m_front(m), n, -1)
        texts = []
        for d in (closed, cab):
            doc = textio.print_text(d)
            back = textio.parse(doc)
            texts.append((doc, back, textio.render(back, "ascii"),
                          textio.render(back, "svg")))
        return rep, closed, script, cab, texts

    def check(self, spec, out):
        _, n = spec
        rep, closed, script, cab, texts = out
        problems = []
        inv = invariants(word(closed))
        if len(inv) != 1 or inv[0][0] != -1:
            problems.append(f"closed front has (tb, |rot|) {inv}, want tb -1")
        inv = invariants(word(cab))
        if len(inv) != 1 or inv[0][0] != -2 * n + 1:
            problems.append(f"cable has (tb, |rot|) {inv}, want tb {-2 * n + 1}")
        for d, (doc, back, ascii_, svg) in zip((closed, cab), texts):
            if word(back) != word(d) or textio.print_text(back) != doc:
                problems.append("parse(print_text(x)) does not round-trip")
            if not ascii_.strip() or not svg.startswith("<svg"):
                problems.append("empty render")
        if word(script.replay(rep)) != word(closed):
            problems.append("step3 script does not replay to the closed front")
        return problems

    def digest(self, spec, out):
        _, closed, script, cab, texts = out
        moves_ = ";".join(map(str, script.moves))
        renders = "|".join(sha(a) + sha(s) for _, _, a, s in texts)
        return sha(f"{spec}|{word_text(closed)}|{moves_}|"
                   f"{sha(word_text(cab))}|{renders}")


WORKLOADS = {w.name: w for w in (Fuzz, Search, Pipeline)}
