"""Bounded search over the move graph and randomized invariance fuzzing.

Search can only certify lower bounds: tb never increases under
Reidemeister moves and only increases by removing zigzags, so a
breadth-first sweep over word-shrinking moves plus slides recovers tb
lost to stabilization.  Upper bounds come from genus certificates, not
from search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .errors import BudgetExhausted, ParameterOutOfRange
from .front import rotation, thurston_bennequin
from .moves import (
    _ORDER,
    Move,
    MoveIndex,
    MoveScript,
    _n_initial,
    _rebuild,
    _scan,
    _splice,
)
from .standard import StandardFormDiagram, homology_vector, tb_standard

# Moves that never grow the event word: all Reidemeister contractions,
# far commutations (to expose patterns), and zigzag removal (the only
# move that raises tb).
_REDUCING_KINDS = ("R1a", "R1b", "R2a", "R2b", "R3", "Slide", "Destabilize")


def _reducing_moves(d) -> List[Move]:
    """``enumerate_moves(d, _REDUCING_KINDS)`` without the R2 expansions,
    which are never matched."""
    out = _scan(d.events, _n_initial(d), 0, len(d.events), _REDUCING_KINDS,
                expand=False)
    out.sort(key=_ORDER)
    return out


def _check_count(name: str, value, least: int) -> None:
    """Raise ParameterOutOfRange unless ``value`` is an int (not a bool)
    of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        rule = "positive" if least == 1 else "non-negative"
        raise ParameterOutOfRange(
            f"{name} must be {rule} (an int >= {least}), got {value!r}"
        )


@dataclass(frozen=True)
class SearchConfig:
    """Bounds of the breadth-first search: ``max_depth`` is an int >= 0,
    ``budget`` an int >= 1."""

    max_depth: int = 4
    budget: int = 10_000

    def __post_init__(self):
        _check_count("max_depth", self.max_depth, 0)
        _check_count("budget", self.budget, 1)


@dataclass(frozen=True)
class SearchResult:
    """Best tb reached, a replayable witness, and the work done."""

    best_tb: int
    witness: MoveScript
    nodes_expanded: int
    exhausted: bool = False


def _tb_of(d) -> int:
    if isinstance(d, StandardFormDiagram):
        return min(tb_standard(d, c) for c in d.components)
    return min(thurston_bennequin(d, c) for c in d.components)


def bfs_max_tb(d, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Breadth-first search for the highest tb reachable by reductions.

    Explores the closure of word-shrinking moves up to ``cfg.max_depth``,
    deduplicating on the exact event word before a child is traced, so
    a word already seen costs one rewrite, not a rebuild.  Each move the
    scan lists is spliced into the word as found, not matched again.  The returned
    witness script replays from ``d`` to a diagram achieving ``best_tb``.
    Raises BudgetExhausted (carrying the partial result) when the node
    budget runs out; the best found so far is still attached.
    """
    start_tb = _tb_of(d)
    best = (start_tb, MoveScript(()))
    frontier: List[Tuple[object, Tuple[Move, ...]]] = [(d, ())]
    seen = {d.events}
    nodes = 1
    for _depth in range(cfg.max_depth):
        nxt: List[Tuple[object, Tuple[Move, ...]]] = []
        for node, path in frontier:
            for m in _reducing_moves(node):
                if nodes >= cfg.budget:
                    raise BudgetExhausted(
                        f"node budget {cfg.budget} exhausted",
                        SearchResult(best[0], best[1], nodes, exhausted=True),
                    )
                word = _splice(node.events, m)
                if word in seen:
                    continue
                seen.add(word)
                child = _rebuild(node, word)
                nodes += 1
                child_path = path + (m,)
                tb = _tb_of(child)
                if tb > best[0]:
                    best = (tb, MoveScript(child_path))
                nxt.append((child, child_path))
        if not nxt:
            break
        frontier = nxt
    return SearchResult(best[0], best[1], nodes)


@dataclass(frozen=True)
class LocalMaxCertificate:
    """No diagram within ``depth`` moves has higher tb.  This says
    nothing about the global maximum."""

    tb: int
    depth: int
    is_local_max: bool
    nodes_expanded: int


def local_max_certificate(d, depth: int,
                          budget: int = 100_000) -> LocalMaxCertificate:
    """Sweep the depth-bounded move neighborhood for a tb improvement."""
    res = bfs_max_tb(d, SearchConfig(max_depth=depth, budget=budget))
    start = _tb_of(d)
    return LocalMaxCertificate(start, depth, res.best_tb <= start,
                               res.nodes_expanded)


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a random walk through tb-preserving moves."""

    steps_requested: int
    steps_applied: int
    violations: Tuple[str, ...]
    final: object


_FUZZ_KINDS = ("R1a", "R1b", "R2a", "R2b", "R3", "Slide")


def _fingerprint(d) -> Tuple:
    """The classical data a Reidemeister move must preserve, as a
    component-order-free multiset."""
    if isinstance(d, StandardFormDiagram):
        per = sorted(
            (tb_standard(d, c), homology_vector(d, c)) for c in d.components
        )
    else:
        per = sorted(
            (thurston_bennequin(d, c), rotation(d, c)) for c in d.components
        )
    return (d.n_components, tuple(per))


def fuzz_moves(d, seed: int, steps: int) -> FuzzReport:
    """Apply ``steps`` (an int >= 0) uniformly random applicable
    Reidemeister moves (both directions) and slides, checking the
    classical invariants after every step.  A correct engine reports
    zero violations."""
    _check_count("steps", steps, 0)
    rng = random.Random(seed)
    want = _fingerprint(d)
    current = d
    violations: List[str] = []
    applied = 0
    moves = MoveIndex(d, _FUZZ_KINDS)
    for step in range(steps):
        if not moves:
            break
        m = rng.choice(moves)
        current = moves.apply(m)
        applied += 1
        got = _fingerprint(current)
        if got != want:
            violations.append(
                f"step {step} ({m.kind} at {m.index}): {want} -> {got}"
            )
            want = got
    return FuzzReport(steps, applied, tuple(violations), current)
