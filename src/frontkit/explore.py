"""Bounded search over the move graph and randomized invariance fuzzing.

Search can only certify lower bounds: tb never increases under
Reidemeister moves and only increases by removing zigzags, so a
breadth-first sweep over word-shrinking moves plus slides recovers tb
lost to stabilization.  Upper bounds come from genus certificates, not
from search.

The search runs on event words, not diagrams.  It lists the moves that
never grow a word (every window move but the R2 expansions) as the
index-free groups of :func:`frontkit.moves._scan`, and a node gets its
groups from its parent's when it is expanded: the five windows around
the rewrite that made it are rescanned and the rest shifted, as a
:class:`frontkit.moves.MoveIndex` does along a walk.  A child is the
parent's word with the memoised rewrite of a triple
(:func:`frontkit.moves._rewrite`) spliced in, and a
:class:`frontkit.moves.Move` is built only for a child not seen before.

Every Reidemeister move and far commutation keeps the tb of each
component, so such a child carries its parent's tb untraced.  A
destabilization raises the tb of the one component it touches by
exactly 1: on one component that is the child's tb, and on several
components, closed or in a strip, the child of a destabilization is
traced to read its least tb.  Nothing else is traced until the witness
is replayed, once, at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .errors import BudgetExhausted, DiagramError, MoveError, ParameterOutOfRange
from .front import _check_int, _require_diagram, rotation, thurston_bennequin
from .moves import (
    _WINDOW_KINDS,
    Move,
    MoveIndex,
    MoveScript,
    _rebuild,
    _regrouped,
    _rewrite,
    _scan,
)
from .standard import homology_vector


@dataclass(frozen=True)
class SearchConfig:
    """Bounds of the breadth-first search: ``max_depth`` is an int >= 0,
    ``budget`` an int >= 1."""

    max_depth: int = 4
    budget: int = 10_000

    def __post_init__(self):
        _check_int(0, max_depth=self.max_depth)
        _check_int(1, budget=self.budget)


@dataclass(frozen=True)
class SearchResult:
    """Best tb reached, a replayable witness, and the work done."""

    best_tb: int
    witness: MoveScript
    nodes_expanded: int
    exhausted: bool = False


def _tbs(d) -> List[int]:
    """The tb of each component of ``d``."""
    return [thurston_bennequin(d, c) for c in d.components]


def _tb_of(d) -> int:
    """The least tb over the components of ``d``, which has at least one."""
    if not d.n_components:
        raise DiagramError("a diagram with no components has no tb")
    return min(_tbs(d))


def _witnessed(d, best_tb: int, path: Tuple[Move, ...], nodes: int,
               exhausted: bool = False) -> SearchResult:
    """The search result for the path to ``best_tb``, after replaying
    the path from ``d`` and checking the tb it reaches."""
    witness = MoveScript(path)
    got = _tb_of(witness.replay(d))
    if got != best_tb:
        raise MoveError(
            f"search carried tb {best_tb} along {len(path)} moves, "
            f"but the replayed witness has tb {got}"
        )
    return SearchResult(best_tb, witness, nodes, exhausted)


def bfs_max_tb(d, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Breadth-first search for the highest tb reachable by reductions.

    Explores the closure of word-shrinking moves up to ``cfg.max_depth``
    on event words, in the order of ``enumerate_moves``, deduplicating on
    the exact word.  Each move the scan lists is spliced into the word as
    found, not matched again.  ``cfg`` must be a SearchConfig
    (ParameterOutOfRange otherwise).  A child carries its parent's tb,
    one higher after a ``Destabilize`` of a knot; the new child of a
    ``Destabilize`` of several components is traced to read its least
    tb.  The witness script is replayed once from ``d``, and it reaches
    a diagram achieving ``best_tb``.  Raises BudgetExhausted (carrying
    the partial result) when the node budget runs out; the best found so
    far is still attached, replayed the same way.
    """
    _require_diagram(d)
    if not isinstance(cfg, SearchConfig):
        raise ParameterOutOfRange(
            f"search bounds must be a SearchConfig, not a {type(cfg).__name__}"
        )
    budget = cfg.budget
    start_tb = _tb_of(d)
    best_tb, best_path = start_tb, ()
    # A frontier entry: the word, its tb, the path to it, and its
    # parent's groups with the index and the length change of the rewrite
    # that made it from the parent's word.  The start has no parent.
    frontier: List[tuple] = [(d.events, start_tb, (), None, 0, 0)]
    seen = {d.events}
    nodes = 1
    link = d.n_components > 1
    for _depth in range(cfg.max_depth):
        nxt: List[tuple] = []
        for word, tb, path, parent, site, shift in frontier:
            if parent is None:
                groups = _scan(word, None, 0, len(word), _WINDOW_KINDS)
            else:
                groups = _regrouped(parent, word, site, shift, _WINDOW_KINDS)
            for idx, group in enumerate(groups):
                if not group:
                    continue
                head = word[:idx]
                for triple in group:
                    if nodes >= budget:
                        raise BudgetExhausted(
                            f"node budget {budget} exhausted",
                            _witnessed(d, best_tb, best_path, nodes, exhausted=True),
                        )
                    old_len, new = _rewrite(triple)
                    child = head + new + word[idx + old_len :]
                    # ``seen`` holds the ``nodes`` words found so far, so
                    # one hash of the child tells whether it is new.
                    seen.add(child)
                    if len(seen) == nodes:
                        continue
                    nodes += 1
                    level, kind, data = triple
                    child_path = path + (Move(kind, idx, level, data),)
                    child_tb = tb
                    if kind == "Destabilize":
                        child_tb = _tb_of(_rebuild(d, child)) if link else tb + 1
                        if child_tb > best_tb:
                            best_tb, best_path = child_tb, child_path
                    nxt.append(
                        (child, child_tb, child_path, groups, idx, len(new) - old_len)
                    )
        if not nxt:
            break
        frontier = nxt
    return _witnessed(d, best_tb, best_path, nodes)


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
    """The classical data a Reidemeister move must preserve, free of
    component order and orientation: per component, the tb and the tuple
    ``v = (rotation, *homology)`` up to sign (the greater of ``v`` and
    ``-v``), since a slide can reverse a component's canonical
    orientation.  On a front, ``v`` is ``(rotation,)``, kept as
    ``|rotation|``, and no port map is built."""
    per = []
    for c in d.components:
        rot = rotation(d, c)
        if d.handles:
            v = (rot, *homology_vector(d, c))
            v = max(v, tuple(-x for x in v))
        else:
            v = abs(rot)
        per.append((thurston_bennequin(d, c), v))
    per.sort()
    return (d.n_components, tuple(per))


def fuzz_moves(d, seed: int, steps: int) -> FuzzReport:
    """Apply ``steps`` (an int >= 0) uniformly random applicable
    Reidemeister moves (both directions) and slides, drawn by a
    ``random.Random`` seeded with the int ``seed``, checking the
    classical invariants after every step.  A correct engine reports
    zero violations.

    Each step is checked on the window it rewrote (see
    :meth:`frontkit.moves.MoveIndex.apply`); a step that the window does
    not prove is rebuilt, traced and fingerprinted.  The final diagram
    is traced once, at the end.
    """
    _require_diagram(d)
    # An int seed, so that the walk can be repeated.
    _check_int(seed=seed)
    _check_int(0, steps=steps)
    rng = random.Random(seed)
    want = _fingerprint(d)
    violations: List[str] = []
    applied = 0
    moves = MoveIndex(d, _FUZZ_KINDS)
    for step in range(steps):
        if not moves:
            break
        m = rng.choice(moves)
        proven = moves.apply(m)
        applied += 1
        if proven:
            continue
        got = _fingerprint(moves.diagram)
        if got != want:
            violations.append(
                f"step {step} ({m.kind} at {m.index}): {want} -> {got}"
            )
            want = got
    return FuzzReport(steps, applied, tuple(violations), moves.diagram)
