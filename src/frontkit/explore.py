"""Bounded search over the move graph and randomized invariance fuzzing.

Search can only certify lower bounds: tb never increases under
Reidemeister moves and only increases by removing zigzags, so a
breadth-first sweep over word-shrinking moves plus slides recovers tb
lost to stabilization.  Upper bounds come from genus certificates, not
from search.

The search runs on coded words, not diagrams: a word is a str, one code
point per event, so deduplication hashes a str, which caches its hash,
and a child is spliced by slicing.  It lists the moves that never grow
a word (every window move but the R2 expansions), with their rewrites,
in one table for the process, the search's only cache of moves: the
coded window ``word[i:i + 3]`` names a tuple of entries, one per move
of the index-free group :func:`frontkit.moves._window_group` gives,
each the move's triple with its window length, coded new events and
change in length (from :func:`frontkit.moves._rewrite`).  A window met
for the first time is decoded, padded, matched and rewritten alone;
the search reads the entries and never changes one.  A node gets its
groups from its parent's when it is expanded: the windows that the
rescan rule of :mod:`frontkit.moves` names for the rewrite that made
it are looked up and the rest shifted, into a new list, since its
siblings share the parent's groups (a :class:`frontkit.moves.MoveIndex`
along a walk splices the same rescan into the one list it holds, in
place).  A child is the parent's word with an entry's coded new events
spliced in.  A new child links to its parent by the index and entry of
its move, which the child's own expansion reads its rescan from, and
is queued only when a later depth expands it; a
:class:`frontkit.moves.Move` is built only for the witness, by walking
the links back from the best node.

A node other than the start tries only the moves from its first
rescanned window on (a sleep set, in the terms of partial-order
reduction).  A move at an earlier window ends at or before the last
move's site, since a window is at most 3 events long, so the two
commute, and its group is the parent's own.  The parent tried it before
the last move, so its child was queued ahead of this node or was seen
already, and that child's expansion made or had seen the word with the
two moves swapped.  So every skipped child is a duplicate, and the new
nodes, their order, ``nodes_expanded``, the best tb and the witness are
those of the search that tries every move.  Trying a move once the
budget is spent raises, even when its child is seen, so a node reached
with the budget spent tries every move, and the budget runs out where
it would without the skip.

Every Reidemeister move and far commutation keeps the tb of each
component, so such a child carries its parent's tb untraced.  A
destabilization raises the tb of the one component it touches by
exactly 1: on one component that is the child's tb, and on several
components, closed or in a strip, the child of a destabilization is
decoded and traced to read its least tb.  Nothing else is traced until
the witness is replayed, once, at the end, by
:meth:`frontkit.moves.MoveScript.replay`: each of its moves is matched
against the scan of its window in the word the replay holds, not read
from the search's table, and spliced into that word, which is traced
once.

A search reports its work as data: :class:`SearchResult`, and the
partial result that :class:`frontkit.errors.BudgetExhausted` carries,
hold a :class:`SearchStats` record of the new nodes of each depth and
the nodes each depth queued for the next.  The loop fills it from the
counts it keeps anyway, once per depth, and never per node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from .errors import BudgetExhausted, DiagramError, MoveError, ParameterOutOfRange
from .front import Event, _check_int, _require_diagram, rotation, thurston_bennequin
from .moves import (
    _PAD,
    _WINDOW_KINDS,
    Move,
    MoveIndex,
    MoveScript,
    _rebuild,
    _rewrite,
    _window_group,
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
class SearchStats:
    """What a search did, by depth: ``nodes[k]`` is the count of new
    nodes at depth ``k`` (the start is depth 0's one), and ``queued[k]``
    the count of nodes that expanding depth ``k`` queued for depth
    ``k + 1``, 0 at the last depth.  ``queued`` has one entry per depth
    expanded and ``nodes`` one more; ``sum(nodes)`` is the search's
    ``nodes_expanded``.  A search that ran out of budget counts the depth
    it stopped in up to the node it stopped at."""

    nodes: Tuple[int, ...] = (1,)
    queued: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SearchResult:
    """Best tb reached, a replayable witness, and the work done: the
    nodes in all and, in ``stats``, by depth."""

    best_tb: int
    witness: MoveScript
    nodes_expanded: int
    exhausted: bool = False
    stats: SearchStats = SearchStats()


def _tbs(d) -> List[int]:
    """The tb of each component of ``d``."""
    return [thurston_bennequin(d, c) for c in d.components]


def _tb_of(d) -> int:
    """The least tb over the components of ``d``, which has at least one."""
    if not d.n_components:
        raise DiagramError("a diagram with no components has no tb")
    return min(_tbs(d))


# Inside the search a word is a str, one code point per event, which
# takes one byte per event while every code is below 256: the code of
# ``Event(kind, level)`` is ``3 * level`` plus the place of ``kind`` in
# ``_KINDS``.  Every code is a code point: a level of a traced word is
# below its widest slice, which is at most its events plus its left
# ports, which the size bound ``front._MAX_WORD`` keeps below
# ``sys.maxunicode // 3``, and no move of the search lengthens a word.
_KINDS = "LRX"
_KIND_CODES = {kind: k for k, kind in enumerate(_KINDS)}


def _encode(events) -> str:
    """The coded word of ``events``."""
    return "".join([chr(3 * level + _KIND_CODES[kind]) for kind, level in events])


@lru_cache(maxsize=None)
def _event(char: str) -> Event:
    """The event that the code point ``char`` names; memoised, since the
    codes are bounded by the levels in use."""
    level, kind = divmod(ord(char), 3)
    return Event(_KINDS[kind], level)


def _decode(word) -> Tuple[Event, ...]:
    """The events of the coded ``word``."""
    # From a list, the tuple is built at its size; ``tuple(map(...))``
    # grows a guess and shrinks it, which raised the search's peak RSS.
    return tuple([_event(char) for char in word])


class _CodedTable(dict):
    """The moves of every coded window met so far, keyed by
    ``word[i:i + 3]``, which is shorter only at the last two indices,
    where the window is padded, so it names its window exactly.  An
    entry is a triple of the :func:`_window_group` of the window, with
    the R2 expansions left out, followed by the window length, the coded
    new events and the change in length of its :func:`_rewrite`."""

    def __missing__(self, key: str) -> Tuple[Tuple, ...]:
        window = (_decode(key) + _PAD)[:3]
        entries = []
        for triple in _window_group(window, None, _WINDOW_KINDS):
            old_len, new = _rewrite(triple)
            entries.append((triple, old_len, _encode(new), len(new) - old_len))
        group = self[key] = tuple(entries)
        return group


_CODED_GROUPS = _CodedTable()


def _coded_groups(word: str, parent, link):
    """The groups of the coded ``word``, from the ``parent`` groups of
    the word that the last move of ``link`` (an index and a table entry)
    turned into ``word``: a new list, with the windows the rescan rule
    of :mod:`frontkit.moves` names for the move's window looked up and
    the rest shifted by its change in length.  The start, with no link,
    is looked up whole."""
    if link is None:
        return [_CODED_GROUPS[word[i : i + 3]] for i in range(len(word))]
    _, site, (_, old_len, _, shift) = link
    lo, hi = site - 2 if site > 2 else 0, site + old_len
    lookup = [_CODED_GROUPS[word[i : i + 3]] for i in range(lo, hi + shift)]
    return parent[:lo] + lookup + parent[hi:]


def _witnessed(d, best_tb: int, link, nodes, queued,
               exhausted: bool = False) -> SearchResult:
    """The search result for the path to ``best_tb``, after replaying
    it from ``d`` and checking the tb it reaches.  ``link`` is None at
    ``d``, or the ``(parent link, index, table entry)`` of the last
    move; the moves of the path are built here, walking the links back.
    ``nodes`` and ``queued`` are the new and the queued nodes of each
    depth, the fields of its :class:`SearchStats`."""
    path = []
    while link is not None:
        link, idx, ((level, kind, data), *_) = link
        path.append(Move(kind, idx, level, data))
    witness = MoveScript(path[::-1])
    got = _tb_of(witness.replay(d))
    if got != best_tb:
        raise MoveError(
            f"search carried tb {best_tb} along {len(path)} moves, "
            f"but the replayed witness has tb {got}"
        )
    stats = SearchStats(tuple(nodes), tuple(queued))
    return SearchResult(best_tb, witness, sum(nodes), exhausted, stats)


def bfs_max_tb(d, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Breadth-first search for the highest tb reachable by reductions.

    Explores the closure of word-shrinking moves up to ``cfg.max_depth``
    on coded words, in the order of ``enumerate_moves``, deduplicating on
    the exact word.  Each move the scan lists is spliced into the word as
    found, not matched again.  A node skips the moves before the first
    window its last move made it rescan: they commute with that move,
    and an earlier sibling has made their children (see the module
    docstring), so the skip changes no output.  ``cfg`` must be a
    SearchConfig (ParameterOutOfRange otherwise).  A child carries its
    parent's tb, one higher after a ``Destabilize`` of a knot; the new
    child of a ``Destabilize`` of several components is traced to read
    its least tb.  A node links to its parent by the move that made it,
    and the moves of the best path alone are built, at the end.  A child
    at the last depth is counted, deduplicated and scored, but not
    queued.  The witness script is replayed once from ``d``, every move
    matched and the word it ends on traced once, and it reaches a
    diagram achieving ``best_tb``.  Raises BudgetExhausted
    (carrying the partial result) when the node budget runs out; the
    best found so far is still attached, replayed the same way.  Once
    the budget is spent, the next move tried raises even when its child
    is already seen, and a node then skips nothing.  The result's
    ``stats`` (:class:`SearchStats`) hold the new nodes and the queued
    nodes of each depth, the partial result's up to where it stopped.
    """
    _require_diagram(d)
    if not isinstance(cfg, SearchConfig):
        raise ParameterOutOfRange(
            f"search bounds must be a SearchConfig, not a {type(cfg).__name__}"
        )
    start = _encode(d.events)
    budget = cfg.budget
    last = cfg.max_depth - 1
    start_tb = _tb_of(d)
    best_tb, best_link = start_tb, None
    # A frontier entry: the coded word, its tb, its link and its
    # parent's groups.
    frontier: List[tuple] = [(start, start_tb, None, None)]
    seen = {start}
    add = seen.add
    nodes = 1
    several = d.n_components > 1
    # The new nodes and the queued nodes of each depth done.
    counts, queued = [1], []
    for depth in range(cfg.max_depth):
        nxt: List[tuple] = []
        queue = depth < last
        first = nodes
        for word, tb, link, parent in frontier:
            groups = _coded_groups(word, parent, link)
            # From the first window that ``_coded_groups`` rescanned: the
            # children of the moves before it are seen.  With the budget
            # spent, from 0, so that the first move raises.
            lo = 0
            if link is not None and nodes < budget:
                site = link[1]
                lo = site - 2 if site > 2 else 0
            for idx in range(lo, len(groups)):
                group = groups[idx]
                if not group:
                    continue
                head = word[:idx]
                for entry in group:
                    if nodes >= budget:
                        counts.append(nodes - first)
                        queued.append(len(nxt))
                        raise BudgetExhausted(
                            f"node budget {budget} exhausted",
                            _witnessed(d, best_tb, best_link, counts, queued, True),
                        )
                    triple, old_len, new, _ = entry
                    child = head + new + word[idx + old_len :]
                    # A str caches its hash, so a new child is hashed once.
                    if child in seen:
                        continue
                    add(child)
                    nodes += 1
                    child_tb = tb
                    child_link = (link, idx, entry)
                    if triple[1] == "Destabilize":
                        child_tb = (
                            _tb_of(_rebuild(d, _decode(child))) if several else tb + 1
                        )
                        if child_tb > best_tb:
                            best_tb, best_link = child_tb, child_link
                    if queue:
                        nxt.append((child, child_tb, child_link, groups))
        counts.append(nodes - first)
        queued.append(len(nxt))
        if not nxt:
            break
        frontier = nxt
    return _witnessed(d, best_tb, best_link, counts, queued)


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
    orientation.  A diagram with no handles, such as every front, has
    the homology vector ``()``, so there ``v`` is ``(rotation,)`` and
    counts as ``|rotation|``, and the vector is not computed."""
    per = []
    for c in d.components:
        v = (rotation(d, c),)
        if d.handles:
            v += homology_vector(d, c)
        per.append((thurston_bennequin(d, c), max(v, tuple(-x for x in v))))
    per.sort()
    return (d.n_components, tuple(per))


def fuzz_moves(d, seed: int, steps: int) -> FuzzReport:
    """Apply ``steps`` (an int >= 0) uniformly random applicable
    Reidemeister moves (both directions) and slides, drawn by a
    ``random.Random`` seeded with the int ``seed``, checking the
    classical invariants after every step.  A correct engine reports
    zero violations.

    The word and its moves are held in a :class:`frontkit.moves.MoveIndex`.
    A step draws the position ``k = rng.randrange(len(index))`` of its move
    in the sorted move list, finds the window and triple at ``k``
    (:meth:`frontkit.moves.MoveIndex._site`) and steps on them
    (:meth:`frontkit.moves.MoveIndex._step`), so no
    :class:`frontkit.moves.Move` is built or matched.  On a non-empty list,
    ``rng.choice(seq)`` returns ``seq[rng._randbelow(len(seq))]`` and
    ``rng.randrange(n)`` returns ``rng._randbelow(n)``, so the draw is the
    move that ``rng.choice(enumerate_moves(...))`` would draw, and a walk
    repeats the walk of that reference move for move.
    Each step is checked on the window it rewrote, splicing the rewrite
    and the rescanned windows into the index in place; a step that the
    window does not prove is rebuilt, traced and fingerprinted, and the
    start at the first such step, since every step before it kept the
    fingerprint.  The final diagram is traced at the end, which checks
    its word; its components and counts are derived only when read.
    """
    _require_diagram(d)
    # An int seed, so that the walk can be repeated.
    _check_int(seed=seed)
    _check_int(0, steps=steps)
    rng = random.Random(seed)
    want = None
    violations: List[str] = []
    applied = 0
    moves = MoveIndex(d, _FUZZ_KINDS)
    for step in range(steps):
        n = len(moves)
        if not n:
            break
        idx, triple = moves._site(rng.randrange(n))
        proven = moves._step(idx, triple)
        applied += 1
        if proven:
            continue
        if want is None:
            want = _fingerprint(d)
        got = _fingerprint(moves.diagram)
        if got != want:
            violations.append(
                f"step {step} ({triple[1]} at {idx}): {want} -> {got}"
            )
            want = got
    return FuzzReport(steps, applied, tuple(violations), moves.diagram)
