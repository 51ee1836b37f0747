"""Localized rewrites of front words with exact invariant bookkeeping.

The word-level moves are the Legendrian Reidemeister moves in event
form, plus far-commutation of independent adjacent events ("Slide") and
stabilization/destabilization:

* R1a  [L(i+1), X(i), R(i+1)]  ->  []        (kink with two cusps)
* R1b  [L(i), X(i+1), R(i)]    ->  []
* R2a  [L(i+1), X(i), X(i+1)] <->  [L(i)]    (left cusp past a strand)
*      [L(i), X(i+1), X(i)]   <->  [L(i+1)]
* R2b  [X(i), X(i+1), R(i)]   <->  [R(i+1)]  (right cusp past a strand)
*      [X(i+1), X(i), R(i+1)] <->  [R(i)]
* R3   [X(i), X(i+1), X(i)]   <->  [X(i+1), X(i), X(i+1)]
* Destabilize  [L(i), R(i+1)] or [L(i+1), R(i)]  ->  []   (zigzag)

Each preserves tb, rotation, component count, and (in a strip) the
homology vector, because it replaces a pattern by one with the same
boundary behaviour, signed crossing sum, and cusp imbalance.  A pair of
crossings [X(i), X(i)] is a clasp, not a bigon -- both crossings carry
the same sign in a front -- so it is never a reduction site.

One matcher finds them all: a single left-to-right scan over the
``(kind, level)`` pairs of the word compares each window's levels with
the patterns above, carries the slice width for the R2 expansions, and
decides far-commutation in closed form (:func:`_slide`).
:func:`enumerate_moves` runs it over the whole word; :func:`apply_move`
runs it at the one index it is given, so a move applies exactly when
enumeration lists it.  Stabilization sites are every (position, level)
of the word.

A walk that applies one move after another keeps its move list in a
:class:`MoveIndex` instead of enumerating every step.  The index holds
the sorted list grouped by window index.  A move at ``idx`` rewrites at
most three events, and every move keeps the slice width on both sides
of its window, so after it only the windows starting in
``[idx - 2, idx + new_len)`` can match differently; the later windows
see the same events and width as before, at an index shifted by the
change in length.  The index rescans those few windows and shifts the
rest, and every step is still rebuilt and traced by :func:`apply_move`.

Handle moves (slide, cancellation, finger pull-off) operate on
standard-form diagrams and live in the second half of this module.
Each ends in one rebuild, :func:`_after_handle_move`, which returns the
new diagram and its :func:`frontkit.standard.carried_components` map.
It is fed by origins: :func:`_reslot` names the old left port of each
new port (a slide doubles the circle's ports, a pull-off or a
cancellation deletes ports, and only cancellation removes a 1-handle),
and the word rewrite names the old event each new event copies, or None
for new material.  :func:`_carried_attachments` moves the 2-handles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import List, Optional, Set, Tuple, Union

from . import _kernel
from .errors import (
    BandObstructed,
    GeometricPassNotOne,
    MoveError,
    MoveNotApplicable,
    NotSteinFramed,
    OtherStrandsPresent,
)
from .front import Event, FrontDiagram, L, R, X, _is_site
from .satellite import cable_expand
from .standard import (
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
    carried_components,
    geometric_passes,
    tb_standard,
)

Diagram = Union[FrontDiagram, StandardFormDiagram]


@dataclass(frozen=True)
class Move:
    """One rewrite: a kind, an event-window position, and a level.

    ``data`` carries kind-specific parameters (rewrite direction,
    commuted levels, handle/attachment names) and is part of identity so
    scripts replay exactly.
    """

    kind: str
    index: int = 0
    level: int = 0
    data: Tuple = ()

    def __str__(self):
        extra = f" {self.data!r}" if self.data else ""
        return f"{self.kind}@{self.index}/{self.level}{extra}"


@dataclass(frozen=True)
class MoveScript:
    """An ordered, replayable list of moves with a provenance note."""

    moves: Tuple[Move, ...]
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))

    def replay(self, start):
        """Apply every move in order, returning the final object."""
        current = start
        for m in self.moves:
            current = apply_move(current, m)
        return current


def _rebuild(d: Diagram, events: Sequence[Event]) -> Diagram:
    if isinstance(d, StandardFormDiagram):
        return StandardFormDiagram(d.handles, d.left_ports, events, d.right_ports)
    return FrontDiagram(events)


def _n_initial(d: Diagram) -> int:
    return len(d.left_ports) if isinstance(d, StandardFormDiagram) else 0


def _width_at(d: Diagram, idx: int) -> int:
    """Slice width before ``d.events[idx]``, counted at C speed."""
    kinds = list(map(_KIND_OF, d.events[:idx]))
    return _n_initial(d) + 2 * (kinds.count("L") - kinds.count("R"))


# -- the matcher -----------------------------------------------------------

# Change of slice width across each event kind.
_DELTA = {"L": 2, "R": -2, "X": 0}

_R2_CONTRACTIONS = {
    # (kind, variant): window builder and replacement, keyed off base level i
    ("R2a", "up"): (lambda i: (L(i + 1), X(i), X(i + 1)), lambda i: (L(i),)),
    ("R2a", "down"): (lambda i: (L(i), X(i + 1), X(i)), lambda i: (L(i + 1),)),
    ("R2b", "up"): (lambda i: (X(i), X(i + 1), R(i)), lambda i: (R(i + 1),)),
    ("R2b", "down"): (lambda i: (X(i + 1), X(i), R(i + 1)), lambda i: (R(i),)),
}

# Moves that rewrite a window of at most three events, and all word moves.
_WINDOW_KINDS = frozenset(
    ("R1a", "R1b", "R2a", "R2b", "R3", "Slide", "Destabilize")
)
_WORD_KINDS = _WINDOW_KINDS | {"StabilizePlus", "StabilizeMinus"}

_ORDER = attrgetter("index", "level", "kind", "data")
_KIND_OF = itemgetter(0)


def _slide(k1: str, i: int, k2: str, j: int) -> Optional[Tuple[str, int, str, int]]:
    """Far commutation of the adjacent events ``k1(i)`` then ``k2(j)``.

    Returns ``(k2, j', k1, i')`` such that ``k2(j')`` then ``k1(i')``
    acts on the slice as the pair does, or None when the two share a
    strand.  In the slice after the first event, each event has a
    footprint from a top level to a bottom one: a first L or X spans
    i..i+1, a first R is the gap i-1|i it left behind; a second X or R
    spans j..j+1, a second L opens the gap j-1|j.  A second event wholly
    above the first keeps its level and shifts the first by its own
    width change; one wholly below is shifted back by the first's.
    Testing "above" first settles ``R(i) L(i)``, the one pair that fits
    both ways.
    """
    if (j - 1 if k2 == "L" else j + 1) < i:
        return k2, j, k1, i + _DELTA[k2]
    if j > (i - 1 if k1 == "R" else i + 1):
        return k2, j - _DELTA[k1], k1, i
    return None


def _scan(events, width: int, lo: int, hi: int, kinds,
          expand: bool = True) -> List[Move]:
    """Word moves of ``kinds`` whose window starts at an index in [lo, hi).

    One left-to-right pass over the ``(kind, level)`` pairs, matching
    the windows of the module docstring by comparing levels; ``width``
    is the slice width before ``events[lo]`` and is carried along (only
    R2 expansions read it).  ``expand=False`` leaves the R2 expansions
    out.  Stabilizations are not matched here.
    """
    r1a, r1b = "R1a" in kinds, "R1b" in kinds
    r2a, r2b, r3 = "R2a" in kinds, "R2b" in kinds, "R3" in kinds
    slide, destab = "Slide" in kinds, "Destabilize" in kinds
    r2a_expand, r2b_expand = r2a and expand, r2b and expand
    out: List[Move] = []
    add = out.append
    tail = events[lo : hi + 2] + ((None, 0), (None, 0))
    for idx, (k, l), (k2, l2), (k3, l3) in zip(
        range(lo, hi), tail, tail[1:], tail[2:]
    ):
        if k == "L":
            if r2a_expand:
                if l <= width:
                    add(Move("R2a", idx, l, ("expand", "up")))
                if l >= 2:
                    add(Move("R2a", idx, l - 1, ("expand", "down")))
            if r2a:
                if k2 == "X" and k3 == "X" and l3 == l:
                    if l2 == l - 1:
                        add(Move("R2a", idx, l2, ("contract", "up")))
                    elif l2 == l + 1:
                        add(Move("R2a", idx, l, ("contract", "down")))
            if k2 == "X" and k3 == "R" and l3 == l:
                if l2 == l - 1 and r1a:
                    add(Move("R1a", idx, l2))
                elif l2 == l + 1 and r1b:
                    add(Move("R1b", idx, l))
            elif k2 == "R" and destab:
                if l2 == l + 1:
                    add(Move("Destabilize", idx, l, ("down",)))
                elif l2 == l - 1:
                    add(Move("Destabilize", idx, l2, ("up",)))
            width += 2
        elif k == "R":
            if r2b_expand:
                if l >= 2:
                    add(Move("R2b", idx, l - 1, ("expand", "up")))
                if l <= width - 2:
                    add(Move("R2b", idx, l, ("expand", "down")))
            width -= 2
        elif k2 == "X" and l3 == l:
            if k3 == "X" and r3:
                if l2 == l + 1:
                    add(Move("R3", idx, l, ("up",)))
                elif l2 == l - 1:
                    add(Move("R3", idx, l2, ("down",)))
            elif k3 == "R" and r2b:
                if l2 == l + 1:
                    add(Move("R2b", idx, l, ("contract", "up")))
                elif l2 == l - 1:
                    add(Move("R2b", idx, l2, ("contract", "down")))
        if slide and k2 is not None:
            swapped = _slide(k, l, k2, l2)
            if swapped is not None:
                add(Move("Slide", idx, min(l, l2), swapped))
    return out


def enumerate_moves(d: Diagram, kinds: Optional[Sequence[str]] = None) -> List[Move]:
    """All applicable moves, ordered by (index, level, kind, data).

    ``kinds`` filters the result; by default Reidemeister moves, slides,
    destabilizations, and stabilizations at every site are reported.
    """
    allowed = _WORD_KINDS if kinds is None else set(kinds)
    out = _scan(d.events, _n_initial(d), 0, len(d.events), allowed)
    plus, minus = "StabilizePlus" in allowed, "StabilizeMinus" in allowed
    if plus or minus:
        for idx, here in enumerate(_kernel.slices(d.events, d.trace)):
            for lvl in range(1, len(here) + 1):
                if plus:
                    out.append(Move("StabilizePlus", idx, lvl))
                if minus:
                    out.append(Move("StabilizeMinus", idx, lvl))
    out.sort(key=_ORDER)
    return out


def _replacement(m: Move) -> Tuple[int, Tuple[Event, ...]]:
    """Window length and new events of a move found by :func:`_scan`."""
    i = m.level
    if m.kind in ("R1a", "R1b"):
        return 3, ()
    if m.kind == "Destabilize":
        return 2, ()
    if m.kind == "R3":
        if m.data == ("up",):
            return 3, (X(i + 1), X(i), X(i + 1))
        return 3, (X(i), X(i + 1), X(i))
    if m.kind == "Slide":
        k2, j2, k1, j1 = m.data
        return 2, (Event(k2, j2), Event(k1, j1))
    lhs, rhs = _R2_CONTRACTIONS[(m.kind, m.data[1])]
    return (3, rhs(i)) if m.data[0] == "contract" else (1, lhs(i))


def _splice(events: Tuple[Event, ...], m: Move) -> Tuple[Event, ...]:
    """``events`` rewritten by ``m``, a move :func:`_scan` found in them."""
    old_len, new = _replacement(m)
    return events[: m.index] + new + events[m.index + old_len :]


def _rewrite_word(d: Diagram, m: Move) -> Tuple[Event, ...]:
    """The event word ``apply_move(d, m)`` builds for a pattern move.

    ``m`` is checked by the same scan that :func:`enumerate_moves` runs,
    at its one window index, then spliced.  Nothing is traced, so a
    caller can look the word up before paying for the rebuild.  Empty
    ``data`` is accepted wherever the site alone determines the rewrite
    (every kind but R2, whose data picks the direction).
    """
    events = d.events
    idx = m.index
    if not 0 <= idx < len(events):
        raise MoveNotApplicable(
            f"{m.kind} index {idx} out of range 0..{len(events) - 1}"
        )
    # Only R2 expansions read the width.
    width = _width_at(d, idx) if m.data[:1] == ("expand",) else 0
    for found in _scan(events, width, idx, idx + 1, (m.kind,)):
        if found.level == m.level and (
            m.data == found.data or not m.data and m.kind not in ("R2a", "R2b")
        ):
            return _splice(events, found)
    raise MoveNotApplicable(f"no {m} site")


# Handle moves: the types of their data fields and the diagram they act on.
_HANDLE_MOVES = {
    "HandleSlide": ((int, int, int, int), (SteinHandlebody,)),
    "PullOff": ((object, int), (StandardFormDiagram, SteinHandlebody)),
    "CancelPair": ((object, int, int), (SteinHandlebody,)),
}


def apply_move(d, m: Move):
    """Apply one move.

    Raises MoveNotApplicable when the move is malformed (index, level or
    data of the wrong type, out of range, or of the wrong arity), does
    not fit the kind of diagram, or its site mismatches.  A handle move
    names its site in ``data``, so its index and level must be 0.
    """
    if not (
        isinstance(m.kind, str)
        and isinstance(m.index, int)
        and isinstance(m.level, int)
        and isinstance(m.data, tuple)
    ):
        raise MoveNotApplicable(f"malformed move {m!r}")
    if m.kind in _HANDLE_MOVES:
        types, hosts = _HANDLE_MOVES[m.kind]
        if len(m.data) != len(types) or not all(
            isinstance(x, t) for x, t in zip(m.data, types)
        ):
            names = ", ".join(t.__name__ for t in types)
            raise MoveNotApplicable(f"{m.kind} data must be ({names})")
        if m.index != 0 or m.level != 0:
            raise MoveNotApplicable(
                f"{m.kind} has index 0 and level 0, not {m.index}/{m.level}"
            )
        if not isinstance(d, hosts):
            raise MoveNotApplicable(
                f"{m.kind} does not act on a {type(d).__name__}"
            )
        if m.kind == "HandleSlide":
            k, circle, framing, site = m.data
            return handle_slide(d, k, TwoHandleAttachment(circle, framing), site)
        if m.kind == "PullOff":
            return pull_off(d, *m.data)
        hid, circle, framing = m.data
        return cancel_pair(d, hid, TwoHandleAttachment(circle, framing))
    if m.kind not in _WORD_KINDS:
        raise MoveNotApplicable(f"unknown move kind {m.kind!r}")
    if not isinstance(d, (FrontDiagram, StandardFormDiagram)):
        raise MoveNotApplicable(f"{m.kind} does not act on a {type(d).__name__}")
    if m.kind in ("StabilizePlus", "StabilizeMinus"):
        if m.data:
            raise MoveNotApplicable(f"no {m} site")
        sign = 1 if m.kind == "StabilizePlus" else -1
        slices = _kernel.slices(d.events, d.trace)
        return _stabilize_at(d, slices, m.index, m.level, sign)
    return _rebuild(d, _rewrite_word(d, m))


class MoveIndex(Sequence):
    """``enumerate_moves(d, kinds)`` for a diagram that changes one move
    at a time, kept current without rescanning the whole word.

    Each window index holds its moves as sorted ``(level, kind, data)``
    triples, which do not name the index, so the windows after a rewrite
    only shift.  ``len(index)`` and ``index[k]`` give the k-th move of
    the sorted list: ``rng.choice(index)`` draws exactly the move that
    ``rng.choice(enumerate_moves(d, kinds))`` draws.  :meth:`apply`
    rebuilds the diagram with :func:`apply_move`, so every step is
    validated by a full trace, then rescans the windows the move can
    have changed (see the module docstring).  Only window moves can be
    listed: a stabilization is a site, not a window, and a handle move
    rewrites more than the word.
    """

    def __init__(self, d: Diagram, kinds: Sequence[str]):
        self._kinds = frozenset(kinds)
        if not self._kinds <= _WINDOW_KINDS:
            others = ", ".join(sorted(self._kinds - _WINDOW_KINDS))
            raise MoveError(f"a MoveIndex lists window moves, not {others}")
        self.diagram = d
        self._groups = _grouped(enumerate_moves(d, self._kinds), 0, len(d.events))
        self._ends = list(accumulate(map(len, self._groups)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k: int) -> Move:
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"move {k} out of range for {len(self)} moves")
        idx = bisect_right(self._ends, k)
        group = self._groups[idx]
        level, kind, data = group[k - self._ends[idx] + len(group)]
        return Move(kind, idx, level, data)

    def apply(self, m: Move) -> Diagram:
        """Apply ``m``, a move of one of the listed kinds, to the held
        diagram and return the result, which the index then lists."""
        if m.kind not in self._kinds:
            raise MoveNotApplicable(f"{m.kind} is not a kind this index lists")
        old = self.diagram
        new = apply_move(old, m)
        # The rewrite replaced at most 3 events at m.index, so old windows
        # from hi on are the new windows from hi + shift on, unchanged.
        shift = len(new.events) - len(old.events)
        lo = max(m.index - 2, 0)
        hi = min(m.index + 3, len(old.events))
        found = _scan(new.events, _width_at(new, lo), lo, hi + shift, self._kinds)
        self._groups[lo:hi] = _grouped(found, lo, hi + shift)
        self._ends = list(accumulate(map(len, self._groups)))
        self.diagram = new
        return new


def _grouped(moves: List[Move], lo: int, hi: int) -> List[List[Tuple]]:
    """The moves of windows lo..hi-1, one sorted list of ``(level, kind,
    data)`` per window."""
    groups: List[List[Tuple]] = [[] for _ in range(lo, hi)]
    for m in moves:
        groups[m.index - lo].append((m.level, m.kind, m.data))
    for group in groups:
        group.sort()
    return groups


def _strand_at(slices, idx: int, lvl: int) -> int:
    """The strand at level ``lvl`` of slice ``idx``, or MoveNotApplicable."""
    if not (0 <= idx < len(slices) and 1 <= lvl <= len(slices[idx])):
        raise MoveNotApplicable(f"no strand at {idx}/{lvl}")
    return slices[idx][lvl - 1]


def _stabilize_at(d: Diagram, slices, idx: int, lvl: int, sign: int) -> Diagram:
    """Insert a zigzag on the strand at (idx, lvl); Δtb=-1, Δrot=sign.

    ``slices`` is ``_kernel.slices(d.events, d.trace)``.
    """
    eps = d.trace.strand_orient[_strand_at(slices, idx, lvl)]
    # Of the two zigzag shapes on a strand of direction eps, one raises
    # rotation and the other lowers it (both cusps point the same way).
    if sign * eps > 0:
        zigzag = (L(lvl + 1), R(lvl))
    else:
        zigzag = (L(lvl), R(lvl + 1))
    events = list(d.events)
    events[idx:idx] = list(zigzag)
    return _rebuild(d, events)


def stabilize(
    d: Diagram,
    c: Optional[int] = None,
    sign: int = 1,
    site: Optional[Tuple[int, int]] = None,
) -> Diagram:
    """Stabilize component ``c``: tb drops by 1, rotation moves by ``sign``.

    ``site`` is an (event index, level) pair on the component; by default
    the first such site is used.
    """
    if sign not in (1, -1):
        raise MoveNotApplicable(f"stabilization sign must be ±1, got {sign}")
    tr = d.trace
    if c is None:
        if tr.n_components != 1:
            raise MoveNotApplicable("ambiguous component for stabilization")
        c = 0
    comp = tr.strand_component
    slices = _kernel.slices(d.events, tr)
    if site is None:
        site = next(
            (
                (idx, lvl)
                for idx, here in enumerate(slices)
                for lvl, s in enumerate(here, 1)
                if comp[s] == c
            ),
            None,
        )
        if site is None:
            raise MoveNotApplicable(f"component {c} has no visible strand")
    elif not _is_site(site):
        raise MoveNotApplicable(f"site {site!r} is not an (index, level) pair")
    elif comp[_strand_at(slices, site[0], site[1])] != c:
        raise MoveNotApplicable(f"site {site} is not on component {c}")
    return _stabilize_at(d, slices, site[0], site[1], sign)


# -- handle moves on standard-form diagrams ---------------------------------

def _reslot(d: StandardFormDiagram, width, drop=None):
    """The 1-handles, the left and right ports after a handle move, and
    for each new left port the position of the old left port it came from.

    Port ``p`` becomes ``width(p)`` adjacent slots of its handle (2 where
    a slide doubles the circle, 0 where the move deletes the port), and
    each handle renumbers its slots from 1.  Every handle but ``drop``
    stays, even with no slot left: only cancellation removes one.
    """
    handles, slots = [], {}
    for hd in d.handles:
        n = 0
        for p in hd.ports():
            slots[p] = [(hd.id, n + j) for j in range(1, width(p) + 1)]
            n += len(slots[p])
        if hd.id != drop:
            handles.append(OneHandle(hd.id, n))
    left = [q for p in d.left_ports for q in slots[p]]
    right = [q for p in d.right_ports for q in slots[p]]
    port_origin = [pos for pos, p in enumerate(d.left_ports) for _q in slots[p]]
    return handles, left, right, port_origin


def _after_handle_move(d: StandardFormDiagram, reslotted, events, event_origin):
    """The diagram a handle move builds from ``d``, and the
    :func:`carried_components` map from ``d`` to it.

    ``reslotted`` is the :func:`_reslot` result and ``events`` the new
    word; ``event_origin[j]`` is the index of the old event that new
    event ``j`` copies, so that its upper strand is a piece of the old
    event's, or None for new material.  The diagram is a closed front
    once the move has removed the last 1-handle of ``d``.
    """
    handles, left, right, port_origin = reslotted
    if handles or not d.handles:
        d_new = StandardFormDiagram(handles, left, events, right)
    else:
        d_new = FrontDiagram(events)
    old, new = d.trace.event_strands, d_new.trace.event_strands
    pairs = [(pos, j) for j, pos in enumerate(port_origin)]
    pairs += [
        (old[i][0], new[j][0]) for j, i in enumerate(event_origin) if i is not None
    ]
    return d_new, carried_components(d, d_new, pairs)


def _carried_attachments(h: SteinHandlebody, carried, drop=None):
    """The attachments of ``h`` but ``drop``, each moved to the one new
    component that ``carried`` maps its circle to."""
    return [
        TwoHandleAttachment(*carried[b.component], b.framing)
        for b in h.attachments
        if b != drop
    ]


def band_sites(h: SteinHandlebody, k: int, a: TwoHandleAttachment) -> list:
    """Deterministic list of band locations for handle_slide.

    Each entry is an (event index, level) pair in the doubled diagram
    where the sliding component runs adjacent to one push-off copy of
    the attaching circle.  Exposed so scripts can name sites stably.
    """
    return _slide_setup(h, k, a)[-1]


def clean_band_sites(h: SteinHandlebody, k: int, a: TwoHandleAttachment) -> List[int]:
    """Indices into :func:`band_sites` that keep ``k``'s fingers intact.

    A band attached to a piece of ``k`` that is cusp-connected to a left
    port would thread that finger through the push-off, blocking later
    pull-offs; this filter keeps only sites on port-free pieces.
    """
    return _clean_sites(_slide_setup(h, k, a))


def _clean_sites(setup) -> List[int]:
    """:func:`clean_band_sites` of a :func:`_slide_setup` result."""
    d2, _reslotted, _origin, comp_k, sites = setup
    tr = d2.trace
    piece = _cusp_pieces(d2)
    slices = _kernel.slices(d2.events, tr)
    out = []
    for idx2, (pos, lvl) in enumerate(sites):
        s1, s2 = slices[pos][lvl - 1], slices[pos][lvl]
        ks = s1 if tr.strand_component[s1] == comp_k else s2
        # A piece's label is its least strand id, and the left-port
        # strands are ids 0..len(left_ports)-1.
        if piece[ks] >= len(d2.left_ports):
            out.append(idx2)
    return out


def _cusp_pieces(d: StandardFormDiagram) -> List[int]:
    """A label per strand id: two strands share one exactly when a chain
    of cusps joins them without running through a handle.

    One union-find pass over the cusps the trace recorded; each label is
    the least strand id of its piece.
    """
    tr = d.trace
    label = list(range(tr.n_strands))

    def root(s: int) -> int:
        while label[s] != s:
            label[s] = label[label[s]]
            s = label[s]
        return s

    for (kind, _level), (u, v) in zip(d.events, tr.event_strands):
        if kind != "X":
            ru, rv = root(u), root(v)
            label[max(ru, rv)] = min(ru, rv)
    return [root(s) for s in range(tr.n_strands)]


def _slide_setup(h: SteinHandlebody, k: int, a: TwoHandleAttachment):
    d = h.diagram
    if not 0 <= k < d.n_components or not 0 <= a.component < d.n_components:
        raise MoveNotApplicable("no such component")
    if a.component == k:
        raise MoveNotApplicable("cannot slide a component over itself")
    if a not in h.attachments:
        raise MoveNotApplicable("attachment is not part of the handlebody")
    tb_c = tb_standard(d, a.component)
    if a.framing != tb_c - 1:
        raise NotSteinFramed(
            f"attachment framing {a.framing} is not tb - 1 = {tb_c - 1}"
        )
    tr = d.trace
    wide = {s for s in range(tr.n_strands) if tr.strand_component[s] == a.component}
    exp = cable_expand(d, 2, wide)
    if exp.first_cusp_index is None:
        raise BandObstructed(
            "attaching circle has no left cusp to carry the framing kink"
        )
    # Framing clasp: with the companion crossing already present this
    # makes three half-twists between the copies, so the push-off links
    # the circle tb - 1 times (contact framing minus one).
    o = exp.first_cusp_offset
    exp.splice(exp.first_cusp_index, [X(o + 1), X(o + 1)], ("clasp",))

    # Split every port the circle passes into two adjacent subslots.
    owner = dict(zip(d.left_ports, tr.strand_component))
    reslotted = _reslot(d, lambda p: 2 if owner[p] == a.component else 1)
    origin = [
        org[1] if org[0] in ("cusp", "crossing") else None for org in exp.origins
    ]
    d2, carried = _after_handle_move(d, reslotted, exp.events, origin)
    (comp_k,), copies = carried[k], carried[a.component]
    tr2 = d2.trace
    sites = []
    for pos, slc in enumerate(_kernel.slices(d2.events, tr2)):
        for lvl in range(1, len(slc)):
            pair = {tr2.strand_component[slc[lvl - 1]],
                    tr2.strand_component[slc[lvl]]}
            if comp_k in pair and (pair - {comp_k}) & copies:
                sites.append((pos, lvl))
    return d2, reslotted, origin, comp_k, sites


def handle_slide(
    h: SteinHandlebody,
    k: int,
    a: TwoHandleAttachment,
    site: int = 0,
) -> SteinHandlebody:
    """Replace component ``k`` by its band sum with a Stein-framed
    push-off of attachment ``a``'s circle.

    The push-off is the contact parallel copy with one extra negative
    kink (linking the circle tb - 1 times); the band is a cusp pair
    splicing ``k`` to the copy at the ``site``-th location of
    :func:`band_sites`.  All invariants of the result are recomputed
    from the rewritten diagram.
    """
    return _band_sum(h, k, a, _slide_setup(h, k, a), site)


def _band_sum(h: SteinHandlebody, k: int, a: TwoHandleAttachment, setup,
              site: int) -> SteinHandlebody:
    """:func:`handle_slide` from a :func:`_slide_setup` result, which
    it leaves untouched so that another site can reuse it."""
    d2, reslotted, origin, _comp_k, sites = setup
    if not sites:
        raise BandObstructed("no band location between the two curves")
    if not 0 <= site < len(sites):
        raise BandObstructed(f"band site {site} of {len(sites)} does not exist")
    pos, lvl = sites[site]
    d3, carried = _after_handle_move(
        h.diagram,
        reslotted,
        d2.events[:pos] + (R(lvl), L(lvl)) + d2.events[pos:],
        origin[:pos] + [None, None] + origin[pos:],
    )
    # The circle went to its two copies; the band merged one into k.
    carried[a.component] -= carried[k]
    if len(carried[a.component]) != 1:
        raise BandObstructed("band did not merge exactly one push-off copy")
    return SteinHandlebody(d3, _carried_attachments(h, carried))


def _split_word(d: StandardFormDiagram, doomed: Set[int], mixed: str):
    """Separate a word into events on surviving strands (levels
    compressed) and events entirely on doomed strands (finger-relative
    levels).  ``mixed`` says what to do with crossings between the two
    groups: "drop" them or "error" out.  Also returns the old index of
    each surviving event.
    """
    tr = d.trace
    main: List[Event] = []
    inner: List[Event] = []
    origin: List[int] = []
    # gone[r]: whether the strand on row r of the current slice is
    # doomed, so an event's level among its own group is one count.
    gone = [s in doomed for s in tr.initial_strands]
    for idx, ((kind, i), (a, b)) in enumerate(zip(d.events, tr.event_strands)):
        hit = a in doomed
        if hit != (b in doomed):
            if mixed == "error" or kind != "X":
                raise MoveNotApplicable(
                    f"event {idx} ties the finger to an outside strand"
                )
            # dropped: an inter-component crossing erased with the circle
        elif hit:
            inner.append(Event(kind, 1 + gone[: i - 1].count(True)))
        else:
            main.append(Event(kind, 1 + gone[: i - 1].count(False)))
            origin.append(idx)
        if kind == "L":
            gone[i - 1 : i - 1] = (hit, hit)
        elif kind == "R":
            del gone[i - 1 : i + 1]
        else:
            gone[i - 1], gone[i] = gone[i], gone[i - 1]
    return main, inner, origin


def pull_off(d, hid, slot: int):
    """Pull a finger of one component back through a 1-handle.

    The component must pass through adjacent slots ``slot`` and
    ``slot + 1`` of handle ``hid`` with opposite signs, with the piece
    between the two passes (the finger) hanging on the left side of the
    handle and touching nothing outside itself.  The finger is carried
    through the handle: both ports disappear and the finger re-grows
    off the right edge of the strip, preserving every event shape.
    This is an isotopy: tb, rotation, and homology are unchanged, and
    the handle stays even when it is left with no slot.
    Accepts a StandardFormDiagram or a SteinHandlebody.
    """
    if isinstance(d, SteinHandlebody):
        new_d, carried = _pull_off(d.diagram, hid, slot)
        # An isotopy carries each component to one component.
        return SteinHandlebody(new_d, _carried_attachments(d, carried))
    return _pull_off(d, hid, slot)[0]


def _pull_off(d: StandardFormDiagram, hid, slot: int):
    if not isinstance(slot, int):
        raise MoveNotApplicable(f"slot {slot!r} is not an int")
    pa, pb = (hid, slot), (hid, slot + 1)
    for p in (pa, pb):
        if p not in d.left_ports:
            raise MoveNotApplicable(f"no port {p!r}")
    tr = d.trace
    la, lb = d.left_ports.index(pa), d.left_ports.index(pb)
    ra, rb = d.right_ports.index(pa), d.right_ports.index(pb)
    if abs(la - lb) != 1 or abs(ra - rb) != 1:
        raise MoveNotApplicable("handle slots are not adjacent at the edges")
    final = tr.final_strands
    orient = tr.strand_orient
    if orient[final[ra]] == orient[final[rb]]:
        raise MoveNotApplicable("the two passes run the same way")
    # The finger: everything cusp-connected to the left-port strands
    # without going back through any handle.
    piece = _cusp_pieces(d)
    if piece[lb] != piece[la]:
        raise MoveNotApplicable("the two passes are not joined by a finger")
    finger = {s for s, p in enumerate(piece) if p == piece[la]}
    # No finger strand may reach any other port.
    edge_strands = set(range(len(d.left_ports))) | set(final)
    if finger & edge_strands != {la, lb}:
        raise MoveNotApplicable("the finger is threaded through a handle")
    main, inner, origin = _split_word(d, finger, mixed="error")
    reslotted = _reslot(d, lambda p: 0 if p in (pa, pb) else 1)
    # The surviving strands that used to end at the removed right ports
    # now continue into the re-grown finger at the end of the word.
    base = min(
        1 + sum(1 for s in final[:pos] if s not in finger) for pos in (ra, rb)
    )
    appendix = [Event(ev.kind, base - 1 + ev.level) for ev in inner]
    return _after_handle_move(
        d, reslotted, main + appendix, origin + [None] * len(appendix)
    )


def cancel_pair(h: SteinHandlebody, hid, a: TwoHandleAttachment):
    """Erase a cancelling 1-/2-handle pair.

    The attaching circle of ``a`` must run through handle ``hid``
    geometrically exactly once, with nothing else through the handle.
    Both the handle and the entire circle are erased; crossings between
    the circle and survivors vanish with it, which changes nothing the
    survivors can measure internally.  Returns a plain closed front
    when the last 1-handle goes away.
    """
    d = h.diagram
    if a not in h.attachments:
        raise MoveNotApplicable("attachment is not part of the handlebody")
    if not any(x.id == hid for x in d.handles):
        raise MoveNotApplicable(f"no handle {hid!r}")
    c = a.component
    passes = geometric_passes(d, c, hid)
    if passes != 1:
        raise GeometricPassNotOne(
            f"circle passes handle {hid!r} {passes} times, need exactly 1"
        )
    tr = d.trace
    owner = dict(zip(d.left_ports, tr.strand_component))
    for p, k in owner.items():
        if p[0] == hid and k != c:
            raise OtherStrandsPresent(f"component {k} also runs through {hid!r}")
    doomed = {s for s in range(tr.n_strands) if tr.strand_component[s] == c}
    main, _inner, origin = _split_word(d, doomed, mixed="drop")
    d_new, carried = _after_handle_move(
        d, _reslot(d, lambda p: 0 if owner[p] == c else 1, drop=hid), main, origin
    )
    new_attachments = _carried_attachments(h, carried, drop=a)
    if isinstance(d_new, FrontDiagram):
        if new_attachments:
            raise MoveNotApplicable(
                "2-handles remain but no 1-handles do; nothing to cancel into"
            )
        return d_new
    return SteinHandlebody(d_new, new_attachments)
