"""Localized rewrites of front words with exact invariant bookkeeping.

The word-level moves are the Legendrian Reidemeister moves in event
form, plus far-commutation of independent adjacent events ("Slide") and
stabilization/destabilization.  The window moves are the rows of
``_PATTERNS``, at levels counted from a base level i:

* R1a: [L(i+1), X(i), R(i+1)] -> []
* R1b: [L(i), X(i+1), R(i)] -> []
* R2a contract up: [L(i+1), X(i), X(i+1)] -> [L(i)]
* R2a contract down: [L(i), X(i+1), X(i)] -> [L(i+1)]
* R2b contract up: [X(i), X(i+1), R(i)] -> [R(i+1)]
* R2b contract down: [X(i+1), X(i), R(i+1)] -> [R(i)]
* R3 up: [X(i), X(i+1), X(i)] -> [X(i+1), X(i), X(i+1)]
* R3 down: [X(i+1), X(i), X(i+1)] -> [X(i), X(i+1), X(i)]
* Destabilize up: [L(i+1), R(i)] -> []
* Destabilize down: [L(i), R(i+1)] -> []

Each R2 row run backwards is an expansion (data ``("expand", ...)``),
and a stabilization inserts the old window of a Destabilize row.  Every
move but a (de)stabilization preserves tb, rotation, component count,
and (in a strip) the homology vector, because it replaces a pattern by
one with the same boundary behaviour, signed crossing sum, and cusp
imbalance.  A pair of crossings [X(i), X(i)] is a clasp, not a bigon --
both crossings carry the same sign in a front -- so it is never a
reduction site.

One matcher finds them all: :func:`_window_group` matches a window of
three events against a map built from the rows and decides
far-commutation in closed form (:func:`_slide`).  A window's moves are
a pure function of its events and, when a cusp opens it, of whether its
R2 expansion fits the slice.  A single left-to-right scan over the
windows of the word (:func:`_scan`) carries the slice width, keys each
window by exactly that, and looks it up in one memoised table per kind
set, calling the matcher only for a key it has not met; it reports the
width before each window and after the last along with the moves.
:func:`apply_move` and :func:`enumerate_moves` share the table of
``_WINDOW_KINDS`` (enumeration with fewer kinds, or a
:class:`MoveIndex`, uses the table of the kinds it lists), and the
search keeps its own table, by coded window, filled from the matcher
with the R2 expansions left out.  The tables are unbounded, as the
:func:`_rewrite` memo is, since the levels and widths in use bound
their keys.  The scan lists the moves of each window index as one
sorted group of ``(level, kind, data)`` triples, which do not name the
index.  The groups are shared by every scan that meets their window,
and windows with the same moves (every window with none, say) share one
list, so no caller may change one.  :func:`enumerate_moves` runs the
scan over the whole word and turns the groups into moves, copying a
group before it adds the stabilization sites.  :func:`apply_move` scans
the one window of its move, and :func:`_match` picks the triple the
move names out of that group, so a move applies exactly when
enumeration lists it; :func:`_rewrite` turns a triple into its window
length and new events from the same rows.  Stabilization sites are
every (position, level) of the word, up to the slice widths that the
scan reports.

A word rewritten by one move gets its groups from the groups of the
word before it.  A move at ``idx`` rewrites ``old_len`` events, at most
three, into ``new_len``, and every move keeps the slice width on both
sides of its window, so only the old windows starting in ``[idx - 2,
idx + old_len)`` read a rewritten event, and the new windows starting
in ``[idx - 2, idx + new_len)`` take their place (:func:`_rescanned`);
the later windows see the same events and width as before, at an index
shifted by ``new_len - old_len``, and their index-free groups are the
same lists.  Two callers derive move lists this way: a walk keeps its
word and groups in a :class:`MoveIndex` instead of enumerating every
step, and steps on a site it draws from the lists it holds, splicing
the rescanned windows into them in place; the search
(:func:`frontkit.explore.bfs_max_tb`) builds each child's groups as a
new list from its parent's, since siblings share them, and looks the
same windows up by their coded events.

The index checks each step on the window it rewrote: outside the window
the word is the same, so when the old and the new window, each run from
the whole slice before it, have equal
:func:`frontkit._kernel.window_summary`, every component keeps its tb,
its |rotation| and its homology up to sign, and the new word is valid.
Only a step the window does not prove is rebuilt and traced at once
(a new window that leaves the slice is such a step); otherwise the
diagram is built when it is asked for.  The proof (:func:`_same_window`)
is a pure function of the two windows and the slice width, memoised
for every caller as :func:`_rewrite` is: the keys are bounded by the
window rows, the levels and the widths in use, and a key holds the
actual new window, so a wrong rewrite is a new key and is checked
afresh.  The index also keeps the slice width before every event and
after the last, as its first scan reports them; a step keeps the widths
on both sides of its window, so its rescan, which reads the width at
the first rescanned window from the held list, reports every width
that can change, and the step splices them in.

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
from functools import lru_cache
from itertools import accumulate, islice
from typing import List, Optional, Set, Tuple

from . import _kernel
from ._kernel import WIDTH_CHANGE
from .errors import (
    BandObstructed,
    DiagramError,
    GeometricPassNotOne,
    MoveError,
    MoveNotApplicable,
    NotSteinFramed,
    OtherStrandsPresent,
)
from .front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    _Diagram,
    _is_int,
    _is_site,
    _require_diagram,
)
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
    """An ordered, replayable list of moves with a provenance note.

    Raises MoveNotApplicable unless ``moves`` is an iterable of
    well-formed moves (see :func:`apply_move`), and MoveError unless
    ``note`` is a str that ``str.splitlines`` keeps as one line, so a
    printed script carries it on its first line."""

    moves: Tuple[Move, ...]
    note: str = ""

    def __post_init__(self):
        note = self.note
        if not isinstance(note, str) or note.splitlines() not in ([], [note]):
            raise MoveError(f"note {note!r} is not one line of text")
        try:
            moves = tuple(self.moves)
        except TypeError:
            raise MoveNotApplicable(f"moves {self.moves!r} are not a sequence") from None
        for m in moves:
            _require_move(m)
        object.__setattr__(self, "moves", moves)

    def replay(self, start):
        """Apply every move in order, returning the final object."""
        current = start
        for m in self.moves:
            current = apply_move(current, m)
        return current


def _rebuild(d: _Diagram, events: Sequence[Event]) -> _Diagram:
    if isinstance(d, StandardFormDiagram):
        return StandardFormDiagram(d.handles, d.left_ports, events, d.right_ports)
    return FrontDiagram(events)


# -- the matcher -----------------------------------------------------------

# The window moves at base level i = 0: (kind, data, old window, new
# window).  An event at level v here is at level i + v in a word.
_PATTERNS = (
    ("R1a", (), (L(1), X(0), R(1)), ()),
    ("R1b", (), (L(0), X(1), R(0)), ()),
    ("R2a", ("contract", "up"), (L(1), X(0), X(1)), (L(0),)),
    ("R2a", ("contract", "down"), (L(0), X(1), X(0)), (L(1),)),
    ("R2b", ("contract", "up"), (X(0), X(1), R(0)), (R(1),)),
    ("R2b", ("contract", "down"), (X(1), X(0), R(1)), (R(0),)),
    ("R3", ("up",), (X(0), X(1), X(0)), (X(1), X(0), X(1))),
    ("R3", ("down",), (X(1), X(0), X(1)), (X(0), X(1), X(0))),
    ("Destabilize", ("up",), (L(1), R(0)), ()),
    ("Destabilize", ("down",), (L(0), R(1)), ()),
)


def _tables():
    """``_WINDOWS[(kind, data)]``: the ``(old, new)`` windows of a move,
    an R2 expansion being its contraction run backwards.
    ``_MATCHES[(k1, k2, l2 - l1, k3 or None)]``: the ``(l1, kind, data)``
    of each row whose old window is ``k1(l1) k2(l2)``, then ``k3(l1)``."""
    windows, matches = {}, {}
    for kind, data, old, new in _PATTERNS:
        windows[kind, data] = old, new
        if data[:1] == ("contract",):
            windows[kind, ("expand",) + data[1:]] = new, old
        (k1, l1), (k2, l2), *rest = old
        # The two rules that :func:`_scan` builds its lookup key from.
        assert len(old) == (2 if k2 == "R" else 3), kind
        assert not rest or rest[0].level == l1, kind
        key = (k1, k2, l2 - l1, rest[0].kind if rest else None)
        matches.setdefault(key, []).append((l1, kind, data))
    return windows, matches


_WINDOWS, _MATCHES = _tables()

# Moves that rewrite a window of at most three events, and all word moves.
_WINDOW_KINDS = frozenset(kind for kind, *_ in _PATTERNS) | {"Slide"}
_WORD_KINDS = _WINDOW_KINDS | {"StabilizePlus", "StabilizeMinus"}

# The kinds whose data, not the site alone, picks the rewrite.
_DIRECTED = frozenset(kind for kind, data in _WINDOWS if "expand" in data)


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
        return k2, j, k1, i + WIDTH_CHANGE[k2]
    if j > (i - 1 if k1 == "R" else i + 1):
        return k2, j - WIDTH_CHANGE[k1], k1, i
    return None


# The group of every window :func:`_scan` has met, one table per kind
# set: unbounded, as ``_rewrite`` is, since the keys are bounded by the
# levels and widths in use.
_GROUPS: dict = {}

# Every group built so far, by its triples: windows with the same moves,
# such as every window with none, share one list, so the tables stay
# small.
_SAME_MOVES: dict = {}

# The two events past the end of a word, so every window has three.
_PAD = ((None, 0), (None, 0))


def _scan(
    events, width: int, lo: int, hi: int, kinds: frozenset
) -> Tuple[List[List[Tuple]], List[int]]:
    """Word moves of ``kinds`` at window indices lo..hi-1, one sorted
    list of ``(level, kind, data)`` triples per window, and the slice
    widths before each of those windows and after the last:
    ``_kernel.widths(events, n)[lo : hi + 1]`` of a word that starts on
    ``n`` strands.

    One left-to-right pass that looks each window up in the memoised
    table of the kind set ``kinds``, and builds the group of a window it
    has not met with :func:`_window_group`.  ``width`` is the slice
    width before ``events[lo]`` and is carried along, and the pass
    reports it; only the R2 expansions read it, so the key of a window
    that opens with a cusp also holds whether the up (``L``) or down
    (``R``) expansion fits.  Stabilizations are not matched here.  The
    groups are shared by every scan that meets their window: no caller
    may change one.
    """
    table = _GROUPS.get(kinds)
    if table is None:
        table = _GROUPS[kinds] = {}
    get = table.get
    groups: List[List[Tuple]] = []
    add = groups.append
    widths = [width]
    carry = widths.append
    # One copy of the few events a step rescans from the list a MoveIndex
    # holds.
    tail = tuple(events[lo : hi + 2]) + _PAD
    for window in zip(tail[: hi - lo], tail[1:], tail[2:]):
        k, l = window[0]
        if k == "X":
            key = window
        elif k == "L":
            key = window, l <= width
            width += 2
        else:
            key = window, l <= width - 2
            width -= 2
        group = get(key)
        if group is None:
            # ``width`` is already the width after the window's first event.
            group = table[key] = _window_group(window, width - WIDTH_CHANGE[k], kinds)
        add(group)
        carry(width)
    return groups, widths


def _window_group(window, width: Optional[int], kinds) -> List[Tuple]:
    """The sorted ``(level, kind, data)`` triples of ``kinds`` at the
    three events ``window`` (padded past the end of the word), run from
    a slice of ``width`` strands: the :func:`_scan` of one window.  With
    ``width`` None the R2 expansions are left out, as the search's coded
    table builds its groups (:mod:`frontkit.explore`)."""
    (k, l), (k2, l2), (k3, l3) = window
    group: List[Tuple] = []
    add = group.append
    # A three-event row ends on its first level, and only a two-event
    # row has a right cusp second (both checked by ``_tables``).
    if k2 == "R" or l3 == l:
        for offset, kind, data in _MATCHES.get(
            (k, k2, l2 - l, None if k2 == "R" else k3), ()
        ):
            if kind in kinds:
                add((l - offset, kind, data))
    if width is not None:
        if k == "L" and "R2a" in kinds:
            if l <= width:
                add((l, "R2a", ("expand", "up")))
            if l >= 2:
                add((l - 1, "R2a", ("expand", "down")))
        elif k == "R" and "R2b" in kinds:
            if l >= 2:
                add((l - 1, "R2b", ("expand", "up")))
            if l <= width - 2:
                add((l, "R2b", ("expand", "down")))
    if "Slide" in kinds and k2 is not None:
        swapped = _slide(k, l, k2, l2)
        if swapped is not None:
            add((min(l, l2), "Slide", swapped))
    group.sort()
    return _SAME_MOVES.setdefault(tuple(group), group)


def _rescanned(idx: int, old_len: int, n: int) -> Tuple[int, int]:
    """``(lo, hi)``: the windows ``lo..hi-1`` of a word of ``n`` windows
    that read an event of the ``old_len`` a window move at ``idx``
    rewrites.  The new windows from ``lo`` up to ``hi`` plus the change
    in length replace them (see the module docstring)."""
    return max(idx - 2, 0), min(idx + old_len, n)


def _kind_set(kinds, allowed: frozenset, lister: str) -> frozenset:
    """``kinds`` as a set, or MoveError when it is a str, is not a
    collection, or names a kind outside ``allowed``; ``lister`` names
    what lists ``allowed``."""
    if isinstance(kinds, str):
        raise MoveError(f"kinds are a collection of kinds, not the str {kinds!r}")
    try:
        out = frozenset(kinds)
    except TypeError:
        raise MoveError(f"kinds are a collection of kinds, not {kinds!r}") from None
    if not out <= allowed:
        others = ", ".join(sorted(map(repr, out - allowed)))
        raise MoveError(f"{lister}, not {others}")
    return out


def enumerate_moves(d: _Diagram, kinds: Optional[Sequence[str]] = None) -> List[Move]:
    """All applicable moves, ordered by (index, level, kind, data).

    ``kinds`` filters the result; by default Reidemeister moves, slides,
    destabilizations, and stabilizations at every site are reported.
    Raises MoveError when ``kinds`` is a str or names a kind that is not
    a word move.
    """
    _require_diagram(d)
    allowed = (
        _WORD_KINDS if kinds is None
        else _kind_set(kinds, _WORD_KINDS, "enumerate_moves lists word moves")
    )
    groups, widths = _scan(
        d.events, len(d.left_ports), 0, len(d.events), allowed & _WINDOW_KINDS
    )
    stabilizations = [
        kind for kind in ("StabilizePlus", "StabilizeMinus") if kind in allowed
    ]
    if stabilizations:
        # New lists: the scanned groups are shared, never changed.
        groups = [
            sorted(group + [
                (lvl, kind, ()) for lvl in range(1, width + 1)
                for kind in stabilizations
            ])
            # The last slice holds the sites after the last event.
            for group, width in zip(groups + [[]], widths)
        ]
    return [
        Move(kind, idx, level, data)
        for idx, group in enumerate(groups)
        for level, kind, data in group
    ]


@lru_cache(maxsize=None)
def _rewrite(triple: Tuple) -> Tuple[int, Tuple[Event, ...]]:
    """The window length and new events of the window move that the
    ``(level, kind, data)`` triple names, at any index; memoised for
    every caller, since the keys are bounded by the levels in use."""
    i, kind, data = triple
    if kind == "Slide":
        k2, j2, k1, j1 = data
        return 2, (Event(k2, j2), Event(k1, j1))
    old, new = _WINDOWS[kind, data]
    return len(old), tuple(Event(k, i + v) for k, v in new)


def _match(group: List[Tuple], m: Move) -> Tuple:
    """The triple that the pattern move ``m`` names in ``group``, the
    :func:`_scan` group of its window, or MoveNotApplicable.  Empty
    ``data`` is accepted wherever the site alone determines the rewrite
    (every kind but R2, whose data picks the direction)."""
    for triple in group:
        level, kind, data = triple
        if kind == m.kind and level == m.level and (
            m.data == data or not m.data and kind not in _DIRECTED
        ):
            return triple
    raise MoveNotApplicable(f"no {m} site")


# Handle moves: the names of their data fields.  Each move checks its
# host and the values of its own fields.
_HANDLE_MOVES = {
    "HandleSlide": ("k", "circle", "framing", "site"),
    "PullOff": ("hid", "slot"),
    "CancelPair": ("hid", "circle", "framing"),
}


def _require_move(m) -> None:
    """Raise MoveNotApplicable unless ``m`` is a :class:`Move` with a str
    kind, int index and level, and tuple data."""
    if not (
        isinstance(m, Move)
        and isinstance(m.kind, str)
        and _is_int(m.index)
        and _is_int(m.level)
        and isinstance(m.data, tuple)
    ):
        raise MoveNotApplicable(f"malformed move {m!r}")


def apply_move(d, m: Move):
    """Apply one move.

    Raises MoveNotApplicable when the move is malformed (not a Move, or
    index, level or data of the wrong type, out of range, or of the
    wrong arity), does not fit the kind of diagram, or its site
    mismatches.  A handle move names its site in ``data``, so its index
    and level must be 0.
    """
    _require_move(m)
    if m.kind in _HANDLE_MOVES:
        fields = _HANDLE_MOVES[m.kind]
        if len(m.data) != len(fields):
            raise MoveNotApplicable(f"{m.kind} data must be ({', '.join(fields)})")
        if m.index != 0 or m.level != 0:
            raise MoveNotApplicable(
                f"{m.kind} has index 0 and level 0, not {m.index}/{m.level}"
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
    if not isinstance(d, _Diagram):
        raise MoveNotApplicable(f"{m.kind} does not act on a {type(d).__name__}")
    if m.kind in ("StabilizePlus", "StabilizeMinus"):
        if m.data:
            raise MoveNotApplicable(f"no {m} site")
        sign = 1 if m.kind == "StabilizePlus" else -1
        return _stabilize_at(d, m.index, m.level, _strand_at(d, m.index, m.level), sign)
    events, idx = d.events, m.index
    if not 0 <= idx < len(events):
        raise MoveNotApplicable(f"{m.kind} index {idx} out of range 0..{len(events) - 1}")
    width = _kernel.widths(events, len(d.left_ports))[idx]
    group = _scan(events, width, idx, idx + 1, _WINDOW_KINDS)[0][0]
    old_len, new = _rewrite(_match(group, m))
    return _rebuild(d, events[:idx] + new + events[idx + old_len :])


class MoveIndex:
    """``enumerate_moves(d, kinds)`` for a word that changes one move at
    a time, kept current without rescanning the whole word: the walk of
    :func:`frontkit.explore.fuzz_moves`.

    Each window index holds its moves as the shared :func:`_scan` group
    of sorted ``(level, kind, data)`` triples, which do not name the
    index, so the windows after a rewrite only shift.  ``len(index)`` is
    the number of moves, and :meth:`_site` finds the k-th move of the
    sorted list from the count of moves before each window, so
    ``index._site(rng.randrange(len(index)))`` draws exactly the move
    that ``rng.choice(enumerate_moves(d, kinds))`` draws.  The index
    also holds the slice width before every event and after the last, as
    its scan reports them.  :meth:`_step` applies the move at a site: it
    checks the rewritten window (see the module docstring), splices the
    rewrite into the held word in place, rescans the windows from two
    before the rewrite to its last new event, and splices them and the
    widths the rescan reports into the held lists in place.  It recounts
    the moves before each window from the first rescanned one on, unless
    the word kept its length and the rescanned windows their count of
    moves, when the counts after them stay.  ``index.diagram`` is the
    current word's diagram, built and traced on first use.  Only window
    moves can be listed: a stabilization is a site, not a window, and a
    handle move rewrites more than the word.
    """

    def __init__(self, d: _Diagram, kinds: Sequence[str]):
        self._kinds = _kind_set(kinds, _WINDOW_KINDS, "a MoveIndex lists window moves")
        _require_diagram(d)
        self._groups, self._widths = _scan(
            d.events, len(d.left_ports), 0, len(d.events), self._kinds
        )
        # ``_ends[i]``: the number of moves in the windows before ``i``.
        self._ends = list(accumulate(map(len, self._groups), initial=0))
        self._start = d
        self._events = list(d.events)
        self._diagram = d

    @property
    def diagram(self) -> _Diagram:
        """The diagram of the held word, built and traced on first use."""
        if self._diagram is None:
            self._diagram = _rebuild(self._start, self._events)
        return self._diagram

    def __len__(self) -> int:
        return self._ends[-1]

    def _site(self, k: int) -> Tuple[int, Tuple]:
        """The window index and the ``(level, kind, data)`` triple of
        move ``k``, for ``0 <= k < len(self)``."""
        ends = self._ends
        idx = bisect_right(ends, k) - 1
        return idx, self._groups[idx][k - ends[idx]]

    def _step(self, idx: int, triple: Tuple) -> bool:
        """Apply the move ``triple`` of the group the index holds at
        window ``idx``, which it lists, so nothing is checked again.

        Returns True when the rewritten window proves that every
        component keeps its tb, its |rotation| and its homology up to
        sign (the memoised :func:`_same_window`, run from the held width
        before the window); otherwise the new diagram is built and
        traced at once, raising DiagramError on an invalid word, and
        False is returned.  A step that raises leaves the index
        unchanged.  Otherwise the widths the rescan reports replace the
        held ones, from the first rescanned window to the end of the
        rewrite.  The width after the window keeps its value: a proven
        window has the old out-width, and an unproven step that changed
        it would leave the word's last slice wrong, so its rebuild
        raised.
        """
        old_len, new = _rewrite(triple)
        events, groups, ends, widths = self._events, self._groups, self._ends, self._widths
        end = idx + old_len
        proven = _same_window(tuple(events[idx:end]), new, widths[idx])
        # Built before anything changes, so a step that raises changes nothing.
        diagram = (
            None if proven
            else _rebuild(self._start, [*events[:idx], *new, *events[end:]])
        )
        events[idx:end] = new
        lo, hi = _rescanned(idx, old_len, len(groups))
        shift = len(new) - old_len
        rescanned, rewidths = _scan(events, widths[lo], lo, hi + shift, self._kinds)
        # The windows before the first rescanned one kept their moves; when
        # the rescanned ones kept their count in a word of the same length,
        # so did every window after them.
        kept = not shift and sum(map(len, rescanned)) == ends[hi] - ends[lo]
        groups[lo:hi] = rescanned
        if kept:
            ends[lo : hi + 1] = accumulate(map(len, rescanned), initial=ends[lo])
        else:
            ends[lo:] = accumulate(map(len, islice(groups, lo, None)), initial=ends[lo])
        widths[lo : hi + 1] = rewidths
        self._diagram = diagram
        return proven


@lru_cache(maxsize=None)
def _same_window(old: Tuple[Event, ...], new: Tuple[Event, ...], width: int) -> bool:
    """Whether putting the window ``new`` in place of ``old``, both run
    from a slice of ``width`` strands, provably keeps the components and,
    for each, its tb, |rotation| and homology up to sign: whether the two
    windows have equal :func:`_kernel.window_summary` over the whole
    slice.  False when they differ or ``new`` leaves the slice.
    Memoised, since the keys are bounded by the window rows, the levels
    and the widths in use."""
    try:
        return _kernel.window_summary(old, width) == _kernel.window_summary(new, width)
    except DiagramError:
        return False


def _strand_at(d: _Diagram, idx: int, lvl: int) -> int:
    """The strand at level ``lvl`` of slice ``idx`` of ``d``, or
    MoveNotApplicable."""
    if 0 <= idx <= len(d.events):
        here = _kernel.slice_at(d.events, d.trace, idx)
        if 1 <= lvl <= len(here):
            return here[lvl - 1]
    raise MoveNotApplicable(f"no strand at {idx}/{lvl}")


def _stabilize_at(d: _Diagram, idx: int, lvl: int, strand: int, sign: int) -> _Diagram:
    """Insert a zigzag on ``strand``, the strand at (idx, lvl); Δtb=-1,
    Δrot=sign."""
    eps = d.trace.strand_orient[strand]
    # Of the two zigzag shapes on a strand of direction eps, one raises
    # rotation and the other lowers it (both cusps point the same way).
    zigzag, _ = _WINDOWS["Destabilize", ("up",) if sign * eps > 0 else ("down",)]
    events = list(d.events)
    events[idx:idx] = [Event(k, lvl + v) for k, v in zigzag]
    return _rebuild(d, events)


def stabilize(
    d: _Diagram,
    c: Optional[int] = None,
    sign: int = 1,
    site: Optional[Tuple[int, int]] = None,
) -> _Diagram:
    """Stabilize component ``c``: tb drops by 1, rotation moves by ``sign``.

    ``site`` is an (event index, level) pair on the component; by default
    the first such site is used.  Raises MoveNotApplicable unless ``c``
    is None or an int and ``sign`` is the int 1 or -1 (neither a bool nor
    a float).
    """
    _require_diagram(d)
    if not (_is_int(sign) and sign in (1, -1)):
        raise MoveNotApplicable(f"stabilization sign must be ±1, got {sign!r}")
    tr = d.trace
    if c is None:
        if tr.n_components != 1:
            raise MoveNotApplicable("ambiguous component for stabilization")
        c = 0
    elif not _is_int(c):
        raise MoveNotApplicable(f"component {c!r} is not an int")
    comp = tr.strand_component
    if site is None:
        # c's least strand s names the first slice that holds c: each
        # component is rooted at its least strand, and only a left cusp
        # makes strands.  With n initial strands, s < n sits on the left
        # edge at level s + 1; any other s is the upper strand of left
        # cusp (s - n) // 2, at that cusp's level just after it.
        try:
            strand = comp.index(c)
        except ValueError:
            raise MoveNotApplicable(f"component {c} has no visible strand") from None
        n = len(tr.initial_strands)
        if strand < n:
            idx, lvl = 0, strand + 1
        else:
            lefts = [i for i, ev in enumerate(d.events) if ev.kind == "L"]
            j = lefts[(strand - n) // 2]
            idx, lvl = j + 1, d.events[j].level
    elif not _is_site(site):
        raise MoveNotApplicable(f"site {site!r} is not an (index, level) pair")
    else:
        idx, lvl = site
        strand = _strand_at(d, idx, lvl)
        if comp[strand] != c:
            raise MoveNotApplicable(f"site {site} is not on component {c}")
    return _stabilize_at(d, idx, lvl, strand, sign)


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
    return list(_slide_setup(h, k, a)[3])


def clean_band_sites(h: SteinHandlebody, k: int, a: TwoHandleAttachment) -> List[int]:
    """Indices into :func:`band_sites` that keep ``k``'s fingers intact.

    A band attached to a piece of ``k`` that is cusp-connected to a left
    port would thread that finger through the push-off, blocking later
    pull-offs; this filter keeps only sites on pieces whose arc, in the
    doubled word run as an open tangle (:func:`_kernel.arcs`), has no
    left end.
    """
    d2, _reslotted, _origin, _sites, k_strands = _slide_setup(h, k, a)
    tr = d2.trace
    label = _kernel.arcs(tr.final_strands, tr.right, len(d2.left_ports))[0]
    # The left ends are the strands 0..len(left_ports)-1.
    port_arcs = set(label[: len(d2.left_ports)])
    return [i for i, s in enumerate(k_strands) if label[s] not in port_arcs]


def _require_attachment(h: SteinHandlebody, a) -> None:
    """MoveNotApplicable unless ``a`` is one of ``h``'s attachments.  It
    holds ints, so an ``a`` with a bool, equal as it is, names none."""
    if a not in h.attachments or not (_is_int(a.component) and _is_int(a.framing)):
        raise MoveNotApplicable("attachment is not part of the handlebody")


def _slide_setup(h: SteinHandlebody, k: int, a: TwoHandleAttachment):
    """:func:`_doubled_strip` of a slide of ``k`` over ``a``, once the
    slide is checked."""
    if not isinstance(h, SteinHandlebody):
        raise MoveNotApplicable(f"a handle slide does not act on a {type(h).__name__}")
    d = h.diagram
    if not _is_int(k):
        raise MoveNotApplicable(f"component {k!r} is not an int")
    # The handlebody checked the component of each of its attachments.
    _require_attachment(h, a)
    if not 0 <= k < d.n_components:
        raise MoveNotApplicable("no such component")
    if a.component == k:
        raise MoveNotApplicable("cannot slide a component over itself")
    tb_c = tb_standard(d, a.component)
    if a.framing != tb_c - 1:
        raise NotSteinFramed(
            f"attachment framing {a.framing} is not tb - 1 = {tb_c - 1}"
        )
    return _doubled_strip(h, k, a)


@lru_cache(maxsize=1)
def _doubled_strip(h: SteinHandlebody, k: int, a: TwoHandleAttachment):
    """The doubled strip of a checked slide, shared by every band site:
    ``(d2, reslotted, origin, sites, k_strands)``, with the band sites
    and ``k``'s strand at each.  Its readers leave it untouched; it is
    memoised for the last slide, so clean_band_sites then handle_slide
    on one handlebody build it once."""
    d = h.diagram
    exp = cable_expand(d, 2, a.component)
    if exp.first_cusp_index is None:
        raise BandObstructed(
            "attaching circle has no left cusp to carry the framing kink"
        )
    # Framing clasp: with the companion crossing already present this
    # makes three half-twists between the copies, so the push-off links
    # the circle tb - 1 times (contact framing minus one).
    o = exp.first_cusp_offset
    exp.splice(exp.first_cusp_index, [X(o + 1), X(o + 1)])

    # Split every port the circle passes into two adjacent subslots.
    owner = dict(zip(d.left_ports, d.trace.strand_component))
    reslotted = _reslot(d, lambda p: 2 if owner[p] == a.component else 1)
    d2, carried = _after_handle_move(d, reslotted, exp.events, exp.origins)
    (comp_k,), copies = carried[k], carried[a.component]
    comp2 = d2.trace.strand_component
    sites, k_strands = [], []
    for pos, slc in enumerate(_kernel.slices(d2.events, d2.trace)):
        for lvl in range(1, len(slc)):
            s1, s2 = slc[lvl - 1], slc[lvl]
            c1, c2 = comp2[s1], comp2[s2]
            # k and the copies are carried to distinct components.
            if c1 == comp_k and c2 in copies:
                sites.append((pos, lvl))
                k_strands.append(s1)
            elif c2 == comp_k and c1 in copies:
                sites.append((pos, lvl))
                k_strands.append(s2)
    return d2, reslotted, exp.origins, sites, k_strands


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
    d2, reslotted, origin, sites, _k_strands = _slide_setup(h, k, a)
    if not _is_int(site):
        raise MoveNotApplicable(f"band site {site!r} is not an int")
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
    Accepts a strip, a closed front (which has no port to pull through)
    or a SteinHandlebody.
    """
    if isinstance(d, SteinHandlebody):
        new_d, carried = _pull_off(d.diagram, hid, slot)
        # An isotopy carries each component to one component.
        return SteinHandlebody(new_d, _carried_attachments(d, carried))
    if not isinstance(d, _Diagram):
        raise MoveNotApplicable(f"a pull-off does not act on a {type(d).__name__}")
    return _pull_off(d, hid, slot)[0]


def _pull_off(d: StandardFormDiagram, hid, slot: int):
    if not _is_int(slot):
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
    # The finger: the arc of the word, run as an open tangle, through
    # both passes; its two ends are the passes, so it reaches no other
    # port.
    label = _kernel.arcs(final, tr.right, len(d.left_ports))[0]
    if label[lb] != label[la]:
        raise MoveNotApplicable("the two passes are not joined by a finger")
    finger = {s for s, p in enumerate(label) if p == label[la]}
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
    if not isinstance(h, SteinHandlebody):
        raise MoveNotApplicable(f"a cancellation does not act on a {type(h).__name__}")
    d = h.diagram
    _require_attachment(h, a)
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
