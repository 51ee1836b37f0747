"""The trace kernel.

A front word is a sequence of events acting on a vertical slice of strands,
numbered from 1 at the top.  The hot loop of the package is the single
left-to-right pass over a word (:func:`trace`), tested in
``tests/test_kernel.py``.  It extracts everything the rest of the package
needs:

* structural validation (levels in range, balanced strand count),
* strand identities (a strand lives from its creation to the cusp or
  edge port that ends it),
* the component decomposition and a canonical orientation per component
  (the first-created strand of each component points left-to-right),
* cusp directions, self-writhe, and pairwise inter-component crossing
  sums (twice the linking number).

The slice pass keeps one record per event, the strand pair it acts on
(``event_strands``), and notes each right cusp's pair.  The strand graph
is a disjoint union of cycles: every strand has one left end, a left cusp
(whose mate is the other strand that cusp made, ids ``n_initial + 2j`` and
``n_initial + 2j + 1``) or a left port, and one right end, a right cusp
or a right port.  So one walk around each cycle, from its least strand,
gives the components and orientations.  The counts come from one closing
pass over the events and their strand pairs, once the orientations are
known.  Neither checks anything, so :func:`trace` runs only the checks,
and the walk and the count pass each run at most once, on the first read
of a field they derive: a diagram that is only printed, parsed back or
rendered pays for neither.

The port links must pair the right-edge positions with the left-edge
positions one to one, every position in range; :func:`trace` checks this
with the slice pass and raises :class:`DiagramError` otherwise.  A repeated
link end is reported as ``inconsistent orientation around a component``.
Once the links are one to one no orientation can clash, because a cusp
joins two right ends or two left ends and a port joins a right end to a
left end.

The input is the word exactly as the package stores it: a sequence of
``(kind, level)`` pairs whose kinds are the one-letter strings that
``frontkit.front.Event`` carries, so an ``Event`` tuple needs no
translation.  ``BACKEND`` names the implementation for reports.

:func:`arcs` reads a word run as an open tangle, from the fields the
slice pass gave, and labels each strand with its arc, walked from its
first boundary end, or its closed loop; the pieces of a slide's strip
and the finger of a pull-off are the arcs of the strip's stored trace,
so that word is not run again.  :func:`window_summary` runs the slice
pass over a few events, from the whole slice before them, takes their
arcs, and runs the closing count pass over them; it reports
what a closed word that holds the events can see: the pairing of the
boundary ends by the arcs, and per arc and per pair of arcs the counts
:func:`trace` makes per component.  A row the events do not touch is one
straight arc, the same in two windows run from one slice, so their
summaries differ only where the rows they touch do; an event that leaves
the slice raises in the slice pass.

The one slice model is built on demand too, and ``trace`` pays nothing
for it: ``slices(events, trace(events, ...))`` gives the strand ids of every
slice, one tuple per word position, from the strands the trace recorded,
and :func:`slice_at` the one slice at a position, from the events before
it; :func:`widths` the width of every slice, from the event kinds and
``WIDTH_CHANGE`` alone;
and :func:`arcs` the arcs.  Every module reads them, but for four walks
kept apart for speed: ``moves._scan`` carries the width along its own
pass, the hot loop of the move index and the search, and reports it, so
the index and the stabilization sites of ``moves.enumerate_moves`` do
not count it again;
``moves._split_word`` keeps one flag per row, as
:func:`slices` made step 3's pull-offs and cancellations slower;
``satellite.cable_expand`` keeps the widened width of each row, likewise;
and ``textio._render_svg`` keeps, for each row of its current slice,
the list of points of the strand on it and the slice where the row's
run began, so it writes only the points where a strand turns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter, sub
from typing import Dict, List, Tuple

from .errors import DanglingStrand, DiagramError, LevelOutOfRange

BACKEND = "pure"

# Event kinds.
LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"

# Change of slice width across each event kind.
WIDTH_CHANGE = {LEFT_CUSP: 2, RIGHT_CUSP: -2, CROSSING: 0}


# The fields of a TraceResult that the cycle walk derives, and those
# that the count pass derives once the walk is done.
_WALKED = frozenset(("strand_component", "strand_orient", "n_components"))
_COUNTED = frozenset(
    ("left_cusps", "right_cusps", "up_cusps", "down_cusps", "self_writhe", "inter_sums")
)


@dataclass
class TraceResult:
    """Everything computed by one pass over a front word.

    ``right[s]`` is the right-cusp mate of strand ``s``, or ``~q`` when a
    port carries ``s`` from the right edge on to left-edge position
    ``q``; :func:`arcs` reads it.

    :func:`trace` fills the fields of its slice pass.  The cycle walk
    fills ``strand_component``, ``strand_orient`` and ``n_components``
    on the first read of any one of them, and the count pass the six
    counts on the first read of any one of them, after the walk; each
    runs at most once.  For them the result keeps the word it traced,
    as a tuple, and the port map of its left edge.
    """

    n_strands: int
    initial_strands: List[int]
    final_strands: List[int]
    event_strands: List[Tuple[int, int]]
    right: List[int]
    strand_component: List[int] = field(init=False)
    strand_orient: List[int] = field(init=False)
    n_components: int = field(init=False)
    left_cusps: List[int] = field(init=False)
    right_cusps: List[int] = field(init=False)
    up_cusps: List[int] = field(init=False)
    down_cusps: List[int] = field(init=False)
    self_writhe: List[int] = field(init=False)
    inter_sums: Dict[Tuple[int, int], int] = field(init=False)
    max_width: int

    def __getattr__(self, name):
        # Called only for a name not in the instance dict: a derived
        # field not yet read, or no attribute at all.
        if name in _WALKED:
            comp_of = [-1] * self.n_strands
            orient = [1] * self.n_strands
            from_port = self._from_port
            self.n_components = _walk_cycles(
                self.right, from_port, len(from_port), comp_of, orient, 0
            )
            self.strand_component = comp_of
            self.strand_orient = orient
        elif name in _COUNTED:
            (
                self.left_cusps,
                self.right_cusps,
                self.up_cusps,
                self.down_cusps,
                self.self_writhe,
                self.inter_sums,
            ) = _count_pass(
                self._word,
                self.event_strands,
                self.strand_component,
                self.strand_orient,
                self.n_components,
            )
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return self.__dict__[name]


def _slice_pass(events, n_initial):
    """The slice pass of :func:`trace`: run ``events`` over ``n_initial``
    strands, checking every level.

    Returns ``(final_strands, event_strands, right, n_strands,
    max_width)``, where ``right[s]``, one entry per strand, is the
    right-cusp mate of strand ``s`` (0 for a strand that reaches the
    right edge) and strands ``n_initial + 2j`` and ``n_initial + 2j + 1``
    are the two made by the j-th left cusp.
    """
    slice_ids = list(range(n_initial))
    k = n_initial  # the width of the current slice
    next_id = n_initial
    event_strands = []
    add = event_strands.append
    max_width = n_initial

    idx = -1
    try:
        # Each event makes at most two strands.
        right = [0] * (n_initial + 2 * len(events))
        for idx, (kind, level) in enumerate(events):
            # Crossings are most of a word, so they are tested first.
            if kind == CROSSING:
                if not 1 <= level <= k - 1:
                    raise LevelOutOfRange(
                        f"crossing at level {level} with {k} strands", idx
                    )
                desc = slice_ids[level - 1]
                asc = slice_ids[level]
                slice_ids[level - 1] = asc
                slice_ids[level] = desc
                add((desc, asc))
            elif kind == LEFT_CUSP:
                if not 1 <= level <= k + 1:
                    raise LevelOutOfRange(
                        f"left cusp at level {level} with {k} strands", idx
                    )
                upper = next_id
                lower = next_id + 1
                next_id += 2
                slice_ids[level - 1 : level - 1] = [upper, lower]
                add((upper, lower))
                k += 2
                # Only a left cusp widens the slice.
                if k > max_width:
                    max_width = k
            elif kind == RIGHT_CUSP:
                if not 1 <= level <= k - 1:
                    raise LevelOutOfRange(
                        f"right cusp at level {level} with {k} strands", idx
                    )
                upper = slice_ids[level - 1]
                lower = slice_ids[level]
                del slice_ids[level - 1 : level + 1]
                right[upper] = lower
                right[lower] = upper
                add((upper, lower))
                k -= 2
            else:
                raise DiagramError(f"unknown event kind {kind!r}", idx)
    except (TypeError, ValueError) as exc:
        # Raised only by a word that is not a sized iterable, an item that
        # is not a pair, or a level that is not an int (it cannot be
        # compared with the width or used as a slice position).
        what = f"malformed event {events[idx]!r}" if idx >= 0 else "malformed word"
        raise DiagramError(what, idx) from exc
    del right[next_id:]
    return slice_ids, event_strands, right, next_id, max_width


def _walk_cycles(right, from_port, n_initial, comp_of, orient, n_components):
    """Number the strand cycles not yet in ``comp_of`` from
    ``n_components`` on, orienting each, and return the new count.

    ``right[s]`` is the right-cusp mate of ``s``, or ``~q`` once a port
    carries ``s`` on to left-edge strand ``q``, and ``from_port[q]`` is
    that ``s``.  Strand ids increase in creation order (initial slice
    first, then by event), so scanning ids in order roots each cycle at
    its first-created strand, which is oriented left-to-right.  The walk
    is back at the root when it meets a visited strand rightwards.
    """
    for root in range(len(comp_of)):
        if comp_of[root] >= 0:
            continue
        comp = n_components
        n_components += 1
        s = root
        while comp_of[s] < 0:
            comp_of[s] = comp
            t = right[s]
            if t < 0:
                # A port: on rightwards along the left-edge strand ~t.
                s = ~t
                continue
            # A right cusp: back leftwards along t, and through each left
            # port into the right-edge strand linked to it.
            comp_of[t] = comp
            orient[t] = -1
            while t < n_initial:
                t = from_port[t]
                comp_of[t] = comp
                orient[t] = -1
            # A left cusp: rightwards along the strand made with t.
            s = ((t - n_initial) ^ 1) + n_initial
    return n_components


def _count_pass(events, event_strands, comp_of, orient, n_components):
    """The closing pass of :func:`trace`: per component, the left, right,
    up and down cusps and the self-writhe, and the signed crossing sum of
    each pair of components, read from the oriented strands."""
    left_cusps = [0] * n_components
    right_cusps = [0] * n_components
    up_cusps = [0] * n_components
    down_cusps = [0] * n_components
    self_writhe = [0] * n_components
    inter_sums = {}
    for (kind, _level), (a, b) in zip(events, event_strands):
        c = comp_of[a]
        if kind == CROSSING:
            sign = orient[a] * orient[b]
            cb = comp_of[b]
            if c == cb:
                self_writhe[c] += sign
            else:
                key = (c, cb) if c < cb else (cb, c)
                inter_sums[key] = inter_sums.get(key, 0) + sign
        elif kind == LEFT_CUSP:
            left_cusps[c] += 1
            # Traversal runs lower-to-upper branch exactly when the upper
            # branch leaves the cusp pointing right.
            if orient[a] > 0:
                up_cusps[c] += 1
            else:
                down_cusps[c] += 1
        else:
            right_cusps[c] += 1
            if orient[a] < 0:
                up_cusps[c] += 1
            else:
                down_cusps[c] += 1
    return left_cusps, right_cusps, up_cusps, down_cusps, self_writhe, inter_sums


def trace(events, n_initial=0, port_links=()):
    """Run ``events`` over a slice of ``n_initial`` starting strands.

    ``events`` is a sized sequence of ``(kind, level)`` pairs with
    1-based levels.  The slice pass reads it; the result keeps it as a
    tuple (a tuple as it is, any other sequence copied) for the count
    pass, so a list changed after the call still counts as traced.
    ``port_links`` is a list of ``(final_pos, initial_pos)`` index pairs
    (0-based slice positions) identifying strand ends through 1-handles;
    linked ends keep their traversal direction, cusps reverse it.  The
    links pair the ``n_initial`` left-edge positions with the final ones
    one to one.

    Returns a :class:`TraceResult`.  Raises :class:`DiagramError` on the
    first structural problem, including an event that is not a pair or
    whose level is not an int, and port links that are not one to one.
    Every check runs here, in the slice pass and over the port links;
    the cycle walk and the count pass, which cannot raise, run on the
    first read of a field they derive.
    """
    slice_ids, event_strands, right, n, max_width = _slice_pass(events, n_initial)

    n_final = len(slice_ids)
    if n_final != len(port_links):
        raise DanglingStrand(
            f"word ends with {n_final} strands, expected {len(port_links)}"
        )
    if n_final != n_initial:
        raise DiagramError(
            f"{n_final} port links for {n_initial} left-edge strands"
        )
    # from_port[q]: the right-edge strand whose port carries it to q.
    from_port = [-1] * n_initial
    for link in port_links:
        try:
            final_pos, initial_pos = link
            if not (0 <= final_pos < n_final and 0 <= initial_pos < n_initial):
                raise DiagramError(f"port link {link!r} out of range")
            p = slice_ids[final_pos]
            repeated = right[p] < 0 or from_port[initial_pos] >= 0
        except (TypeError, ValueError) as exc:
            raise DiagramError(f"malformed port link {link!r}") from exc
        if repeated:
            # A repeated end: the links are not one to one.
            raise DiagramError("inconsistent orientation around a component")
        right[p] = ~initial_pos
        from_port[initial_pos] = p

    result = TraceResult(
        n_strands=n,
        initial_strands=list(range(n_initial)),
        final_strands=slice_ids,
        event_strands=event_strands,
        right=right,
        max_width=max_width,
    )
    # A stored tuple is kept as it is; any other word is copied, so that
    # the counts are those of the word as traced.
    result._word = events if type(events) is tuple else tuple(events)
    result._from_port = from_port
    return result


def arcs(final_strands, right, n_initial):
    """The arcs and closed loops of a word run as an open tangle from a
    slice of ``n_initial`` strands.

    The word is given by what its slice pass found: the strands of its
    last slice and, per strand, its right-cusp mate ``right``, either as
    :func:`_slice_pass` returns it or as a :class:`TraceResult` keeps it;
    the entries of the strands in ``final_strands`` are not read, and
    ``right`` is not changed.  So the arcs of a traced strip come from its
    stored trace, with no second pass over the word.  Each arc is
    walked from its first boundary end, which fixes its orientation: the
    left ends ``0..n_initial-1`` come first, then the right ends, the one
    at final position ``q`` numbered ``n_initial + q``.  The closed loops
    are numbered after the arcs and oriented as :func:`trace` orients a
    component.  Returns ``(label, ends, orient, n_pieces)``: per strand
    its arc or loop, the two ends of each arc, per strand its direction,
    and the number of arcs and loops.  Two strands share a label exactly
    when a chain of cusps joins them.
    """
    right = list(right)
    for pos, s in enumerate(final_strands):
        right[s] = ~pos
    n = len(right)
    label = [-1] * n
    orient = [1] * n
    ends = []
    for end, s in enumerate(chain(range(n_initial), final_strands)):
        if label[s] >= 0:
            continue
        arc = len(ends)
        if end >= n_initial:
            # Both ends on the right: leftwards from the first, into the
            # left cusp that made it.
            label[s] = arc
            orient[s] = -1
            s = ((s - n_initial) ^ 1) + n_initial
        while True:
            label[s] = arc
            t = right[s]
            if t < 0:
                other = n_initial + ~t
                break
            label[t] = arc
            orient[t] = -1
            if t < n_initial:
                other = t
                break
            s = ((t - n_initial) ^ 1) + n_initial
        ends.append((end, other))
    # What is left are closed loops, made and ended inside the window, so
    # no walk reaches a left-edge strand and no port map is needed.
    n_pieces = _walk_cycles(right, (), n_initial, label, orient, len(ends))
    return label, ends, orient, n_pieces


def window_summary(events, n_initial):
    """What a closed word sees of the window ``events``: the word run as
    an open tangle from a slice of ``n_initial`` strands.

    The slice pass of :func:`trace` runs over the slice, raising
    :class:`DiagramError` when an event leaves it; the arcs and loops
    come from :func:`arcs`, and the closing count pass of :func:`trace`
    counts over them.  Returns ``(n_out, pairing,
    arcs, sums, loops)``: the out-width, the ends of each arc, per arc
    the writhe minus the left cusps and the down minus the up cusps, the
    nonzero signed crossing sum of each pair of arcs, and the sorted
    (tb, |2 rotation|) of the closed loops.

    Two windows with equal summaries from the same slice make words
    whose components correspond, each with the same tb, the same
    |rotation| and the same homology up to a common sign.
    Outside the window the words are the same, so equal pairings join
    the arcs into the same components, and each arc keeps its direction
    relative to the rest of its component: a component can only reverse
    as a whole, which negates its rotation and homology and keeps its tb
    and every crossing sign.
    """
    final_strands, event_strands, right, _n, _width = _slice_pass(events, n_initial)
    label, pairing, orient, n_pieces = arcs(final_strands, right, n_initial)
    left, _right, up, down, writhe, inter = _count_pass(
        events, event_strands, label, orient, n_pieces
    )
    n_arcs = len(pairing)
    per = list(zip(map(sub, writhe, left), map(sub, down, up)))
    return (
        # Every boundary end is an end of one arc.
        2 * n_arcs - n_initial,
        pairing,
        per[:n_arcs],
        {key: v for key, v in inter.items() if v and key[1] < n_arcs},
        sorted((tb, abs(rot2)) for tb, rot2 in per[n_arcs:]),
    )


def widths(events, n_initial):
    """The slice width before each of ``events`` and after the last, of
    a word that starts on ``n_initial`` strands: the lengths of
    :func:`slices`, read from the event kinds alone, so nothing is
    traced or checked."""
    deltas = map(WIDTH_CHANGE.__getitem__, map(itemgetter(0), events))
    return list(accumulate(deltas, initial=n_initial))


def slices(events, result):
    """The strand ids of every vertical slice of a traced word.

    ``result`` is ``trace(events, ...)``.  Returns one tuple per word
    position ``0..len(events)``: entry ``idx`` is the slice just before
    ``events[idx]``, top level first, so the first entry is
    ``result.initial_strands`` and the last is ``result.final_strands``.
    The strands come from ``result.event_strands``; nothing is checked
    again.  Built on demand, so ``trace`` itself stays one bare pass.
    """
    cur = list(result.initial_strands)
    out = [tuple(cur)]
    for (kind, level), (a, b) in zip(events, result.event_strands):
        if kind == LEFT_CUSP:
            cur[level - 1 : level - 1] = (a, b)
        elif kind == RIGHT_CUSP:
            del cur[level - 1 : level + 1]
        else:
            cur[level - 1 : level + 1] = (b, a)
        out.append(tuple(cur))
    return out


def slice_at(events, result, idx):
    """Entry ``idx`` of ``slices(events, result)``, for a word position
    ``idx`` in ``0..len(events)``, built from ``result.initial_strands``
    over the first ``idx`` events alone.  Nothing is checked again."""
    return slices(events[:idx], result)[idx]
