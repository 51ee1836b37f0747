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
known.

The port links must pair the right-edge positions with the left-edge
positions one to one, every position in range; :func:`trace` checks this
before the walk and raises :class:`DiagramError` otherwise.  A repeated
link end is reported as ``inconsistent orientation around a component``.
Once the links are one to one no orientation can clash, because a cusp
joins two right ends or two left ends and a port joins a right end to a
left end.

The input is the word exactly as the package stores it: a sequence of
``(kind, level)`` pairs whose kinds are the one-letter strings that
``frontkit.front.Event`` carries, so an ``Event`` tuple needs no
translation.  ``BACKEND`` names the implementation for reports.

``slices(events, trace(events, ...))`` is the one slice model: the strand
ids of every vertical slice, one tuple per word position, rebuilt on
demand from the strands the trace recorded for each event.  Every module
that needs to know which strand sits at which level reads it; ``trace``
does not build it, so the hot loop pays nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import DanglingStrand, DiagramError, LevelOutOfRange

BACKEND = "pure"

# Event kinds.
LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"


@dataclass(slots=True)
class TraceResult:
    """Everything computed by one pass over a front word."""

    n_strands: int
    initial_strands: List[int]
    final_strands: List[int]
    event_strands: List[Tuple[int, int]]
    strand_component: List[int]
    strand_orient: List[int]
    n_components: int
    left_cusps: List[int]
    right_cusps: List[int]
    up_cusps: List[int]
    down_cusps: List[int]
    self_writhe: List[int]
    inter_sums: Dict[Tuple[int, int], int]
    max_width: int


def trace(events, n_initial=0, port_links=()):
    """Run ``events`` over a slice of ``n_initial`` starting strands.

    ``events`` is a sequence of ``(kind, level)`` pairs with 1-based levels;
    it is read twice, so it must not be a one-shot iterator.
    ``port_links`` is a list of ``(final_pos, initial_pos)`` index pairs
    (0-based slice positions) identifying strand ends through 1-handles;
    linked ends keep their traversal direction, cusps reverse it.  The
    links pair the ``n_initial`` left-edge positions with the final ones
    one to one.

    Returns a :class:`TraceResult`.  Raises :class:`DiagramError` on the
    first structural problem, including an event that is not a pair or
    whose level is not an int, and port links that are not one to one.
    """
    slice_ids = list(range(n_initial))
    next_id = n_initial
    event_strands = []
    max_width = n_initial

    idx = -1
    try:
        # right[s]: the right-cusp mate of strand s, or ~q once a port
        # carries s on to left-edge strand q.  Each event makes at most
        # two strands.
        right = [0] * (n_initial + 2 * len(events))
        for idx, (kind, level) in enumerate(events):
            k = len(slice_ids)
            if kind == LEFT_CUSP:
                if not 1 <= level <= k + 1:
                    raise LevelOutOfRange(
                        f"left cusp at level {level} with {k} strands", idx
                    )
                upper = next_id
                lower = next_id + 1
                next_id += 2
                slice_ids[level - 1 : level - 1] = [upper, lower]
                event_strands.append((upper, lower))
                # Only a left cusp widens the slice.
                if k + 2 > max_width:
                    max_width = k + 2
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
                event_strands.append((upper, lower))
            elif kind == CROSSING:
                if not 1 <= level <= k - 1:
                    raise LevelOutOfRange(
                        f"crossing at level {level} with {k} strands", idx
                    )
                desc = slice_ids[level - 1]
                asc = slice_ids[level]
                slice_ids[level - 1] = asc
                slice_ids[level] = desc
                event_strands.append((desc, asc))
            else:
                raise DiagramError(f"unknown event kind {kind!r}", idx)
    except (TypeError, ValueError) as exc:
        # Raised only by a word that is not a sized iterable, an item that
        # is not a pair, or a level that is not an int (it cannot be
        # compared with the width or used as a slice position).
        what = f"malformed event {events[idx]!r}" if idx >= 0 else "malformed word"
        raise DiagramError(what, idx) from exc

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

    # --- components and orientations: one walk around each cycle ------
    n = next_id
    comp_of = [-1] * n
    orient = [1] * n
    n_components = 0
    # Strand ids increase in creation order (initial slice first, then by
    # event), so scanning ids in order roots each component at its
    # first-created strand, which is oriented left-to-right.  The walk
    # is back at the root when it meets a visited strand rightwards.
    for root in range(n):
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

    # --- per-component counts, one closing pass -------------------------
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

    return TraceResult(
        n_strands=n,
        initial_strands=list(range(n_initial)),
        final_strands=slice_ids,
        event_strands=event_strands,
        strand_component=comp_of,
        strand_orient=orient,
        n_components=n_components,
        left_cusps=left_cusps,
        right_cusps=right_cusps,
        up_cusps=up_cusps,
        down_cusps=down_cusps,
        self_writhe=self_writhe,
        inter_sums=inter_sums,
        max_width=max_width,
    )


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
