"""Pure-Python trace kernel.

A front word is a sequence of events acting on a vertical slice of strands,
numbered from 1 at the top.  This module runs the word once, left to right,
and extracts everything the rest of the package needs:

* structural validation (levels in range, balanced strand count),
* strand identities (a strand lives from its creation to the cusp or
  edge port that ends it),
* the component decomposition and a canonical orientation per component
  (the first-created strand of each component points left-to-right),
* cusp directions, self-writhe, and pairwise inter-component crossing
  sums (twice the linking number).

Event kinds are the same one-letter strings that ``frontkit.front.Event``
carries, so a word of ``Event`` tuples is traced as it is stored.
:func:`slices` rebuilds every vertical slice from the strands the trace
recorded, on demand.
"""

from __future__ import annotations

from ..errors import DanglingStrand, DiagramError, LevelOutOfRange

# Event kinds.
LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"


class TraceResult:
    """Everything computed by one pass over a front word."""

    __slots__ = (
        "n_strands",
        "initial_strands",
        "final_strands",
        "event_strands",
        "strand_component",
        "strand_orient",
        "n_components",
        "crossings",
        "left_cusps",
        "right_cusps",
        "up_cusps",
        "down_cusps",
        "self_writhe",
        "inter_sums",
        "max_width",
    )

    def __init__(self):
        self.n_strands = 0
        self.initial_strands = []
        self.final_strands = []
        self.event_strands = []
        self.strand_component = []
        self.strand_orient = []
        self.n_components = 0
        self.crossings = []
        self.left_cusps = []
        self.right_cusps = []
        self.up_cusps = []
        self.down_cusps = []
        self.self_writhe = []
        self.inter_sums = {}
        self.max_width = 0


def trace(events, n_initial=0, port_links=()):
    """Run ``events`` over a slice of ``n_initial`` starting strands.

    ``events`` is a sequence of ``(kind, level)`` pairs with 1-based levels.
    ``port_links`` is a list of ``(final_pos, initial_pos)`` index pairs
    (0-based slice positions) identifying strand ends through 1-handles;
    linked ends keep their traversal direction, cusps reverse it.

    Returns a :class:`TraceResult`.  Raises :class:`DiagramError` on the
    first structural problem, including an event that is not a pair or
    whose level is not an int.
    """
    slice_ids = list(range(n_initial))
    next_id = n_initial
    # joins: (strand_a, strand_b, flip) -- flip=True at cusps.
    joins = []
    event_strands = []
    crossing_events = []  # (event_index, desc, asc)
    left_cusp_of = []  # (event_index, upper, lower)
    right_cusp_of = []
    max_width = n_initial

    idx = -1
    try:
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
                joins.append((upper, lower, True))
                left_cusp_of.append((idx, upper, lower))
                event_strands.append((upper, lower))
            elif kind == RIGHT_CUSP:
                if not 1 <= level <= k - 1:
                    raise LevelOutOfRange(
                        f"right cusp at level {level} with {k} strands", idx
                    )
                upper = slice_ids[level - 1]
                lower = slice_ids[level]
                del slice_ids[level - 1 : level + 1]
                joins.append((upper, lower, True))
                right_cusp_of.append((idx, upper, lower))
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
                crossing_events.append((idx, desc, asc))
                event_strands.append((desc, asc))
            else:
                raise DiagramError(f"unknown event kind {kind!r}", idx)
            if len(slice_ids) > max_width:
                max_width = len(slice_ids)
    except (TypeError, ValueError) as exc:
        # Raised only by a word that is not iterable, an item that is not
        # a pair, or a level that is not an int (it cannot be compared
        # with the width or used as a slice position).
        what = f"malformed event {events[idx]!r}" if idx >= 0 else "malformed word"
        raise DiagramError(what, idx) from exc

    expected_final = len(port_links)
    if len(slice_ids) != expected_final:
        raise DanglingStrand(
            f"word ends with {len(slice_ids)} strands, expected {expected_final}"
        )
    for final_pos, initial_pos in port_links:
        joins.append((slice_ids[final_pos], initial_pos, False))

    # --- components and orientations over the join graph ---------------
    n = next_id
    adj = [[] for _ in range(n)]
    for a, b, flip in joins:
        adj[a].append((b, flip))
        adj[b].append((a, flip))

    comp_of = [-1] * n
    orient = [0] * n
    n_components = 0
    # Strand ids increase in creation order (initial slice first, then by
    # event), so scanning ids in order roots each component at its
    # first-created strand, which is oriented left-to-right.
    for root in range(n):
        if comp_of[root] >= 0:
            continue
        comp = n_components
        n_components += 1
        comp_of[root] = comp
        orient[root] = 1
        stack = [root]
        while stack:
            s = stack.pop()
            for t, flip in adj[s]:
                want = -orient[s] if flip else orient[s]
                if comp_of[t] < 0:
                    comp_of[t] = comp
                    orient[t] = want
                    stack.append(t)
                elif orient[t] != want:
                    raise DiagramError(
                        "inconsistent orientation around a component"
                    )

    # --- per-component counts ------------------------------------------
    left_cusps = [0] * n_components
    right_cusps = [0] * n_components
    up_cusps = [0] * n_components
    down_cusps = [0] * n_components
    self_writhe = [0] * n_components
    inter_sums = {}
    crossings = []

    for _idx, upper, _lower in left_cusp_of:
        c = comp_of[upper]
        left_cusps[c] += 1
        # Traversal runs lower-to-upper branch exactly when the upper
        # branch leaves the cusp pointing right.
        if orient[upper] > 0:
            up_cusps[c] += 1
        else:
            down_cusps[c] += 1
    for _idx, upper, _lower in right_cusp_of:
        c = comp_of[upper]
        right_cusps[c] += 1
        if orient[upper] < 0:
            up_cusps[c] += 1
        else:
            down_cusps[c] += 1

    for idx, desc, asc in crossing_events:
        sign = orient[desc] * orient[asc]
        ca, cb = comp_of[desc], comp_of[asc]
        crossings.append((idx, desc, asc, sign))
        if ca == cb:
            self_writhe[ca] += sign
        else:
            key = (ca, cb) if ca < cb else (cb, ca)
            inter_sums[key] = inter_sums.get(key, 0) + sign

    res = TraceResult()
    res.n_strands = n
    res.initial_strands = list(range(n_initial))
    res.final_strands = slice_ids
    res.event_strands = event_strands
    res.strand_component = comp_of
    res.strand_orient = orient
    res.n_components = n_components
    res.crossings = crossings
    res.left_cusps = left_cusps
    res.right_cusps = right_cusps
    res.up_cusps = up_cusps
    res.down_cusps = down_cusps
    res.self_writhe = self_writhe
    res.inter_sums = inter_sums
    res.max_width = max_width
    return res


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
