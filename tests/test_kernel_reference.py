"""The trace kernel against the kernel it replaced, field by field.

``_reference_trace`` is the earlier kernel, which kept a separate list of
joins, cusps and crossings beside ``event_strands`` and counted from
those lists.  The kernel must give the same result on valid words and
the same error (class, event index and message) on malformed ones.
"""

import dataclasses
import random

import pytest

from conftest import random_front
from frontkit import _kernel
from frontkit.errors import DanglingStrand, DiagramError, LevelOutOfRange
from frontkit.front import L, R, X
from frontkit.gallery import gallery_manifest, stein_rep_max, step3_pipeline
from frontkit.moves import apply_move
from frontkit.standard import SteinHandlebody, port_links

# -- the earlier kernel, kept as a reference --------------------------------

LEFT_CUSP = "L"
RIGHT_CUSP = "R"
CROSSING = "X"


class _ReferenceResult:
    __slots__ = (
        "n_strands",
        "initial_strands",
        "final_strands",
        "event_strands",
        "right",
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


def _reference_trace(events, n_initial=0, port_links=()):
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
        what = f"malformed event {events[idx]!r}" if idx >= 0 else "malformed word"
        raise DiagramError(what, idx) from exc

    expected_final = len(port_links)
    if len(slice_ids) != expected_final:
        raise DanglingStrand(
            f"word ends with {len(slice_ids)} strands, expected {expected_final}"
        )
    for final_pos, initial_pos in port_links:
        joins.append((slice_ids[final_pos], initial_pos, False))

    n = next_id
    adj = [[] for _ in range(n)]
    for a, b, flip in joins:
        adj[a].append((b, flip))
        adj[b].append((a, flip))

    comp_of = [-1] * n
    orient = [0] * n
    n_components = 0
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

    res = _ReferenceResult()
    res.n_strands = n
    res.initial_strands = list(range(n_initial))
    res.final_strands = slice_ids
    res.event_strands = event_strands
    # Per strand: its right-cusp mate, or ~q when a port carries it on to
    # left-edge position q.
    res.right = [0] * n
    for _idx, upper, lower in right_cusp_of:
        res.right[upper], res.right[lower] = lower, upper
    for final_pos, initial_pos in port_links:
        res.right[slice_ids[final_pos]] = ~initial_pos
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


# -- the comparison -----------------------------------------------------------

FIELDS = [f.name for f in dataclasses.fields(_kernel.TraceResult)]


def _outcome(kernel, args):
    """The result of ``kernel(*args)``, or its error as (class, index, text)."""
    try:
        return kernel(*args)
    except DiagramError as exc:
        return (type(exc), exc.index, str(exc))


def _mismatch(args):
    """The first field in which the kernel and the reference differ, or None."""
    new, ref = _outcome(_kernel.trace, args), _outcome(_reference_trace, args)
    if isinstance(ref, tuple) or isinstance(new, tuple):
        return None if new == ref else f"outcome {new!r} != {ref!r}"
    for name in FIELDS:
        a, b = getattr(new, name), getattr(ref, name)
        if name == "inter_sums":
            a, b = list(a.items()), list(b.items())
        if a != b:
            return f"{name}: {a!r} != {b!r}"
    return None


def _corrupted(rng, word):
    """``word`` with one seeded defect: a wrong level or kind, a non-event,
    a dropped, swapped or repeated event, or a cut tail."""
    word = list(word)
    if not word:
        return [rng.choice([(LEFT_CUSP, 2), (RIGHT_CUSP, 1), None, ("Q", 1)])]
    i = rng.randrange(len(word))
    kind, level = word[i]
    roll = rng.randrange(8)
    if roll == 0:
        word[i] = (kind, level + rng.choice([-2, -1, 1, 2, 5]))
    elif roll == 1:
        word[i] = (rng.choice("LRXQ"), level)
    elif roll == 2:
        word[i] = rng.choice([(kind,), None, (kind, str(level)), (kind, 1.0), 7])
    elif roll == 3:
        del word[i]
    elif roll == 4:
        j = rng.randrange(len(word))
        word[i], word[j] = word[j], word[i]
    elif roll == 5:
        word.insert(i, word[i])
    else:
        word = word[:i]
    return word


def _front_cases():
    rng = random.Random(8)
    cases = []
    for _ in range(400):
        word = random_front(rng, steps=rng.randint(0, 60)).events
        cases.append((word,))
        for _ in range(4):
            cases.append((_corrupted(rng, word),))
    return cases


def _strip_cases():
    strips = [
        a.diagram
        for a in (e.artifact for e in gallery_manifest())
        if isinstance(a, SteinHandlebody)
    ]
    for m, n in ((-5, 2), (-9, 3), (-13, 4)):
        _closed, script = step3_pipeline(m, n)
        current = stein_rep_max(m, n)
        strips.append(current.diagram)
        for mv in script.moves:
            current = apply_move(current, mv)
            if isinstance(current, SteinHandlebody):
                strips.append(current.diagram)
    return [(d.events, len(d.left_ports), port_links(d)) for d in strips]


def _random_strip(rng):
    """A random word over ``n`` left-edge strands that ends with ``n``
    strands, and a random one-to-one pairing of the edge positions."""
    n = rng.randint(1, 4)
    width, word = n, []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if width >= 2 and roll < 0.45:
            word.append(X(rng.randint(1, width - 1)))
        elif width >= 2 and roll < 0.7:
            word.append(R(rng.randint(1, width - 1)))
            width -= 2
        else:
            word.append(L(rng.randint(1, width + 1)))
            width += 2
    while width != n:
        if width > n:
            word.append(R(rng.randint(1, width - 1)))
            width -= 2
        else:
            word.append(L(rng.randint(1, width + 1)))
            width += 2
    finals = list(range(n))
    rng.shuffle(finals)
    links = list(zip(finals, range(n)))
    rng.shuffle(links)
    return word, n, links


def test_fronts_and_broken_words_match_the_reference():
    cases = _front_cases()
    errors = [args for args in cases if isinstance(_outcome(_kernel.trace, args), tuple)]
    # Both outcomes are well represented.
    assert len(errors) > 300 and len(cases) - len(errors) > 600
    for args in cases:
        assert _mismatch(args) is None, args


def test_strips_match_the_reference():
    cases = _strip_cases()
    assert len(cases) >= 5 + 3 * 4
    for args in cases:
        assert _mismatch(args) is None, args


def test_random_strips_match_the_reference():
    rng = random.Random(12)
    cases = [_random_strip(rng) for _ in range(300)]
    # Many strips close some component through more than one port.
    several = [c for c in cases if _kernel.trace(*c).n_components < c[1]]
    assert len(several) > 60
    for args in cases:
        assert _mismatch(args) is None, args


@pytest.mark.parametrize(
    "args",
    [
        # A zigzag through a handle: the port keeps the traversal direction.
        ([L(2), R(1)], 1, [(0, 0)]),
        # Both right-edge strands of a cusp linked to one left-edge strand:
        # the second link reverses the direction the cusp gave it.
        ([R(1), L(1)], 2, [(0, 0), (1, 0)]),
        # A crossing between two handle strands.
        ([X(1)], 2, [(0, 1), (1, 0)]),
    ],
)
def test_port_links_match_the_reference(args):
    assert _mismatch(args) is None


def test_reversing_port_link_is_an_orientation_error():
    with pytest.raises(DiagramError, match="inconsistent orientation"):
        _kernel.trace([R(1), L(1)], 2, [(0, 0), (1, 0)])


def test_every_field_is_compared():
    assert set(FIELDS) == set(_ReferenceResult.__slots__) - {"crossings"}
