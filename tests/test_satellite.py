"""Cables, n-copies, braid words, and twist boxes."""

import random
import sys

import pytest

from conftest import random_knot
from frontkit import _kernel, gallery, satellite
from frontkit.errors import (
    ComponentCountMismatch,
    DiagramError,
    NotAKnot,
    ParameterOutOfRange,
)
from frontkit.front import (
    FrontDiagram,
    L,
    R,
    X,
    _MAX_WORD,
    linking_number,
    reflect,
    thurston_bennequin,
    trefoil,
    unknot,
    writhe,
)
from frontkit.moves import enumerate_moves, stabilize
from frontkit.satellite import (
    BraidWord,
    Expansion,
    TwistBox,
    braid_events,
    cable,
    cable_expand,
    n_copy,
    n_copy_counts,
    twist_box_expand,
)


def test_braid_word_validates_letters():
    with pytest.raises(DiagramError):
        BraidWord(3, (3,))
    with pytest.raises(DiagramError):
        BraidWord(2, (0,))


def test_twist_box_expansion_uniform_sign():
    up = twist_box_expand(TwistBox(3, 2))
    assert all(s > 0 for s in up.letters)
    assert len(up.letters) == 2 * 2  # |amount| * (strands - 1)
    down = twist_box_expand(TwistBox(3, -2))
    assert all(s < 0 for s in down.letters)


def test_braid_events_negative_letter_costs_a_cusp_pair():
    events = braid_events(BraidWord(2, (-1,)), base=1)
    kinds = [e.kind for e in events]
    assert kinds == ["L", "X", "R"]


@pytest.mark.parametrize("base", [0, -3])
def test_braid_events_reject_a_base_below_level_1(base):
    with pytest.raises(ParameterOutOfRange, match="base must be positive"):
        braid_events(BraidWord(2, (-1,)), base=base)


def test_n_copy_of_unknot():
    d = n_copy(unknot(), 3)
    assert d.n_components == 3
    # Each pair of parallel copies links like the original's framing: tb.
    for i in range(3):
        for j in range(i + 1, 3):
            assert linking_number(d, i, j) == -1


def test_n_copy_writhe_and_cusp_law():
    rng = random.Random(7)
    for _ in range(20):
        d = random_knot(rng, steps=14)
        w = writhe(d)
        cusps = 2 * d.trace.left_cusps[0]
        for n in (2, 3, 4):
            counts = n_copy_counts(d, n)
            assert counts.crossing_writhe == n * n * w
            assert counts.cusps == n * cusps
            assert counts.companion_writhe == -n * (n - 1) * d.trace.left_cusps[0]


def test_n_copy_requires_knot():
    two = FrontDiagram([L(1), R(1), L(1), R(1)])
    with pytest.raises(NotAKnot):
        n_copy(two, 2)


def test_cable_tb_of_max_unknot():
    # (n, -1)-cable of the tb = -1 unknot: t = -1 - n*(-1) = n-1 extra
    # positive twists; tb = n^2*(-1) + (n-1)^2 = -2n+1.
    for n in (2, 3, 4):
        c = cable(unknot(), n, -1)
        assert c.n_components == 1
        assert thurston_bennequin(c) == -2 * n + 1


def test_cable_component_count_gcd():
    for n in (2, 3):
        for q in (-2, -1, 0, 1, 2, 3):
            import math

            c = cable(unknot(), n, q)
            assert c.n_components == math.gcd(n, q)


def test_a_cable_without_its_twists_is_a_component_count_error(monkeypatch):
    # A mutation of the twist box: with no twists spliced in, the
    # (n, -1)-cable of the unknot is the n-copy, n components where
    # gcd(n, -1) = 1 promises one, and the count check names it.
    monkeypatch.setattr(
        satellite, "twist_box_expand", lambda box: BraidWord(box.strands)
    )
    for n in (2, 3):
        with pytest.raises(ComponentCountMismatch, match=f"traced to {n} components"):
            cable(unknot(), n, -1)


def test_cable_of_trefoil():
    # q = n*tb + 1: one extra positive twist; tb = n^2*tb(K) + (n-1).
    tb = thurston_bennequin(trefoil())
    c = cable(trefoil(), 2, 2 * tb + 1)
    assert c.n_components == 1
    assert thurston_bennequin(c) == 4 * tb + 1


@pytest.mark.parametrize(
    "build",
    [
        satellite.cable_expand,
        satellite.n_copy,
        satellite.n_copy_counts,
        lambda d, n: satellite.cable(d, n, 1),
        lambda d, n: gallery.K_mn_cable_front(-1, n),
    ],
)
def test_a_copy_count_past_maxsize_builds_no_level_table(monkeypatch, build):
    # The copy count is checked against the size bound before the
    # per-level event tables of ``cable_expand`` are built, so none is
    # built for a count past sys.maxsize or for one below it.
    d = trefoil()

    def unbuilt(*args):
        raise AssertionError("a level table was built")

    monkeypatch.setattr(satellite, "L", unbuilt)
    for n in (sys.maxsize + 1, 99999999999999, 194):
        with pytest.raises(
            ParameterOutOfRange,
            match=f"^copies asks for a size past the bound {_MAX_WORD}$",
        ):
            build(d, n)


def test_cable_n1_identity():
    assert cable(unknot(), 1, -1).events == unknot().events
    with pytest.raises(ParameterOutOfRange):
        cable(unknot(), 1, 0)


def test_front_only_operations_name_a_closed_front():
    # A strip or a handlebody is a typed error, not an AttributeError or
    # a level error from a front built of the strip's word.
    h = gallery.stein_rep_max(-5, 2)
    calls = [
        (reflect, ()),
        (n_copy, (1,)),
        (n_copy, (2,)),
        (n_copy_counts, (2,)),
        (cable, (2, -1)),
    ]
    for d in (h, h.diagram):
        for op, args in calls:
            with pytest.raises(DiagramError, match="closed front"):
                op(d, *args)
    for op, args in ((stabilize, (0, 1)), (enumerate_moves, ())):
        with pytest.raises(DiagramError, match="front or a strip"):
            op(h, *args)


def test_cable_expand_widens_one_whole_component():
    # Each widened component becomes two push-off copies with its tb;
    # the other component is left as it was.
    link = n_copy(stabilize(trefoil(), 0, 1), 2)
    stabilized = stabilize(link, 1, -1)
    tbs = [thurston_bennequin(stabilized, c) for c in stabilized.components]
    assert tbs[0] != tbs[1]
    for c in stabilized.components:
        wide = FrontDiagram(cable_expand(stabilized, 2, c).events)
        got = sorted(thurston_bennequin(wide, k) for k in wide.components)
        assert got == sorted(tbs + [tbs[c]])
    every = FrontDiagram(cable_expand(stabilized, 2).events)
    assert every.n_components == 4


# -- the per-event expansion, kept as a reference ---------------------------


def _reference_cable_expand(d, n, component=None):
    """:func:`cable_expand` as it was written before it emitted blocks:
    one event and one origin appended at a time."""
    word, tr = d.events, d.trace
    slices = _kernel.slices(word, tr)
    width = [
        n if component is None or c == component else 1
        for c in tr.strand_component
    ]
    exp = Expansion()

    def emit(event, origin):
        exp.events.append(event)
        exp.origins.append(origin)

    for idx, (ev, (upper, lower), here) in enumerate(
        zip(word, tr.event_strands, slices)
    ):
        o = 1 + sum(width[s] for s in here[: ev.level - 1])
        w = width[upper]
        if ev.kind == "L":
            for j in range(w):
                emit(L(o + 2 * j), idx)
            for j in range(2, w + 1):
                for lvl in range(o + 2 * j - 3, o + j - 2, -1):
                    emit(X(lvl), idx)
            if w > 1 and exp.first_cusp_index is None:
                exp.first_cusp_index = len(exp.events)
                exp.first_cusp_offset = o
        elif ev.kind == "R":
            for j in range(1, w):
                for lvl in range(o + w + j - 2, o + 2 * j - 2, -1):
                    emit(X(lvl), idx)
            for _ in range(w):
                emit(R(o), idx)
        else:
            for k in range(width[lower]):
                for lvl in range(o + w + k - 1, o + k - 1, -1):
                    emit(X(lvl), idx)
    return exp


def _expansion_fields(exp):
    return (exp.events, exp.origins, exp.first_cusp_index, exp.first_cusp_offset)


def test_cable_expand_matches_the_per_event_reference():
    rng = random.Random(21)
    diagrams = [random_knot(rng, steps=rng.randint(2, 40)) for _ in range(30)]
    # A 2-component link, and a front and a strip whose cusps sit at
    # level 1, so a block starts at the top level (o = 1).
    diagrams += [
        stabilize(n_copy(stabilize(trefoil(), 0, 1), 2), 1, -1),
        FrontDiagram([L(1), L(1), X(2), R(1), R(1)]),
        gallery.stein_rep_max(-5, 2).diagram,
    ]
    assert any(
        ev.level == 1 and ev.kind != "X" for d in diagrams[:30] for ev in d.events
    )
    assert diagrams[30].n_components == 2
    # Every gallery front, and the pipeline grid: each point cables K_m
    # and doubles the attaching circle of its Stein representative.
    for entry in gallery.gallery_manifest():
        art = entry.artifact
        diagrams.append(art.diagram if hasattr(art, "diagram") else art)
    for n in (2, 3, 4):
        for m in range(-4 * n + 3, -4 * n - 6, -1):
            diagrams.append(gallery.K_m_front(m))
            diagrams.append(gallery.stein_rep_max(m, n).diagram)
    for d in diagrams:
        for n in range(1, 5):
            for component in (None, *d.components):
                got = cable_expand(d, n, component)
                want = _reference_cable_expand(d, n, component)
                assert _expansion_fields(got) == _expansion_fields(want), (
                    d.events, n, component,
                )
