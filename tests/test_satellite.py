"""Cables, n-copies, braid insertion, and twist boxes."""

import random

import pytest

from conftest import random_knot
from frontkit.errors import (
    ComponentCountMismatch,
    DiagramError,
    NotAKnot,
    ParameterOutOfRange,
    SiteNotCableSlice,
)
from frontkit.front import (
    FrontDiagram,
    L,
    R,
    X,
    linking_number,
    thurston_bennequin,
    trefoil,
    unknot,
    writhe,
)
from frontkit.satellite import (
    BraidWord,
    TwistBox,
    braid_events,
    cable,
    default_braid_site,
    insert_braid,
    n_copy,
    n_copy_counts,
    twist_box_expand,
)


def test_braid_word_inverse_and_product():
    b = BraidWord(3, (1, -2, 1))
    assert b.inverse().letters == (-1, 2, -1)
    assert (b * b.inverse()).letters == (1, -2, 1, -1, 2, -1)


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


def test_cable_of_trefoil():
    # q = n*tb + 1: one extra positive twist; tb = n^2*tb(K) + (n-1).
    tb = thurston_bennequin(trefoil())
    c = cable(trefoil(), 2, 2 * tb + 1)
    assert c.n_components == 1
    assert thurston_bennequin(c) == 4 * tb + 1


def test_cable_n1_identity():
    assert cable(unknot(), 1, -1).events == unknot().events
    with pytest.raises(ParameterOutOfRange):
        cable(unknot(), 1, 0)


def _total_writhe(d):
    tr = d.trace
    return sum(tr.self_writhe) + sum(tr.inter_sums.values())


def test_insert_braid_positive_letters_add_writhe():
    d = cable(unknot(), 2, -2)  # two parallel strands somewhere
    site = default_braid_site(d, 2)
    d2 = insert_braid(d, BraidWord(2, (1, 1)), site)
    assert d2.n_components in (1, 2)
    assert _total_writhe(d2) == _total_writhe(d) + 2


def test_insert_braid_rejects_non_parallel_site():
    d = trefoil()
    with pytest.raises(SiteNotCableSlice):
        # Right after a left cusp the two branches are anti-parallel.
        insert_braid(d, BraidWord(2, (1,)), (1, 1))


@pytest.mark.parametrize("site", [5, (1.5, 1), (0,), "ab"])
def test_insert_braid_site_must_be_a_pair_of_ints(site):
    with pytest.raises(SiteNotCableSlice, match="not an \\(index, level\\) pair"):
        insert_braid(trefoil(), BraidWord(2, (1,)), site)
