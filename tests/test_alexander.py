"""The Alexander polynomial of a knot front: known values, invariance,
the cable rule, a mutation of the Fox rows, and the exact determinant."""

import random
from fractions import Fraction
from math import prod

import pytest

from conftest import random_knot
from frontkit import cli, front
from frontkit.errors import DiagramError, NotAKnot
from frontkit.explore import fuzz_moves
from frontkit.front import (
    ALEXANDER_CAP,
    FrontDiagram,
    L,
    R,
    X,
    alexander_polynomial,
    reflect,
    trefoil,
    unknot,
)
from frontkit.gallery import (
    K_m_front,
    K_mn_cable_front,
    close_handlebody,
    stein_rep_max,
    step3_pipeline,
    torus_front,
)
from frontkit.moves import stabilize
from frontkit.satellite import n_copy
from frontkit.textio import print_text

FIGURE_EIGHT = FrontDiagram(
    [L(1), X(1), L(1), X(2), X(2), X(2), X(1), X(1), R(2), R(1)]
)
T25 = (1, -1, 1, -1, 1)
T27 = (1, -1, 1, -1, 1, -1, 1)

_KNOWN = [
    pytest.param(unknot, (1,), id="unknot"),
    pytest.param(lambda: FrontDiagram([L(1), X(1), R(1)]), (1,), id="one-crossing-unknot"),
    pytest.param(trefoil, (1, -1, 1), id="trefoil"),
    pytest.param(lambda: FIGURE_EIGHT, (-1, 3, -1), id="figure-eight"),
    pytest.param(lambda: torus_front(2, 5), T25, id="T(2,5)"),
    pytest.param(lambda: torus_front(3, 4), (1, -1, 0, 1, 0, -1, 1), id="T(3,4)"),
    pytest.param(
        lambda: torus_front(3, 5), (1, -1, 0, 1, -1, 1, 0, -1, 1), id="T(3,5)"
    ),
    pytest.param(lambda: K_m_front(-1), T25, id="K_-1"),
    pytest.param(lambda: K_m_front(-2), T27, id="K_-2"),
]


@pytest.mark.parametrize("build, want", _KNOWN)
def test_known_alexander_polynomials(build, want):
    assert alexander_polynomial(build()) == want


def _knots():
    return [unknot(), trefoil(), FIGURE_EIGHT, torus_front(2, 5), torus_front(3, 4),
            K_m_front(-1)]


def test_alexander_polynomial_survives_stabilization_and_reflection():
    for d in _knots():
        want = alexander_polynomial(d)
        for sign in (1, -1):
            assert alexander_polynomial(stabilize(d, 0, sign)) == want
        assert alexander_polynomial(reflect(d)) == want


def test_alexander_polynomial_survives_seeded_fuzz_walks():
    # The unknot L1 R1 has no move to walk by.
    for seed, d in enumerate(_knots()[1:]):
        report = fuzz_moves(d, seed, 40)
        assert report.steps_applied == 40
        assert report.final.events != d.events
        assert alexander_polynomial(report.final) == alexander_polynomial(d)


def test_cable_rule_on_the_n_minus_one_cables():
    # The (n, -1)-cable of K has the unknot as its pattern torus knot, so
    # its Alexander polynomial is that of K at t^n.
    for m, n in ((-1, 2), (-2, 2)):
        companion = alexander_polynomial(K_m_front(m))
        want = [0] * (n * (len(companion) - 1) + 1)
        want[::n] = companion
        assert alexander_polynomial(K_mn_cable_front(m, n)) == tuple(want)


def test_a_swapped_fox_row_changes_the_trefoil(monkeypatch):
    # The first crossing of the walk given the Fox row of the other sign.
    # (Every crossing of the trefoil is positive, and its diagram is
    # symmetric in its three arcs, so a change to the positive row itself
    # shows nothing: any permutation of its entries, or the negative row
    # at every crossing, which is Δ(1/t), reads (1, -1, 1) again.)
    real = front._fox_arcs

    def swapped(d, c):
        fox = real(d, c)
        sign, over = fox[0]
        fox[0] = (-sign, over)
        return fox

    monkeypatch.setattr(front, "_fox_arcs", swapped)
    assert alexander_polynomial(trefoil()) == (2, -1)


# ROADMAP item 17: the candidate of stein_rep_max is an unknot, and the
# route with no slide closes it to one, but the step-3 route closes it to
# a front whose polynomial is the trefoil's.  This pin changes when item
# 17 finds and mends the handle move that changes the knot type.
@pytest.mark.parametrize(
    "m, n", [(-5, 2), (-10, 2), (-9, 3), (-14, 3), (-13, 4), (-18, 4)]
)
def test_the_closing_routes_disagree_on_the_alexander_polynomial(m, n):
    assert alexander_polynomial(step3_pipeline(m, n)[0]) == (1, -1, 1)
    assert alexander_polynomial(close_handlebody(stein_rep_max(m, n), ())[0]) == (1,)


def test_each_component_of_a_link_is_read_as_a_knot():
    link = n_copy(trefoil(), 2)
    assert [alexander_polynomial(link, c) for c in link.components] == [(1, -1, 1)] * 2
    with pytest.raises(NotAKnot):
        alexander_polynomial(link)
    with pytest.raises(DiagramError, match="expected a closed front"):
        alexander_polynomial(stein_rep_max(-5, 2).diagram)


def test_past_the_crossing_cap_the_polynomial_is_skipped():
    # (-1, 3)'s cable crosses itself 157 times.
    assert alexander_polynomial(K_mn_cable_front(-1, 3)) is None
    # At the cap, the primes still make the coefficients exact: their
    # product is more than twice the Hadamard bound 6^((cap - 1) / 2).
    assert prod(front._ALEXANDER_PRIMES) ** 2 > 4 * 6 ** (ALEXANDER_CAP - 1)


def _fraction_det(rows):
    """The determinant of a square matrix of Fractions, by elimination."""
    rows = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[piv], rows[col] = rows[col], rows[piv]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, len(rows)):
            f = rows[i][col] / rows[col][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def test_the_modular_determinant_matches_exact_elimination():
    rng = random.Random(5)
    p = front._ALEXANDER_PRIMES[0]
    for size in (1, 2, 3, 5, 8):
        for _ in range(4):
            a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            b = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            if _fraction_det([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]) == 0:
                continue
            coeffs = front._fox_determinant(a, b, p)
            for t in range(-2, 4):
                want = _fraction_det(
                    [[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
                )
                got = sum(c * t**k for k, c in enumerate(coeffs)) % p
                assert got == int(want) % p


def _interpolated_alexander(d):
    """Δ of a knot front by the recipe read literally: the Fox matrix
    with its last row and column dropped, its determinant taken exactly
    at as many integer points as its degree needs, and interpolated."""
    fox = front._fox_arcs(d, 0)
    n = len(fox)
    if n < 2:
        return (1,)

    def minor(t):
        rows = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
        for j, (sign, over) in enumerate(fox[: n - 1]):
            for arc, (const, slope) in zip((over, j, j + 1), front._FOX_ROWS[sign]):
                if arc < n - 1:
                    rows[j][arc] += const + slope * t
        return _fraction_det(rows)

    xs = list(range(n))
    coeffs = [Fraction(0)] * n
    for i, xi in enumerate(xs):
        # The Lagrange basis polynomial of xi, times the value there.
        basis, denom = [Fraction(1)], Fraction(1)
        for xj in xs:
            if xj != xi:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        yi = minor(xi)
        coeffs = [c + yi * v / denom for c, v in zip(coeffs, basis)]
    ints = [int(c) for c in coeffs]
    while ints[-1] == 0:
        ints.pop()
    ints = ints[next(k for k, c in enumerate(ints) if c):]
    return tuple(ints) if sum(ints) > 0 else tuple(-c for c in ints)


def test_alexander_polynomial_matches_the_interpolated_recipe():
    rng = random.Random(17)
    knots = _knots() + [random_knot(rng, steps=24) for _ in range(8)]
    for d in knots:
        assert alexander_polynomial(d) == _interpolated_alexander(d)


def test_cli_alexander_prints_the_coefficients(tmp_path, capsys):
    path = tmp_path / "t25.txt"
    path.write_text(print_text(torus_front(2, 5)))
    assert cli.main(["alexander", str(path)]) == 0
    assert capsys.readouterr().out == "1 -1 1 -1 1\n"
    path.write_text(print_text(n_copy(trefoil(), 2)))
    assert cli.main(["alexander", str(path)]) == 0
    assert capsys.readouterr().out == "component 0: 1 -1 1\ncomponent 1: 1 -1 1\n"
    path.write_text(print_text(K_mn_cable_front(-1, 3)))
    assert cli.main(["alexander", str(path)]) == 0
    assert capsys.readouterr().out == f"skipped (more than {ALEXANDER_CAP} crossings)\n"
    path.write_text(print_text(stein_rep_max(-5, 2)))
    assert cli.main(["alexander", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: expected a closed front")
