"""Classical invariants of front words."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_front, random_knot
from frontkit.errors import DiagramError, NotAKnot
from frontkit.front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    classical_invariants,
    encode_word,
    linking_number,
    reflect,
    rotation,
    thurston_bennequin,
    trefoil,
    unknot,
    writhe,
)
from frontkit.standard import StandardFormDiagram


def test_unknot_invariants():
    d = unknot()
    assert thurston_bennequin(d) == -1
    assert rotation(d) == 0
    assert writhe(d) == 0


def test_trefoil_invariants():
    d = trefoil()
    assert d.n_components == 1
    assert writhe(d) == 3
    assert thurston_bennequin(d) == 1
    assert rotation(d) == 0


def test_figure_eight_shape_is_stabilized_unknot():
    d = FrontDiagram([L(1), X(1), R(1)])
    assert writhe(d) == -1
    assert thurston_bennequin(d) == -2
    assert abs(rotation(d)) == 1


def test_rotation_reverses_sign():
    d = FrontDiagram([L(1), X(1), R(1)])
    assert rotation(d, 0, reverse=True) == -rotation(d, 0)


def test_clasp_linking_number():
    d = FrontDiagram([L(1), L(3), X(2), X(2), R(1), R(1)])
    assert d.n_components == 2
    assert abs(linking_number(d, 0, 1)) == 1
    assert linking_number(d, 0, 1) == linking_number(d, 1, 0)


def test_split_components_do_not_link():
    d = FrontDiagram([L(1), R(1), L(1), R(1)])
    assert d.n_components == 2
    assert linking_number(d, 0, 1) == 0


def test_linking_needs_distinct_components():
    d = FrontDiagram([L(1), R(1), L(1), R(1)])
    with pytest.raises(DiagramError):
        linking_number(d, 0, 0)


def test_reflect_flips_writhe_of_trefoil_mirror():
    d = trefoil()
    m = reflect(d)
    assert m.n_components == 1
    # The mirror reverses the word and swaps cusp kinds; tb is again
    # writhe minus left cusps.
    assert thurston_bennequin(m) == writhe(m) - m.trace.left_cusps[0]


def test_component_index_out_of_range():
    with pytest.raises(DiagramError):
        thurston_bennequin(unknot(), 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 40))
def test_tb_formula_random_fronts(seed, steps):
    """tb = self-writhe - left cusps holds per component, and left and
    right cusp counts agree on every closed front."""
    d = random_front(random.Random(seed), steps)
    tr = d.trace
    for c in d.components:
        assert thurston_bennequin(d, c) == tr.self_writhe[c] - tr.left_cusps[c]
        assert tr.left_cusps[c] == tr.right_cusps[c]
        assert (tr.up_cusps[c] + tr.down_cusps[c]) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotation_parity(seed):
    """tb + rotation is odd for knots (both count cusp halves)."""
    d = random_knot(random.Random(seed))
    assert (thurston_bennequin(d) + rotation(d)) % 2 == 1


def test_classical_invariants_bundle():
    inv = classical_invariants(trefoil())
    assert (inv.tb, inv.rotation, inv.writhe) == (1, 0, 3)


def test_a_tuple_of_events_is_stored_as_given():
    word = (L(1), L(3), X(2), X(2), X(2), R(1), R(1))
    assert encode_word(word) is word
    assert FrontDiagram(word).events is word
    assert FrontDiagram(list(word)).events == word
    assert encode_word(iter(word)) == word


@pytest.mark.parametrize(
    "build, index",
    [
        (lambda: FrontDiagram([("L", 1), ("R", 1)]), 0),
        (lambda: FrontDiagram([L(1), ("R", 1)]), 1),
        (lambda: FrontDiagram([Event("L", "1"), Event("R", 1)]), 0),
        (lambda: StandardFormDiagram([], [], [Event("L", "1"), Event("R", 1)], []), 0),
        (lambda: FrontDiagram([Event("L", 1.0), Event("R", 1)]), 0),
        (lambda: FrontDiagram([L(1), Event("R", 1.0)]), 1),
        (lambda: FrontDiagram([L(1), Event("Q", 1)]), 1),
        (lambda: FrontDiagram("L1 R1"), 0),
        (lambda: FrontDiagram(None), -1),
    ],
)
def test_malformed_word_is_a_diagram_error(build, index):
    with pytest.raises(DiagramError) as err:
        build()
    assert err.value.index == index
