"""Parameterized families: every stated invariant recomputed."""

import dataclasses
import hashlib
import sys

import pytest

from frontkit import gallery
from frontkit.certify import (
    CERTIFIED,
    INCONSISTENT,
    GenusCertificate,
    certify_tb_max,
)
from frontkit.errors import DiagramError, MoveNotApplicable, ParameterOutOfRange
from frontkit.explore import SearchConfig, bfs_max_tb
from frontkit.front import (
    _MAX_WORD,
    FrontDiagram,
    L,
    R,
    X,
    rotation,
    thurston_bennequin,
    trefoil,
)
from frontkit.gallery import (
    K_m_front,
    K_mn_cable_front,
    Z_m_handlebody,
    candidate_component,
    close_handlebody,
    gallery_manifest,
    stein_rep_max,
    stein_rep_variant,
    step3_pipeline,
    torus_front,
)
from frontkit.moves import Move, SteinHandlebody, apply_move
from frontkit.standard import (
    OneHandle,
    StandardFormDiagram,
    TwoHandleAttachment,
    geometric_passes,
    homology_vector,
    stein_check,
    tb_standard,
)
from frontkit.textio import print_script, print_text


def test_a_drifted_reconstruction_raises(monkeypatch):
    # The builders recompute what they state; with the invariants patched
    # to drift, the check raises instead of returning the front.
    real = gallery.classical_invariants
    monkeypatch.setattr(
        gallery, "classical_invariants",
        lambda d: dataclasses.replace(real(d), tb=0),
    )
    with pytest.raises(
        DiagramError, match="gallery reconstruction drifted: K_-2 recomputed tb 0 != -1"
    ):
        K_m_front(-2)


@pytest.mark.parametrize("crossings", [0, 2, -1])
def test_a_finger_needs_an_odd_crossing_count(crossings):
    # The builders ask only for odd counts (4n - 5), so the check is
    # run on the helper itself.
    with pytest.raises(DiagramError, match="finger needs an odd crossing count"):
        gallery._finger(3, crossings)


@pytest.mark.parametrize("m", range(-1, -11, -1))
def test_twist_knot_family(m):
    d = K_m_front(m)
    assert d.n_components == 1
    assert thurston_bennequin(d) == -1
    assert rotation(d) == 0


def test_twist_knot_rejects_positive_m():
    with pytest.raises(ParameterOutOfRange):
        K_m_front(0)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("m", (-1, -5))
def test_cable_family(m, n):
    d = K_mn_cable_front(m, n)
    assert d.n_components == 1
    assert thurston_bennequin(d) == -2 * n + 1


def test_one_handle_twist_record():
    for m in (-4, 0, 3):
        h = Z_m_handlebody(m)
        assert h.attachments[0].framing == m
        assert geometric_passes(h.diagram, 0, "H") == 1


def test_stein_rep_max_contract():
    h = stein_rep_max(-5, 2)
    assert stein_check(h) == []
    cand = candidate_component(h)
    assert tb_standard(h.diagram, cand) == -1
    assert homology_vector(h.diagram, cand) == (0,)


def test_stein_rep_max_range():
    stein_rep_max(-4 * 2 + 3, 2)  # boundary value is allowed
    for build, bound in (
        (stein_rep_max, lambda n: -4 * n + 3),
        (stein_rep_variant, lambda n: -2 * n - 1),
    ):
        for n in (2, 3, 4):
            build(bound(n), n)
            with pytest.raises(ParameterOutOfRange) as err:
                build(bound(n) + 1, n)
            assert str(err.value) == (
                "contact -1 framing unattainable: "
                f"need m <= {bound(n)}, got {bound(n) + 1}"
            )
    with pytest.raises(ParameterOutOfRange):
        stein_rep_max(-4, 2)
    with pytest.raises(ParameterOutOfRange):
        stein_rep_max(-10, 1)


@pytest.mark.parametrize(
    "build, m, n, name",
    [
        (stein_rep_max, -(sys.maxsize + 1), 2, "m"),
        (stein_rep_variant, -(sys.maxsize + 1), 2, "m"),
        (gallery.step3_pipeline, -(sys.maxsize + 1), 2, "m"),
        (stein_rep_max, -8 * sys.maxsize, 2 * sys.maxsize, "n"),
        (stein_rep_variant, -8 * sys.maxsize, 2 * sys.maxsize, "n"),
        (stein_rep_variant, -(2**63), 2**61, "n"),
        (stein_rep_max, -(2**40), 2, "m"),
        (stein_rep_max, -131073, 2, "m"),
    ],
)
def test_a_stein_representative_past_maxsize_builds_no_word(
    monkeypatch, build, m, n, name
):
    # The size of the strip is checked against the size bound before any
    # of its word is built: its ports, the candidate and the finger count
    # against n, and the circle's zigzags against m.  At m = -131072 the
    # size is the bound.
    def unbuilt(*args):
        raise AssertionError("the word was built")

    monkeypatch.setattr(gallery, "_candidate_events", unbuilt)
    with pytest.raises(
        ParameterOutOfRange,
        match=f"^{name} asks for a size past the bound {_MAX_WORD}$",
    ):
        build(m, n)


def test_stein_rep_variant_contract():
    for n in (2, 3, 4):
        h = stein_rep_variant(-2 * n - 1, n)
        assert stein_check(h) == []
        assert tb_standard(h.diagram, candidate_component(h)) == -n + 1


def test_step3_pipeline_closes_at_minus_one():
    closed, script = step3_pipeline(-5, 2)
    assert isinstance(closed, FrontDiagram)
    assert closed.n_components == 1
    assert thurston_bennequin(closed) == -1
    replay = script.replay(stein_rep_max(-5, 2))
    assert replay.events == closed.events


# At each criterion 5-8 point the step-3 front, stated as tb -1 maximal
# and certified so at genus 0, destabilizes twice to tb 1 at its tail,
# which contradicts that certificate.  These pins are expected to change
# only when the construction is rebuilt.
_STEP3_NODES = {
    (-5, 2): 80, (-10, 2): 550, (-9, 3): 138,
    (-14, 3): 688, (-13, 4): 212, (-18, 4): 842,
}


@pytest.mark.parametrize("m, n", sorted(_STEP3_NODES))
def test_step3_front_destabilizes_past_its_certificate(m, n):
    front = step3_pipeline(m, n)[0]
    result = bfs_max_tb(front, SearchConfig(2, 2000))
    assert result.best_tb == 1
    assert not result.exhausted
    assert result.nodes_expanded == _STEP3_NODES[m, n]
    idx = len(front.events) - 5
    assert result.witness.moves == (
        Move("Destabilize", idx, 1, ("down",)),
        Move("Destabilize", idx, 2, ("down",)),
    )
    genus0 = GenusCertificate(0, 0)
    assert certify_tb_max(front, 0, genus0).verdict == CERTIFIED
    witness = certify_tb_max(result.witness.replay(front), 0, genus0)
    assert (witness.tb, witness.verdict) == (1, INCONSISTENT)


# With no slide, one pull-off and the cancellation close the candidate
# to the unknot L1 R1 at each of the points above, while the two slides
# of step 3 close it to a front that reaches tb 1, which no unknot does.
# This pins that contradiction with
# test_step3_front_destabilizes_past_its_certificate; mending the handle
# move that makes it will change this test.
@pytest.mark.parametrize("m, n", sorted(_STEP3_NODES))
def test_the_candidate_closes_to_the_unknot_with_no_slide(m, n):
    closed, script = close_handlebody(stein_rep_max(m, n))
    assert closed.events == (L(1), R(1))
    assert script.moves == (
        Move("PullOff", data=("H", 1)),
        Move("CancelPair", data=("H", 0, m)),
    )
    assert script.replay(stein_rep_max(m, n)) == closed


def test_step3_is_the_closing_with_two_slides_at_the_first_site():
    closed, script = close_handlebody(stein_rep_max(-5, 2), (0, 0))
    want, want_script = step3_pipeline(-5, 2)
    assert (closed, script.moves) == (want, want_script.moves)


def _candidate_around_the_circle():
    # The candidate passes slots 1 and 3 with opposite signs, and the
    # circle passes slot 2 between them.
    ports = [("H", 1), ("H", 2), ("H", 3)]
    d = StandardFormDiagram([OneHandle("H", 3)], ports, [X(2), R(1), L(1), X(2)], ports)
    return SteinHandlebody(d, [TwoHandleAttachment(d.component_of_port(("H", 2)), -1)])


@pytest.mark.parametrize(
    "build, slides, error, message",
    [
        (_candidate_around_the_circle, (), MoveNotApplicable,
         "no adjacent slots of opposite signs to pull off"),
        (lambda: Z_m_handlebody(-3).diagram, (), DiagramError,
         "expected a handlebody with one 1-handle and one 2-handle"),
        (lambda: SteinHandlebody(stein_rep_max(-5, 2).diagram, []), (), DiagramError,
         "expected a handlebody with one 1-handle and one 2-handle"),
        (lambda: stein_rep_max(-5, 2), (21,), MoveNotApplicable,
         "no clean band site 21 of 21"),
        (lambda: stein_rep_max(-5, 2), (True,), MoveNotApplicable,
         "no clean band site True of 21"),
        (lambda: stein_rep_max(-5, 2), (0,), DiagramError,
         "gallery reconstruction drifted: "
         "candidate homology is not zero after the slides"),
    ],
)
def test_a_closing_route_that_cannot_close_is_a_typed_error(
    build, slides, error, message
):
    with pytest.raises(error) as err:
        close_handlebody(build(), slides)
    assert type(err.value) is error
    assert str(err.value) == message


def test_K_m_front_reaches_tb_3():
    # K_m_front(-1) is stated at tb -1, yet search reaches tb 3.
    result = bfs_max_tb(K_m_front(-1), SearchConfig(12, 30000))
    assert result.best_tb == 3
    assert not result.exhausted
    assert result.nodes_expanded == 21471
    assert thurston_bennequin(result.witness.replay(K_m_front(-1))) == 3


# (m, n) points that no other test runs: n = 5, 6, and m below -4n-5.
_WIDER_GRID = [
    (-4 * n + 3 - k, n)
    for n in range(2, 7)
    for k in range(12)
    if n > 4 or k > 8
]


def test_step3_pipeline_closes_at_minus_one_on_a_wider_grid():
    assert len(_WIDER_GRID) == 33
    for m, n in _WIDER_GRID:
        closed, script = step3_pipeline(m, n)
        assert closed.n_components == 1
        assert thurston_bennequin(closed) == -1, (m, n)
        assert script.replay(stein_rep_max(m, n)) == closed, (m, n)


def test_step3_pipeline_output_is_pinned():
    # Every diagram along each script, slot numbering included, then the
    # script itself: a handle move that renumbers a port differently
    # changes the digest.
    digest = hashlib.sha256()
    for m, n in ((-5, 2), (-9, 3), (-13, 4)):
        _closed, script = step3_pipeline(m, n)
        current = stein_rep_max(m, n)
        digest.update(print_text(current).encode())
        for mv in script.moves:
            current = apply_move(current, mv)
            digest.update(print_text(current).encode())
        digest.update(print_script(script).encode())
    assert digest.hexdigest() == (
        "ca584aeb1dcdd96868193be5d62bab586836f2ffd5cfdd19d693660ba8816398"
    )


def test_manifest_entries_carry_recomputed_invariants():
    for entry in gallery_manifest():
        assert entry.invariants["components"] >= 1
        if entry.name in ("unknot", "K_m", "step3_front"):
            assert entry.invariants["tb"] == -1


# The positive torus knots and their tb_max = pq - p - q (Etnyre-Honda).
_TORUS_TB = {
    (2, 3): 1, (2, 5): 3, (2, 7): 5, (3, 4): 5,
    (3, 5): 7, (3, 7): 11, (4, 5): 11, (5, 6): 19,
}


@pytest.mark.parametrize("p, q", sorted(_TORUS_TB))
def test_torus_front_has_its_known_tb(p, q):
    d = torus_front(p, q)
    assert len(d.events) == 2 * p + (p - 1) * q
    assert d.events[:p] == tuple(L(i) for i in range(1, p + 1))
    assert d.events[-p:] == tuple(R(i) for i in range(p, 0, -1))
    assert set(d.events[p:-p]) == {X(i) for i in range(1, p)}
    assert d.n_components == 1
    assert (thurston_bennequin(d), rotation(d)) == (_TORUS_TB[p, q], 0)


def test_torus_front_2_3_is_the_trefoil_front_at_its_tb():
    d, t = torus_front(2, 3), trefoil()
    assert d.events != t.events
    for f in (thurston_bennequin, rotation):
        assert f(d) == f(t)


@pytest.mark.parametrize(
    "p, q, message",
    [
        pytest.param(1, 3, "torus needs p >= 2, got 1", id="p-1"),
        pytest.param(
            -(10**5000), 3, "torus needs p >= 2, got a negative int of 5001 digits",
            id="p-huge-negative",
        ),
        pytest.param(2, 0, "torus needs q >= 1, got 0", id="q-0"),
        pytest.param(
            2, -(10**5000), "torus needs q >= 1, got a negative int of 5001 digits",
            id="q-huge-negative",
        ),
        pytest.param(
            2, 4, r"torus needs gcd\(p, q\) = 1, got gcd\(2, 4\) = 2", id="gcd-2"
        ),
        pytest.param(6, 9, r"got gcd\(6, 9\) = 3", id="gcd-3"),
        pytest.param(True, 3, "p must be an int, got True", id="p-bool"),
        pytest.param(2, 3.0, "q must be an int, got 3.0", id="q-float"),
        pytest.param(
            10**5000, 3, f"p asks for a size past the bound {_MAX_WORD}", id="p-huge"
        ),
        pytest.param(
            _MAX_WORD // 3 + 1, 1, f"p asks for a size past the bound {_MAX_WORD}",
            id="p-past-the-bound",
        ),
        pytest.param(
            2, 10**5000, f"q asks for a size past the bound {_MAX_WORD}", id="q-huge"
        ),
        pytest.param(
            2, _MAX_WORD - 3, f"q asks for a size past the bound {_MAX_WORD}",
            id="q-past-the-bound",
        ),
    ],
)
def test_torus_front_refuses_what_it_cannot_build(monkeypatch, p, q, message):
    # Each refusal comes before the word is built.
    monkeypatch.setattr(gallery, "FrontDiagram", None)
    with pytest.raises(ParameterOutOfRange, match=message):
        torus_front(p, q)


def test_torus_front_at_the_size_bound():
    # 2p + (p - 1)q events: 4 + q at p = 2.
    assert len(torus_front(2, _MAX_WORD - 5).events) == _MAX_WORD - 1
