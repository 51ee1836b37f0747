"""Classical invariants of front words."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_front, random_knot
from frontkit import _kernel, certify, gallery, moves, satellite, standard, textio
from frontkit.errors import (
    BandObstructed,
    DiagramError,
    FormatError,
    MoveError,
    MoveNotApplicable,
    NotAKnot,
    ParameterOutOfRange,
    PortMismatch,
)
from frontkit.front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    _MAX_WORD,
    _check_size,
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
from frontkit.standard import (
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
)


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


def test_an_odd_count_in_a_patched_trace_raises():
    # A closed component turns at an even number of cusps and two closed
    # components cross an even number of times, so no word reaches these
    # checks: each runs on a trace patched by one count.
    d = unknot()
    d.trace.down_cusps[0] += 1
    with pytest.raises(DiagramError, match="odd cusp imbalance; component is not closed"):
        rotation(d)
    link = FrontDiagram([L(1), L(3), X(2), X(2), R(1), R(1)])
    link.trace.inter_sums[0, 1] += 1
    with pytest.raises(DiagramError, match="odd inter-component crossing sum"):
        linking_number(link, 0, 1)


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



def _strip():
    return gallery.stein_rep_max(-5, 2).diagram


_FAMILY = ParameterOutOfRange


@pytest.mark.parametrize(
    "call, error",
    [
        # A component or a document of the wrong type.
        pytest.param(lambda: rotation(trefoil(), 0.0), DiagramError, id="rotation"),
        pytest.param(
            lambda: linking_number(satellite.n_copy(trefoil(), 2), "a", 1),
            DiagramError,
            id="linking_number",
        ),
        pytest.param(
            lambda: standard.closure_to_sphere(_strip(), "a"),
            DiagramError,
            id="closure_to_sphere",
        ),
        pytest.param(
            lambda: standard.geometric_passes(_strip(), "a", "H"),
            DiagramError,
            id="geometric_passes",
        ),
        pytest.param(
            lambda: certify.certify_tb_max(
                trefoil(), 0.0, certify.GenusCertificate(0, 1)
            ),
            DiagramError,
            id="certify_tb_max",
        ),
        pytest.param(
            lambda: certify.certify_tb_max(trefoil(), 0, "g"),
            _FAMILY,
            id="certify_tb_max-certificate",
        ),
        pytest.param(
            lambda: standard.stein_check(_strip()), DiagramError, id="stein_check"
        ),
        pytest.param(lambda: textio.parse(123), FormatError, id="parse"),
        pytest.param(lambda: textio.parse_script(5), FormatError, id="parse_script"),
        pytest.param(lambda: textio.print_text("front"), DiagramError, id="print_text"),
        pytest.param(lambda: textio.render("front"), DiagramError, id="render"),
        pytest.param(
            lambda: standard.SteinHandlebody("x", []), DiagramError, id="handlebody-str"
        ),
        pytest.param(
            lambda: standard.SteinHandlebody(trefoil(), []),
            DiagramError,
            id="handlebody-front",
        ),
        pytest.param(
            lambda: standard.SteinHandlebody(_strip(), None),
            DiagramError,
            id="handlebody-None",
        ),
        pytest.param(
            lambda: standard.SteinHandlebody(
                _strip(), [standard.TwoHandleAttachment(0, "x")]
            ),
            DiagramError,
            id="attachment-framing",
        ),
        pytest.param(
            lambda: standard.StandardFormDiagram(["H"], [], [], []),
            PortMismatch,
            id="handle-str",
        ),
        pytest.param(
            lambda: standard.StandardFormDiagram(
                [standard.OneHandle("H", 1)], [["H", 1]], [L(1), R(1)], [["H", 1]]
            ),
            PortMismatch,
            id="port-unhashable",
        ),
        # An integer family parameter of the wrong type.
        pytest.param(lambda: gallery.K_m_front("a"), _FAMILY, id="K_m_front"),
        pytest.param(
            lambda: gallery.K_mn_cable_front(-1, 2.0), _FAMILY, id="K_mn_cable_front"
        ),
        pytest.param(lambda: gallery.Z_m_handlebody("a"), _FAMILY, id="Z_m_handlebody"),
        pytest.param(
            lambda: gallery.stein_rep_max(-5, "a"), _FAMILY, id="stein_rep_max"
        ),
        pytest.param(
            lambda: gallery.stein_rep_variant("a", 2), _FAMILY, id="stein_rep_variant"
        ),
        pytest.param(
            lambda: gallery.step3_pipeline(-5.0, 2), _FAMILY, id="step3_pipeline"
        ),
        pytest.param(lambda: satellite.n_copy(trefoil(), 1.5), _FAMILY, id="n_copy"),
        pytest.param(lambda: satellite.cable(trefoil(), 2, "x"), _FAMILY, id="cable"),
        pytest.param(lambda: satellite.BraidWord(2, ("a",)), _FAMILY, id="BraidWord"),
        pytest.param(
            lambda: satellite.twist_box_expand(satellite.TwistBox(2, "x")),
            _FAMILY,
            id="twist_box_expand",
        ),
        pytest.param(lambda: satellite.BraidWord(2, 5), _FAMILY, id="BraidWord-letters"),
        pytest.param(
            lambda: satellite.twist_box_expand("x"), _FAMILY, id="twist_box_expand-box"
        ),
        pytest.param(
            lambda: satellite.braid_events(satellite.BraidWord(3, (1, -2)), "1"),
            _FAMILY,
            id="braid_events-base",
        ),
        pytest.param(
            lambda: certify.GenusCertificate(0, "1"), _FAMILY, id="GenusCertificate"
        ),
        pytest.param(
            lambda: certify.adjunction_bound("x"), _FAMILY, id="adjunction_bound"
        ),
        pytest.param(
            lambda: certify.GenusCertificate("0", 0),
            _FAMILY,
            id="GenusCertificate-component",
        ),
        pytest.param(
            lambda: certify.reducibility_report("a", 2),
            _FAMILY,
            id="reducibility_report",
        ),
        # A bool is not an int, though it equals one.
        pytest.param(
            lambda: thurston_bennequin(satellite.n_copy(trefoil(), 2), True),
            DiagramError,
            id="component-bool",
        ),
        pytest.param(
            lambda: moves.stabilize(trefoil(), 0, 1, (True, 1)),
            MoveNotApplicable,
            id="stabilize-site-bool",
        ),
        pytest.param(
            lambda: moves.pull_off(_strip(), "H", True),
            MoveNotApplicable,
            id="pull_off-slot-bool",
        ),
        pytest.param(
            lambda: moves.apply_move(
                gallery.stein_rep_max(-5, 2),
                moves.Move("HandleSlide", data=(0, True, -5, 1)),
            ),
            MoveNotApplicable,
            id="slide-circle-bool",
        ),
        pytest.param(
            lambda: OneHandle("H", True), PortMismatch, id="handle-slots-bool"
        ),
        pytest.param(
            lambda: SteinHandlebody(_strip(), [TwoHandleAttachment(True, -5)]),
            DiagramError,
            id="attachment-component-bool",
        ),
        # The port lists and handles of a strip are sequences.
        pytest.param(
            lambda: StandardFormDiagram([OneHandle("H", 1)], None, [], None),
            PortMismatch,
            id="ports-None",
        ),
        pytest.param(
            lambda: StandardFormDiagram(5, [], [], []), PortMismatch, id="handles-int"
        ),
    ],
)
def test_a_value_of_the_wrong_type_raises_a_typed_error(call, error):
    with pytest.raises(error):
        call()


def _link():
    return satellite.n_copy(trefoil(), 2)


def _handlebody():
    """One 1-handle and two components; the attachment is on component 1."""
    return gallery.stein_rep_max(-5, 2)


def _site_on_component_1():
    d = _link()
    return next(
        (idx, lvl)
        for idx, here in enumerate(_kernel.slices(d.events, d.trace))
        for lvl, s in enumerate(here, 1)
        if d.trace.strand_component[s] == 1
    )


def _slide_over_a_circle_without_left_cusp():
    # The strand through the one port closes up through the handle with
    # no cusp; the cusp pair below it is the other component.
    port = [("H", 1)]
    d = StandardFormDiagram([OneHandle("H", 1)], port, [L(2), R(2)], port)
    h = SteinHandlebody(d, [TwoHandleAttachment(0, standard.tb_standard(d, 0) - 1)])
    return moves.handle_slide(h, 1, h.attachments[0])


def _both_attached():
    # One component through the handle once, and a cusp pair below it.
    port = [("H", 1)]
    d = StandardFormDiagram([OneHandle("H", 1)], port, [L(2), R(2)], port)
    return SteinHandlebody(
        d, [TwoHandleAttachment(c, standard.tb_standard(d, c) - 1) for c in (0, 1)]
    )


def _finger_crossed_by_another_strand():
    # Slots 1 and 2 are joined by a right cusp, after the slot-2 strand
    # crossed the slot-3 strand twice.
    ports = [("H", 1), ("H", 2), ("H", 3)]
    d = StandardFormDiagram([OneHandle("H", 3)], ports, [X(2), X(2), R(1), L(1)], ports)
    return moves.pull_off(d, "H", 1)


def _slots_apart():
    ports = [("H", 1), ("G", 1), ("H", 2)]
    d = StandardFormDiagram([OneHandle("H", 2), OneHandle("G", 1)], ports, [], ports)
    return moves.pull_off(d, "H", 1)


_ATTACHED = TwoHandleAttachment(1, -5)
_OUTSIDE = TwoHandleAttachment(5, 0)


def _slide_between_nested_unknots():
    # Component 1 sits between 0 and 2 in every slice, so no band site
    # joins 0 to a push-off copy of 2.
    d = StandardFormDiagram([], [], [L(1), L(3), L(5), R(5), R(3), R(1)], [])
    h = SteinHandlebody(d, [TwoHandleAttachment(2, -2)])
    assert moves.band_sites(h, 0, h.attachments[0]) == []
    return moves.handle_slide(h, 0, h.attachments[0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: moves.stabilize(unknot(), sign=2),
            MoveNotApplicable, "stabilization sign must be ±1, got 2",
            id="stabilize-sign",
        ),
        *(
            pytest.param(
                lambda sign=sign: moves.stabilize(trefoil(), 0, sign),
                MoveNotApplicable, f"stabilization sign must be ±1, got {sign!r}",
                id=f"stabilize-sign-{sign!r}",
            )
            for sign in (True, False, 1.0, -1.0)
        ),
        pytest.param(
            lambda: moves.stabilize(_link()),
            MoveNotApplicable, "ambiguous component for stabilization",
            id="stabilize-link",
        ),
        pytest.param(
            lambda: moves.stabilize(_link(), 0, site=_site_on_component_1()),
            MoveNotApplicable, "site (2, 3) is not on component 0", id="stabilize-site",
        ),
        pytest.param(
            lambda: moves.stabilize(trefoil(), 5),
            MoveNotApplicable, "component 5 has no visible strand",
            id="stabilize-component",
        ),
        # Equal to 1 as they are, a bool and a float name no component.
        *(
            pytest.param(
                lambda c=c: moves.stabilize(_link(), c),
                MoveNotApplicable, f"component {c!r} is not an int",
                id=f"stabilize-component-{c!r}",
            )
            for c in (True, 1.0)
        ),
        pytest.param(
            lambda: moves.handle_slide(_handlebody(), 0, _OUTSIDE),
            MoveNotApplicable, "attachment is not part of the handlebody",
            id="slide-attachment",
        ),
        pytest.param(
            lambda: moves.handle_slide(_handlebody(), 9, _ATTACHED),
            MoveNotApplicable, "no such component", id="slide-component",
        ),
        pytest.param(
            lambda: moves.handle_slide(_handlebody(), 1, _ATTACHED),
            MoveNotApplicable, "cannot slide a component over itself", id="slide-self",
        ),
        pytest.param(
            lambda: moves.handle_slide(_handlebody(), 0, _ATTACHED, 999),
            BandObstructed, "band site 999 of 22 does not exist", id="slide-site",
        ),
        pytest.param(
            _slide_over_a_circle_without_left_cusp,
            BandObstructed,
            "attaching circle has no left cusp to carry the framing kink",
            id="slide-no-left-cusp",
        ),
        pytest.param(
            _slide_between_nested_unknots,
            BandObstructed, "no band location between the two curves",
            id="slide-no-band-site",
        ),
        pytest.param(
            lambda: moves.handle_slide(_strip(), 0, _ATTACHED),
            MoveNotApplicable, "a handle slide does not act on a StandardFormDiagram",
            id="slide-strip",
        ),
        pytest.param(
            lambda: moves.band_sites(_strip(), 0, _ATTACHED),
            MoveNotApplicable, "a handle slide does not act on a StandardFormDiagram",
            id="band-sites-strip",
        ),
        pytest.param(
            lambda: moves.clean_band_sites(_strip(), 0, _ATTACHED),
            MoveNotApplicable, "a handle slide does not act on a StandardFormDiagram",
            id="clean-band-sites-strip",
        ),
        pytest.param(
            lambda: moves.cancel_pair(_strip(), "H", _ATTACHED),
            MoveNotApplicable, "a cancellation does not act on a StandardFormDiagram",
            id="cancel-strip",
        ),
        pytest.param(
            lambda: moves.cancel_pair(trefoil(), "H", _ATTACHED),
            MoveNotApplicable, "a cancellation does not act on a FrontDiagram",
            id="cancel-front",
        ),
        pytest.param(
            lambda: moves.pull_off(5, "H", 1),
            MoveNotApplicable, "a pull-off does not act on a int", id="pull-off-int",
        ),
        pytest.param(
            lambda: moves.pull_off(None, "H", 1),
            MoveNotApplicable, "a pull-off does not act on a NoneType",
            id="pull-off-None",
        ),
        pytest.param(
            lambda: moves.MoveScript(5),
            MoveNotApplicable, "moves 5 are not a sequence", id="script-int",
        ),
        pytest.param(
            lambda: textio.print_script(moves.MoveScript((1,))),
            MoveNotApplicable, "malformed move 1", id="script-item",
        ),
        pytest.param(
            lambda: moves.MoveScript((), note="a\nb"),
            MoveError, "note 'a\\nb' is not one line of text", id="script-note-lines",
        ),
        pytest.param(
            lambda: moves.MoveScript((), note="a\n"),
            MoveError, "note 'a\\n' is not one line of text", id="script-note-newline",
        ),
        pytest.param(
            lambda: moves.MoveScript((), note=5),
            MoveError, "note 5 is not one line of text", id="script-note-int",
        ),
        pytest.param(
            lambda: textio.print_script([1, 2]),
            MoveError, "expected a MoveScript, got a list", id="print-script-list",
        ),
        pytest.param(
            lambda: moves.cancel_pair(_handlebody(), "H", _OUTSIDE),
            MoveNotApplicable, "attachment is not part of the handlebody",
            id="cancel-attachment",
        ),
        pytest.param(
            lambda: moves.cancel_pair(_handlebody(), "G", _ATTACHED),
            MoveNotApplicable, "no handle 'G'", id="cancel-handle",
        ),
        pytest.param(
            lambda: moves.cancel_pair(
                _both_attached(), "H", TwoHandleAttachment(0, -1)
            ),
            MoveNotApplicable,
            "2-handles remain but no 1-handles do; nothing to cancel into",
            id="cancel-last-handle",
        ),
        pytest.param(
            _finger_crossed_by_another_strand,
            MoveNotApplicable, "event 0 ties the finger to an outside strand",
            id="pull-off-crossed",
        ),
        pytest.param(
            _slots_apart,
            MoveNotApplicable, "handle slots are not adjacent at the edges",
            id="pull-off-slots",
        ),
        pytest.param(
            lambda: StandardFormDiagram([OneHandle("H", 1)] * 2, [], [], []),
            PortMismatch, "duplicate handle ids", id="strip-ids",
        ),
        pytest.param(
            lambda: StandardFormDiagram(
                [OneHandle("H", 2)], [("H", 1)], [], [("H", 1)]
            ),
            PortMismatch, "left ports missing: ('H', 2)", id="strip-port",
        ),
        pytest.param(
            lambda: SteinHandlebody(_handlebody().diagram, ["x"]),
            DiagramError, "'x' is not a TwoHandleAttachment", id="handlebody-item",
        ),
        pytest.param(
            lambda: SteinHandlebody(_handlebody().diagram, [TwoHandleAttachment(7, 0)]),
            DiagramError, "attachment on missing component 7",
            id="handlebody-component",
        ),
        pytest.param(
            lambda: SteinHandlebody(
                _handlebody().diagram,
                [TwoHandleAttachment(0, -1), TwoHandleAttachment(0, -2)],
            ),
            DiagramError, "component 0 attached twice", id="handlebody-twice",
        ),
        pytest.param(
            lambda: textio.parse(""),
            FormatError,
            "line 1, column 1: empty document: expected 'front' or 'standard' header",
            id="parse-empty",
        ),
        pytest.param(
            lambda: textio.parse("standard\nhandle H 1\nPH.1\nhandle G 1\n"),
            FormatError, "line 4, column 1: handle declarations must precede the body",
            id="parse-handle",
        ),
        pytest.param(
            lambda: textio.parse(
                "standard\nhandle H 1\nPH.1\nattach 0 framing -1\nPH.1\n"
            ),
            FormatError, "line 5, column 1: attach lines must come last",
            id="parse-attach",
        ),
        pytest.param(
            lambda: gallery.K_mn_cable_front(-1, 1),
            ParameterOutOfRange, "cable needs n >= 2, got 1", id="cable-front-n",
        ),
        pytest.param(
            lambda: gallery.candidate_component(_both_attached()),
            DiagramError, "expected one free component, found 0",
            id="no-free-component",
        ),
        pytest.param(
            lambda: satellite.cable_expand(trefoil(), 2, 5),
            ParameterOutOfRange, "no component 5 to widen", id="cable-expand-component",
        ),
        *(
            pytest.param(
                lambda n=n: satellite.BraidWord(n),
                ParameterOutOfRange,
                f"strands must be positive (an int >= 1), got {n}",
                id=f"braid-strands-{n}",
            )
            for n in (0, -2)
        ),
        pytest.param(
            lambda: satellite.twist_box_expand(satellite.TwistBox(0, 3)),
            ParameterOutOfRange, "strands must be positive (an int >= 1), got 0",
            id="twist-box-strands",
        ),
        # A size past the bound fails before anything is allocated, for
        # counts past sys.maxsize and for counts below it.
        *(
            pytest.param(
                call, ParameterOutOfRange,
                f"{name} asks for a size past the bound {_MAX_WORD}",
                id=f"repeats-{label}",
            )
            for label, call, name in (
                ("K-m", lambda: gallery.K_m_front(-10**20), "m"),
                ("Z-negative-m", lambda: gallery.Z_m_handlebody(-10**20), "m"),
                ("Z-positive-m", lambda: gallery.Z_m_handlebody(10**20), "m"),
                ("twist-box", lambda: satellite.twist_box_expand(
                    satellite.TwistBox(2, -10**20)), "amount"),
                ("cable-q", lambda: satellite.cable(trefoil(), 2, 10**23), "q"),
                ("K-m-2**40", lambda: gallery.K_m_front(-2**40), "m"),
                ("Z-m-2**40", lambda: gallery.Z_m_handlebody(-2**40), "m"),
                ("twist-box-strands", lambda: satellite.twist_box_expand(
                    satellite.TwistBox(10**12, 1)), "amount"),
                ("cable-q-below-maxsize", lambda: satellite.cable(
                    gallery.K_m_front(-1), 2, 99999999999999999), "q"),
                ("cable-front-n", lambda: gallery.K_mn_cable_front(
                    -1, 99999999999999), "copies"),
                ("parse-handle-slots", lambda: textio.parse(
                    "standard\nhandle H 99999999999\n"), "handle 'H'"),
            )
        ),
        *(
            pytest.param(
                lambda c=c: satellite.cable_expand(_link(), 2, c),
                ParameterOutOfRange, f"no component {c!r} to widen",
                id=f"cable-expand-component-{c!r}",
            )
            for c in (True, 1.0)
        ),
    ],
)
def test_each_typed_error_is_raised_with_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_the_size_bound_holds_at_the_bound_and_fails_past_it():
    _check_size("m", _MAX_WORD)
    assert OneHandle("H", _MAX_WORD).slots == _MAX_WORD
    with pytest.raises(
        ParameterOutOfRange, match=f"^m asks for a size past the bound {_MAX_WORD}$"
    ):
        _check_size("m", _MAX_WORD + 1)
    with pytest.raises(ParameterOutOfRange, match="^handle 'H' asks for a size past"):
        OneHandle("H", _MAX_WORD + 1)


def test_a_strip_past_the_size_bound_is_not_traced(monkeypatch):
    # The declared slots count as the left ports, before any port set is
    # built: one slot and a word of the bound are one past it.
    def untraced(*args):
        raise AssertionError("the word was traced")

    monkeypatch.setattr(_kernel, "trace", untraced)
    port = [("H", 1)]
    with pytest.raises(ParameterOutOfRange, match="^word asks for a size past"):
        StandardFormDiagram([OneHandle("H", 1)], port, [X(1)] * _MAX_WORD, port)
    with pytest.raises(ParameterOutOfRange, match="^word asks for a size past"):
        StandardFormDiagram([OneHandle("H", _MAX_WORD), OneHandle("G", 1)], [], [], [])
