"""Standard-form diagrams: ports, handle invariants, and closure."""

import pytest

from frontkit import gallery
from frontkit.errors import DiagramError, MoveNotApplicable, NotAKnot, PortMismatch
from frontkit.explore import fuzz_moves
from frontkit.front import FrontDiagram, L, R, X, thurston_bennequin, trefoil
from frontkit.moves import apply_move, enumerate_moves, pull_off
from frontkit.satellite import n_copy
from frontkit.standard import (
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
    carried_components,
    closure_to_sphere,
    geometric_passes,
    homology_vector,
    pass_signs,
    sorted_ports,
    stein_check,
    tb_standard,
)
from frontkit.textio import parse, print_text


def straight_strand():
    """One strand through one handle: the dotted-circle core dual."""
    return StandardFormDiagram(
        [OneHandle("H", 1)], [("H", 1)], [], [("H", 1)]
    )


def test_straight_strand_is_a_knot():
    d = straight_strand()
    assert d.n_components == 1
    assert tb_standard(d, 0) == 0
    assert geometric_passes(d, 0, "H") == 1
    assert homology_vector(d, 0) in ((1,), (-1,))


def test_port_declared_twice_rejected():
    with pytest.raises(PortMismatch):
        StandardFormDiagram(
            [OneHandle("H", 1)], [("H", 1), ("H", 1)], [R(1)], [("H", 1)]
        )


def test_unknown_port_rejected():
    with pytest.raises(PortMismatch):
        StandardFormDiagram([OneHandle("H", 1)], [("H", 2)], [], [("H", 2)])


@pytest.mark.parametrize("slots", [-1, "2", 1.0, None])
def test_slot_count_must_be_an_int_at_least_zero(slots):
    with pytest.raises(PortMismatch, match="is not an int >= 0"):
        StandardFormDiagram([OneHandle("H", slots)], [], [], [])


@pytest.mark.parametrize(
    "hid", [["H"], "H.1", "H 1", "H\t", "", 5, True, None, ("H",), "H#1"]
)
def test_handle_id_must_be_a_word_without_dots(hid):
    # An unhashable id, an id that the text format cannot print as one
    # word, and an id that would parse back as a str.
    with pytest.raises(PortMismatch, match="handle id"):
        StandardFormDiagram([OneHandle(hid, 1)], [(hid, 1)], [], [(hid, 1)])


def test_a_valid_handle_id_round_trips():
    d = StandardFormDiagram(
        [OneHandle("H_1-a", 2)],
        [("H_1-a", 1), ("H_1-a", 2)],
        [X(1)],
        [("H_1-a", 1), ("H_1-a", 2)],
    )
    assert parse(print_text(d)) == d


@pytest.mark.parametrize("component", ["0", 1.0, None])
def test_attachment_component_must_be_an_int(component):
    d = gallery.stein_rep_max(-5, 2).diagram
    with pytest.raises(DiagramError, match="is not an int"):
        SteinHandlebody(d, [TwoHandleAttachment(component, -3)])


def test_slot_order_must_increase():
    with pytest.raises(PortMismatch):
        StandardFormDiagram(
            [OneHandle("H", 2)],
            [("H", 2), ("H", 1)],
            [],
            [("H", 2), ("H", 1)],
        )


def test_zigzag_through_handle_tb():
    # One pass with a stabilizing zigzag: tb drops by 1.
    d = StandardFormDiagram(
        [OneHandle("H", 1)], [("H", 1)], [L(2), R(1)], [("H", 1)]
    )
    assert tb_standard(d, 0) == -1


def test_double_pass_homology():
    d = StandardFormDiagram(
        [OneHandle("H", 2)],
        [("H", 1), ("H", 2)],
        [X(1)],
        [("H", 1), ("H", 2)],
    )
    assert d.n_components == 1
    assert geometric_passes(d, 0, "H") == 2
    assert homology_vector(d, 0) in ((0,), (2,), (-2,))


def _reference_port_reads(d, c):
    """``pass_signs(d, c)`` and the component of every port, read
    without ``port_links``: a ``left_ports.index`` and a
    ``right_ports.index`` scan per port."""
    t = d.trace
    signs, owner = {}, {}
    for p in sorted_ports(d):
        lstrand = t.initial_strands[d.left_ports.index(p)]
        rstrand = t.final_strands[d.right_ports.index(p)]
        owner[p] = t.strand_component[lstrand]
        if owner[p] == c:
            signs[p] = t.strand_orient[rstrand]
    return signs, owner


def _port_map_strips():
    """Every gallery strip, the representatives of criteria 5-7, and
    every handlebody a step-3 pipeline passes through on that grid."""
    strips = [straight_strand()]
    strips += [
        e.artifact.diagram
        for e in gallery.gallery_manifest()
        if isinstance(e.artifact, SteinHandlebody)
    ]
    for n in (2, 3, 4):
        strips.append(gallery.stein_rep_variant(-2 * n - 1, n).diagram)
        for m in (-4 * n + 3, -4 * n - 2):
            _closed, script = gallery.step3_pipeline(m, n)
            h = gallery.stein_rep_max(m, n)
            for mv in script.moves:
                strips.append(h.diagram)
                h = apply_move(h, mv)
    return strips


def test_pass_signs_cover_every_port():
    d = straight_strand()
    signs = pass_signs(d, 0)
    assert set(signs) == {("H", 1)}
    assert signs[("H", 1)] in (1, -1)
    strips = _port_map_strips()
    for d in strips:
        for c in d.components:
            signs, owner = _reference_port_reads(d, c)
            assert pass_signs(d, c) == signs
            per_handle = [
                [v for (hid, _s), v in signs.items() if hid == hd.id]
                for hd in d.handles
            ]
            assert homology_vector(d, c) == tuple(map(sum, per_handle))
            assert [geometric_passes(d, c, hd.id) for hd in d.handles] == [
                len(vs) for vs in per_handle
            ]
        assert {p: d.component_of_port(p) for p in owner} == owner
    assert len(strips) == 1 + 5 + 3 + 6 * 5


def test_stein_check_flags_wrong_framing():
    d = straight_strand()
    good = SteinHandlebody(d, [TwoHandleAttachment(0, tb_standard(d, 0) - 1)])
    assert stein_check(good) == []
    bad = SteinHandlebody(d, [TwoHandleAttachment(0, tb_standard(d, 0))])
    assert len(stein_check(bad)) == 1


def test_closure_of_straight_strand():
    d = straight_strand()
    closed, alpha = closure_to_sphere(d, 0)
    assert closed.n_components == 1
    assert alpha == thurston_bennequin(closed) - tb_standard(d, 0)


def test_closure_alpha_is_interior_move_invariant():
    # The correction term depends only on how the component runs
    # through the handles, not on interior Reidemeister wiggling.
    d = StandardFormDiagram(
        [OneHandle("H", 2)],
        [("H", 1), ("H", 2)],
        [X(1), L(2), R(1)],
        [("H", 1), ("H", 2)],
    )
    base = closure_to_sphere(d, 0)[1]
    seen = {d.events}
    frontier = [d]
    while frontier and len(seen) < 8:
        cur = frontier.pop()
        for m in enumerate_moves(cur, ("R2a", "R2b", "Slide")):
            d2 = apply_move(cur, m)
            if d2.events in seen:
                continue
            seen.add(d2.events)
            frontier.append(d2)
            assert closure_to_sphere(d2, 0)[1] == base
    assert len(seen) - 1 >= 5


def test_closure_tb_shift_matches_alpha():
    d = StandardFormDiagram(
        [OneHandle("H", 1)], [("H", 1)], [L(2), R(1)], [("H", 1)]
    )
    closed, alpha = closure_to_sphere(d, 0)
    assert thurston_bennequin(closed) == tb_standard(d, 0) + alpha


def _reference_closure_image(d, c, closed):
    """The image of ``c`` in the closed front, as closure_to_sphere used
    to find it: through the arc of its first port, else through its first
    strip event."""
    n = len(d.left_ports)
    t, t_closed = d.trace, closed.trace
    signs = pass_signs(d, c)
    if signs:
        j = d.left_ports.index(next(iter(signs)))
        return t_closed.strand_component[t_closed.event_strands[n - 1 - j][0]]
    for idx in range(len(d.events)):
        if t.strand_component[t.event_strands[idx][0]] == c:
            return t_closed.strand_component[t_closed.event_strands[n + idx][0]]
    raise AssertionError("component has neither ports nor events")


def test_closure_carries_each_component_as_before():
    strips = [
        getattr(e.artifact, "diagram", e.artifact)
        for e in gallery.gallery_manifest()
        if isinstance(e.artifact, (StandardFormDiagram, SteinHandlebody))
    ]
    strips.append(straight_strand())
    # A free unknot below the strand: a component with no port.
    strips.append(StandardFormDiagram(
        [OneHandle("H", 1)], [("H", 1)], [L(2), X(1), X(1), R(2)], [("H", 1)]
    ))
    portless = 0
    for d in strips:
        n = len(d.left_ports)
        for c in d.components:
            closed, alpha = closure_to_sphere(d, c)
            image = _reference_closure_image(d, c, closed)
            # The witnesses closure_to_sphere reads: left port j and the
            # cusp of its arc, strip event i and closed event n + i.
            t, t_closed = d.trace, closed.trace
            pairs = [(j, t_closed.event_strands[n - 1 - j][0]) for j in range(n)]
            pairs += [
                (t.event_strands[i][0], t_closed.event_strands[n + i][0])
                for i in range(len(d.events))
            ]
            carried = carried_components(d, closed, pairs)
            assert set(carried) == set(d.components)
            assert all(len(new) == 1 for new in carried.values())
            assert carried[c] == {image}
            assert alpha == thurston_bennequin(closed, image) - tb_standard(d, c)
            portless += not pass_signs(d, c)
    assert len(strips) == 7 and portless == 1


def test_component_of_undeclared_port_names_it():
    with pytest.raises(PortMismatch, match=r"port \('G', 1\) not declared"):
        straight_strand().component_of_port(("G", 1))


@pytest.mark.parametrize(
    "measure", [tb_standard, pass_signs, homology_vector, closure_to_sphere]
)
def test_strip_component_argument_is_checked(measure):
    d = gallery.stein_rep_max(-5, 2).diagram
    assert d.n_components == 2
    # The same errors as on a closed front.
    with pytest.raises(NotAKnot, match="2 components; pass an explicit one"):
        measure(d)
    with pytest.raises(DiagramError, match="no component 2"):
        measure(d, 2)


def test_closure_alpha_reads_only_the_port_pattern():
    # The right ports list handles A and B the other way round from the
    # left ports, so closing the arc of A.1 crosses the arc of B.1.  Two
    # strip words with this port pattern, and seeded fuzz walks from
    # each, give each component the same alpha.
    handles = [OneHandle("A", 1), OneHandle("B", 1), OneHandle("C", 1)]
    left, right = [("A", 1), ("B", 1), ("C", 1)], [("B", 1), ("A", 1), ("C", 1)]
    strips = [
        StandardFormDiagram(handles, left, word, right)
        for word in ([L(4), X(3), R(4), X(2), X(2)], [L(2), R(1)])
    ]
    walked = [fuzz_moves(d, seed, 30).final for d in strips for seed in (1, 2)]
    assert {w.events for w in walked}.isdisjoint({d.events for d in strips})
    for d in strips + walked:
        got = set()
        for c in d.components:
            closed, alpha = closure_to_sphere(d, c)
            tail = closed.events[len(left) + len(d.events):]
            assert [e.kind for e in tail] == ["X", "R", "R", "R"]
            got.add((frozenset(pass_signs(d, c)), alpha))
        assert got == {
            (frozenset({("A", 1), ("B", 1)}), -1),
            (frozenset({("C", 1)}), -1),
        }


def test_a_front_is_the_strip_with_no_ports():
    word = trefoil().events
    text = "".join(f"\n{e}" for e in word) + "\n"
    front = FrontDiagram(word)
    strip = StandardFormDiagram((), (), word, ())
    assert not isinstance(front, StandardFormDiagram)
    assert not isinstance(strip, FrontDiagram)
    assert front == FrontDiagram(list(word)) and hash(front) == hash(word)
    assert strip == StandardFormDiagram([], [], list(word), [])
    assert hash(strip) == hash(((), (), word, ()))
    # Same word, no ports: still never equal.
    assert front != strip and strip != front
    assert repr(front) == "FrontDiagram('L1 L3 X2 X2 X2 R1 R1')"
    assert repr(strip) == (
        "StandardFormDiagram(handles=[], left=[], "
        "word='L1 L3 X2 X2 X2 R1 R1', right=[])"
    )
    assert print_text(front) == "front" + text
    assert print_text(strip) == "standard" + text
    for d in (front, strip):
        assert (d.handles, d.left_ports, d.right_ports) == ((), (), ())
        assert (d.n_components, d.components) == (1, range(1))
        with pytest.raises(AttributeError, match=f"{type(d).__name__} is immutable"):
            d.events = ()


def test_a_handlebody_is_immutable():
    h = gallery.Z_m_handlebody(-1)
    with pytest.raises(AttributeError, match="SteinHandlebody is immutable"):
        h.attachments = ()
    assert h == gallery.Z_m_handlebody(-1)


def test_strip_functions_read_a_front_as_a_strip_with_no_ports():
    fronts = [
        e.artifact for e in gallery.gallery_manifest()
        if isinstance(e.artifact, FrontDiagram)
    ]
    fronts.append(n_copy(trefoil(), 2))
    for d in fronts:
        for c in d.components:
            assert homology_vector(d, c) == ()
            assert pass_signs(d, c) == {}
            assert geometric_passes(d, c, "H") == 0
            assert closure_to_sphere(d, c) == (d, 0)
        with pytest.raises(MoveNotApplicable, match=r"no port \('H', 1\)"):
            pull_off(d, "H", 1)
    assert len(fronts) == 8
