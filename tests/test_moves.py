"""Word rewrites and handle moves: applicability and exact bookkeeping."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_front, random_knot
from frontkit import _kernel, gallery
from frontkit.errors import (
    DiagramError,
    GeometricPassNotOne,
    MoveError,
    MoveNotApplicable,
    NotSteinFramed,
    OtherStrandsPresent,
)
from frontkit.explore import _FUZZ_KINDS, _REDUCING_KINDS, fuzz_moves
from frontkit.front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    rotation,
    thurston_bennequin,
    trefoil,
    unknot,
)
from frontkit.moves import (
    Move,
    MoveIndex,
    MoveScript,
    _band_sum,
    _clean_sites,
    _cusp_pieces,
    _pull_off,
    _slide,
    _slide_setup,
    _split_word,
    apply_move,
    band_sites,
    cancel_pair,
    clean_band_sites,
    enumerate_moves,
    handle_slide,
    pull_off,
    stabilize,
)
from frontkit.satellite import cable, n_copy, n_copy_counts
from frontkit.standard import (
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
    carried_components,
    closure_to_sphere,
    homology_vector,
    pass_signs,
    tb_standard,
)
from frontkit.textio import parse, print_text


def _fingerprint(d):
    return sorted(
        (thurston_bennequin(d, c), rotation(d, c)) for c in d.components
    )


def test_r1_kink_removal():
    d = FrontDiagram([L(1), L(2), X(1), R(2), R(1)])
    m = [m for m in enumerate_moves(d, ("R1a",))]
    assert m, "kink not found"
    d2 = apply_move(d, m[0])
    assert d2.events == unknot().events


def test_r2_expand_contract_roundtrip():
    d = trefoil()
    expansions = enumerate_moves(d, ("R2a", "R2b"))
    expansions = [m for m in expansions if m.data[0] == "expand"]
    assert expansions
    for m in expansions[:6]:
        d2 = apply_move(d, m)
        assert len(d2.events) == len(d.events) + 2
        assert _fingerprint(d2) == _fingerprint(d)


def r3_site_diagram():
    return FrontDiagram([L(1), L(2), X(1), X(2), X(1), R(2), R(1)])


def test_r3_is_an_involution():
    d = r3_site_diagram()
    triples = enumerate_moves(d, ("R3",))
    assert triples
    m = triples[0]
    d2 = apply_move(d, m)
    assert _fingerprint(d2) == _fingerprint(d)
    back = apply_move(d2, Move("R3", m.index, m.level))
    assert back.events == d.events


def test_slide_commutes_far_events():
    d = FrontDiagram([L(1), R(1), L(1), R(1)])
    slides = enumerate_moves(d, ("Slide",))
    for m in slides:
        d2 = apply_move(d, m)
        assert _fingerprint(d2) == _fingerprint(d)


def test_inapplicable_move_raises():
    with pytest.raises(MoveNotApplicable):
        apply_move(unknot(), Move("R3", 0, 1))


def test_stabilization_bookkeeping():
    d = unknot()
    for sign in (1, -1):
        d2 = stabilize(d, 0, sign)
        assert thurston_bennequin(d2) == thurston_bennequin(d) - 1
        assert rotation(d2) == rotation(d) + sign


def test_destabilize_inverts_stabilize():
    d = stabilize(unknot(), 0, 1)
    ms = enumerate_moves(d, ("Destabilize",))
    assert ms
    d2 = apply_move(d, ms[0])
    assert thurston_bennequin(d2) == -1


def test_enumerate_is_deterministic_and_applicable():
    rng = random.Random(3)
    for _ in range(10):
        d = random_knot(rng, steps=16)
        ms = enumerate_moves(d)
        assert ms == enumerate_moves(d)
        for m in ms:
            apply_move(d, m)  # must not raise


def test_move_script_replays():
    d = r3_site_diagram()
    ms = enumerate_moves(d, ("R3",))
    script = MoveScript((ms[0], Move("R3", ms[0].index, ms[0].level)))
    assert script.replay(d).events == d.events


# --- handle moves ----------------------------------------------------------


def toy_handlebody():
    """Candidate [R1, L1] through slots 1-2 plus an attaching circle
    with one negative kink through slot 3; framed Stein."""
    d = StandardFormDiagram(
        [OneHandle("H", 3)],
        [("H", 1), ("H", 2), ("H", 3)],
        [R(1), L(1), L(4), X(3), R(3)],
        [("H", 1), ("H", 2), ("H", 3)],
    )
    circ = d.component_of_port(("H", 3))
    return SteinHandlebody(d, [TwoHandleAttachment(circ, tb_standard(d, circ) - 1)])


def test_handle_slide_requires_stein_framing():
    good = toy_handlebody()
    a = good.attachments[0]
    d = good.diagram
    wrong = SteinHandlebody(d, [TwoHandleAttachment(a.component, a.framing + 1)])
    k = [c for c in d.components if c != a.component][0]
    with pytest.raises(NotSteinFramed):
        handle_slide(wrong, k, wrong.attachments[0])


def test_handle_slide_shifts_homology():
    h = toy_handlebody()
    a = h.attachments[0]
    k = [c for c in h.diagram.components if c != a.component][0]
    assert homology_vector(h.diagram, k) == (0,)
    sites = clean_band_sites(h, k, a)
    assert sites
    h2 = handle_slide(h, k, a, sites[0])
    k2 = [c for c in h2.diagram.components if c != h2.attachments[0].component][0]
    # The candidate picked up the attaching circle's handle pattern.
    assert homology_vector(h2.diagram, k2) != (0,)
    # The surviving attachment keeps its framing and stays Stein-consistent.
    a2 = h2.attachments[0]
    assert a2.framing == a.framing


def test_double_slide_restores_homology_and_tb():
    h = toy_handlebody()
    a = h.attachments[0]
    k = [c for c in h.diagram.components if c != a.component][0]
    h2 = handle_slide(h, k, a, clean_band_sites(h, k, a)[0])
    a2 = h2.attachments[0]
    k2 = [c for c in h2.diagram.components if c != a2.component][0]
    for site in clean_band_sites(h2, k2, a2):
        h3 = handle_slide(h2, k2, a2, site)
        k3 = [
            c for c in h3.diagram.components if c != h3.attachments[0].component
        ][0]
        if homology_vector(h3.diagram, k3) == (0,):
            assert tb_standard(h3.diagram, k3) == -1
            return
    pytest.fail("no homology-restoring second slide site")


def test_cancel_pair_needs_single_pass():
    d = StandardFormDiagram(
        [OneHandle("H", 2)],
        [("H", 1), ("H", 2)],
        [X(1)],
        [("H", 1), ("H", 2)],
    )
    h = SteinHandlebody(d, [TwoHandleAttachment(0, tb_standard(d, 0) - 1)])
    with pytest.raises(GeometricPassNotOne):
        cancel_pair(h, "H", h.attachments[0])


def test_cancel_pair_rejects_leftover_strands():
    d = StandardFormDiagram(
        [OneHandle("H", 2)],
        [("H", 1), ("H", 2)],
        [X(1), X(1)],  # clasp between the two passes
        [("H", 1), ("H", 2)],
    )
    # Make it two components each passing once.
    if d.n_components == 2:
        h = SteinHandlebody(
            d, [TwoHandleAttachment(0, tb_standard(d, 0) - 1)]
        )
        with pytest.raises(OtherStrandsPresent):
            cancel_pair(h, "H", h.attachments[0])


def test_cancel_pair_erases_isolated_circle():
    d = StandardFormDiagram(
        [OneHandle("H", 1)], [("H", 1)], [L(2), R(1)], [("H", 1)]
    )
    h = SteinHandlebody(d, [TwoHandleAttachment(0, tb_standard(d, 0) - 1)])
    out = cancel_pair(h, "H", h.attachments[0])
    assert isinstance(out, FrontDiagram)
    assert out.events == ()


def test_pull_off_requires_opposite_passes():
    d = StandardFormDiagram(
        [OneHandle("H", 2)],
        [("H", 1), ("H", 2)],
        [X(1)],  # one component passing twice, same direction
        [("H", 1), ("H", 2)],
    )
    with pytest.raises(MoveNotApplicable):
        pull_off(d, "H", 1)


@pytest.mark.parametrize("site", [5, (0,), (0, 1, 2), "ab", (0, 1.0)])
def test_stabilize_site_must_be_a_pair_of_ints(site):
    with pytest.raises(MoveNotApplicable, match="not an \\(index, level\\) pair"):
        stabilize(unknot(), 0, 1, site=site)


def test_a_handle_leaves_only_by_cancellation():
    # A finger through both slots of H: pulling it off is an isotopy, so
    # H stays, with no slot left, and the finger closes up in the strip.
    ports = [("H", 1), ("H", 2)]
    d = StandardFormDiagram([OneHandle("H", 2)], ports, [R(1), L(1)], ports)
    out = pull_off(d, "H", 1)
    assert out == StandardFormDiagram([OneHandle("H", 0)], [], [L(1), R(1)], [])
    assert parse(print_text(out)) == out
    closed, alpha = closure_to_sphere(out, 0)
    assert closed.events == out.events and alpha == 0
    # One circle through H and G once each: cancelling H erases the
    # circle and H, and keeps G with no slot left.
    ports = [("H", 1), ("G", 1)]
    d = StandardFormDiagram(
        [OneHandle("H", 1), OneHandle("G", 1)], ports, [X(1)], ports
    )
    h = SteinHandlebody(d, [TwoHandleAttachment(0, tb_standard(d, 0) - 1)])
    out = cancel_pair(h, "H", h.attachments[0])
    assert out.diagram == StandardFormDiagram([OneHandle("G", 0)], [], [], [])
    assert out.attachments == ()


@pytest.mark.parametrize("slot", ["1", 1.0, None])
def test_pull_off_slot_must_be_an_int(slot):
    h = toy_handlebody()
    for target in (h, h.diagram):
        with pytest.raises(MoveNotApplicable, match="is not an int"):
            pull_off(target, "H", slot)


def test_pull_off_needs_a_finger():
    # Slots 1 and 2 pass opposite ways, but the slot-2 strand is joined by
    # its cusp to slot 3, not to slot 1.
    ports = [("H", 1), ("H", 2), ("H", 3)]
    d = StandardFormDiagram([OneHandle("H", 3)], ports, [L(1), R(4)], ports)
    with pytest.raises(MoveNotApplicable, match="not joined by a finger"):
        pull_off(d, "H", 1)


# --- the matcher against brute force ---------------------------------------


def _simulate_pair(width, first, second):
    """Run two events on a labeled slice; None when levels are invalid.

    Created strands are tagged by the event that made them, so the
    signature is comparable across the two orderings.
    """
    slice_ = list(range(width))
    records = []
    for tag, ev in (first, second):
        k = len(slice_)
        i = ev.level
        if ev.kind == "L":
            if not 1 <= i <= k + 1:
                return None
            slice_[i - 1 : i - 1] = [(tag, 0), (tag, 1)]
        elif ev.kind == "R":
            if not 1 <= i <= k - 1:
                return None
            records.append((tag, "R", slice_[i - 1], slice_[i]))
            del slice_[i - 1 : i + 1]
        else:
            if not 1 <= i <= k - 1:
                return None
            records.append((tag, "X", slice_[i - 1], slice_[i]))
            slice_[i - 1], slice_[i] = slice_[i], slice_[i - 1]
    return tuple(slice_), frozenset(records)


def _brute_commute(width, e1, e2):
    """First level pair, over shifts (0, -2, 2), that runs e2 before e1
    with the same effect on a slice of ``width`` strands."""
    target = _simulate_pair(width, ("a", e1), ("b", e2))
    for d2 in (0, -2, 2):
        for d1 in (0, -2, 2):
            j2, j1 = e2.level + d2, e1.level + d1
            if j2 < 1 or j1 < 1:
                continue
            swapped = (Event(e2.kind, j2), Event(e1.kind, j1))
            if _simulate_pair(width, ("b", swapped[0]), ("a", swapped[1])) == target:
                return (e2.kind, j2, e1.kind, j1)
    return None


def _valid_events(width):
    yield from (L(i) for i in range(1, width + 2))
    yield from (e(i) for e in (R, X) for i in range(1, width))


def test_closed_form_slide_matches_brute_force():
    pairs = 0
    for width in range(11):
        for e1 in _valid_events(width):
            after = width + {"L": 2, "R": -2, "X": 0}[e1.kind]
            for e2 in _valid_events(after):
                pairs += 1
                assert _slide(e1.kind, e1.level, e2.kind, e2.level) == (
                    _brute_commute(width, e1, e2)
                ), (width, e1, e2)
    assert pairs > 1000


def _candidates(d, kinds):
    """Every move of ``kinds`` a scan could plausibly report on ``d``,
    and a few out-of-range ones, with the data enumeration uses."""
    events = d.events
    levels = range(0, d.trace.max_width + 3)
    data = {
        "R1a": [()],
        "R1b": [()],
        "R2a": [(a, b) for a in ("contract", "expand") for b in ("up", "down")],
        "R3": [("up",), ("down",)],
        "Destabilize": [("up",), ("down",)],
    }
    data["R2b"] = data["R2a"]
    for idx in range(-1, len(events) + 2):
        for kind in kinds:
            if kind == "Slide":
                if not 0 <= idx < len(events) - 1:
                    continue
                e1, e2 = events[idx], events[idx + 1]
                options = [
                    (e2.kind, e2.level + a, e1.kind, e1.level + b)
                    for a in (-2, 0, 2) for b in (-2, 0, 2)
                ]
            else:
                options = data.get(kind, [()])
            for lvl in levels:
                for extra in options:
                    yield Move(kind, idx, lvl, extra)


def _accepted(d, kinds):
    out = set()
    for m in _candidates(d, kinds):
        try:
            apply_move(d, m)
        except MoveNotApplicable:
            continue
        out.add(m)
    return sorted(out, key=lambda m: (m.index, m.level, m.kind, m.data))


def _matcher_diagrams():
    rng = random.Random(20)
    fronts = [random_front(rng, steps=rng.randint(4, 22)) for _ in range(12)]
    fronts += [
        r3_site_diagram(),
        FrontDiagram([L(1), L(1), X(2), R(1), R(1)]),  # an R1b kink
        stabilize(stabilize(trefoil(), 0, 1), 0, -1),
    ]
    handlebodies = [
        gallery.Z_m_handlebody(-3),
        gallery.stein_rep_max(-5, 2),
        gallery.stein_rep_variant(-7, 3),
    ]
    return fronts + [h.diagram for h in handlebodies]


@pytest.mark.parametrize("kinds", [_REDUCING_KINDS, _FUZZ_KINDS])
def test_enumeration_is_what_apply_accepts(kinds):
    found = set()
    for d in _matcher_diagrams():
        ms = enumerate_moves(d, kinds)
        assert ms == _accepted(d, kinds), d
        found.update(m.kind for m in ms)
    assert found == set(kinds)


def test_kind_filter_matches_no_other_kind():
    for d in _matcher_diagrams():
        every = enumerate_moves(d)
        for kind in _REDUCING_KINDS + ("StabilizePlus", "StabilizeMinus"):
            assert enumerate_moves(d, (kind,)) == [
                m for m in every if m.kind == kind
            ]
        assert enumerate_moves(d, ()) == []


def test_stabilization_sites_are_what_apply_accepts():
    kinds = ("StabilizePlus", "StabilizeMinus")
    for d in _matcher_diagrams()[:4]:
        assert enumerate_moves(d, kinds) == _accepted(d, kinds), d


def _index_walk_diagrams():
    rng = random.Random(33)
    fronts = [random_front(rng, steps=rng.randint(4, 40)) for _ in range(10)]
    fronts += [
        FrontDiagram([L(1), L(1), X(2), R(1), R(1)]),  # an R1b kink
        FrontDiagram([L(1), L(2), X(1), R(2), R(1)]),  # an R1a kink
        stabilize(stabilize(trefoil(), 0, 1), 0, -1),
        stabilize(stabilize(gallery.K_m_front(-2), 0, -1), 0, -1),
    ]
    fronts += [
        e.artifact
        for e in gallery.gallery_manifest()
        if isinstance(e.artifact, FrontDiagram)
    ]
    strips = [gallery.Z_m_handlebody(-3).diagram, gallery.stein_rep_max(-5, 2).diagram]
    assert all(len(d.left_ports) for d in strips)
    return fronts + strips


def _assert_index_is(index, d, kinds):
    want = enumerate_moves(d, kinds)
    assert index.diagram is d
    assert len(index) == len(want)
    assert list(index) == want
    if want:
        assert index[-1] == want[-1]
    with pytest.raises(IndexError):
        index[len(want)]


@pytest.mark.parametrize("kinds", [_FUZZ_KINDS, _REDUCING_KINDS])
def test_move_index_tracks_enumeration(kinds):
    """After every step of seeded walks, the index lists what a full
    enumeration lists.  Every third step takes a shrinking move when
    there is one, so windows of every length are rewritten."""
    for n, d in enumerate(_index_walk_diagrams()):
        rng = random.Random(n)
        index = MoveIndex(d, kinds)
        _assert_index_is(index, d, kinds)
        for step in range(15 if len(d.events) > 200 else 40):
            if not index:
                break
            shrinking = [
                m for m in index
                if m.kind in ("R1a", "R1b", "Destabilize")
                or m.data[:1] == ("contract",)
            ]
            pool = shrinking if step % 3 == 2 and shrinking else index
            d = index.apply(rng.choice(pool))
            _assert_index_is(index, d, kinds)


def test_move_index_lists_window_moves_only():
    for kinds in (("R3", "StabilizePlus"), ("PullOff",)):
        with pytest.raises(MoveError):
            MoveIndex(trefoil(), kinds)
    index = MoveIndex(toy_handlebody().diagram, _FUZZ_KINDS)
    for m in (
        Move("PullOff", data=("H", 1)),
        Move("StabilizePlus", 0, 1),
        Move("Destabilize", 0, 1),
        Move("R3", 0, 1),
    ):
        with pytest.raises(MoveNotApplicable):
            index.apply(m)
        assert list(index) == enumerate_moves(toy_handlebody().diagram, _FUZZ_KINDS)


def test_fuzz_walk_is_pinned():
    """The walk is a function of enumerate_moves' exact output order."""
    rep = fuzz_moves(gallery.K_mn_cable_front(-5, 3), seed=1, steps=50)
    word = " ".join(map(str, rep.final.events))
    assert rep.steps_applied == 50
    assert len(rep.final.events) == 557
    assert hashlib.sha256(word.encode()).hexdigest() == (
        "3189c33a628dd7388900ecaca207e040d9278a1fd21e045a6717bd8f002fa7da"
    )


# --- malformed moves fail typed ---------------------------------------------

_TARGETS = {
    "trefoil": trefoil(),
    "handlebody": toy_handlebody(),
    "strip": toy_handlebody().diagram,
}
_KINDS = (
    "R1a", "R1b", "R2a", "R2b", "R3", "Slide", "Destabilize",
    "StabilizePlus", "StabilizeMinus", "HandleSlide", "PullOff", "CancelPair",
)
_data_item = st.one_of(
    st.integers(-3, 8),
    st.sampled_from(
        ("up", "down", "contract", "expand", "sideways", "H", "L", "R", "X")
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_TARGETS)),
    st.one_of(st.sampled_from(_KINDS), st.text(max_size=4)),
    st.integers(-3, 12),
    st.integers(-3, 12),
    st.lists(_data_item, max_size=5).map(tuple),
)
@example("trefoil", "R2a", 0, 1, ("contract", "sideways"))
@example("trefoil", "R1a", -2, 1, ())
@example("trefoil", "Destabilize", -1, 1, ())
@example("trefoil", "StabilizePlus", -1, 1, ())
@example("trefoil", "Slide", -1, 1, ())
@example("handlebody", "HandleSlide", 0, 0, (1, 0))
@example("trefoil", "PullOff", 0, 0, ("H", 1))
@example("trefoil", "CancelPair", 0, 0, ("H", 0, -2))
def test_malformed_moves_fail_typed(target, kind, index, level, data):
    try:
        apply_move(_TARGETS[target], Move(kind, index, level, data))
    except (MoveError, DiagramError):
        pass


@pytest.mark.parametrize(
    "move",
    [
        Move("R2a", 0, 1, ("contract", "sideways")),
        Move("R1a", -2, 1),
        Move("Destabilize", -1, 1),
        Move("StabilizePlus", -1, 1),
        Move("StabilizePlus", 8, 1),
        Move("StabilizePlus", 0, 1, ("extra",)),
        Move("Slide", -1, 1),
        Move("R1a", 0, 1, ("extra",)),
        Move("HandleSlide", data=(1, 0)),
        Move("PullOff", data=("H", 1)),
        Move("CancelPair", data=("H", 0, -2)),
    ],
)
def test_malformed_move_is_not_applicable(move):
    with pytest.raises(MoveNotApplicable):
        apply_move(trefoil(), move)


@pytest.mark.parametrize("index, level", [(99, -7), (0, 1), (1, 0)])
def test_handle_moves_take_index_and_level_zero(index, level):
    # Each step-3 move applies as written, and with no other index or level.
    _closed, script = gallery.step3_pipeline(-5, 2)
    h = gallery.stein_rep_max(-5, 2)
    for mv in script.moves:
        with pytest.raises(MoveNotApplicable, match="index 0 and level 0"):
            apply_move(h, Move(mv.kind, index, level, mv.data))
        h = apply_move(h, mv)


def test_slide_index_out_of_range_says_so():
    with pytest.raises(MoveNotApplicable, match="out of range"):
        apply_move(trefoil(), Move("Slide", -1, 1))


# --- the slice model against the hand replays it replaced --------------------


def _replayed_slice(d, idx):
    """The slice before ``d.events[idx]``, by replaying the word prefix."""
    tr = d.trace
    cur = list(tr.initial_strands)
    for j, ev in enumerate(d.events[:idx]):
        i = ev.level
        if ev.kind == "L":
            cur[i - 1 : i - 1] = list(tr.event_strands[j])
        elif ev.kind == "R":
            del cur[i - 1 : i + 1]
        else:
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
    return cur


def _reference_clean_band_sites(h, k, a):
    """clean_band_sites as it was: a cusp graph built by replaying the
    doubled word, and a depth-first search from each site's strand."""
    d2, _reslotted, _origin, comp_k, sites = _slide_setup(h, k, a)
    tr = d2.trace
    adj = {}
    cur = list(range(len(d2.left_ports)))
    for idx, ev in enumerate(d2.events):
        i = ev.level
        if ev.kind == "L":
            u, v = tr.event_strands[idx]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
            cur[i - 1 : i - 1] = [u, v]
        elif ev.kind == "R":
            u, v = cur[i - 1], cur[i]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
            del cur[i - 1 : i + 1]
        else:
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
    n_init = len(d2.left_ports)

    def touches_port(s):
        seen = set()
        stack = [s]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj.get(x, ()))
        return any(x < n_init for x in seen)

    out = []
    for idx2, (pos, lvl) in enumerate(sites):
        here = _replayed_slice(d2, pos)
        s1, s2 = here[lvl - 1], here[lvl]
        ks = s1 if tr.strand_component[s1] == comp_k else s2
        if not touches_port(ks):
            out.append(idx2)
    return out


def _reference_finger(d, start):
    """The strands cusp-connected to ``start``, found the way pull_off
    used to find its finger: a depth-first search over the cusps."""
    tr = d.trace
    cusp_adj = {}
    for idx, ev in enumerate(d.events):
        if ev.kind in "LR":
            u, v = tr.event_strands[idx]
            cusp_adj.setdefault(u, []).append(v)
            cusp_adj.setdefault(v, []).append(u)
    finger = set()
    stack = [start]
    while stack:
        s = stack.pop()
        if s in finger:
            continue
        finger.add(s)
        stack.extend(cusp_adj.get(s, ()))
    return finger


def _slide_cases():
    """(handlebody, sliding component, attachment) for every gallery
    handlebody with a free component, and again after one slide."""
    cases = []
    for e in gallery.gallery_manifest():
        h = e.artifact
        if not isinstance(h, SteinHandlebody):
            continue
        a = h.attachments[0]
        for k in h.diagram.components:
            if k == a.component:
                continue
            cases.append((h, k, a))
            h1 = handle_slide(h, k, a, clean_band_sites(h, k, a)[0])
            a1 = h1.attachments[0]
            cases.append((h1, gallery.candidate_component(h1), a1))
    assert len(cases) == 8
    return cases


def test_clean_band_sites_match_the_search_they_replaced():
    for h, k, a in _slide_cases():
        assert clean_band_sites(h, k, a) == _reference_clean_band_sites(h, k, a)


def test_one_slide_setup_serves_every_site():
    # The band is spliced into a new word, so each site sees the setup as
    # _slide_setup built it.
    for h, k, a in _slide_cases():
        setup = _slide_setup(h, k, a)
        d2, _reslotted, origin, _comp_k, sites = setup
        word, origin_before = d2.events, list(origin)
        assert _clean_sites(setup) == clean_band_sites(h, k, a)
        for site in range(len(sites)):
            got = _band_sum(h, k, a, setup, site)
            want = handle_slide(h, k, a, site)
            assert got.diagram == want.diagram
            assert got.attachments == want.attachments
        assert d2.events == word
        assert origin == origin_before


def test_cusp_pieces_are_the_pull_off_fingers():
    diagrams = [e.artifact.diagram for e in gallery.gallery_manifest()
                if isinstance(e.artifact, SteinHandlebody)]
    diagrams += [h.diagram for h, _k, _a in _slide_cases()]
    for d in diagrams:
        piece = _cusp_pieces(d)
        for s in range(d.trace.n_strands):
            finger = _reference_finger(d, s)
            assert {t for t, p in enumerate(piece) if p == piece[s]} == finger
            assert piece[s] == min(finger)


def _reference_stabilize(d, c, sign):
    """stabilize(d, c, sign) as it was: every site scanned in order, each
    one replaying the word prefix, and the zigzag put on the first site
    whose strand lies on ``c``."""
    tr = d.trace
    for idx in range(len(d.events) + 1):
        here = _replayed_slice(d, idx)
        for lvl, s in enumerate(here, 1):
            if tr.strand_component[s] == c:
                if sign * tr.strand_orient[s] > 0:
                    zigzag = [L(lvl + 1), R(lvl)]
                else:
                    zigzag = [L(lvl), R(lvl + 1)]
                return d.events[:idx] + tuple(zigzag) + d.events[idx:]
    return None


def test_stabilize_picks_the_first_site_on_each_component():
    rng = random.Random(52)
    diagrams = [random_front(rng, steps=rng.randint(2, 30)) for _ in range(15)]
    diagrams += [e.artifact.diagram for e in gallery.gallery_manifest()
                 if isinstance(e.artifact, SteinHandlebody)]
    assert max(d.n_components for d in diagrams) >= 3
    for d in diagrams:
        for c in d.components:
            for sign in (1, -1):
                want = _reference_stabilize(d, c, sign)
                assert stabilize(d, c, sign).events == want, (d, c, sign)


# --- carried components against the lookups they replaced --------------------


def _reference_markers(d):
    """A witness per component, as handle_slide used to pick it: a
    left-port position if it has one, else the index of its first left
    cusp."""
    tr = d.trace
    out = {}
    for pos in range(len(d.left_ports)):
        out.setdefault(tr.strand_component[pos], ("port", pos))
    for idx, ev in enumerate(d.events):
        if ev.kind == "L":
            out.setdefault(
                tr.strand_component[tr.event_strands[idx][0]], ("event", idx)
            )
    return out


def _reference_marker_component(d_new, port_origin, event_origin, marker, copy=0):
    """The component of ``d_new`` holding copy ``copy`` of a marker,
    found by scanning a slide's port and event origins."""
    tr = d_new.trace
    origin = port_origin if marker[0] == "port" else event_origin
    hits = [j for j, old in enumerate(origin) if old == marker[1]]
    if copy >= len(hits):
        raise AssertionError(f"marker {marker!r} lost in expansion")
    if marker[0] == "port":
        return tr.strand_component[hits[copy]]
    return tr.strand_component[tr.event_strands[hits[copy]][0]]


def _witness_pairs(d, d_new, port_origin, event_origin):
    """(old strand, new strand) pairs read off a move's origins: each new
    left port with the old port it came from, and each copied event's
    upper strand with the old event's."""
    old, new = d.trace.event_strands, d_new.trace.event_strands
    pairs = [(pos, j) for j, pos in enumerate(port_origin)]
    pairs += [
        (old[i][0], new[j][0]) for j, i in enumerate(event_origin) if i is not None
    ]
    return pairs


def _reference_component_map(d, dead_strands, port_rename, d_new, new_events):
    """Old -> new component after deleting strands and ports, as pull-off
    and cancellation used to find it: renamed ports first, then the
    surviving left cusps matched by their order."""
    tr, tr_new = d.trace, d_new.trace
    new_left = list(getattr(d_new, "left_ports", ()))
    out = {}
    for pos, p in enumerate(d.left_ports):
        c = tr.strand_component[pos]
        q = port_rename(p)
        if c in out or pos in dead_strands or q is None:
            continue
        out[c] = tr_new.strand_component[new_left.index(q)]
    survivor_l = [
        idx for idx, ev in enumerate(d.events)
        if ev.kind == "L" and not set(tr.event_strands[idx]) & dead_strands
    ]
    new_l = [j for j, ev in enumerate(new_events) if ev.kind == "L"]
    for old_idx, new_idx in zip(survivor_l, new_l[: len(survivor_l)]):
        c = tr.strand_component[tr.event_strands[old_idx][0]]
        out.setdefault(
            c, tr_new.strand_component[tr_new.event_strands[new_idx][0]]
        )
    return out


def _assert_carried(carried, components, doubled=None):
    """Every component in ``components`` is carried, each to one new
    component except ``doubled``, which goes to two."""
    assert set(carried) == set(components)
    for c, new in carried.items():
        assert len(new) == (2 if c == doubled else 1), (c, new)


def _portless_slide_cases():
    """Slides where a component runs through no handle: the toy
    handlebody plus a free unknot below it, slid over the circle, and
    the candidate slid while the unknot carries a 2-handle too."""
    ports = [("H", 1), ("H", 2), ("H", 3)]
    d = StandardFormDiagram(
        [OneHandle("H", 3)], ports,
        [R(1), L(1), L(4), X(3), R(3), L(4), R(4)], ports,
    )
    cand, circ, free = d.components
    assert not pass_signs(d, free)
    a = TwoHandleAttachment(circ, tb_standard(d, circ) - 1)
    both = [a, TwoHandleAttachment(free, tb_standard(d, free) - 1)]
    return [
        (SteinHandlebody(d, [a]), free, a),
        (SteinHandlebody(d, both), cand, a),
        (SteinHandlebody(d, both), free, a),
    ]


def test_a_slide_in_a_strip_with_no_1_handle_stays_a_strip():
    # Two stacked unknots: the slid diagram is a strip, not a closed
    # front, though it has no 1-handle.
    d = StandardFormDiagram([], [], [L(1), L(3), R(3), R(1)], [])
    a = TwoHandleAttachment(1, tb_standard(d, 1) - 1)
    h = SteinHandlebody(d, [a])
    n_sites = len(band_sites(h, 0, a))
    assert n_sites
    for site in range(n_sites):
        out = handle_slide(h, 0, a, site)
        assert isinstance(out.diagram, StandardFormDiagram)
        assert out.diagram.handles == ()


def test_slide_carries_components_as_markers_did():
    n_sites = 0
    for h, k, a in _slide_cases() + _portless_slide_cases():
        d = h.diagram
        markers = _reference_markers(d)
        for site in range(len(band_sites(h, k, a))):
            d2, reslotted, origin, comp_k, sites = _slide_setup(h, k, a)
            ports = reslotted[3]
            carried = carried_components(
                d, d2, _witness_pairs(d, d2, ports, origin)
            )
            _assert_carried(carried, d.components, doubled=a.component)
            assert carried[k] == {comp_k}
            assert comp_k == _reference_marker_component(
                d2, ports, origin, markers[k]
            )
            assert carried[a.component] == {
                _reference_marker_component(
                    d2, ports, origin, markers[a.component], j
                )
                for j in (0, 1)
            }
            # The band, spliced as handle_slide splices it.
            pos, lvl = sites[site]
            origin = origin[:pos] + [None, None] + origin[pos:]
            h3 = handle_slide(h, k, a, site)
            d3 = h3.diagram
            assert d3.events == d2.events[:pos] + (R(lvl), L(lvl)) + d2.events[pos:]

            def marker_component(c, copy=0):
                return _reference_marker_component(
                    d3, ports, origin, markers[c], copy
                )

            k_new = marker_component(k)
            copies = {marker_component(a.component, j) for j in (0, 1)}
            want = [
                TwoHandleAttachment(
                    (copies - {k_new}).pop() if b == a else
                    marker_component(b.component),
                    b.framing,
                )
                for b in h.attachments
            ]
            assert list(h3.attachments) == want
            carried = carried_components(
                d, d3, _witness_pairs(d, d3, ports, origin)
            )
            _assert_carried(carried, d.components, doubled=a.component)
            assert carried[k] == {k_new}
            assert carried[a.component] == copies
            n_sites += 1
    assert n_sites > 100


def _two_handle_strip():
    """A straight strand through H, one through G, and a free unknot
    below, each component carrying a Stein-framed 2-handle."""
    ports = [("H", 1), ("G", 1)]
    d = StandardFormDiagram(
        [OneHandle("H", 1), OneHandle("G", 1)], ports, [L(3), R(3)], ports
    )
    return SteinHandlebody(
        d, [TwoHandleAttachment(c, tb_standard(d, c) - 1) for c in d.components]
    )


def _cancel_records(h):
    for hd in h.diagram.handles:
        for b in h.attachments:
            try:
                yield print_text(cancel_pair(h, hd.id, b))
            except MoveError as exc:
                yield f"{type(exc).__name__}: {exc}\n"


def _handle_move_records():
    """A line per handle move output: the band sum at every site of each
    slide case, then every pull-off (diagram and carried map) and every
    cancellation that can follow it, or the error it raises; then every
    cancellation along the step-3 scripts and on a two-handle strip."""
    for h, k, a in _slide_cases() + _portless_slide_cases():
        for site in range(len(band_sites(h, k, a))):
            h3 = handle_slide(h, k, a, site)
            yield print_text(h3)
            d3 = h3.diagram
            for hd in d3.handles:
                for slot in range(1, hd.slots):
                    try:
                        new_d, carried = _pull_off(d3, hd.id, slot)
                    except MoveError as exc:
                        yield f"{type(exc).__name__}: {exc}\n"
                        continue
                    yield print_text(new_d)
                    yield repr(sorted((c, sorted(v)) for c, v in carried.items()))
            yield from _cancel_records(h3)
    for m, n in ((-5, 2), (-9, 3), (-13, 4)):
        _closed, script = gallery.step3_pipeline(m, n)
        h = gallery.stein_rep_max(m, n)
        for mv in script.moves:
            yield from _cancel_records(h)
            h = apply_move(h, mv)
    yield from _cancel_records(_two_handle_strip())


def test_handle_move_outputs_are_pinned():
    digest = hashlib.sha256()
    n_records = 0
    for record in _handle_move_records():
        digest.update(record.encode())
        n_records += 1
    assert n_records > 5000
    assert digest.hexdigest() == (
        "464242e988f27e697e446ee801d925a83e4e23aeca68131e78fc00c34cb3c441"
    )


def _check_pull_off(d, hid, slot):
    pa, pb = (hid, slot), (hid, slot + 1)
    piece = _cusp_pieces(d)
    la = d.left_ports.index(pa)
    finger = {s for s, p in enumerate(piece) if p == piece[la]}

    def rename(p):
        if p in (pa, pb):
            return None
        return (hid, p[1] - 2) if p[0] == hid and p[1] > slot + 1 else p

    new_d, carried = _pull_off(d, hid, slot)
    want = _reference_component_map(d, finger, rename, new_d, new_d.events)
    _assert_carried(carried, d.components)
    assert carried == {c: {w} for c, w in want.items()}


def _check_cancel(h, hid, a):
    d, c = h.diagram, a.component
    tr = d.trace
    doomed = {s for s in range(tr.n_strands) if tr.strand_component[s] == c}
    dead = {p for pos, p in enumerate(d.left_ports) if tr.strand_component[pos] == c}
    slot_map = {}
    for x in d.handles:
        if x.id != hid:
            kept = [s for s in range(1, x.slots + 1) if (x.id, s) not in dead]
            slot_map.update(((x.id, s), (x.id, j)) for j, s in enumerate(kept, 1))
    out = cancel_pair(h, hid, a)
    new_d = getattr(out, "diagram", out)
    _main, _inner, origin = _split_word(d, doomed, mixed="drop")
    kept_ports = [pos for pos, p in enumerate(d.left_ports) if p not in dead]
    carried = carried_components(
        d, new_d, _witness_pairs(d, new_d, kept_ports, origin)
    )
    want = _reference_component_map(d, doomed, slot_map.get, new_d, new_d.events)
    _assert_carried(carried, set(d.components) - {c})
    assert carried == {c2: {w} for c2, w in want.items()}
    if new_d is not out:
        assert list(out.attachments) == [
            TwoHandleAttachment(want[b.component], b.framing)
            for b in h.attachments if b != a
        ]


@pytest.mark.parametrize("m, n", [(-5, 2), (-9, 3), (-13, 4)])
def test_pull_off_and_cancel_carry_components_as_before(m, n):
    _closed, script = gallery.step3_pipeline(m, n)
    h = gallery.stein_rep_max(m, n)
    for mv in script.moves:
        if mv.kind == "PullOff":
            _check_pull_off(h.diagram, *mv.data)
        elif mv.kind == "CancelPair":
            hid, c, framing = mv.data
            _check_cancel(h, hid, TwoHandleAttachment(c, framing))
        h = apply_move(h, mv)
    assert [mv.kind for mv in script.moves][2:] == ["PullOff", "PullOff", "CancelPair"]


def test_cancel_keeps_the_other_attachments():
    # Cancelling H leaves G's strand and the unknot, renumbered.
    h = _two_handle_strip()
    _check_cancel(h, "H", h.attachments[0])
    assert [b.component for b in cancel_pair(h, "H", h.attachments[0]).attachments] == [0, 1]


def test_each_built_diagram_is_traced_once(monkeypatch):
    front = gallery.K_m_front(-5)
    h = gallery.stein_rep_max(-5, 2)
    slide = (h, gallery.candidate_component(h), h.attachments[0])
    calls = []
    real = _kernel.trace

    def counting(*args):
        calls.append(args)
        return real(*args)

    def traces(op, *args):
        calls.clear()
        op(*args)
        return len(calls)

    monkeypatch.setattr(_kernel, "trace", counting)
    assert traces(cable, front, 3, -1) == 1
    assert traces(n_copy, front, 2) == 1
    assert traces(n_copy_counts, front, 2) == 1
    # The doubled strip, then the band sum.
    assert traces(_slide_setup, *slide) == 1
    assert traces(handle_slide, *slide) == 2
