"""Word rewrites and handle moves: applicability and exact bookkeeping."""

import hashlib
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import listed_moves, random_front, random_knot, unexpanded_groups
from frontkit import _kernel, explore, gallery, moves
from frontkit.errors import (
    BandObstructed,
    BudgetExhausted,
    DiagramError,
    GeometricPassNotOne,
    MoveError,
    MoveNotApplicable,
    NotSteinFramed,
    OtherStrandsPresent,
)
from frontkit.explore import _FUZZ_KINDS, SearchConfig, fuzz_moves
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
    _PATTERNS,
    _WINDOW_KINDS,
    _WINDOWS,
    _WORD_KINDS,
    Move,
    MoveIndex,
    MoveScript,
    _pull_off,
    _rewrite,
    _scan,
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


_FLIP = {"up": "down", "down": "up", "expand": "contract", "contract": "expand"}


def _inverse(d, m):
    """The move that undoes ``m`` on ``apply_move(d, m)``: each of these
    kinds is undone at the same index and level."""
    if m.kind == "Slide":
        (k1, i), (k2, j) = d.events[m.index : m.index + 2]
        _k2, j2, _k1, i2 = m.data
        return Move("Slide", m.index, min(j2, i2), (k1, i, k2, j))
    # R3 flips its direction; R2 flips expand and contract, same variant.
    return Move(m.kind, m.index, m.level, (_FLIP[m.data[0]],) + m.data[1:])


def _unoriented(d):
    """Sorted (tb, |rot|) per component.  A slide can swap the order in
    which two left cusps are made, and with it the canonical orientation
    of a component, which negates its rotation number."""
    return sorted((tb, abs(rot)) for tb, rot in _fingerprint(d))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_r2_r3_and_slide_round_trips(seed):
    # R2 expansion then contraction (and back), and the R3 and Slide
    # involutions, on random fronts walked so that R2 and R3 sites occur.
    rng = random.Random(seed)
    d = random_front(rng, rng.randint(4, 20))
    d = fuzz_moves(d, seed, rng.randint(0, 8)).final
    for m in enumerate_moves(d, ("R2a", "R2b", "R3", "Slide")):
        d2 = apply_move(d, m)
        back, want = _inverse(d, m), d.events
        if m.kind == "Slide" and back.data[:3] == ("L", back.data[3] + 2, "R"):
            # R(i) L(i) is the one pair that commutes either way, and
            # the scan lists it as L(i) R(i + 2), so L(i + 2) R(i)
            # slides back to that word instead.
            i = back.data[3]
            back = Move("Slide", m.index, i, ("L", i, "R", i + 2))
            want = want[: m.index] + (L(i), R(i + 2)) + want[m.index + 2 :]
        assert back in enumerate_moves(d2, (m.kind,)), m
        assert apply_move(d2, back).events == want, m
        assert d2.n_components == d.n_components, m
        assert _unoriented(d2) == _unoriented(d), m


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


@pytest.mark.parametrize("bad", ["0", 1.0, True, None])
def test_slide_component_and_site_must_be_ints(bad):
    h = gallery.stein_rep_max(-5, 2)
    k, a = gallery.candidate_component(h), h.attachments[0]
    for op in (handle_slide, band_sites, clean_band_sites):
        with pytest.raises(MoveNotApplicable, match="is not an int"):
            op(h, bad, a)
    with pytest.raises(MoveNotApplicable, match="is not an int"):
        handle_slide(h, k, a, site=bad)


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


def _random_one_handle_strip(rng):
    """A seeded random strip through the ``k`` slots of one handle."""
    k = rng.randint(1, 5)
    events, width = [], k
    for _ in range(rng.randint(0, 14)):
        roll = rng.random()
        if width < 2 or roll < 0.35:
            events.append(L(rng.randint(1, width + 1)))
            width += 2
        elif roll < 0.7:
            events.append(X(rng.randint(1, width - 1)))
        else:
            events.append(R(rng.randint(1, width - 1)))
            width -= 2
    while width > k:
        events.append(R(rng.randint(1, width - 1)))
        width -= 2
    while width < k:
        events.append(L(rng.randint(1, width + 1)))
        width += 2
    ports = [("H", slot) for slot in range(1, k + 1)]
    return StandardFormDiagram([OneHandle("H", k)], ports, events, ports)


def test_a_finger_holding_both_passes_reaches_no_other_port():
    # Why pull_off needs no "threaded through a handle" check: a cusp
    # piece holding the strands of two left ports is one arc whose ends
    # are those two ports, run in opposite directions.
    rng = random.Random(61)
    joined = 0
    for _ in range(3000):
        d = _random_one_handle_strip(rng)
        tr = d.trace
        piece = _kernel.arcs(tr.final_strands, tr.right, len(d.left_ports))[0]
        edge = set(range(len(d.left_ports))) | set(tr.final_strands)
        for la in range(len(d.left_ports) - 1):
            lb = la + 1
            if piece[la] != piece[lb]:
                continue
            joined += 1
            finger = {s for s, p in enumerate(piece) if p == piece[la]}
            assert finger & edge == {la, lb}, d
            assert tr.strand_orient[la] == -tr.strand_orient[lb], d
    assert joined > 300


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


@pytest.mark.parametrize("kinds", [_WINDOW_KINDS, _FUZZ_KINDS])
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
        for kind in sorted(_WORD_KINDS):
            assert enumerate_moves(d, (kind,)) == [
                m for m in every if m.kind == kind
            ]
        assert enumerate_moves(d, ()) == []


def _at(window, i):
    """A ``_PATTERNS`` window put at base level ``i``."""
    return tuple(Event(kind, i + v) for kind, v in window)


def _fits(window, width):
    """Whether every event of ``window`` lies inside the slice it meets,
    run from a slice of ``width`` strands."""
    for kind, level in window:
        if not 1 <= level <= (width + 1 if kind == "L" else width - 1):
            return False
        width += {"L": 2, "R": -2, "X": 0}[kind]
    return True


def test_every_window_row_keeps_the_window_summary():
    # Every row but a Destabilize (which raises tb by design), and every
    # R2 expansion derived from a row, keeps what the rest of a word
    # sees of its window, at every base level where the old window fits
    # (and, for an expansion, the new one too: no other is listed).
    checked = Counter()
    for (kind, data), (old, new) in _WINDOWS.items():
        if kind == "Destabilize":
            continue
        for width in range(9):
            for i in range(1, width + 2):
                if not _fits(_at(old, i), width):
                    continue
                if "expand" in data and not _fits(_at(new, i), width):
                    continue
                want = _kernel.window_summary(_at(old, i), width)
                assert _kernel.window_summary(_at(new, i), width) == want, (
                    kind, data, i, width,
                )
                checked[kind, data] += 1
    assert len(checked) == len(_WINDOWS) - 2
    assert min(checked.values()) >= 20


def test_the_module_docstring_lists_the_window_rows():
    def shown(window):
        return ", ".join(
            f"{kind}(i+{v})" if v else f"{kind}(i)" for kind, v in window
        )

    rows = [
        f"* {' '.join((kind,) + data)}: [{shown(old)}] -> [{shown(new)}]"
        for kind, data, old, new in _PATTERNS
    ]
    listed = [line for line in moves.__doc__.splitlines() if line.startswith("* ")]
    assert listed == rows


def _brute_groups(events, width):
    """The ``_scan`` groups of every kind, found by comparing each row
    and expansion with the events at every index and base level, plus
    the closed-form slides; ``width`` None leaves the expansions out."""
    top = max((ev.level for ev in events), default=0) + 1
    here = width or 0
    groups = []
    for idx, ev in enumerate(events):
        group = []
        for (kind, data), (old, new) in _WINDOWS.items():
            expansion = "expand" in data
            if expansion and width is None:
                continue
            for i in range(1, top + 1):
                if events[idx : idx + len(old)] != _at(old, i):
                    continue
                if expansion and not _fits(_at(new, i), here):
                    continue
                group.append((i, kind, data))
        if idx + 1 < len(events):
            nxt = events[idx + 1]
            swapped = _slide(ev.kind, ev.level, nxt.kind, nxt.level)
            if swapped is not None:
                group.append((min(ev.level, nxt.level), "Slide", swapped))
        groups.append(sorted(group))
        here += {"L": 2, "R": -2, "X": 0}[ev.kind]
    return groups


_KIND_FILTERS = [(kind,) for kind in sorted(_WINDOW_KINDS)] + [
    _FUZZ_KINDS, _WINDOW_KINDS, (),
]


@pytest.mark.parametrize("expand", [True, False])
def test_scan_is_the_brute_force_matcher(expand):
    # With the expansions, the scan of the whole word and of a range of its
    # windows; without them, the matcher alone on each window, as the
    # search's coded table runs it.
    rng = random.Random(71)
    diagrams = _matcher_diagrams()
    diagrams += [_regroup_sites(rng) for _ in range(60)]
    found = Counter()
    for d in diagrams:
        events, width = d.events, len(d.left_ports)
        brute = _brute_groups(events, width if expand else None)
        found.update(kind for group in brute for _level, kind, _data in group)
        lo = rng.randrange(len(events)) if events else 0
        hi = rng.randint(lo, len(events))
        lo_width = _kernel.widths(events, width)[lo]
        for kinds in map(frozenset, _KIND_FILTERS):
            want = [[t for t in group if t[1] in kinds] for group in brute]
            if not expand:
                assert unexpanded_groups(events, kinds) == want, (d, kinds)
                continue
            got = _scan(events, width, 0, len(events), kinds)[0]
            assert got == want, (d, kinds)
            part = _scan(events, lo_width, lo, hi, kinds)[0]
            assert part == want[lo:hi], (d, kinds, lo, hi)
    assert set(found) == set(_WINDOW_KINDS)


def test_scan_reports_the_widths_it_carries():
    # The widths ``_scan`` reports are the slice widths before each
    # scanned window and after the last, for every range of windows of
    # random fronts and the gallery strips, the end of the word included.
    rng = random.Random(23)
    strips = [
        e.artifact.diagram
        for e in gallery.gallery_manifest()
        if isinstance(e.artifact, SteinHandlebody)
    ]
    assert len(strips) == 5
    diagrams = [random_front(rng, rng.randint(0, 24)) for _ in range(25)] + strips
    for d in diagrams:
        events = d.events
        want = _kernel.widths(events, len(d.left_ports))
        for lo in range(len(events) + 1):
            for hi in range(lo, len(events) + 1):
                got = _scan(events, want[lo], lo, hi, _WINDOW_KINDS)[1]
                assert got == want[lo : hi + 1], (d, lo, hi)


def test_enumeration_leaves_the_shared_groups_as_they_were():
    # ``_scan`` hands out one group object per window, shared by every
    # later scan that meets the window; enumerate_moves adds the
    # stabilization sites to new lists, so the groups still hold the
    # window moves alone, for enumeration and for a fresh index alike.
    strips = [
        e.artifact.diagram
        for e in gallery.gallery_manifest()
        if isinstance(e.artifact, SteinHandlebody)
    ]
    diagrams = _matcher_diagrams() + strips
    firsts = [enumerate_moves(d) for d in diagrams]
    assert any(m.kind == "StabilizePlus" for ms in firsts for m in ms)
    for d, first in zip(diagrams, firsts):
        events, width = d.events, len(d.left_ports)
        brute = _brute_groups(events, width)
        assert _scan(events, width, 0, len(events), _WINDOW_KINDS)[0] == brute, d
        assert MoveIndex(d, _WINDOW_KINDS)._groups == brute, d
        assert enumerate_moves(d) == first, d


def test_the_width_keys_only_the_cusp_windows():
    # A window that opens with a cusp is keyed on whether its R2
    # expansion fits the slice, so one window scanned at widths on both
    # sides of the fit gets both groups, and at every width on one side
    # of it one group; a crossing window is keyed on its events alone,
    # so it has one entry at every width.  Windows with the same moves,
    # such as every window with none, share one list.
    def scanned(events, width):
        group = _scan(events, width, 0, 1, _WINDOW_KINDS)[0][0]
        assert [group] == _brute_groups(events, width)[:1], (events, width)
        return group

    up = (L(2), X(1), X(2))  # the up expansion fits from width 2
    down = (R(1), L(1), X(1))  # the down expansion fits from width 3
    for events, widths in ((up, (2, 1, 4)), (down, (4, 2, 6))):
        fits, misses, fits_wider = (scanned(events, w) for w in widths)
        assert fits != misses
        assert fits_wider is fits
    crossing = (X(1), X(2), X(1))
    assert scanned(crossing, 2) is scanned(crossing, 6)
    assert scanned((X(1), R(1)), 2) is scanned((X(1), X(1)), 2) == []
    for key in moves._GROUPS[_WINDOW_KINDS]:
        if len(key) == 2:
            window, fit = key
            assert window[0].kind in "LR" and isinstance(fit, bool), key
        else:
            assert key[0].kind == "X", key


def test_one_table_per_kind_set(monkeypatch):
    # Enumeration with its default kinds, apply_move, an index of the
    # window moves and a search, with its witness replay, all read the
    # one table of the window moves; the search's misses are matched
    # alone, into its own coded table, and fill no table of events.
    monkeypatch.setattr(moves, "_GROUPS", {})
    monkeypatch.setattr(explore, "_CODED_GROUPS", explore._CodedTable())
    d = stabilize(stabilize(trefoil(), 0, 1), 0, -1)
    for m in enumerate_moves(d):
        if m.kind in _WINDOW_KINDS:
            apply_move(d, m)
    MoveIndex(d, _WINDOW_KINDS)
    res = explore.bfs_max_tb(d, SearchConfig(max_depth=3, budget=3000))
    assert res.best_tb == 1 and res.witness.moves
    assert explore._CODED_GROUPS
    assert set(moves._GROUPS) == {_WINDOW_KINDS}


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


def _assert_index_is(index, kinds):
    want = enumerate_moves(index.diagram, kinds)
    assert len(index) == len(want)
    assert listed_moves(index) == want


@pytest.mark.parametrize("kinds", [_FUZZ_KINDS, _WINDOW_KINDS])
def test_move_index_tracks_enumeration(kinds):
    """After every step of seeded walks, the index lists what a full
    enumeration lists.  Every third step takes a shrinking move when
    there is one, so windows of every length are rewritten."""
    for n, d in enumerate(_index_walk_diagrams()):
        rng = random.Random(n)
        index = MoveIndex(d, kinds)
        assert index.diagram is d
        _assert_index_is(index, kinds)
        for step in range(15 if len(d.events) > 200 else 40):
            if not index:
                break
            shrinking = [
                m for m in listed_moves(index)
                if m.kind in ("R1a", "R1b", "Destabilize")
                or m.data[:1] == ("contract",)
            ]
            if step % 3 == 2 and shrinking:
                m = rng.choice(shrinking)
                index._step(m.index, (m.level, m.kind, m.data))
            else:
                index._step(*index._site(rng.randrange(len(index))))
            _assert_index_is(index, kinds)


def _regroup_sites(rng):
    """A seeded random front or link, a step-3 strip, or two parallel
    copies of a random knot, walked a few random steps."""
    roll = rng.random()
    if roll < 0.25:
        d = gallery.stein_rep_max(*rng.choice(((-5, 2), (-6, 2), (-9, 3)))).diagram
    elif roll < 0.4:
        d = n_copy(random_knot(rng, rng.randint(4, 12)), 2)
    else:
        d = random_front(rng, rng.randint(2, 30))
    return fuzz_moves(d, rng.randrange(2**32), rng.randint(0, 6)).final


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_regrouped_is_a_full_scan_of_the_child(seed):
    # The rescan-and-shift invariant of the module docstring, as the
    # search runs it on coded words: after any listed reduction, looking
    # up the windows around it and shifting the rest gives the moves a
    # scan of the whole new word gives, the two short windows at its end
    # included.  Each entry carries the coded rewrite of its triple, and
    # the shifted windows keep the parent's groups.
    d = _regroup_sites(random.Random(seed))
    events = d.events
    word = explore._encode(events)

    def triples(groups):
        return [[entry[0] for entry in group] for group in groups]

    groups = explore._coded_groups(word, None, None)
    assert triples(groups) == unexpanded_groups(events)
    for idx, group in enumerate(groups):
        for entry in group:
            triple, coded_len, coded, shift = entry
            old_len, new = _rewrite(triple)
            assert (coded_len, coded, shift) == (
                old_len, explore._encode(new), len(new) - old_len
            )
            child = events[:idx] + new + events[idx + old_len :]
            coded_child = word[:idx] + coded + word[idx + coded_len :]
            assert explore._decode(coded_child) == child
            got = explore._coded_groups(coded_child, groups, (None, idx, entry))
            assert len(got) == len(child)
            assert triples(got) == unexpanded_groups(child), (idx, triple)
            lo, hi = moves._rescanned(idx, old_len, len(events))
            kept = got[:lo] + got[hi + shift :]
            assert list(map(id, kept)) == list(map(id, groups[:lo] + groups[hi:]))


def test_an_index_step_scans_once(monkeypatch):
    # The move is read from the group the index holds for its window,
    # so the rescan after the rewrite is the step's one scan, over the
    # new windows from two before the rewrite to its last event, and the
    # slice widths come from that scan alone: the width at the window is
    # read from the widths the index holds, and no width is counted.
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            # The window range of a scan, the word length of a count.
            calls[name, args[2:4] if name == "_scan" else len(args[0])] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for d in (gallery.K_m_front(-2), gallery.stein_rep_max(-5, 2).diagram):
        index = MoveIndex(d, _WINDOW_KINDS)
        counted(moves, "_scan")
        counted(_kernel, "widths")
        rng = random.Random(5)
        kinds = Counter()
        for _step in range(60):
            idx, triple = index._site(rng.randrange(len(index)))
            kinds[triple[2][:1] == ("expand",)] += 1
            new = _rewrite(triple)[1]
            calls.clear()
            index._step(idx, triple)
            span = (max(idx - 2, 0), idx + len(new))
            assert calls == {("_scan", span): 1}, triple
        assert kinds[True] and kinds[False]
        monkeypatch.undo()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_an_index_applies_a_move_as_apply_move_does(seed):
    # A step on the k-th move an index lists makes the word that
    # apply_move makes from the k-th move enumeration lists.
    rng = random.Random(seed)
    d = _regroup_sites(rng)
    listed = enumerate_moves(d, _WINDOW_KINDS)
    for k in rng.sample(range(len(listed)), min(len(listed), 8)):
        index = MoveIndex(d, _WINDOW_KINDS)
        index._step(*index._site(k))
        assert index.diagram.events == apply_move(d, listed[k]).events, listed[k]


def test_move_index_lists_window_moves_only():
    for kinds in (("R3", "StabilizePlus"), ("PullOff",)):
        with pytest.raises(MoveError):
            MoveIndex(trefoil(), kinds)
    index = MoveIndex(toy_handlebody().diagram, _FUZZ_KINDS)
    assert listed_moves(index) == enumerate_moves(toy_handlebody().diagram, _FUZZ_KINDS)


@pytest.mark.parametrize(
    "kinds", ["Slide", "R3", ["Bogus"], ("R3", "Bogus"), ["HandleSlide"], 3, [["R3"]]]
)
def test_kinds_are_a_collection_of_known_kinds(kinds):
    with pytest.raises(MoveError):
        enumerate_moves(trefoil(), kinds)
    with pytest.raises(MoveError):
        MoveIndex(trefoil(), kinds)


def test_a_str_of_kinds_is_named_as_a_str():
    with pytest.raises(MoveError, match="not the str 'R3'"):
        MoveIndex(trefoil(), "R3")
    with pytest.raises(MoveError, match="window moves, not 'StabilizePlus'"):
        MoveIndex(trefoil(), ["R3", "StabilizePlus"])


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


def _apply_by_script(d, m):
    return MoveScript((m,)).replay(d)


@pytest.mark.parametrize("apply", [apply_move, _apply_by_script])
@pytest.mark.parametrize(
    "move",
    [
        "R3",
        "x",
        None,
        ("R3", 2, 1, ("up",)),
        Move("R3", "a", 1),
        Move("R3", 2, 1, None),
        Move("R3", 2, 1.0, ("up",)),
        Move(3, 2, 1),
        Move("R1a", True, 1),
    ],
)
def test_a_value_that_is_not_a_well_formed_move_is_not_applicable(apply, move):
    with pytest.raises(MoveNotApplicable, match="malformed move"):
        apply(trefoil(), move)


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
    d2, reslotted, origin, sites, _k_strands = _slide_setup(h, k, a)
    comp_k = _reference_marker_component(
        d2, reslotted[3], origin, _reference_markers(h.diagram)[k]
    )
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


def _counted_cable_expands(monkeypatch):
    """The argument tuples of every later moves.cable_expand call."""
    expanded = []
    real = moves.cable_expand

    def counting(*args):
        expanded.append(args)
        return real(*args)

    monkeypatch.setattr(moves, "cable_expand", counting)
    return expanded


def test_one_slide_setup_serves_every_site(monkeypatch):
    # The doubled strip is memoised for the last slide asked about: the
    # clean sites and the band sum at every site share one build, each
    # site sees it as it was built, and band_sites hands out a copy.
    expanded = _counted_cable_expands(monkeypatch)
    for h, k, a in _slide_cases():
        moves._doubled_strip.cache_clear()
        expanded.clear()
        clean_band_sites(h, k, a)
        sites = band_sites(h, k, a)
        got = [handle_slide(h, k, a, site) for site in range(len(sites))]
        assert len(expanded) == 1
        for site, out in enumerate(got):
            moves._doubled_strip.cache_clear()
            assert out == handle_slide(h, k, a, site)
        want = list(sites)
        sites.clear()
        assert band_sites(h, k, a) == want


def test_step3_builds_one_doubled_strip_per_slide(monkeypatch):
    expanded = _counted_cable_expands(monkeypatch)
    gallery.step3_pipeline(-5, 2)
    assert len(expanded) == 2


def test_a_band_that_merges_both_push_off_copies_is_obstructed(monkeypatch):
    # A mutation of the doubled strip: it already carries a band from k
    # to one push-off copy, so the band at the first site, to the other
    # copy, merges both copies into k, and the check names it.
    h = gallery.stein_rep_max(-5, 2)
    k, a = gallery.candidate_component(h), h.attachments[0]
    d2, reslotted, origin, sites, k_strands = _slide_setup(h, k, a)
    comp = d2.trace.strand_component
    slices = _kernel.slices(d2.events, d2.trace)
    copies = [
        ({comp[s] for s in slices[pos][lvl - 1 : lvl + 1]} - {comp[ks]}).pop()
        for (pos, lvl), ks in zip(sites, k_strands)
    ]
    pos, lvl = sites[next(j for j, c in enumerate(copies) if c != copies[0])]
    assert pos > sites[0][0]
    banded = StandardFormDiagram(
        d2.handles, d2.left_ports,
        d2.events[:pos] + (R(lvl), L(lvl)) + d2.events[pos:], d2.right_ports,
    )
    mutated = (banded, reslotted, origin[:pos] + [None, None] + origin[pos:],
               sites[:1], k_strands[:1])
    monkeypatch.setattr(moves, "_doubled_strip", lambda *args: mutated)
    with pytest.raises(BandObstructed, match="band did not merge exactly one push-off copy"):
        handle_slide(h, k, a, 0)


def test_cusp_pieces_are_the_pull_off_fingers():
    diagrams = [e.artifact.diagram for e in gallery.gallery_manifest()
                if isinstance(e.artifact, SteinHandlebody)]
    diagrams += [h.diagram for h, _k, _a in _slide_cases()]
    for d in diagrams:
        tr = d.trace
        piece = _kernel.arcs(tr.final_strands, tr.right, len(d.left_ports))[0]
        for s in range(d.trace.n_strands):
            finger = _reference_finger(d, s)
            assert {t for t, p in enumerate(piece) if p == piece[s]} == finger


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


def test_stabilize_defaults_to_the_first_slice_that_holds_the_component():
    # The default site comes from the component's least strand id; the
    # reference reads every slice of the kernel's slice model and takes
    # the first one that holds a strand of c, at that strand's level.
    rng = random.Random(53)
    diagrams = [random_front(rng, steps=rng.randint(2, 40)) for _ in range(40)]
    diagrams += [e.artifact.diagram for e in gallery.gallery_manifest()
                 if isinstance(e.artifact, SteinHandlebody)]
    diagrams += [gallery.K_m_front(-2), gallery.stein_rep_max(-9, 3).diagram]
    sites = 0
    for d in diagrams:
        comp = d.trace.strand_component
        here = _kernel.slices(d.events, d.trace)
        for c in d.components:
            site = next(
                (idx, lvl)
                for idx, cut in enumerate(here)
                for lvl, s in enumerate(cut, 1)
                if comp[s] == c
            )
            sites += site[0] > 0
            for sign in (1, -1):
                want = stabilize(d, c, sign, site=site)
                assert stabilize(d, c, sign) == want, (d, c, sign, site)
    assert sites > 100  # most sites follow a left cusp


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
            d2, reslotted, origin, sites, k_strands = _slide_setup(h, k, a)
            ports = reslotted[3]
            carried = carried_components(
                d, d2, _witness_pairs(d, d2, ports, origin)
            )
            _assert_carried(carried, d.components, doubled=a.component)
            assert carried[k] == {
                _reference_marker_component(d2, ports, origin, markers[k])
            }
            assert {d2.trace.strand_component[s] for s in k_strands} == carried[k]
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
    tr = d.trace
    piece = _kernel.arcs(tr.final_strands, tr.right, len(d.left_ports))[0]
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
    # The doubled strip, then the band sum; after clean_band_sites the
    # doubled strip is memoised.
    moves._doubled_strip.cache_clear()
    assert traces(handle_slide, *slide) == 2
    moves._doubled_strip.cache_clear()
    assert traces(clean_band_sites, *slide) == 1
    assert traces(handle_slide, *slide) == 1


def _destabilized_children(d, cfg):
    """How many new children a search of ``d`` within ``cfg`` makes by a
    Destabilize before it ends or runs out of budget: a plain
    breadth-first search over event words, each scanned whole."""
    frontier, seen, count = [d.events], {d.events}, 0
    for _depth in range(cfg.max_depth):
        nxt = []
        for word in frontier:
            groups = unexpanded_groups(word)
            for idx, group in enumerate(groups):
                for triple in group:
                    if len(seen) >= cfg.budget:
                        return count
                    old_len, new = _rewrite(triple)
                    child = word[:idx] + new + word[idx + old_len :]
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
                        count += triple[1] == "Destabilize"
        frontier = nxt
    return count


def test_search_traces_no_child(monkeypatch):
    # A knot is traced only along the witness replay.  On several
    # components, the new child of each Destabilize is traced too, and
    # no other node: not the start, which is traced already, nor a node
    # when it is expanded.  The moves of the witness are the only moves
    # built, and no child of the last depth is queued.
    knot = stabilize(stabilize(gallery.K_m_front(-1), 0, 1), 0, 1)
    link = stabilize(n_copy(trefoil(), 3), 2, -1)
    strip = stabilize(gallery.stein_rep_max(-5, 2).diagram, 1, -1)
    traced, expanded, built, queued = [], [], [], []
    real_trace, real_groups = _kernel.trace, explore._coded_groups
    real_move = explore.Move
    real_witnessed = explore._witnessed

    def counting_trace(*args):
        traced.append(args)
        return real_trace(*args)

    def counting_groups(*args):
        expanded.append(args)
        return real_groups(*args)

    def counting_move(*args):
        built.append(real_move(*args))
        return built[-1]

    def counting_witnessed(*args, **kwargs):
        # The search's own frame: the depth it ends at, and the children
        # it queued there.
        search = sys._getframe(1).f_locals
        queued.append((search["depth"], len(search["nxt"])))
        return real_witnessed(*args, **kwargs)

    monkeypatch.setattr(_kernel, "trace", counting_trace)
    monkeypatch.setattr(explore, "_coded_groups", counting_groups)
    monkeypatch.setattr(explore, "Move", counting_move)
    monkeypatch.setattr(explore, "_witnessed", counting_witnessed)
    cfg = SearchConfig(max_depth=4, budget=3000)
    for d, several in ((knot, False), (link, True), (strip, True)):
        traced.clear()
        expanded.clear()
        built.clear()
        queued.clear()
        try:
            res = explore.bfs_max_tb(d, cfg)
        except BudgetExhausted as exc:
            res = exc.partial
        assert res.witness.moves and res.nodes_expanded > len(expanded) > 1
        # The moves built are the witness's, the partial one's when the
        # budget ran out.
        assert built == list(res.witness.moves)
        # A search that ran its last depth queued nothing there.
        (depth, left), = queued
        if not res.exhausted:
            assert (depth, left) == (cfg.max_depth - 1, 0)
        replays = len(res.witness.moves)
        destabilized = _destabilized_children(d, cfg)
        assert destabilized
        assert len(traced) == (destabilized if several else 0) + replays
