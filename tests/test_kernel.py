"""Trace kernel: validation, orientation, typed errors, and the slices."""

import dataclasses
import random

import pytest

from conftest import random_front
from frontkit import _kernel
from frontkit import _kernel as pure
from frontkit.errors import DanglingStrand, DiagramError, LevelOutOfRange
from frontkit.front import FrontDiagram, L, R, X, thurston_bennequin
from frontkit.gallery import K_m_front, gallery_manifest
from frontkit.satellite import cable
from frontkit.standard import OneHandle, StandardFormDiagram, SteinHandlebody
from frontkit.textio import parse, print_text, render

LC, RC, XC = pure.LEFT_CUSP, pure.RIGHT_CUSP, pure.CROSSING


def test_unknot_trace():
    tr = pure.trace([(LC, 1), (RC, 1)])
    assert tr.n_components == 1
    assert tr.left_cusps == [1] and tr.right_cusps == [1]
    assert tr.self_writhe == [0]
    assert tr.up_cusps == [1] and tr.down_cusps == [1]


def test_first_created_strand_points_right():
    tr = pure.trace([(LC, 1), (RC, 1)])
    assert tr.strand_orient[0] == 1
    assert tr.strand_orient[1] == -1


def test_trefoil_counts():
    word = [(LC, 1), (LC, 3), (XC, 2), (XC, 2), (XC, 2), (RC, 1), (RC, 1)]
    tr = pure.trace(word)
    assert tr.n_components == 1
    assert tr.self_writhe == [3]
    assert tr.left_cusps == [2]


def test_two_component_clasp_linking():
    # Two stacked circles clasping twice: inter-component sum is ±2.
    word = [(LC, 1), (LC, 3), (XC, 2), (XC, 2), (RC, 1), (RC, 1)]
    tr = pure.trace(word)
    assert tr.n_components == 2
    assert set(tr.inter_sums) == {(0, 1)}
    assert abs(tr.inter_sums[(0, 1)]) == 2


def test_level_out_of_range():
    with pytest.raises(LevelOutOfRange):
        pure.trace([(LC, 2)])
    with pytest.raises(LevelOutOfRange):
        pure.trace([(LC, 1), (XC, 2), (RC, 1)])


@pytest.mark.parametrize("prefix, n_initial", [([(LC, 1)], 0), ([], 3)])
def test_slice_pass_errors_keep_class_index_and_message(prefix, n_initial):
    # The event under test meets a slice of k strands at position idx.
    k = len(prefix) * 2 + n_initial
    idx = len(prefix)
    names = {LC: "left cusp", RC: "right cusp", XC: "crossing"}
    for kind, name in names.items():
        top = k + 1 if kind == LC else k - 1
        # k - 0.5 is past the last level a crossing or right cusp takes.
        for level in (0, k, k + 1, k + 2) + ((k - 0.5,) if kind != LC else ()):
            events = prefix + [(kind, level)]
            if 1 <= level <= top:
                out = pure._slice_pass(events, n_initial)
                assert out[3] == n_initial + 2 * sum(e[0] == LC for e in events)
                continue
            with pytest.raises(LevelOutOfRange) as info:
                pure._slice_pass(events, n_initial)
            assert info.value.index == idx
            assert str(info.value) == (
                f"event {idx}: {name} at level {level} with {k} strands"
            )
    bad = [
        (("Q", 1), "unknown event kind 'Q'"),
        ((LC, "1"), "malformed event ('L', '1')"),
        ((RC, 1.0), "malformed event ('R', 1.0)"),
        ((XC, None), "malformed event ('X', None)"),
        ((LC, 1.5), "malformed event ('L', 1.5)"),
        ((LC,), "malformed event ('L',)"),
    ]
    for event, message in bad:
        with pytest.raises(DiagramError) as info:
            pure._slice_pass(prefix + [event], n_initial)
        assert type(info.value) is DiagramError
        assert info.value.index == idx
        assert str(info.value) == f"event {idx}: {message}"
    with pytest.raises(DiagramError) as info:
        pure._slice_pass(None, n_initial)
    assert type(info.value) is DiagramError
    assert (info.value.index, str(info.value)) == (-1, "malformed word")


def test_dangling_strands():
    with pytest.raises(DanglingStrand):
        pure.trace([(LC, 1)])
    with pytest.raises(DanglingStrand):
        pure.trace([(LC, 1), (RC, 1)], n_initial=2)


def test_port_links_keep_direction():
    # One strand straight through, linked back to itself: a single
    # component with no cusps.
    tr = pure.trace([], n_initial=1, port_links=[(0, 0)])
    assert tr.n_components == 1
    assert tr.strand_orient == [1]


@pytest.mark.parametrize(
    "args",
    [
        ([], 1, [(5, 0)]),  # a right-edge position out of range
        ([], 1, [(-1, 0)]),  # a negative position
        ([], 1, [(0, 1)]),  # a left-edge position out of range
        ([X(1)], 2, [(0, 0), (0, 1)]),  # one right-edge strand linked twice
        ([R(1)], 2, []),  # left-edge strands with no link
        ([], 1, [(0,)]),  # a link that is not a pair
        ([], 1, [(0.0, 0)]),  # a position that is not an int
    ],
)
def test_port_links_pair_the_edges_one_to_one(args):
    with pytest.raises(DiagramError):
        pure.trace(*args)


def test_repeated_left_link_end_is_an_orientation_error():
    # Valid at the reference kernel's DFS when no clash shows; now one
    # check on the links, with the message the DFS gave on a clash.
    with pytest.raises(DiagramError, match="inconsistent orientation"):
        pure.trace([X(1)], 2, [(0, 0), (1, 0)])


def test_max_width():
    tr = pure.trace([(LC, 1), (LC, 2), (RC, 2), (RC, 1)])
    assert tr.max_width == 4


def test_event_tuples_are_the_kernel_input():
    word = [(LC, 1), (RC, 1)]
    assert word == [L(1), R(1)]
    a, b = pure.trace(word), pure.trace((L(1), R(1)))
    assert (a.event_strands, a.up_cusps) == (b.event_strands, b.up_cusps)


@pytest.mark.parametrize(
    "word, index",
    [
        ([(LC, "1"), (RC, 1)], 0),  # level is a str
        ([(LC, 1), (RC, 1.0)], 1),  # level is a float
        ([(LC, 1), (RC,)], 1),  # not a pair
        ([(LC, 1), None], 1),  # not a sequence
        ([(LC, 1), ("Q", 1)], 1),  # unknown kind
        (None, -1),  # the word itself is not iterable
    ],
)
def test_malformed_event_is_a_diagram_error(word, index):
    with pytest.raises(DiagramError) as err:
        pure.trace(word)
    assert err.value.index == index


# -- the walk and the count pass run on the first read ------------------------

TREFOIL = [L(1), L(3), X(2), X(2), X(2), R(1), R(1)]
FIELDS = [f.name for f in dataclasses.fields(pure.TraceResult)]


def _derivations(monkeypatch):
    """Count the calls of the cycle walk and the count pass from now on."""
    calls = {"walk": 0, "count": 0}

    def counted(key, run):
        def wrapper(*args):
            calls[key] += 1
            return run(*args)

        return wrapper

    monkeypatch.setattr(pure, "_walk_cycles", counted("walk", pure._walk_cycles))
    monkeypatch.setattr(pure, "_count_pass", counted("count", pure._count_pass))
    return calls


def test_a_cable_read_back_and_rendered_is_neither_walked_nor_counted(monkeypatch):
    c = cable(K_m_front(-5), 3, -1)
    calls = _derivations(monkeypatch)
    back = parse(print_text(c))
    assert render(back, "ascii") and render(back, "svg").startswith("<svg")
    assert back.events == c.events
    assert calls == {"walk": 0, "count": 0}


def test_the_component_count_walks_and_tb_walks_then_counts(monkeypatch):
    walked, counted = FrontDiagram(TREFOIL), FrontDiagram(TREFOIL)
    calls = _derivations(monkeypatch)
    assert walked.n_components == 1
    assert calls == {"walk": 1, "count": 0}
    assert thurston_bennequin(counted) == 1
    assert calls == {"walk": 2, "count": 1}


def test_each_derivation_runs_once_per_trace(monkeypatch):
    calls = _derivations(monkeypatch)
    counts_first, walk_first = pure.trace(TREFOIL), pure.trace(TREFOIL)
    assert counts_first.inter_sums == {} and counts_first.self_writhe == [3]
    assert walk_first.strand_orient[0] == 1
    for _ in range(3):
        for tr in (counts_first, walk_first):
            for name in FIELDS:
                getattr(tr, name)
    assert calls == {"walk": 2, "count": 2}


def test_a_traced_list_changed_later_counts_as_traced():
    word = list(TREFOIL)
    tr = pure.trace(word)
    word[2:5] = [L(1)] * 3
    assert tr.left_cusps == [2] and tr.self_writhe == [3]
    assert tr == pure.trace(tuple(TREFOIL))


def _sliced_diagrams():
    rng = random.Random(41)
    fronts = [random_front(rng, steps=rng.randint(1, 40)) for _ in range(20)]
    artifacts = [e.artifact for e in gallery_manifest()]
    strips = [a.diagram for a in artifacts if isinstance(a, SteinHandlebody)]
    fronts += [a for a in artifacts if not isinstance(a, SteinHandlebody)]
    assert len(strips) == 5
    return fronts + strips


def test_slices_follow_the_trace():
    for d in _sliced_diagrams():
        tr = d.trace
        sl = _kernel.slices(d.events, tr)
        assert len(sl) == len(d.events) + 1
        assert sl[0] == tuple(tr.initial_strands)
        assert sl[-1] == tuple(tr.final_strands)
        assert max(map(len, sl)) == tr.max_width
        for idx, ((kind, i), (a, b)) in enumerate(zip(d.events, tr.event_strands)):
            before, after = sl[idx], sl[idx + 1]
            if kind == LC:
                assert len(after) - len(before) == 2
                assert after[i - 1 : i + 1] == (a, b)
                assert after[: i - 1] + after[i + 1 :] == before
            elif kind == RC:
                assert len(after) - len(before) == -2
                assert before[i - 1 : i + 1] == (a, b)
                assert before[: i - 1] + before[i + 1 :] == after
            else:
                assert len(after) == len(before)
                assert before[i - 1 : i + 1] == (a, b)
                assert after[i - 1 : i + 1] == (b, a)
                assert after[: i - 1] == before[: i - 1]
                assert after[i + 1 :] == before[i + 1 :]


def test_one_slice_is_that_slice_of_slices():
    # Random fronts, the gallery's fronts and its five strips, at every
    # position: both halves of each word, and both ends.
    for d in _sliced_diagrams():
        tr = d.trace
        sl = _kernel.slices(d.events, tr)
        assert [_kernel.slice_at(d.events, tr, idx) for idx in range(len(sl))] == sl


def test_the_slices_are_the_items_of_their_generator():
    for d in _sliced_diagrams():
        tr = d.trace
        assert list(_kernel.iter_slices(d.events, tr)) == _kernel.slices(d.events, tr)


def test_widths_are_the_lengths_of_the_slices():
    for d in _sliced_diagrams():
        want = list(map(len, _kernel.slices(d.events, d.trace)))
        assert _kernel.widths(d.events, len(d.left_ports)) == want


def _cusp_pieces(d):
    """A label per strand id, the least id of its piece: two strands
    share one exactly when a chain of cusps joins them.  One union-find
    pass over the cusps the trace recorded."""
    tr = d.trace
    label = list(range(tr.n_strands))

    def root(s):
        while label[s] != s:
            label[s] = label[label[s]]
            s = label[s]
        return s

    for (kind, _level), (u, v) in zip(d.events, tr.event_strands):
        if kind != XC:
            ru, rv = root(u), root(v)
            label[max(ru, rv)] = min(ru, rv)
    return [root(s) for s in range(tr.n_strands)]


def _partition(labels):
    parts = {}
    for s, p in enumerate(labels):
        parts.setdefault(p, set()).add(s)
    return sorted(map(sorted, parts.values()))


def test_arcs_are_the_cusp_pieces():
    # A strip whose ports leave in the other order than they came, so
    # the trace links final position q to another left-edge position.
    crossed = StandardFormDiagram(
        [OneHandle("A", 1), OneHandle("B", 1)], [("A", 1), ("B", 1)],
        [L(2), X(1), R(2)], [("B", 1), ("A", 1)],
    )
    assert crossed.trace.right[crossed.trace.final_strands[0]] == ~1
    for d in _sliced_diagrams() + [crossed]:
        tr, n_initial = d.trace, len(d.left_ports)
        right = list(tr.right)
        got = _kernel.arcs(tr.final_strands, tr.right, n_initial)
        # The stored trace gives the arcs that a fresh slice pass gives,
        # and reading it changes nothing.
        final, _strands, fresh, _n, _w = _kernel._slice_pass(d.events, n_initial)
        assert got == _kernel.arcs(final, fresh, n_initial)
        assert tr.right == right
        label, ends, _orient, n_pieces = got
        assert _partition(label) == _partition(_cusp_pieces(d))
        assert set(label) == set(range(n_pieces))
        # Every boundary end is an end of one arc, and an arc holds the
        # strands at its two ends.
        boundary = list(range(n_initial)) + list(tr.final_strands)
        assert sorted(e for pair in ends for e in pair) == list(range(len(boundary)))
        for arc, pair in enumerate(ends):
            assert {label[boundary[e]] for e in pair} == {arc}


@pytest.mark.parametrize(
    "new",
    [[X(0)], [X(4)], [L(6)], [R(1), R(1), X(1)], [(LC, "2")], [("Q", 1)]],
)
def test_window_summary_rejects_a_window_that_leaves_the_slice(new):
    with pytest.raises(DiagramError):
        pure.window_summary(new, 4)


def test_a_closed_word_as_a_window_is_its_loops():
    # Over an empty band a closed word has no arcs, and each component
    # is a loop with its tb and twice its |rotation|.
    rng = random.Random(8)
    for _ in range(50):
        d = random_front(rng, rng.randint(2, 30))
        tr = d.trace
        loops = sorted(
            (
                tr.self_writhe[c] - tr.left_cusps[c],
                abs(tr.down_cusps[c] - tr.up_cusps[c]),
            )
            for c in d.components
        )
        assert pure.window_summary(d.events, 0) == (0, [], [], {}, loops)


def test_window_summaries_of_a_move_agree():
    # R3 on 3 strands: the two sides are one tangle.
    up, down = [X(1), X(2), X(1)], [X(2), X(1), X(2)]
    assert pure.window_summary(up, 3) == pure.window_summary(down, 3)
    # Rows the windows do not touch are straight arcs in both: R3 on
    # rows 3 to 5 of 6, a slide of X(2) past X(5) on 6 strands, an R2
    # expansion of L(2) on 4 strands, and an R1 kink on row 2 of 4.
    assert pure.window_summary([X(3), X(4), X(3)], 6) == pure.window_summary(
        [X(4), X(3), X(4)], 6
    )
    assert pure.window_summary([X(2), X(5)], 6) == pure.window_summary(
        [X(5), X(2)], 6
    )
    assert pure.window_summary([L(2)], 4) == pure.window_summary(
        [L(3), X(2), X(3)], 4
    )
    assert pure.window_summary([L(3), X(2), R(3)], 4) == pure.window_summary([], 4)
    # A clasp is not the identity: the pairing agrees, the crossing sum
    # does not.
    clasp = pure.window_summary([X(1), X(1)], 2)
    straight = pure.window_summary([], 2)
    assert clasp[1] == straight[1] and clasp != straight
