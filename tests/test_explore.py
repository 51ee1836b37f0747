"""Move-graph search and invariance fuzzing."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import listed_moves, random_front, unexpanded_groups
from frontkit import _kernel, explore, gallery, moves
from frontkit.certify import GenusCertificate, certify_tb_max
from frontkit.errors import (
    BudgetExhausted,
    DiagramError,
    MoveError,
    ParameterOutOfRange,
)
from frontkit.explore import (
    _FUZZ_KINDS,
    SearchConfig,
    _fingerprint,
    _tb_of,
    _tbs,
    bfs_max_tb,
    fuzz_moves,
)
from frontkit.front import (
    _MAX_WORD,
    FrontDiagram,
    L,
    R,
    X,
    rotation,
    thurston_bennequin,
    trefoil,
    unknot,
)
from frontkit.gallery import K_m_front, K_mn_cable_front
from frontkit.moves import (
    _WINDOW_KINDS,
    Move,
    MoveIndex,
    MoveScript,
    _rebuild,
    apply_move,
    enumerate_moves,
    stabilize,
)
from frontkit.satellite import cable, n_copy
from frontkit.standard import StandardFormDiagram, SteinHandlebody, homology_vector


def twice_stabilized_unknot():
    return stabilize(stabilize(unknot(), 0, 1), 0, -1)


def test_bfs_recovers_stabilized_unknot():
    d = twice_stabilized_unknot()
    assert thurston_bennequin(d) == -3
    res = bfs_max_tb(d, SearchConfig(max_depth=4, budget=10_000))
    assert res.best_tb == -1
    assert res.nodes_expanded <= 10_000
    assert thurston_bennequin(res.witness.replay(d)) == -1


def test_bfs_fixed_point_on_reduced_unknot():
    res = bfs_max_tb(unknot())
    assert res.best_tb == -1
    assert res.nodes_expanded == 1
    assert res.witness.moves == ()


def test_bfs_is_a_lower_bound():
    d = K_mn_cable_front(-1, 2)
    try:
        res = bfs_max_tb(d, SearchConfig(max_depth=2, budget=500))
    except BudgetExhausted as exc:
        res = exc.partial
    assert res.best_tb >= -3


def test_bfs_monotone_in_depth():
    d = twice_stabilized_unknot()
    best = [
        bfs_max_tb(d, SearchConfig(max_depth=k, budget=10_000)).best_tb
        for k in (1, 2, 3, 4)
    ]
    assert best == sorted(best)


def test_bfs_deterministic_witness():
    d = twice_stabilized_unknot()
    cfg = SearchConfig(max_depth=4, budget=10_000)
    a = bfs_max_tb(d, cfg)
    b = bfs_max_tb(d, cfg)
    assert a.witness == b.witness
    assert a.nodes_expanded == b.nodes_expanded


def test_budget_exhaustion_carries_partial_result():
    d = twice_stabilized_unknot()
    with pytest.raises(BudgetExhausted) as exc:
        bfs_max_tb(d, SearchConfig(max_depth=4, budget=3))
    partial = exc.value.partial
    assert partial.exhausted
    assert partial.best_tb >= -3


def test_a_witness_that_replays_to_another_tb_is_an_error(monkeypatch):
    # A mutation of the replay: the witness of a search that destabilized
    # twice replays to its start, whose tb is 2 lower than the tb the
    # search carried, and the replay check names the difference.
    monkeypatch.setattr(MoveScript, "replay", lambda script, start: start)
    with pytest.raises(MoveError, match="carried tb -1 along 2 moves.*tb -3"):
        bfs_max_tb(twice_stabilized_unknot())


def test_fuzz_zero_steps_is_identity():
    rep = fuzz_moves(trefoil(), seed=0, steps=0)
    assert rep.steps_applied == 0
    assert rep.final.events == trefoil().events


def test_fuzz_trefoil_no_violations():
    rep = fuzz_moves(trefoil(), seed=11, steps=300)
    assert rep.violations == ()
    assert rep.steps_applied == 300


def test_fuzz_twist_knot_no_violations():
    rep = fuzz_moves(K_m_front(-2), seed=3, steps=150)
    assert rep.violations == ()


def test_fuzz_allows_a_move_to_reverse_a_component():
    # A slide that swaps two left cusps can change which strand of a
    # component is created first, so its canonical orientation, and the
    # sign of its rotation, flip although the knot did not change.
    flipped = 0
    for s in range(300):
        rng = random.Random(s)
        d = random_front(rng, rng.randint(4, 20))
        rep = fuzz_moves(d, s, 30)
        assert rep.violations == (), s
        rots = [sorted(rotation(x, c) for c in x.components) for x in (d, rep.final)]
        flipped += rots[0] != rots[1]
    assert flipped > 0


def test_fuzz_strips_check_rotation_and_homology():
    strips = [
        e.artifact.diagram for e in gallery.gallery_manifest()
        if isinstance(e.artifact, SteinHandlebody)
    ]
    assert len(strips) == 5
    for d in strips:
        for seed in (1, 2):
            assert fuzz_moves(d, seed, 200).violations == ()
    # Two strips that differ only in the circle's rotation differ.
    d = stabilize(strips[0], 0, 1)
    assert _fingerprint(stabilize(d, 0, 1)) != _fingerprint(stabilize(d, 0, -1))


def test_a_front_fingerprints_rotation_up_to_sign():
    # A front has no handles, so v is (rotation,), kept up to sign.
    up, down = stabilize(unknot(), 0, 1), stabilize(unknot(), 0, -1)
    assert _fingerprint(up) == _fingerprint(down) == (1, ((-2, (1,)),))


def test_the_fingerprint_is_its_public_function_form():
    # _fingerprint skips the homology vector of a diagram with no
    # handles; it must still equal the form built from the public
    # functions, on fronts and strips and their stabilizations.
    def public(d):
        per = []
        for c in d.components:
            v = (rotation(d, c), *homology_vector(d, c))
            per.append((thurston_bennequin(d, c), max(v, tuple(-x for x in v))))
        return (d.n_components, tuple(sorted(per)))

    rng = random.Random(29)
    diagrams = [random_front(rng, rng.randint(2, 24)) for _ in range(25)]
    diagrams += _gallery_strips()
    stabilized = [
        stabilize(d, c, sign)
        for d in diagrams
        for c in range(d.n_components)
        for sign in (1, -1)
    ]
    assert any(d.handles for d in diagrams)
    for d in diagrams + stabilized:
        assert _fingerprint(d) == public(d), d


def test_a_handlebody_or_an_empty_diagram_is_a_typed_error():
    h = gallery.stein_rep_max(-5, 2)
    for call in (
        lambda: bfs_max_tb(h),
        lambda: fuzz_moves(h, 1, 5),
        lambda: cable(h, 2, -1),
        lambda: certify_tb_max(h, 0, GenusCertificate(0, 0)),
        lambda: bfs_max_tb(FrontDiagram([])),
        lambda: bfs_max_tb(StandardFormDiagram([], [], [], [])),
    ):
        with pytest.raises(DiagramError):
            call()


def _reference_fuzz(d, seed, steps):
    """The walk as fuzz_moves defines it, with a full enumeration per
    step: a uniform draw from enumerate_moves, then apply_move."""
    rng = random.Random(seed)
    want = _fingerprint(d)
    current = d
    violations = []
    applied = 0
    for step in range(steps):
        moves = enumerate_moves(current, _FUZZ_KINDS)
        if not moves:
            break
        m = rng.choice(moves)
        current = apply_move(current, m)
        applied += 1
        got = _fingerprint(current)
        if got != want:
            violations.append(f"step {step} ({m.kind} at {m.index}): {want} -> {got}")
            want = got
    return applied, tuple(violations), current.events


def test_fuzz_walk_matches_full_enumeration():
    fronts = [
        e.artifact
        for e in gallery.gallery_manifest()
        if isinstance(e.artifact, FrontDiagram)
    ]
    fronts.append(gallery.stein_rep_max(-5, 2).diagram)
    for d in fronts:
        steps = 25 if len(d.events) > 200 else 80
        for seed in (1, 2, 3):
            rep = fuzz_moves(d, seed, steps)
            got = (rep.steps_applied, rep.violations, rep.final.events)
            assert got == _reference_fuzz(d, seed, steps), (d, seed)


def _gallery_strips():
    return [
        e.artifact.diagram for e in gallery.gallery_manifest()
        if isinstance(e.artifact, SteinHandlebody)
    ]


def _criterion_9_fronts():
    return [
        e.artifact for e in gallery.gallery_manifest()
        if isinstance(e.artifact, FrontDiagram)
    ]


def _wrong_replacement(monkeypatch, kind, rewrite):
    """Make every move ``m`` of ``kind`` splice ``rewrite(m, new)`` in
    place of its right new events ``new``, by patching the one rewrite
    of a window move."""
    right = moves._rewrite

    def wrong(triple):
        old_len, new = right(triple)
        level, k, data = triple
        return old_len, rewrite(Move(k, 0, level, data), new) if k == kind else new

    monkeypatch.setattr(moves, "_rewrite", wrong)


def _expansion(variant, extra):
    """An R2a expansion of ``variant`` followed by ``extra(i)``."""
    return lambda m, new: (
        new + extra(m.level) if m.data == ("expand", variant) else new
    )


# Wrong rewrites, each seen by a different part of the window summary.
_WRONG = {
    # The pairing and the crossing sums.
    "an R3 that drops its last crossing": ("R3", lambda m, new: new[:2]),
    # Only a crossing sum: after an "up" expansion the cusp's lower
    # branch and the strand it passed lie on rows i + 1 and i + 2.
    "an R2 expansion with a clasp": (
        "R2a", _expansion("up", lambda i: (X(i + 1), X(i + 1)))
    ),
    # Only one arc's tb and rotation.
    "an R2 expansion with a zigzag": (
        "R2a", _expansion("down", lambda i: (L(i + 1), R(i)))
    ),
    # Only the closed loops: a new unknot.
    "an R2 expansion with an unknot": (
        "R2a", _expansion("up", lambda i: (L(i), R(i)))
    ),
    # Only the pairing: the cusp lands on the other side of the strand.
    "an R2 contraction past no strand": (
        "R2a",
        lambda m, new: (
            (L(m.level + (m.data[1] == "up")),) if m.data[0] == "contract" else new
        ),
    ),
}


def _fault_walks():
    """Seeded 40-step walks, as ``(d, seed)``, on which every fault of
    ``_WRONG`` shows."""
    fronts = [trefoil(), K_m_front(-2), _criterion_9_fronts()[3]]
    fronts += [random_front(random.Random(s), 16) for s in (4, 5)]
    fronts.append(gallery.stein_rep_max(-5, 2).diagram)
    return [(d, seed) for d in fronts for seed in (1, 2, 3)]


@pytest.mark.parametrize("fault", sorted(_WRONG))
def test_fuzz_reports_a_wrong_rewrite_as_the_reference_does(monkeypatch, fault):
    _wrong_replacement(monkeypatch, *_WRONG[fault])
    violations = 0
    for d, seed in _fault_walks():
        rep = fuzz_moves(d, seed, 40)
        got = (rep.steps_applied, rep.violations, rep.final.events)
        assert got == _reference_fuzz(d, seed, 40), (d, seed)
        violations += len(rep.violations)
    assert violations


def test_the_start_is_fingerprinted_at_the_first_unproven_step(monkeypatch):
    # A walk fingerprints its start only when a step is not proven by its
    # window, and then once, before the first such step's diagram: every
    # step of a right walk is proven, so it fingerprints nothing, and a
    # walk with a wrong rewrite still reports what the reference reports.
    fingerprinted, unproven = [], []
    fingerprint, step = explore._fingerprint, MoveIndex._step

    def counted_fingerprint(d):
        fingerprinted.append(d)
        return fingerprint(d)

    def counted_step(index, idx, triple):
        proven = step(index, idx, triple)
        if not proven:
            unproven.append(idx)
        return proven

    monkeypatch.setattr(explore, "_fingerprint", counted_fingerprint)
    monkeypatch.setattr(MoveIndex, "_step", counted_step)
    for d in (trefoil(), K_m_front(-2), gallery.stein_rep_max(-5, 2).diagram):
        rep = fuzz_moves(d, 1, 200)
        assert (rep.steps_applied, rep.violations) == (200, ())
    assert (fingerprinted, unproven) == ([], [])
    _wrong_replacement(monkeypatch, *_WRONG["an R2 expansion with a zigzag"])
    walks_with_a_fingerprint = 0
    for d, seed in _fault_walks():
        fingerprinted.clear()
        unproven.clear()
        rep = fuzz_moves(d, seed, 40)
        got = (rep.steps_applied, rep.violations, rep.final.events)
        assert got == _reference_fuzz(d, seed, 40), (d, seed)
        assert len(fingerprinted) == (len(unproven) + 1 if unproven else 0)
        if unproven:
            assert fingerprinted[0] is d
            walks_with_a_fingerprint += 1
    assert walks_with_a_fingerprint


@pytest.fixture
def fresh_window_proofs():
    """The memo of ``moves._same_window`` emptied before and after the
    test, so that proofs made with a patched summary neither meet the
    entries of earlier tests nor reach later ones."""
    moves._same_window.cache_clear()
    yield
    moves._same_window.cache_clear()


# Each part of the window summary, by its place in the tuple, and the
# fault of ``_WRONG`` that only this part sees.
_SUMMARY_PARTS = {
    "the pairing": (1, "an R2 contraction past no strand"),
    "the per-arc counts": (2, "an R2 expansion with a zigzag"),
    "the crossing sums": (3, "an R2 expansion with a clasp"),
    "the loops": (4, "an R2 expansion with an unknot"),
}


@pytest.mark.parametrize("part", sorted(_SUMMARY_PARTS))
def test_a_summary_without_one_part_misses_what_only_it_sees(
    monkeypatch, fresh_window_proofs, part
):
    # A mutation of the proof: with one part of the summary dropped, the
    # walks of the wrong-rewrite test no longer report what the
    # reference reports, so the memoised proof still runs the summary
    # on every new window and hides no weakened check.
    place, fault = _SUMMARY_PARTS[part]
    _wrong_replacement(monkeypatch, *_WRONG[fault])
    summary = _kernel.window_summary

    def without_part(events, width):
        out = list(summary(events, width))
        out[place] = None
        return tuple(out)

    monkeypatch.setattr(_kernel, "window_summary", without_part)
    missed = 0
    for d, seed in _fault_walks():
        rep = fuzz_moves(d, seed, 40)
        applied, violations, final = _reference_fuzz(d, seed, 40)
        # The walk draws the same moves; only the reports differ.
        assert (rep.steps_applied, rep.final.events) == (applied, final)
        assert len(rep.violations) <= len(violations)
        missed += len(violations) - len(rep.violations)
    assert missed


@pytest.mark.parametrize("level", [0, 99])
def test_a_rewrite_off_the_slice_raises_what_the_rebuild_raises(monkeypatch, level):
    _wrong_replacement(
        monkeypatch, "Slide", lambda m, new: (new[0]._replace(level=level),) + new[1:]
    )
    for d in (K_m_front(-2), gallery.stein_rep_max(-5, 2).diagram):
        index = MoveIndex(d, _FUZZ_KINDS)
        before, widths = listed_moves(index), list(index._widths)
        held = list(index._events), list(index._groups), list(index._ends)
        k = next(k for k, m in enumerate(before) if m.kind == "Slide")
        with pytest.raises(DiagramError) as want:
            apply_move(d, before[k])
        with pytest.raises(DiagramError) as got:
            index._step(*index._site(k))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        # Nothing changed: the index lists the same moves of the same word
        # and holds the same slice widths, word, groups and move counts.
        assert listed_moves(index) == before
        assert index._widths == widths
        assert (index._events, index._groups, index._ends) == held
        assert index.diagram is d
        with pytest.raises(DiagramError) as walked:
            fuzz_moves(d, 7, 50)
        with pytest.raises(DiagramError) as reference:
            _reference_fuzz(d, 7, 50)
        assert str(walked.value) == str(reference.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_proven_step_keeps_the_fingerprint(seed):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        d = rng.choice(_gallery_strips())
    else:
        d = random_front(rng, rng.randint(4, 30))
    index = MoveIndex(d, _FUZZ_KINDS)
    want = _fingerprint(d)
    for _step in range(25):
        if not index:
            break
        proven = index._step(*index._site(rng.randrange(len(index))))
        got = _fingerprint(index.diagram)
        assert got == want or not proven
        want = got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_an_index_step_reads_a_memoised_proof_and_spliced_widths(seed):
    # After every step the memoised proof of the rewritten window is a
    # fresh one, and the widths the index splices are the widths a
    # count from the start of the new word gives.
    rng = random.Random(seed)
    roll = rng.random()
    if roll < 0.15:
        d = gallery.stein_rep_max(-5, 2).diagram
    elif roll < 0.35:
        d = rng.choice(_gallery_strips())
    else:
        d = random_front(rng, rng.randint(4, 30))
    start = len(d.left_ports)
    index = MoveIndex(d, _WINDOW_KINDS)
    for _step in range(25):
        if not index:
            break
        idx, triple = index._site(rng.randrange(len(index)))
        events = tuple(index._events)
        old_len, new = moves._rewrite(triple)
        old = events[idx : idx + old_len]
        width = len(_kernel.slices(events, index.diagram.trace)[idx])
        proven = index._step(idx, triple)
        fresh = moves._same_window.__wrapped__(old, new, width)
        assert proven == moves._same_window(old, new, width) == fresh, triple
        events = tuple(index._events)
        assert index._widths == list(
            map(len, _kernel.slices(events, index.diagram.trace))
        ), triple


def test_every_step_of_the_criterion_9_walks_is_proven():
    for d in _criterion_9_fronts():
        rng = random.Random(1)
        index = MoveIndex(d, _FUZZ_KINDS)
        steps = 0
        while index and steps < 1000:
            proven = index._step(*index._site(rng.randrange(len(index))))
            assert proven is True, (d, steps)
            steps += 1
        assert steps == (1000 if len(d.events) > 2 else 0)


def _reducing_sites():
    out = []
    for d in (unknot(), trefoil(), K_m_front(-1), K_m_front(-2)):
        for a in (1, -1):
            for b in (1, -1):
                out.append(stabilize(stabilize(d, 0, a), 0, b))
    out.append(gallery.stein_rep_max(-5, 2).diagram)
    return out


def _splice(events, m):
    """``events`` rewritten by ``m``, a window move the scan lists."""
    old_len, new = moves._rewrite((m.level, m.kind, m.data))
    return events[: m.index] + new + events[m.index + old_len :]


def _reducing_moves(events):
    """The moves that never grow the word: ``enumerate_moves(d,
    _WINDOW_KINDS)`` without the R2 expansions, where ``d`` has the word
    ``events``."""
    groups = unexpanded_groups(events)
    return [
        Move(kind, idx, level, data)
        for idx, group in enumerate(groups)
        for level, kind, data in group
    ]


def test_reducing_moves_are_enumeration_without_expansions():
    for d in _reducing_sites():
        want = [
            m for m in enumerate_moves(d, _WINDOW_KINDS)
            if not (m.kind in ("R2a", "R2b") and m.data[0] == "expand")
        ]
        assert _reducing_moves(d.events) == want, d


def _search_outcome(d, depth, budget):
    try:
        res = bfs_max_tb(d, SearchConfig(max_depth=depth, budget=budget))
    except BudgetExhausted as exc:
        res = exc.partial
    return repr((res.best_tb, res.witness.moves, res.nodes_expanded, res.exhausted))


def test_bfs_outputs_are_pinned():
    # The 16 twice-stabilized knots at the search workload's bounds (5 of
    # them run out of budget), then one deeper query that does not.
    digest = hashlib.sha256()
    for d in _reducing_sites()[:16]:
        digest.update(_search_outcome(d, 3, 300).encode())
    deep = stabilize(stabilize(K_m_front(-1), 0, 1), 0, 1)
    digest.update(_search_outcome(deep, 4, 2000).encode())
    assert digest.hexdigest() == (
        "50c005a8ec4180b14ffff1bac6149d437196ba1b87e0210bb78b8fe3b2f9d47a"
    )


def _reference_bfs(d, cfg):
    """The search as it was before it carried tb: every new child is
    rebuilt and traced, and its tb read from the trace."""
    best = (_tb_of(d), MoveScript(()))
    frontier = [(d, ())]
    seen = {d.events}
    nodes = 1
    for _depth in range(cfg.max_depth):
        nxt = []
        for node, path in frontier:
            for m in _reducing_moves(node.events):
                if nodes >= cfg.budget:
                    raise BudgetExhausted(
                        f"node budget {cfg.budget} exhausted",
                        (best[0], best[1], nodes, True),
                    )
                word = _splice(node.events, m)
                if word in seen:
                    continue
                seen.add(word)
                child = _rebuild(node, word)
                nodes += 1
                child_path = path + (m,)
                tb = _tb_of(child)
                if tb > best[0]:
                    best = (tb, MoveScript(child_path))
                nxt.append((child, child_path))
        if not nxt:
            break
        frontier = nxt
    return (best[0], best[1], nodes, False)


def _comparison_queries():
    """128 searches: knots stabilized 1-3 times, links with one
    component stabilized or all of them, the (-5, 2), (-6, 2) and (-9, 3)
    strips, each at depth 3 / budget 300 and depth 4 / budget 3000, and
    the (-5, 2) step-3 closed front at depth 4 under both budgets."""
    fronts = []
    for base in (unknot(), trefoil(), K_m_front(-1), K_m_front(-2)):
        for k in (1, 2, 3):
            for signs in itertools.product((1, -1), repeat=k):
                d = base
                for sign in signs:
                    d = stabilize(d, None, sign)
                fronts.append(d)
    fronts += [
        stabilize(n_copy(unknot(), 2), 0, 1),
        stabilize(stabilize(n_copy(unknot(), 2), 0, 1), 1, -1),
        n_copy(stabilize(unknot(), None, 1), 3),
        stabilize(n_copy(trefoil(), 3), 2, -1),
    ]
    fronts += [
        gallery.stein_rep_max(m, n).diagram for m, n in ((-5, 2), (-6, 2), (-9, 3))
    ]
    out = [(d, SearchConfig(3, 300)) for d in fronts]
    out += [(d, SearchConfig(4, 3000)) for d in fronts]
    closed = gallery.step3_pipeline(-5, 2)[0]
    out += [(closed, SearchConfig(4, 300)), (closed, SearchConfig(4, 3000))]
    return out


def test_search_matches_the_traced_reference():
    queries = _comparison_queries()
    assert len(queries) == 128
    exhausted = 0
    for d, cfg in queries:
        try:
            res = bfs_max_tb(d, cfg)
        except BudgetExhausted as exc:
            res = exc.partial
        try:
            want = _reference_bfs(d, cfg)
        except BudgetExhausted as exc:
            want = exc.partial
        got = (res.best_tb, res.witness, res.nodes_expanded, res.exhausted)
        assert got == want, (d, cfg)
        assert _tb_of(res.witness.replay(d)) == res.best_tb
        exhausted += res.exhausted
    # Partial results are compared too.
    assert exhausted > 0


def _outcome(search, d, cfg):
    """What ``search`` returns for ``d`` within ``cfg``, its partial
    result when the budget runs out."""
    try:
        return search(d, cfg)
    except BudgetExhausted as exc:
        return exc.partial


_BUDGET_EDGE = FrontDiagram([L(1), L(2), R(1), X(1), X(1), L(2), X(3), R(2), R(1)])


def test_a_spent_budget_raises_on_a_move_the_search_skips():
    # Every node of this front within depth 2 is reached by the 7th; at
    # budget 7 the reference still raises, because a later node tries a
    # move whose child is already seen.  The search skips the moves that
    # commute with a node's last move, so it must raise there too.
    d = _BUDGET_EDGE
    for budget in (6, 7, 8):
        cfg = SearchConfig(max_depth=2, budget=budget)
        res = _outcome(bfs_max_tb, d, cfg)
        want = _outcome(_reference_bfs, d, cfg)
        assert (res.best_tb, res.witness, res.nodes_expanded, res.exhausted) == want
        if budget == 7:
            assert want[2:] == (7, True)


def test_a_node_tries_every_move_that_overlaps_its_last_move():
    # A move of three events that starts two events before the last
    # move's site overlaps it, so it need not commute with it.  On this
    # front a search that skipped those moves too reaches fewer nodes.
    d = FrontDiagram([
        L(1), X(1), X(1), L(3), X(1), X(3), X(3), X(2),
        X(1), R(3), X(1), X(1), L(1), R(3), R(1),
    ])
    for depth in (2, 3):
        cfg = SearchConfig(max_depth=depth, budget=3000)
        res = bfs_max_tb(d, cfg)
        want = _reference_bfs(d, cfg)
        assert (res.best_tb, res.witness, res.nodes_expanded, res.exhausted) == want


def _budget_sweep_queries():
    """Small searches: the unknot and the trefoil stabilized twice,
    ``K_m_front(-1)`` and the (-5, 2) strip stabilized once, and the
    budget-edge front."""
    return [
        _BUDGET_EDGE,
        twice_stabilized_unknot(),
        stabilize(stabilize(trefoil(), 0, 1), 0, -1),
        stabilize(K_m_front(-1), 0, 1),
        stabilize(gallery.stein_rep_max(-5, 2).diagram, 1, -1),
    ]


def test_every_budget_ends_the_search_as_the_reference_does():
    # Each budget from 1 to one past the nodes of the whole search, at
    # depths 1-3: the budget runs out at every node in turn, at the
    # moves a node skips as well as at the ones it tries.
    for d in _budget_sweep_queries():
        for depth in (1, 2, 3):
            total = _reference_bfs(d, SearchConfig(depth, 10**6))[2]
            for budget in range(1, total + 2):
                cfg = SearchConfig(depth, budget)
                res = _outcome(bfs_max_tb, d, cfg)
                got = (res.best_tb, res.witness, res.nodes_expanded, res.exhausted)
                assert got == _outcome(_reference_bfs, d, cfg), (d, cfg)


@pytest.mark.parametrize("kind", ["Slide", "Destabilize"])
def test_a_no_op_coded_rewrite_fails_the_reference(monkeypatch, kind):
    # A mutation of the coded table: every entry of ``kind`` splices the
    # window it read back in unchanged.  On each twice- or thrice-
    # stabilized knot of the search workload (depth 3, budget 300) the
    # search then parts from the traced reference.
    class NoOp(explore._CodedTable):
        def __missing__(self, key):
            self[key] = tuple(
                (triple, old_len, key[:old_len], 0) if triple[1] == kind
                else (triple, old_len, new, shift)
                for triple, old_len, new, shift in super().__missing__(key)
            )
            return self[key]

    monkeypatch.setattr(explore, "_CODED_GROUPS", NoOp())
    cfg = SearchConfig(3, 300)
    queries = []
    for base in (unknot(), trefoil(), K_m_front(-1), K_m_front(-2)):
        for k in (2, 3):
            for signs in itertools.product((1, -1), repeat=k):
                d = base
                for sign in signs:
                    d = stabilize(d, None, sign)
                queries.append(d)
    assert len(queries) == 48
    matched = 0
    for d in queries:
        res = _outcome(bfs_max_tb, d, cfg)
        got = (res.best_tb, res.witness, res.nodes_expanded, res.exhausted)
        matched += got == _outcome(_reference_bfs, d, cfg)
    assert matched == 0


def _search_sites(seed):
    """A seeded random front or a step-3 strip, stabilized up to twice,
    then walked a few random Reidemeister steps so that contractions
    have sites."""
    rng = random.Random(seed)
    if rng.random() < 0.25:
        d = gallery.stein_rep_max(*rng.choice(((-5, 2), (-6, 2), (-9, 3)))).diagram
    else:
        d = random_front(rng, rng.randint(4, 24))
    for _ in range(rng.randint(0, 2)):
        d = stabilize(d, rng.randrange(d.n_components), rng.choice((1, -1)))
    return fuzz_moves(d, seed, rng.randint(0, 6)).final


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reductions_carry_tb(seed):
    # What the search rests on: each listed reduction leaves the
    # component count alone and keeps the tb of every component, except
    # a Destabilize, which raises the touched component's tb by 1.
    d = _search_sites(seed)
    tr = d.trace
    tbs = _tbs(d)
    for m in _reducing_moves(d.events):
        child = _rebuild(d, _splice(d.events, m))
        assert child.n_components == d.n_components, m
        want = list(tbs)
        if m.kind == "Destabilize":
            want[tr.strand_component[tr.event_strands[m.index][0]]] += 1
        # Components may be renumbered, so compare the tb multisets.
        assert sorted(_tbs(child)) == sorted(want), m


@pytest.mark.parametrize(
    "bounds",
    [
        {"max_depth": -1},
        {"max_depth": "3"},
        {"max_depth": 2.5},
        {"max_depth": True},
        {"budget": 0},
        {"budget": "7"},
        {"budget": True},
    ],
)
def test_search_bounds_must_be_ints_in_range(bounds):
    with pytest.raises(ParameterOutOfRange):
        SearchConfig(**bounds)


@pytest.mark.parametrize("cfg", [{"max_depth": 2}, None, "3", (3, 300)])
def test_search_bounds_must_be_a_search_config(cfg):
    with pytest.raises(ParameterOutOfRange, match=type(cfg).__name__):
        bfs_max_tb(stabilize(trefoil(), 0, 1), cfg)


@pytest.mark.parametrize("seed", [None, [1], "1", 1.5, True])
def test_fuzz_seed_must_be_an_int(seed):
    # A walk is repeated from its seed, so only an int seeds one.
    with pytest.raises(ParameterOutOfRange, match="seed"):
        fuzz_moves(trefoil(), seed, 3)


@pytest.mark.parametrize("steps", [-3, "3", 2.5, True])
def test_fuzz_steps_must_be_an_int_in_range(steps):
    with pytest.raises(ParameterOutOfRange):
        fuzz_moves(trefoil(), 1, steps)


def test_a_word_past_the_size_bound_is_refused_before_it_is_traced(monkeypatch):
    # A level of a traced word is below its widest slice, so below its
    # size.  The nested word L1 L3 ... R3 R1 of the size bound reaches the
    # highest level that leaves, and its codes are still code points.
    k = _MAX_WORD // 2
    word = [L(2 * i + 1) for i in range(k)] + [R(2 * i + 1) for i in reversed(range(k))]
    assert len(word) == _MAX_WORD
    assert max(level for _kind, level in word) == _MAX_WORD - 1
    assert explore._decode(explore._encode(word)) == tuple(word)

    def untraced(*args):
        raise AssertionError("the word was traced")

    monkeypatch.setattr(_kernel, "trace", untraced)
    with pytest.raises(
        ParameterOutOfRange, match=f"^word asks for a size past the bound {_MAX_WORD}$"
    ):
        # One crossing on the innermost cusp pair: a front one past the bound.
        FrontDiagram(word[:k] + [X(2 * k - 1)] + word[k:])


def test_a_wide_front_searches_as_the_traced_reference_does():
    # Levels past 85 have codes past 255, so the coded words widen from
    # one byte to two per event.
    d = stabilize(n_copy(unknot(), 45), 0, 1)
    assert max(level for _kind, level in d.events) > 85
    cfg = SearchConfig(max_depth=2, budget=300)
    try:
        res = bfs_max_tb(d, cfg)
    except BudgetExhausted as exc:
        res = exc.partial
    try:
        want = _reference_bfs(d, cfg)
    except BudgetExhausted as exc:
        want = exc.partial
    assert (res.best_tb, res.witness, res.nodes_expanded, res.exhausted) == want
