"""Move-graph search and invariance fuzzing."""

import hashlib
import random

import pytest

from frontkit import gallery
from frontkit.errors import BudgetExhausted, ParameterOutOfRange
from frontkit.explore import (
    _FUZZ_KINDS,
    _REDUCING_KINDS,
    SearchConfig,
    _fingerprint,
    _reducing_moves,
    bfs_max_tb,
    fuzz_moves,
    local_max_certificate,
)
from frontkit.front import FrontDiagram, thurston_bennequin, trefoil, unknot
from frontkit.gallery import K_m_front, K_mn_cable_front
from frontkit.moves import apply_move, enumerate_moves, stabilize


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


def test_local_max_certificates():
    assert local_max_certificate(unknot(), 3).is_local_max
    d = stabilize(unknot(), 0, 1)
    assert not local_max_certificate(d, 1).is_local_max


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


def _reducing_sites():
    out = []
    for d in (unknot(), trefoil(), K_m_front(-1), K_m_front(-2)):
        for a in (1, -1):
            for b in (1, -1):
                out.append(stabilize(stabilize(d, 0, a), 0, b))
    out.append(gallery.stein_rep_max(-5, 2).diagram)
    return out


def test_reducing_moves_are_enumeration_without_expansions():
    for d in _reducing_sites():
        want = [
            m for m in enumerate_moves(d, _REDUCING_KINDS)
            if not (m.kind in ("R2a", "R2b") and m.data[0] == "expand")
        ]
        assert _reducing_moves(d) == want, d


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


def test_negative_depth_certifies_nothing():
    with pytest.raises(ParameterOutOfRange):
        local_max_certificate(stabilize(trefoil(), 0, 1), -1)


@pytest.mark.parametrize("steps", [-3, "3", 2.5, True])
def test_fuzz_steps_must_be_an_int_in_range(steps):
    with pytest.raises(ParameterOutOfRange):
        fuzz_moves(trefoil(), 1, steps)
