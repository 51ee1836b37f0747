"""Acceptance gate: thirteen exact-integer criteria, one test each.

Every test prints a single PASS line on success (visible with -s or in
the captured output); a failure reads as the usual pytest assertion.
"""

import random

import pytest

from conftest import random_knot
from frontkit.certify import (
    CERTIFIED,
    GenusCertificate,
    certify_tb_max,
    reducibility_report,
    report_text,
)
from frontkit.errors import BudgetExhausted
from frontkit.explore import SearchConfig, bfs_max_tb, fuzz_moves
from frontkit.front import (
    FrontDiagram,
    rotation,
    thurston_bennequin,
    trefoil,
    unknot,
    writhe,
)
from frontkit.gallery import (
    K_m_front,
    K_mn_cable_front,
    candidate_component,
    gallery_manifest,
    stein_rep_max,
    step3_pipeline,
)
from frontkit.moves import apply_move, enumerate_moves, stabilize
from frontkit.satellite import n_copy_counts
from frontkit.standard import (
    SteinHandlebody,
    TwoHandleAttachment,
    closure_to_sphere,
    homology_vector,
    stein_check,
    tb_standard,
)
from frontkit.textio import parse, print_text, render

import pathlib

DATA = pathlib.Path(__file__).parent / "data"


def test_criterion_01_canonical_invariants():
    u, t = unknot(), trefoil()
    assert (thurston_bennequin(u), rotation(u)) == (-1, 0)
    assert (thurston_bennequin(t), rotation(t)) == (1, 0)
    print("[criterion 1] PASS: unknot tb=-1 rot=0; trefoil tb=+1 rot=0")


def test_criterion_02_twist_knot_family():
    for m in range(-1, -11, -1):
        d = K_m_front(m)
        assert thurston_bennequin(d) == -1
        assert rotation(d) == 0
    print("[criterion 2] PASS: K_m tb=-1 rot=0 for m in -1..-10")


def test_criterion_03_standard_cable():
    for n in range(2, 7):
        assert n * n * -1 + (n - 1) ** 2 == -2 * n + 1
        for m in (-1, -5, -9):
            d = K_mn_cable_front(m, n)
            assert thurston_bennequin(d) == -2 * n + 1, (m, n)
    print("[criterion 3] PASS: cable tb=-2n+1 for n in 2..6, m in {-1,-5,-9}")


def test_criterion_04_n_copy_law():
    rng = random.Random(20260827)
    for _ in range(20):
        d = random_knot(rng, steps=14)
        w = writhe(d)
        cusps = 2 * d.trace.left_cusps[0]
        for n in (2, 3, 4):
            counts = n_copy_counts(d, n)
            assert counts.crossing_writhe == n * n * w
            assert counts.cusps == n * cusps
    print("[criterion 4] PASS: n-copy writhe n^2*w and cusps n*c on 20 fronts")


def test_criterion_05_stein_validity():
    for n in (2, 3, 4):
        for m in (-4 * n + 3, -4 * n - 2):
            h = stein_rep_max(m, n)
            assert stein_check(h) == [], (m, n)
            perturbed = SteinHandlebody(
                h.diagram,
                [TwoHandleAttachment(a.component, a.framing + 1)
                 for a in h.attachments],
            )
            assert stein_check(perturbed), (m, n)
    print("[criterion 5] PASS: stein_check exact on the (m,n) grid")


def test_criterion_06_max_representative_certified():
    for n in (2, 3, 4):
        for m in (-4 * n + 3, -4 * n - 2):
            h = stein_rep_max(m, n)
            cand = candidate_component(h)
            assert tb_standard(h.diagram, cand) == -1
            assert homology_vector(h.diagram, cand) == (0,)
    closed, _ = step3_pipeline(-5, 2)
    cert = certify_tb_max(closed, 0, GenusCertificate(0, 0))
    assert cert.verdict == CERTIFIED and cert.tb == -1
    print("[criterion 6] PASS: candidate tb=-1, hom 0, Certified at -1")


def test_criterion_07_variant_representative():
    from frontkit.gallery import stein_rep_variant

    for n in (2, 3, 4):
        h = stein_rep_variant(-2 * n - 1, n)
        assert tb_standard(h.diagram, candidate_component(h)) == -n + 1
    print("[criterion 7] PASS: variant candidate tb=-n+1 for n in 2..4")


def test_criterion_08_step3_pipeline():
    for n, m in ((2, -5), (3, -9)):
        closed, script = step3_pipeline(m, n)
        assert isinstance(closed, FrontDiagram)
        assert closed.n_components == 1
        assert thurston_bennequin(closed) == -1
        replayed = script.replay(stein_rep_max(m, n))
        assert replayed.events == closed.events
    print("[criterion 8] PASS: slides+cancel close at tb=-1; script replays")


def test_criterion_09_move_invariance_fuzz():
    for entry in gallery_manifest():
        if not isinstance(entry.artifact, FrontDiagram):
            continue
        report = fuzz_moves(entry.artifact, seed=1, steps=1000)
        assert report.violations == (), entry.name
    print("[criterion 9] PASS: 1000 random moves per front, zero violations")


def test_criterion_10_closure_alpha_invariance():
    h = stein_rep_max(-5, 2)
    d = h.diagram
    cand = d.component_of_port(("H", 1))
    base = closure_to_sphere(d, cand)[1]
    seen = {d.events}
    frontier = [d]
    while frontier and len(seen) < 9:
        cur = frontier.pop()
        for m in enumerate_moves(cur, ("R2a", "R2b", "Slide")):
            d2 = apply_move(cur, m)
            if d2.events in seen:
                continue
            seen.add(d2.events)
            frontier.append(d2)
            c2 = d2.component_of_port(("H", 1))
            assert closure_to_sphere(d2, c2)[1] == base
    assert len(seen) - 1 >= 5
    print(f"[criterion 10] PASS: alpha constant over {len(seen) - 1} variants")


def test_criterion_11_reducibility_ledger():
    for n in range(2, 7):
        claim = reducibility_report(-4 * n + 3, n)
        assert claim.coefficient == -n == claim.cable_slope
        assert claim.coefficient < claim.tb_max == -1
        assert claim.gap == n - 1
    text = "".join(
        report_text(reducibility_report(-4 * n + 3, n)) for n in range(2, 7)
    )
    assert text == (DATA / "reducibility_reports.txt").read_text()
    print("[criterion 11] PASS: coefficient=-n=slope, gap=n-1; golden match")


def test_criterion_12_search_recovery():
    d = stabilize(stabilize(unknot(), 0, 1), 0, -1)
    cfg = SearchConfig(max_depth=4, budget=10_000)
    res = bfs_max_tb(d, cfg)
    assert res.best_tb == -1
    assert res.nodes_expanded <= 10_000
    assert bfs_max_tb(d, cfg).witness == res.witness
    print(
        f"[criterion 12] PASS: tb=-1 recovered in {res.nodes_expanded} nodes,"
        " deterministic witness"
    )


def test_criterion_13_format_roundtrip_and_rendering():
    for entry in gallery_manifest():
        doc = print_text(entry.artifact)
        assert print_text(parse(doc)) == doc, entry.name
        for mode in ("ascii", "svg"):
            assert render(entry.artifact, mode) == render(parse(doc), mode)
    print("[criterion 13] PASS: parse∘print identity; renderers byte-stable")
