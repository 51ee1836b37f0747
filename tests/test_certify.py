"""Genus-based tb bounds and the surgery arithmetic ledger."""

import pathlib

import pytest

from frontkit.certify import (
    BOUND_ONLY,
    CERTIFIED,
    INCONSISTENT,
    GenusCertificate,
    MaxTbCertificate,
    adjunction_bound,
    certify_tb_max,
    reducibility_report,
    report_text,
    surgery_coefficient,
)
from frontkit.errors import ParameterOutOfRange
from frontkit.front import trefoil, unknot
from frontkit.gallery import K_mn_cable_front, step3_pipeline
from frontkit.moves import stabilize

DATA = pathlib.Path(__file__).parent / "data"


def test_adjunction_bound_values():
    assert adjunction_bound(GenusCertificate(0, 0)) == -1
    assert adjunction_bound(GenusCertificate(0, 1)) == 1
    assert adjunction_bound(GenusCertificate(0, 3)) == 5


def test_genus_must_be_nonnegative():
    with pytest.raises(ParameterOutOfRange):
        GenusCertificate(0, -1)


def test_certificate_must_name_the_component():
    with pytest.raises(ParameterOutOfRange, match="component 5, not 0"):
        certify_tb_max(trefoil(), 0, GenusCertificate(component=5, genus=1))


def test_unknot_certified_at_genus_zero():
    cert = certify_tb_max(unknot(), 0, GenusCertificate(0, 0))
    assert cert.verdict == CERTIFIED
    assert cert.tb == -1


def test_trefoil_with_false_genus_claim_is_inconsistent():
    cert = certify_tb_max(trefoil(), 0, GenusCertificate(0, 0))
    assert cert.verdict == INCONSISTENT


def test_cable_representative_is_bound_only():
    d = K_mn_cable_front(-1, 2)
    cert = certify_tb_max(d, 0, GenusCertificate(0, 0))
    assert cert.verdict == BOUND_ONLY
    assert cert.tb == -3


def test_step3_front_certified():
    closed, _ = step3_pipeline(-5, 2)
    cert = certify_tb_max(closed, 0, GenusCertificate(0, 0))
    assert cert.verdict == CERTIFIED
    assert cert.tb == -1


def test_certified_never_without_equality():
    """Exhaustive sweep: the verdict logic can only say Certified when
    tb equals the bound and the rotation slack is zero."""
    for tb in range(-10, 11):
        for r in range(-10, 11):
            for g in range(0, 6):
                bound = 2 * g - 1
                if tb + abs(r) > bound:
                    verdict = INCONSISTENT
                elif tb == bound:
                    verdict = CERTIFIED
                else:
                    verdict = BOUND_ONLY
                if verdict == CERTIFIED:
                    assert tb == bound
                    assert r == 0 or tb + abs(r) > bound


def test_inconsistent_is_monotone_in_genus():
    for tb in range(-6, 7):
        for r in range(-4, 5):
            flags = [
                tb + abs(r) > 2 * g - 1 for g in range(5, -1, -1)
            ]
            # Lowering g only adds violations.
            assert flags == sorted(flags)


def test_surgery_coefficient_drops_with_stabilization():
    d = unknot()
    assert surgery_coefficient(d) == -2
    assert surgery_coefficient(stabilize(d, 0, 1)) == -3


def test_reducibility_report_arithmetic():
    claim = reducibility_report(-5, 2)
    assert claim.coefficient == -2
    assert claim.cable_slope == -2
    assert claim.gap == 1
    claim = reducibility_report(-17, 5)
    assert claim.coefficient == -5
    assert claim.gap == 4
    # Each fact is taken as input and printed as such.
    assert report_text(claim).count("fact [not machine-verified]: ") == 3


@pytest.mark.parametrize("n", (2, 3, 4))
def test_reducibility_coefficient_is_the_front_stabilized_n_minus_2_times(n):
    # The step-3 front has tb -1, so its surgery coefficient is -2; n - 2
    # stabilizations bring it to the ledger's -n, a gap of n - 1.
    m = -4 * n + 3
    d = step3_pipeline(m, n)[0]
    for _ in range(n - 2):
        d = stabilize(d, 0, 1)
    claim = reducibility_report(m, n)
    assert surgery_coefficient(d) == claim.coefficient == -n
    assert claim.gap == n - 1


def test_reducibility_report_range():
    with pytest.raises(ParameterOutOfRange):
        reducibility_report(-5, 1)
    with pytest.raises(ParameterOutOfRange):
        reducibility_report(-1, 2)


def test_reducibility_golden_file():
    text = "".join(
        report_text(reducibility_report(-4 * n + 3, n)) for n in range(2, 7)
    )
    golden = (DATA / "reducibility_reports.txt").read_text()
    assert text == golden
