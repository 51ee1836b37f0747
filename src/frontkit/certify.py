"""Upper bounds on tb from slice-genus data, and the surgery arithmetic
showing the contact surgery coefficient can sit arbitrarily far below
the maximal Thurston-Bennequin number.

The slice-genus inputs are *certificates*: externally supplied facts
carried with provenance text and never computed here.  Everything this
module derives from them is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import ParameterOutOfRange
from .front import FrontDiagram, _check_int, _shown, rotation, thurston_bennequin


@dataclass(frozen=True)
class GenusCertificate:
    """An externally supplied bound: the knot bounds a genus-g surface
    in a filling."""

    component: int
    genus: int

    def __post_init__(self):
        _check_int(0, component=self.component, genus=self.genus)


CERTIFIED = "Certified"
BOUND_ONLY = "BoundOnly"
INCONSISTENT = "Inconsistent"


@dataclass(frozen=True)
class MaxTbCertificate:
    """Outcome of comparing a diagram's tb against a genus bound."""

    component: int
    tb: int
    upper_bound: int
    verdict: str


def adjunction_bound(cert: GenusCertificate) -> int:
    """The slice-Bennequin bound: tb + |rotation| <= 2g - 1.

    Valid for every g >= 0; at g = 0 it reads tb + |rot| <= -1.  A
    ``cert`` that is not a GenusCertificate raises ParameterOutOfRange.
    """
    if not isinstance(cert, GenusCertificate):
        raise ParameterOutOfRange(f"{_shown(cert)} is not a GenusCertificate")
    return 2 * cert.genus - 1


def certify_tb_max(d: FrontDiagram, c: int, cert: GenusCertificate) -> MaxTbCertificate:
    """Compare tb(c) against the genus bound.

    Certified means tb meets the bound exactly, so no Legendrian
    representative can do better and tb is maximal; meeting it forces
    rotation 0.  BoundOnly means the bound leaves room above.
    Inconsistent means tb + |rot| exceeds the bound, so the certificate
    itself must be wrong.  A certificate for another component than
    ``c``, or a ``cert`` that is not a GenusCertificate, raises
    ParameterOutOfRange.
    """
    bound = adjunction_bound(cert)
    if cert.component != c:
        raise ParameterOutOfRange(
            f"certificate is for component {_shown(cert.component)},"
            f" not {_shown(c)}"
        )
    tb = thurston_bennequin(d, c)
    rot = rotation(d, c)
    if tb + abs(rot) > bound:
        verdict = INCONSISTENT
    elif tb == bound:
        verdict = CERTIFIED
    else:
        verdict = BOUND_ONLY
    return MaxTbCertificate(c, tb, bound, verdict)


def surgery_coefficient(d: FrontDiagram, c: int = 0) -> int:
    """The contact -1 surgery coefficient: tb(c) - 1."""
    return thurston_bennequin(d, c) - 1


@dataclass(frozen=True)
class ExternalFact:
    """A topological fact taken as input, never computed here."""

    statement: str


@dataclass(frozen=True)
class SurgeryClaim:
    """The arithmetic ledger for the -n surgery on the (n,-1)-cable."""

    m: int
    n: int
    tb_max: int
    coefficient: int
    cable_slope: int
    gap: int
    facts: Tuple[ExternalFact, ...]


def reducibility_report(m: int, n: int) -> SurgeryClaim:
    """The integer ledger behind the reducible-surgery family.

    The cable knot's maximal tb is -1 (certified at genus 0), the cable
    slope is p*q = -n, and -n surgery is integral Legendrian surgery on
    the (n-2)-times-stabilized representative (tb -n + 1, coefficient
    tb - 1), so the coefficient sits n-1 below the maximum -- a gap that
    grows without bound in n.
    """
    _check_int(m=m, n=n)
    if n < 2:
        raise ParameterOutOfRange(f"need n >= 2, got {_shown(n)}")
    if m > -4 * n + 3:
        raise ParameterOutOfRange(
            f"need m <= {_shown(-4 * n + 3)}, got {_shown(m)}"
        )
    tb_max = -1
    coefficient = -n  # tb of the (n-2)-times-stabilized representative, minus 1
    slope = n * -1
    facts = (
        ExternalFact(
            "the -n surgery bounds a handlebody splitting off a -n-framed"
            " unknot summand, so its boundary is a connected sum with L(n,1)"
        ),
        ExternalFact(
            "surgery on a cable knot yields a reducible manifold exactly"
            " when the coefficient equals the cable slope p*q"
        ),
        ExternalFact(
            "the complementary summand bounds a contractible manifold"
        ),
    )
    return SurgeryClaim(m, n, tb_max, coefficient, slope, tb_max - coefficient, facts)


def report_text(claim: SurgeryClaim) -> str:
    """Render a claim with a stable field order, one field per line."""
    lines = [
        f"reducibility m={claim.m} n={claim.n}",
        f"tb_max = {claim.tb_max}",
        f"coefficient = {claim.coefficient}",
        f"cable_slope = {claim.cable_slope}",
        f"gap = {claim.gap}",
        f"slope_matches_coefficient = {claim.coefficient == claim.cable_slope}",
        f"coefficient_below_tb_max = {claim.coefficient < claim.tb_max}",
    ]
    lines += [f"fact [not machine-verified]: {fact.statement}" for fact in claim.facts]
    return "\n".join(lines) + "\n"
