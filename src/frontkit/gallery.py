"""Parameterized diagram families, with every stated invariant recomputed.

No generator trusts a stored number: each construction re-derives its
tb/rotation/homology claims from the emitted diagram and raises if the
reconstruction drifts.  The knot family here is a series of words K_m
(a positive clasp plus a Legendrian box of left-handed half twists),
its (n,-1)-cables, and the standard-form handlebody presentations used
to maximize tb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .errors import DiagramError, MoveNotApplicable, ParameterOutOfRange
from .front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    _check_int,
    _check_size,
    _is_int,
    _shown,
    classical_invariants,
    thurston_bennequin,
    trefoil,
    unknot,
)
from .moves import (
    Move,
    MoveScript,
    SteinHandlebody,
    _clean_sites,
    _nth,
    apply_move,
    clean_band_sites,
)
from .satellite import cable
from .standard import (
    OneHandle,
    StandardFormDiagram,
    TwoHandleAttachment,
    geometric_passes,
    homology_vector,
    pass_signs,
    stein_check,
    tb_standard,
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DiagramError(f"gallery reconstruction drifted: {message}")


def K_m_front(m: int) -> FrontDiagram:
    """The front K_m: a positive clasp of 2κ + 1 crossings and a box of
    κ = 2(1 - m) left-handed half twists, recomputed to tb = -1 and
    rotation 0.

    The twist box is Legendrian: each left-handed half twist detours one
    strand through a cusp pair, and the clasp crossing count is balanced
    so the whole front recomputes to tb = -1.
    """
    _check_int(m=m)
    if m > -1:
        raise ParameterOutOfRange(f"K_m needs m <= -1, got {_shown(m)}")
    kappa = 2 * (1 - m)  # left-handed half twists in the box
    j = 2 * kappa + 1  # positive clasp crossings
    _check_size("m", 5 + 5 * kappa)
    word: List[Event] = [L(1), L(3)]
    word += [X(2)] * j
    # Each left-handed half twist detours one strand through a cusp
    # pair; alternating the detour side keeps the rotation number at 0.
    for i in range(kappa):
        if i % 2 == 0:
            word += [L(4), X(3), R(2)]
        else:
            word += [L(2), X(3), R(4)]
    word += [R(1), R(1)]
    d = FrontDiagram(word)
    _require(d.n_components == 1, f"K_{m} traced to {d.n_components} components")
    inv = classical_invariants(d)
    _require(inv.tb == -1, f"K_{m} recomputed tb {inv.tb} != -1")
    _require(inv.rotation == 0, f"K_{m} recomputed rotation {inv.rotation} != 0")
    return d


def K_mn_cable_front(m: int, n: int) -> FrontDiagram:
    """The (n,-1)-cable of K_m_front(m); recomputes to tb = -2n+1."""
    _check_int(n=n)
    if n < 2:
        raise ParameterOutOfRange(f"cable needs n >= 2, got {_shown(n)}")
    d = cable(K_m_front(m), n, -1)
    _require(d.n_components == 1, "cable is not a knot")
    tb = thurston_bennequin(d)
    _require(tb == -2 * n + 1, f"cable tb {tb} != {-2 * n + 1}")
    return d


def torus_front(p: int, q: int) -> FrontDiagram:
    """The positive (p, q) torus knot: the Legendrian closure of the
    braid (σ1 … σ(p−1))^q, as the word
    ``L1 … Lp (X1 … X(p−1))^q Rp … R1`` (nested left cusps, the braid on
    the top p rows, nested right cusps), recomputed to tb = pq − p − q,
    the maximum (Etnyre–Honda), and rotation 0.

    Needs p >= 2, q >= 1 and gcd(p, q) = 1, and checks its size,
    2p + (p − 1)q events, before it builds the word.
    """
    _check_int(p=p, q=q)
    if p < 2:
        raise ParameterOutOfRange(f"torus needs p >= 2, got {_shown(p)}")
    if q < 1:
        raise ParameterOutOfRange(f"torus needs q >= 1, got {_shown(q)}")
    # The word at q = 1 counts against p, its braid words against q.
    _check_size("p", 3 * p - 1)
    _check_size("q", 2 * p + (p - 1) * q)
    if math.gcd(p, q) != 1:
        raise ParameterOutOfRange(
            f"torus needs gcd(p, q) = 1, got gcd({p}, {q}) = {math.gcd(p, q)}"
        )
    word = [L(i) for i in range(1, p + 1)]
    word += [X(i) for i in range(1, p)] * q
    word += [R(i) for i in range(p, 0, -1)]
    d = FrontDiagram(word)
    name = f"T({p},{q})"
    _require(d.n_components == 1, f"{name} traced to {d.n_components} components")
    inv = classical_invariants(d)
    tb = p * q - p - q
    _require(inv.tb == tb, f"{name} recomputed tb {inv.tb} != {tb}")
    _require(inv.rotation == 0, f"{name} recomputed rotation {inv.rotation} != 0")
    return d


def _finger(level: int, crossings: int) -> List[Event]:
    """A doubled-back finger on the strand at ``level``: the strand
    dives below itself, crosses its own return strand ``crossings``
    times (an odd count, each crossing negative), and continues."""
    if crossings < 1 or crossings % 2 == 0:
        raise DiagramError(f"finger needs an odd crossing count, got {crossings}")
    return [L(level + 1)] + [X(level)] * crossings + [R(level)]


def _zigzag(level: int) -> List[Event]:
    """One stabilizing zigzag on the strand at ``level``."""
    return [L(level + 1), R(level)]


def Z_m_handlebody(m: int) -> SteinHandlebody:
    """The smooth handlebody Z^(m): one 1-handle cancelled by one
    m-framed 2-handle whose circle runs over it geometrically once,
    carrying a box of m full self-twists on a doubled-back finger.

    This is framed data only -- the framing is whatever ``m`` says, with
    no contact condition imposed or checked.
    """
    _check_int(m=m)
    _check_size("m", 3 + (2 * -m if m <= 0 else 6 * m))  # with its one port
    word: List[Event] = [L(2)]
    if m <= 0:
        word += [X(1)] * (2 * -m)
    else:
        # Right-handed twists of the antiparallel pair need cusp detours.
        word += [L(3), X(2), R(1)] * (2 * m)
    word += [R(1)]
    d = StandardFormDiagram([OneHandle("H", 1)], [("H", 1)], word, [("H", 1)])
    _require(d.n_components == 1, "attaching circle is not a knot")
    _require(
        geometric_passes(d, 0, "H") == 1,
        "circle does not pass the handle exactly once",
    )
    _require(homology_vector(d, 0) in ((1,), (-1,)), "homology vector not ±1")
    return SteinHandlebody(d, [TwoHandleAttachment(0, m)])


def _candidate_events(extra_zigzags: int = 0) -> List[Event]:
    """The unknotted candidate: enters slots 1 and 2, turns around on
    the left, and re-emerges from a left cusp, optionally stabilized."""
    return [R(1), L(1)] + _zigzag(1) * extra_zigzags


def _stein_rep(m: int, n: int, finger_crossings: int,
               candidate_zigzags: int) -> SteinHandlebody:
    """Shared builder for the maximizing representatives.

    One 1-handle; the candidate knot through slots 1-2; the m-framed
    attaching circle through slot 3 with a negative finger and enough
    stabilizing zigzags to land on tb = m + 1 exactly.
    """
    if n < 2:
        raise ParameterOutOfRange(f"need n >= 2, got {_shown(n)}")
    zigzags = -m - finger_crossings - 2
    if zigzags < 0:
        raise ParameterOutOfRange(
            "contact -1 framing unattainable: "
            f"need m <= {_shown(-finger_crossings - 2)}, got {_shown(m)}"
        )
    # The three ports, the candidate and the finger count against n, and
    # the circle's zigzags against m.
    size = 7 + 2 * candidate_zigzags + finger_crossings
    _check_size("n", size)
    _check_size("m", size + 2 * zigzags)
    word = _candidate_events(candidate_zigzags)
    word += _finger(3, finger_crossings)
    word += _zigzag(3) * zigzags
    d = StandardFormDiagram(
        [OneHandle("H", 3)],
        [("H", 1), ("H", 2), ("H", 3)],
        word,
        [("H", 1), ("H", 2), ("H", 3)],
    )
    cand = d.component_of_port(("H", 1))
    circ = d.component_of_port(("H", 3))
    _require(d.n_components == 2, "expected candidate + attaching circle")
    _require(tb_standard(d, circ) == m + 1, "circle tb drifted")
    h = SteinHandlebody(d, [TwoHandleAttachment(circ, m)])
    _require(not stein_check(h), "not Stein")
    _require(
        homology_vector(d, cand) == (0,), "candidate is not null-homologous"
    )
    return h


def candidate_component(h: SteinHandlebody) -> int:
    """The component of the candidate knot (the one with no 2-handle)."""
    attached = {a.component for a in h.attachments}
    free = [c for c in h.diagram.components if c not in attached]
    if len(free) != 1:
        raise DiagramError(f"expected one free component, found {len(free)}")
    return free[0]


def stein_rep_max(m: int, n: int) -> SteinHandlebody:
    """The tb = -1 representative of the cable knot inside Z^(m).

    Valid for n >= 2 and m <= -4n+3; beyond that the attaching circle
    cannot reach contact -1 framing in this construction and the
    builder raises.  The candidate component has tb_standard = -1 and
    zero homology vector.
    """
    _check_int(m=m, n=n)
    h = _stein_rep(m, n, finger_crossings=4 * n - 5, candidate_zigzags=0)
    cand = candidate_component(h)
    _require(tb_standard(h.diagram, cand) == -1, "candidate tb drifted")
    return h


def stein_rep_variant(m: int, n: int) -> SteinHandlebody:
    """The fallback representative with candidate tb_standard = -n+1,
    valid on the wider range m <= -2n-1."""
    _check_int(m=m, n=n)
    h = _stein_rep(m, n, finger_crossings=2 * n - 1, candidate_zigzags=n - 2)
    cand = candidate_component(h)
    _require(tb_standard(h.diagram, cand) == -n + 1, "candidate tb drifted")
    return h


def close_handlebody(
    h: SteinHandlebody, slides: Sequence[int] = ()
) -> Tuple[FrontDiagram, MoveScript]:
    """Close a one-handle handlebody to a front: slide its candidate over
    the 2-handle once per item of ``slides``, at the band site with that
    index in :func:`clean_band_sites`, retract its fingers, and cancel
    the handle pair.

    Each pull-off retracts a finger through the first two adjacent slots
    that the candidate passes with opposite signs.  Each move is applied
    through apply_move, so the returned MoveScript is the moves as
    applied and replays deterministically from ``h``.
    """
    if not isinstance(h, SteinHandlebody) or not (
        len(h.diagram.handles) == len(h.attachments) == 1
    ):
        raise DiagramError("expected a handlebody with one 1-handle and one 2-handle")
    moves: List[Move] = []
    for index in slides:
        a = h.attachments[0]
        k = candidate_component(h)
        # The clean sites are walked only as far as the one taken.
        site = _nth(_clean_sites(h, k, a), index) if _is_int(index) else None
        if site is None:
            n_sites = len(clean_band_sites(h, k, a))
            raise MoveNotApplicable(f"no clean band site {_shown(index)} of {n_sites}")
        moves.append(Move("HandleSlide", data=(k, a.component, a.framing, site)))
        h = apply_move(h, moves[-1])
    _require(
        not any(homology_vector(h.diagram, candidate_component(h))),
        "candidate homology is not zero after the slides",
    )
    while ps := pass_signs(h.diagram, candidate_component(h)):
        hd = h.diagram.handles[0]
        slots = [
            s for s in range(1, hd.slots)
            if ps.get((hd.id, s), 0) * ps.get((hd.id, s + 1), 0) == -1
        ]
        if not slots:
            raise MoveNotApplicable("no adjacent slots of opposite signs to pull off")
        moves.append(Move("PullOff", data=(hd.id, slots[0])))
        h = apply_move(h, moves[-1])
    a = h.attachments[0]
    moves.append(Move("CancelPair", data=(h.diagram.handles[0].id, a.component, a.framing)))
    closed = apply_move(h, moves[-1])  # a front, since no 1-handle is left
    _require(closed.n_components == 1, "closed front is not a knot")
    return closed, MoveScript(tuple(moves))


def step3_pipeline(m: int, n: int) -> Tuple[FrontDiagram, MoveScript]:
    """:func:`close_handlebody` of stein_rep_max(m, n) with two slides,
    each at the first clean band site.  The slides splice in opposite
    directions, so the candidate's homology returns to zero, and the
    front recomputes to tb = -1."""
    closed, script = close_handlebody(stein_rep_max(m, n), (0, 0))
    tb = thurston_bennequin(closed)
    _require(tb == -1, f"pipeline front recomputed tb {tb} != -1")
    return closed, MoveScript(script.moves, note=f"step3 m={m} n={n}")


@dataclass(frozen=True)
class GalleryEntry:
    """A named artifact plus its engine-recomputed invariants."""

    name: str
    parameters: Dict[str, int]
    artifact: Union[FrontDiagram, SteinHandlebody]
    invariants: Dict[str, object]


def _front_entry(name: str, params: Dict[str, int], d: FrontDiagram) -> GalleryEntry:
    inv: Dict[str, object] = {"components": d.n_components}
    if d.n_components == 1:
        ci = classical_invariants(d)
        inv.update(tb=ci.tb, rotation=ci.rotation, writhe=ci.writhe)
    return GalleryEntry(name, params, d, inv)


def _handlebody_entry(
    name: str, params: Dict[str, int], h: SteinHandlebody
) -> GalleryEntry:
    d = h.diagram
    inv: Dict[str, object] = {
        "components": d.n_components,
        "tb_standard": tuple(tb_standard(d, c) for c in d.components),
        "homology": tuple(homology_vector(d, c) for c in d.components),
        "stein_violations": len(stein_check(h)),
    }
    return GalleryEntry(name, params, h, inv)


def gallery_manifest() -> List[GalleryEntry]:
    """Every family at representative parameters, for tests and the CLI."""
    entries = [
        _front_entry("unknot", {}, unknot()),
        _front_entry("trefoil", {}, trefoil()),
    ]
    for m in (-1, -5):
        entries.append(_front_entry("K_m", {"m": m}, K_m_front(m)))
    for m, n in ((-1, 2), (-5, 3)):
        entries.append(
            _front_entry("K_mn_cable", {"m": m, "n": n}, K_mn_cable_front(m, n))
        )
    entries.append(_handlebody_entry("Z_m", {"m": -3}, Z_m_handlebody(-3)))
    for m, n in ((-5, 2), (-9, 3)):
        entries.append(
            _handlebody_entry("stein_rep_max", {"m": m, "n": n},
                              stein_rep_max(m, n))
        )
    for m, n in ((-5, 2), (-7, 3)):
        entries.append(
            _handlebody_entry("stein_rep_variant", {"m": m, "n": n},
                              stein_rep_variant(m, n))
        )
    closed, _script = step3_pipeline(-5, 2)
    entries.append(_front_entry("step3_front", {"m": -5, "n": 2}, closed))
    return entries
