"""Parallel copies, twist insertion, and cables of front diagrams.

The n-copy of a front replaces every strand by ``n`` parallel strands.
Each original crossing becomes an ``n x n`` block of crossings of the
same sign, and each cusp becomes ``n`` stacked cusps whose branches are
braided back into parallel position by companion crossings -- one per
unordered pair of copies, per cusp.  Those companions are exactly what
makes the pairwise linking of the copies equal tb rather than the
writhe: summed over a knot they contribute -n(n-1) times the left cusp
count to the total writhe of the cable region.

A (n,q)-cable is the n-copy with t = q - n*tb(d) elementary twists
spliced into a slice where the cable runs parallel; each elementary
twist is the braid (sigma_1 ... sigma_{n-1}), one n-th of a full twist.
Negative twists are realized in Legendrian form, which costs one cusp
pair per negative letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple, Union

from . import _kernel
from .errors import (
    ComponentCountMismatch,
    DiagramError,
    NotAKnot,
    ParameterOutOfRange,
    SiteNotCableSlice,
)
from .front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    _is_site,
    thurston_bennequin,
)
from .standard import StandardFormDiagram


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers: ``+i`` for sigma_i (the strand at
    position i passes in front, descending), ``-i`` for its inverse.
    """

    strands: int
    letters: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for w in self.letters:
            if not 1 <= abs(w) < self.strands:
                raise DiagramError(
                    f"braid letter {w} out of range for {self.strands} strands"
                )

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-w for w in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise DiagramError("braid words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)


@dataclass(frozen=True)
class TwistBox:
    """``amount`` copies of a 1/n right-handed full twist on n strands.

    Negative amounts are left-handed.  One full twist is ``amount = n``.
    """

    strands: int
    amount: int


def twist_box_expand(box: TwistBox) -> BraidWord:
    """The uniform-sign braid word (sigma_1 ... sigma_{n-1})^amount."""
    n = box.strands
    if box.amount >= 0:
        block = tuple(range(1, n))
    else:
        block = tuple(-i for i in range(n - 1, 0, -1))
    return BraidWord(n, block * abs(box.amount))


def braid_events(braid: BraidWord, base: int = 1) -> List[Event]:
    """Front events realizing ``braid`` on levels base..base+n-1.

    A positive letter is a single crossing.  A negative letter is its
    Legendrian realization: the lower strand detours through a cusp pair
    to pass behind, adding one left and one right cusp.
    """
    out: List[Event] = []
    for w in braid.letters:
        lvl = base + abs(w) - 1
        if w > 0:
            out.append(X(lvl))
        else:
            out.extend((L(lvl + 2), X(lvl + 1), R(lvl)))
    return out


# -- the shared expansion engine ------------------------------------------

@dataclass
class Expansion:
    """An expanded word plus the provenance of every emitted event.

    ``origins[i]`` is one of ``("crossing", j)``, ``("cusp", j)``,
    ``("cusp_companion", j)`` with ``j`` the source event index, or a
    caller-supplied tag for spliced material.
    """

    events: List[Event] = field(default_factory=list)
    origins: List[Tuple] = field(default_factory=list)
    first_cusp_index: Optional[int] = None
    first_cusp_offset: Optional[int] = None

    def emit(self, event: Event, origin: Tuple) -> None:
        self.events.append(event)
        self.origins.append(origin)

    def splice(self, index: int, events: Sequence[Event], origin: Tuple) -> None:
        self.events[index:index] = list(events)
        self.origins[index:index] = [origin] * len(events)


def cable_expand(
    d: Union[FrontDiagram, StandardFormDiagram],
    n: int,
    wide: Optional[Set[int]] = None,
) -> Expansion:
    """Replace selected strands of a diagram's word by ``n`` parallel copies.

    ``d`` is a closed front or a strip; its stored trace gives the strands,
    so the word is not traced again.  ``wide`` is the set of strand ids
    (in trace numbering) to widen; ``None`` widens everything.  Strands
    must be widened by whole components: a cusp or port joining a wide
    strand to a narrow one is a structural error.
    """
    if n < 1:
        raise ParameterOutOfRange(f"copy count {n} must be at least 1")
    word, tr = d.events, d.trace
    slices = _kernel.slices(word, tr)
    if wide is None:
        wide = set(range(tr.n_strands))

    def width(s: int) -> int:
        return n if s in wide else 1

    exp = Expansion()
    for idx, (ev, (upper, lower), here) in enumerate(
        zip(word, tr.event_strands, slices)
    ):
        o = 1 + sum(width(s) for s in here[: ev.level - 1])
        if ev.kind == "L":
            w = width(upper)
            if w == 1:
                exp.emit(L(o), ("cusp", idx))
            else:
                for j in range(n):
                    exp.emit(L(o + 2 * j), ("cusp", idx))
                # Interleave: lift copy j's upper branch above the lower
                # branches of copies 1..j-1, restoring two parallel bundles.
                for j in range(2, n + 1):
                    for lvl in range(o + 2 * j - 3, o + j - 2, -1):
                        exp.emit(X(lvl), ("cusp_companion", idx))
                if exp.first_cusp_index is None:
                    exp.first_cusp_index = len(exp.events)
                    exp.first_cusp_offset = o
        elif ev.kind == "R":
            if width(upper) != width(lower):
                raise DiagramError("cusp joins a wide strand to a narrow one", idx)
            if width(upper) == 1:
                exp.emit(R(o), ("cusp", idx))
            else:
                # Un-interleave the two bundles back to alternating order,
                # then close the copies with stacked cusps.
                for j in range(1, n):
                    for lvl in range(o + n + j - 2, o + 2 * j - 2, -1):
                        exp.emit(X(lvl), ("cusp_companion", idx))
                for _ in range(n):
                    exp.emit(R(o), ("cusp", idx))
        else:  # crossing: block transposition preserving internal order
            wa, wb = width(upper), width(lower)
            for k in range(wb):
                for lvl in range(o + wa + k - 1, o + k - 1, -1):
                    exp.emit(X(lvl), ("crossing", idx))
    return exp


# -- closed-front operations ----------------------------------------------

def _require_knot(d: FrontDiagram) -> None:
    if d.n_components != 1:
        raise NotAKnot(f"expected a knot, got {d.n_components} components")


def n_copy_expansion(d: FrontDiagram, n: int) -> Expansion:
    """The tagged expansion behind :func:`n_copy` (all strands widened)."""
    _require_knot(d)
    return cable_expand(d, n)


def n_copy(d: FrontDiagram, n: int) -> FrontDiagram:
    """n parallel contact push-off copies of a knot, as one front.

    The result has n components; each pair links tb(d) times.
    """
    if n == 1:
        _require_knot(d)
        return d
    return FrontDiagram(n_copy_expansion(d, n).events)


@dataclass(frozen=True)
class CopyCounts:
    """Bookkeeping of an n-copy: where its writhe comes from."""

    crossing_writhe: int  # signed crossings descended from original crossings
    companion_writhe: int  # signed crossings created at cusp expansions
    cusps: int  # total cusp events


def n_copy_counts(d: FrontDiagram, n: int) -> CopyCounts:
    """Recount an n-copy by provenance: crossing part n^2 * writhe(d),
    cusp part n * cusps(d), companions -n(n-1) * left_cusps(d)."""
    exp = n_copy_expansion(d, n)
    tr = FrontDiagram(exp.events).trace
    orient = tr.strand_orient
    crossing = companion = 0
    for (a, b), org in zip(tr.event_strands, exp.origins):
        if org[0] == "crossing":
            crossing += orient[a] * orient[b]
        elif org[0] == "cusp_companion":
            companion += orient[a] * orient[b]
    cusps = sum(1 for org in exp.origins if org[0] == "cusp")
    return CopyCounts(crossing, companion, cusps)


def _site_is_parallel(d: FrontDiagram, index: int, top: int, n: int) -> bool:
    slices = _kernel.slices(d.events, d.trace)
    if not 0 <= index <= len(d.events):
        return False
    here = slices[index]
    if not 1 <= top <= len(here) - n + 1:
        return False
    orient = d.trace.strand_orient
    band = here[top - 1 : top - 1 + n]
    return len({orient[s] for s in band}) == 1


def default_braid_site(d: FrontDiagram, n: int) -> Tuple[int, int]:
    """The rightmost slice position where ``n`` adjacent strands run
    parallel (co-oriented), as an (event index, top level) pair."""
    slices = _kernel.slices(d.events, d.trace)
    orient = d.trace.strand_orient
    for index in range(len(d.events), -1, -1):
        here = slices[index]
        for top in range(1, len(here) - n + 2):
            band = here[top - 1 : top - 1 + n]
            if len({orient[s] for s in band}) == 1:
                return index, top
    raise SiteNotCableSlice(f"no slice carries {n} parallel strands")


def insert_braid(
    d: FrontDiagram,
    braid: BraidWord,
    site: Optional[Tuple[int, int]] = None,
) -> FrontDiagram:
    """Splice a braid word into a vertical slice of ``d``.

    ``site`` is an (event index, top level) pair naming the slice and
    the topmost of the ``braid.strands`` adjacent parallel strands the
    braid acts on; by default the rightmost such slice is used.
    """
    if site is None:
        index, top = default_braid_site(d, braid.strands)
    elif not _is_site(site):
        raise SiteNotCableSlice(f"site {site!r} is not an (index, level) pair")
    else:
        index, top = site
        if not _site_is_parallel(d, index, top, braid.strands):
            raise SiteNotCableSlice(
                f"slice {index} levels {top}..{top + braid.strands - 1} "
                "does not cut the cable in parallel strands"
            )
    word = list(d.events)
    word[index:index] = braid_events(braid, base=top)
    return FrontDiagram(word)


def cable(d: FrontDiagram, n: int, q: int) -> FrontDiagram:
    """The (n,q)-cable of a knot, measured against the Seifert framing.

    Built as the n-copy (whose natural framing is tb) with
    t = q - n*tb(d) elementary twists spliced into the upper bundle of
    the first cusp.  For t >= 0 the result has tb = n^2*tb(d) + t(n-1);
    negative twists cost a cusp pair each and the invariants are always
    recomputed rather than asserted.
    """
    _require_knot(d)
    tb = thurston_bennequin(d)
    t = q - n * tb
    if n == 1:
        if t != 0:
            raise ParameterOutOfRange(
                f"(1,{q})-cable is not realizable on a tb {tb} front"
            )
        return d
    exp = n_copy_expansion(d, n)
    if t != 0:
        braid = twist_box_expand(TwistBox(n, t))
        exp.splice(
            exp.first_cusp_index,
            braid_events(braid, base=exp.first_cusp_offset),
            ("twist",),
        )
    out = FrontDiagram(exp.events)
    expected = math.gcd(n, q)
    if expected == 1 and out.n_components != 1:
        raise ComponentCountMismatch(
            f"(n,q)=({n},{q}) cable traced to {out.n_components} components"
        )
    return out
