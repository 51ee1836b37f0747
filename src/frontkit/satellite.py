"""Parallel copies and cables of front diagrams.

The n-copy of a front replaces every strand by ``n`` parallel strands.
Each original crossing becomes an ``n x n`` block of crossings of the
same sign, and each cusp becomes ``n`` stacked cusps whose branches are
braided back into parallel position by companion crossings -- one per
unordered pair of copies, per cusp.  Those companions are exactly what
makes the pairwise linking of the copies equal tb rather than the
writhe: summed over a knot they contribute -n(n-1) times the left cusp
count to the total writhe of the cable region.

A (n,q)-cable is the n-copy with t = q - n*tb(d) elementary twists
spliced into the upper bundle of its first widened left cusp, where the
copies run parallel; each elementary twist is the braid
(sigma_1 ... sigma_{n-1}), one n-th of a full twist.
Negative twists are realized in Legendrian form, which costs one cusp
pair per negative letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ComponentCountMismatch,
    DiagramError,
    NotAKnot,
    ParameterOutOfRange,
)
from .front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    _check_int,
    _check_size,
    _Diagram,
    _is_int,
    _require_front,
    _shown,
    thurston_bennequin,
)


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers: ``+i`` for sigma_i (the strand at
    position i passes in front, descending), ``-i`` for its inverse.
    """

    strands: int
    letters: Tuple[int, ...] = ()

    def __post_init__(self):
        _check_int(1, strands=self.strands)
        try:
            letters = tuple(self.letters)
        except TypeError:
            raise ParameterOutOfRange(
                f"letters must be a sequence of ints, got {_shown(self.letters)}"
            ) from None
        object.__setattr__(self, "letters", letters)
        for w in self.letters:
            _check_int(letter=w)
            if not 1 <= abs(w) < self.strands:
                raise DiagramError(
                    f"braid letter {_shown(w)} out of range"
                    f" for {_shown(self.strands)} strands"
                )


@dataclass(frozen=True)
class TwistBox:
    """``amount`` copies of a 1/n right-handed full twist on n strands.

    Negative amounts are left-handed.  One full twist is ``amount = n``.
    """

    strands: int
    amount: int


def twist_box_expand(box: TwistBox) -> BraidWord:
    """The uniform-sign braid word (sigma_1 ... sigma_{n-1})^amount."""
    if not isinstance(box, TwistBox):
        raise ParameterOutOfRange(f"{_shown(box)} is not a TwistBox")
    _check_int(strands=box.strands, amount=box.amount)
    _check_size("amount", abs(box.amount) * (box.strands - 1))
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
    to pass behind, adding one left and one right cusp.  A ``braid``
    that is not a BraidWord, or a ``base`` that is not a positive int,
    raises ParameterOutOfRange.
    """
    if not isinstance(braid, BraidWord):
        raise ParameterOutOfRange(f"{_shown(braid)} is not a BraidWord")
    _check_int(1, base=base)
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
    """An expanded word plus the provenance of every event in it.

    ``origins[i]`` is the index of the source event whose block holds
    event ``i`` (a crossing expands to a block of crossings, a cusp to
    its copies and their companion crossings), or None for spliced
    material.  ``first_cusp_index`` is the position just past the block
    of the first widened left cusp, and ``first_cusp_offset`` the level
    of that block's top copy.
    """

    events: List[Event] = field(default_factory=list)
    origins: List[Optional[int]] = field(default_factory=list)
    first_cusp_index: Optional[int] = None
    first_cusp_offset: Optional[int] = None

    def splice(self, index: int, events: Sequence[Event]) -> None:
        self.events[index:index] = list(events)
        self.origins[index:index] = [None] * len(events)


def cable_expand(
    d: _Diagram,
    n: int,
    component: Optional[int] = None,
) -> Expansion:
    """Replace the strands of one component of a diagram's word, or of
    every component when ``component`` is None, by ``n`` parallel copies.
    Raises ParameterOutOfRange unless ``component`` is None or the int
    (not a bool or a float) of a component of ``d``.

    ``d`` is a closed front or a strip; its stored trace gives the strands,
    so the word is not traced again.  A whole component is widened, so no
    cusp joins a wide strand to a narrow one.  The widened width of each
    row of the current slice is kept in one list, updated per event, so a
    block's top level is one plus the sum of the widths above it.

    Each source event expands to one block, written as slices of three
    per-call lists that hold ``L(i)``, ``R(i)`` and ``X(i)`` at index
    ``i``: a run of crossings that descends from level ``a`` to level
    ``b`` is ``Xs[a : b - 1 : -1]``, and every such stop is at least 0,
    so no slice wraps around.
    """
    _check_int(1, copies=n)
    if component is not None and not (_is_int(component) and component in d.components):
        raise ParameterOutOfRange(f"no component {_shown(component)} to widen")
    word, tr = d.events, d.trace
    # At most n * n events for each event, and n ports for each port.
    _check_size("copies", n * (n * len(word) + len(d.left_ports)))
    width = [
        n if component is None or c == component else 1 for c in tr.strand_component
    ]
    # row_w[r]: the width of the strand on row r of the current slice.
    row_w = [width[s] for s in tr.initial_strands]
    # No level of the expanded word reaches n * max_width + 1.
    top = n * tr.max_width + 2
    Ls = [L(i) for i in range(top)]
    Rs = [R(i) for i in range(top)]
    Xs = [X(i) for i in range(top)]

    exp = Expansion()
    events, origins = exp.events, exp.origins
    for idx, ((kind, i), (upper, lower)) in enumerate(zip(word, tr.event_strands)):
        start = len(events)
        o = 1 + sum(row_w[: i - 1])
        w = width[upper]
        if kind == "L":
            events += Ls[o : o + 2 * w : 2]
            # Interleave: lift copy j's upper branch above the lower
            # branches of copies 1..j-1, restoring two parallel bundles.
            for j in range(2, w + 1):
                events += Xs[o + 2 * j - 3 : o + j - 2 : -1]
            if w > 1 and exp.first_cusp_index is None:
                exp.first_cusp_index = len(events)
                exp.first_cusp_offset = o
            # A cusp's two strands belong to one component.
            row_w[i - 1 : i - 1] = (w, w)
        elif kind == "R":
            # Un-interleave the two bundles back to alternating order,
            # then close the copies with stacked cusps.
            for j in range(1, w):
                events += Xs[o + w + j - 2 : o + 2 * j - 2 : -1]
            events += [Rs[o]] * w
            del row_w[i - 1 : i + 1]
        else:  # crossing: block transposition preserving internal order
            v = width[lower]
            for k in range(v):
                events += Xs[o + w + k - 1 : o + k - 1 : -1]
            row_w[i - 1], row_w[i] = v, w
        origins += [idx] * (len(events) - start)
    return exp


# -- closed-front operations ----------------------------------------------

def _require_knot(d: FrontDiagram) -> None:
    _require_front(d)
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
    crossing = companion = cusps = 0
    for ev, (a, b), j in zip(exp.events, tr.event_strands, exp.origins):
        if ev.kind != "X":
            cusps += 1
        elif d.events[j].kind == "X":
            crossing += orient[a] * orient[b]
        else:
            companion += orient[a] * orient[b]
    return CopyCounts(crossing, companion, cusps)


def cable(d: FrontDiagram, n: int, q: int) -> FrontDiagram:
    """The (n,q)-cable of a knot, measured against the Seifert framing.

    Built as the n-copy (whose natural framing is tb) with
    t = q - n*tb(d) elementary twists spliced into the upper bundle of
    the first cusp.  For t >= 0 the result has tb = n^2*tb(d) + t(n-1);
    negative twists cost a cusp pair each and the invariants are always
    recomputed rather than asserted.
    """
    _require_knot(d)
    _check_int(1, copies=n)
    _check_int(q=q)
    tb = thurston_bennequin(d)
    t = q - n * tb
    if n == 1:
        if t != 0:
            raise ParameterOutOfRange(
                f"(1,{_shown(q)})-cable is not realizable on a tb {tb} front"
            )
        return d
    # The n-copy, then at most three events per letter of the twists.
    size = n * n * len(d.events)
    _check_size("copies", size)
    _check_size("q", size + 3 * abs(t) * (n - 1))
    exp = n_copy_expansion(d, n)
    if t != 0:
        braid = twist_box_expand(TwistBox(n, t))
        exp.splice(
            exp.first_cusp_index,
            braid_events(braid, base=exp.first_cusp_offset),
        )
    out = FrontDiagram(exp.events)
    expected = math.gcd(n, q)
    if expected == 1 and out.n_components != 1:
        raise ComponentCountMismatch(
            f"(n,q)=({n},{q}) cable traced to {out.n_components} components"
        )
    return out
