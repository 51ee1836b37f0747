"""Closed front diagrams and their classical invariants.

A front is encoded as a word of events read left to right: left cusps,
right cusps, and crossings, each at a 1-based level counted from the top
of the diagram.  At a crossing the strand of lesser slope is in front,
so over/under data is implicit.  Crossing signs follow the determinant
convention for the (descending, ascending) tangent pair; with it the
one-crossing unknot word ``[L1, X1, R1]`` has writhe -1 and the standard
two-bridge positive trefoil word has writhe +3.

A closed front is the strip with no 1-handles: :class:`FrontDiagram` and
:class:`frontkit.standard.StandardFormDiagram` share one core, whose
ports are empty on a front, and the invariants here take either one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import _kernel
from .errors import DiagramError, NotAKnot, ParameterOutOfRange, _shown


class Event(NamedTuple):
    """One event of a front word: kind 'L', 'R' or 'X' at a level."""

    kind: str
    level: int

    def __str__(self):
        return f"{self.kind}{self.level}"


_EVENT_TYPE = frozenset((Event,))


def L(level: int) -> Event:
    """Left cusp: inserts two strands at ``level``, ``level + 1``."""
    return Event("L", level)


def R(level: int) -> Event:
    """Right cusp: joins and removes the strands at ``level``, ``level + 1``."""
    return Event("R", level)


def X(level: int) -> Event:
    """Crossing: swaps the strands at ``level``, ``level + 1``."""
    return Event("X", level)


def encode_word(events: Iterable[Event]) -> Tuple[Event, ...]:
    """The word as a tuple of :class:`Event`: the one form that diagrams
    store and the trace kernel reads.

    A tuple whose items are all Events is returned as it is, after one
    type check; any other iterable of Events is copied into a tuple.
    Raises :class:`DiagramError` naming the first item that is not an
    Event, or when ``events`` is not iterable.
    """
    try:
        word = events if type(events) is tuple else tuple(events)
    except TypeError:
        raise DiagramError(
            f"a word is a sequence of events, not {type(events).__name__}"
        ) from None
    if set(map(type, word)) <= _EVENT_TYPE:
        return word
    for idx, ev in enumerate(word):
        if not isinstance(ev, Event):
            raise DiagramError(f"not an event: {_shown(ev)}", idx)
    return tuple(Event(*ev) for ev in word)


@dataclass(frozen=True)
class ClassicalInvariants:
    """Classical invariants of one component of a front."""

    tb: int
    rotation: int
    writhe: int
    left_cusps: int
    right_cusps: int
    up_cusps: int
    down_cusps: int


class _Diagram:
    """The word, its trace and immutability, shared by a closed front and
    a strip; a front is the strip with no 1-handles and no ports."""

    __slots__ = ("events", "_trace")

    handles = left_ports = right_ports = ()

    def __setattr__(self, name, value):  # immutability
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def trace(self) -> _kernel.TraceResult:
        return self._trace

    @property
    def n_components(self) -> int:
        return self._trace.n_components

    @property
    def components(self) -> range:
        """Component indices, in order of first strand creation."""
        return range(self._trace.n_components)


class FrontDiagram(_Diagram):
    """An immutable, validated closed front diagram.

    The word must start and end on the empty slice.  It is traced once,
    at construction, which validates it; the components and counts of
    that trace are derived on their first read.  A tuple of Events is
    stored as given (see :func:`encode_word`).  A word past the size
    bound raises ParameterOutOfRange before it is traced.
    """

    __slots__ = ()

    def __init__(self, events: Sequence[Event]):
        events = encode_word(events)
        _check_size("word", len(events))
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_trace", _kernel.trace(events))

    def __eq__(self, other):
        return isinstance(other, FrontDiagram) and self.events == other.events

    def __hash__(self):
        return hash(self.events)

    def __repr__(self):
        word = " ".join(map(str, self.events))
        return f"FrontDiagram({word!r})"


def _require_diagram(d) -> None:
    """Raise DiagramError unless ``d`` is a closed front or a strip."""
    if not isinstance(d, _Diagram):
        raise DiagramError(f"expected a front or a strip, got a {type(d).__name__}")


def _require_front(d) -> None:
    """Raise DiagramError unless ``d`` is a closed front."""
    if not isinstance(d, FrontDiagram):
        raise DiagramError(f"expected a closed front, got a {type(d).__name__}")


def _component_arg(d: _Diagram, c: Optional[int]) -> int:
    """Component ``c`` of ``d``, or its one component when ``c`` is None;
    DiagramError unless ``c`` is an int (not a bool) naming one."""
    _require_diagram(d)
    if c is None:
        if d.n_components != 1:
            raise NotAKnot(
                f"diagram has {d.n_components} components; pass an explicit one"
            )
        return 0
    if not _is_int(c):
        raise DiagramError(f"component {_shown(c)} is not an int")
    if not 0 <= c < d.n_components:
        raise DiagramError(
            f"no component {_shown(c)} in a {d.n_components}-component diagram"
        )
    return c


def _is_int(x) -> bool:
    """Whether ``x`` is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(least: Optional[int] = None, /, **values) -> None:
    """The one check of integer parameters: ParameterOutOfRange unless
    each named value is an int (not a bool) of at least ``least``, if
    given."""
    for name, value in values.items():
        if _is_int(value) and (least is None or value >= least):
            continue
        if least is None:
            raise ParameterOutOfRange(f"{name} must be an int, got {_shown(value)}")
        rule = "positive" if least == 1 else "non-negative"
        raise ParameterOutOfRange(
            f"{name} must be {rule} (an int >= {least}), got {_shown(value)}"
        )


# The size bound: the most events plus left ports that a diagram may
# hold.  A constructor checks the size it would build before it builds
# anything, and a diagram checks its own before it traces.
_MAX_WORD = 2**18


def _check_size(name: str, size: int) -> None:
    """ParameterOutOfRange naming ``name`` when ``size`` is past ``_MAX_WORD``."""
    if size > _MAX_WORD:
        raise ParameterOutOfRange(f"{name} asks for a size past the bound {_MAX_WORD}")


def _is_site(site) -> bool:
    """Whether ``site`` is an (event index, level) pair of ints."""
    return isinstance(site, Sequence) and len(site) == 2 and all(map(_is_int, site))


def writhe(d: _Diagram, c: Optional[int] = None) -> int:
    """Signed count of self-crossings of component ``c``."""
    return d.trace.self_writhe[_component_arg(d, c)]


def thurston_bennequin(d: _Diagram, c: Optional[int] = None) -> int:
    """tb = writhe minus the number of left cusps."""
    c = _component_arg(d, c)
    return d.trace.self_writhe[c] - d.trace.left_cusps[c]


def rotation(d: _Diagram, c: Optional[int] = None, reverse: bool = False) -> int:
    """Rotation number: half the down-cusp minus up-cusp count.

    The canonical orientation points the first-created strand of the
    component left-to-right; ``reverse=True`` gives the value for the
    opposite orientation (the negative).
    """
    c = _component_arg(d, c)
    t = d.trace
    r2 = t.down_cusps[c] - t.up_cusps[c]
    if r2 % 2:
        raise DiagramError("odd cusp imbalance; component is not closed")
    return -r2 // 2 if reverse else r2 // 2


def classical_invariants(d: _Diagram, c: Optional[int] = None) -> ClassicalInvariants:
    c = _component_arg(d, c)
    t = d.trace
    return ClassicalInvariants(
        tb=thurston_bennequin(d, c),
        rotation=rotation(d, c),
        writhe=t.self_writhe[c],
        left_cusps=t.left_cusps[c],
        right_cusps=t.right_cusps[c],
        up_cusps=t.up_cusps[c],
        down_cusps=t.down_cusps[c],
    )


def linking_number(d: _Diagram, c1: int, c2: int) -> int:
    """Half the signed count of crossings between two components."""
    c1 = _component_arg(d, c1)
    c2 = _component_arg(d, c2)
    if c1 == c2:
        raise DiagramError("linking number needs two distinct components")
    key = (c1, c2) if c1 < c2 else (c2, c1)
    total = d.trace.inter_sums.get(key, 0)
    if total % 2:
        raise DiagramError("odd inter-component crossing sum")
    return total // 2


def _seifert_smoothing(d: _Diagram) -> List[Event]:
    """The word of ``d`` with each crossing smoothed along the strands'
    orientations: a crossing of two strands that run the same way is
    dropped, and one of strands that run opposite ways becomes
    ``R(i) L(i)``, which turns each strand back."""
    orient = d.trace.strand_orient
    out = []
    for ev, (a, b) in zip(d.events, d.trace.event_strands):
        if ev.kind != "X":
            out.append(ev)
        elif orient[a] != orient[b]:
            out += (R(ev.level), L(ev.level))
    return out


def seifert_genus(d: FrontDiagram) -> int:
    """The genus g = (c - s + 1) / 2 of the surface that Seifert's
    algorithm gives the knot of the closed front ``d``, for c crossings
    and s Seifert circles, the components of :func:`_seifert_smoothing`
    (one trace of that word, which may be up to twice as long as ``d``'s
    and so is not held to the size bound).  It bounds the knot's 3- and
    4-genus from above.  DiagramError unless ``d`` is a closed front,
    NotAKnot for a link."""
    _require_front(d)
    _component_arg(d, None)
    circles = _kernel.trace(_seifert_smoothing(d)).n_components
    crossings = sum(kind == "X" for kind, _ in d.events)
    return (crossings - circles + 1) // 2


def bennequin_gap(d: FrontDiagram) -> int:
    """2g - 1 - tb - |rot| for the knot front ``d``, with g its
    :func:`seifert_genus`: even and at least 0 by the slice-Bennequin
    inequality, and 0 exactly when ``d`` reaches that bound, which then
    certifies g as the 4-genus.  Takes what :func:`seifert_genus`
    takes."""
    g = seifert_genus(d)
    return 2 * g - 1 - thurston_bennequin(d) - abs(rotation(d))


# The Fox row of a crossing of sign +1 and -1 (Fox 1953), at its over
# arc, the under arc that runs into it and the under arc that runs out:
# (1 - t, t, -1) and (t - 1, 1, -t), each entry as its (constant,
# t-coefficient) pair.
_FOX_ROWS = {
    1: ((1, -1), (0, 1), (-1, 0)),
    -1: ((-1, 1), (1, 0), (0, -1)),
}
# The primes that the Alexander determinant is taken modulo, as many of
# them, in order, as its coefficient bound asks for: the first two serve
# up to 48 crossings.
_ALEXANDER_PRIMES = (
    2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543,
)
# The most crossings of a component with itself that alexander_polynomial
# reads; past it the polynomial is skipped.
ALEXANDER_CAP = 140


def _fox_arcs(d: FrontDiagram, c: int) -> List[Tuple[int, int]]:
    """The crossings of component ``c`` of ``d`` with itself, as
    ``(sign, over)`` per under arc ``j`` in walk order: the crossing that
    ends arc ``j`` and starts arc ``j + 1`` (arc 0 after the last), with
    its sign and the arc over it.

    The passage walk follows ``c`` along its orientation from its least
    strand: a strand oriented +1 continues into its right-cusp mate, one
    oriented -1 into the strand its left cusp made with it.  Along each
    strand the crossings come in event order, or reversed against it.
    The over strand of a crossing is the one that descends,
    ``event_strands[i][0]``.
    """
    tr = d.trace
    comp, orient, pairs = tr.strand_component, tr.strand_orient, tr.event_strands
    on = [[] for _ in range(tr.n_strands)]
    for i, ((kind, _level), (a, b)) in enumerate(zip(d.events, pairs)):
        if kind == "X" and comp[a] == c == comp[b]:
            on[a].append(i)
            on[b].append(i)
    n = sum(map(len, on)) // 2
    under = {}  # crossing -> the arc that runs into it under
    over = {}  # crossing -> the arc over it
    arc = 0
    start = s = comp.index(c)
    while True:
        for i in on[s] if orient[s] > 0 else reversed(on[s]):
            if pairs[i][1] == s:
                under[i] = arc
                arc += 1
            else:
                over[i] = arc % n
        # A closed front has no left port, so strand 2j's left cusp made
        # strand 2j + 1 with it.
        s = tr.right[s] if orient[s] > 0 else s ^ 1
        if s == start:
            break
    fox = [None] * n
    for i, j in under.items():
        a, b = pairs[i]
        fox[j] = (orient[a] * orient[b], over[i])
    return fox


def _charpoly(h: List[List[int]], p: int) -> List[int]:
    """The coefficients, lowest degree first, of det(xI - h) modulo the
    prime ``p``: ``h`` is brought to upper Hessenberg form by similarity
    in place, and the polynomial read off it by the usual recurrence
    (Cohen, *A Course in Computational Algebraic Number Theory*, 2.2.9)."""
    n = len(h)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], -1, p)
        hm = h[m]
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], hm)]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        new = [0] + prev
        for k, v in enumerate(prev):
            new[k] = (new[k] - h[m][m] * v) % p
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = prod * h[i + 1][i] % p
            if not prod:
                break
            f = h[i][m] * prod % p
            if f:
                for k, v in enumerate(polys[i]):
                    new[k] = (new[k] - f * v) % p
        polys.append(new)
    return polys[n]


def _fox_determinant(a: List[List[int]], b: List[List[int]], p: int) -> List[int]:
    """The coefficients, lowest degree first, of det(a + t b) modulo the
    prime ``p``, for square int matrices with a + b invertible modulo
    ``p``: det(a + b) det(I + (t - 1) C) with C = (a + b)^-1 b, whose
    expansion in s = t - 1 is read off the characteristic polynomial of
    C, and then shifted to t."""
    n = len(a)
    # Gauss-Jordan on [a + b | b] gives C and det(a + b).
    rows = [
        [(x + y) % p for x, y in zip(ra, rb)] + [y % p for y in rb]
        for ra, rb in zip(a, b)
    ]
    det = 1
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col])
        if piv != col:
            rows[piv], rows[col] = rows[col], rows[piv]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        rc = rows[col] = [x * inv % p for x in rows[col]]
        for i in range(n):
            u = rows[i][col]
            if u and i != col:
                rows[i] = [(x - u * y) % p for x, y in zip(rows[i], rc)]
    chi = _charpoly([row[n:] for row in rows], p)
    # det(I + sC) = sum of e_k s^k, where chi has e_k (-1)^k at x^(n-k).
    e = [chi[n - k] * (-1) ** k for k in range(n + 1)]
    # Horner in s = t - 1: out = out * (t - 1) + e_k, from the top down.
    out = [0] * (n + 1)
    for k in range(n, -1, -1):
        out = [(x - y) % p for x, y in zip([0] + out[:-1], out)]
        out[0] = (out[0] + e[k]) % p
    return [v * det % p for v in out]


def alexander_polynomial(
    d: FrontDiagram, c: Optional[int] = None
) -> Optional[Tuple[int, ...]]:
    """The Alexander polynomial of component ``c`` of the closed front
    ``d``, read as a knot (its crossings with other components dropped):
    its integer coefficients, lowest degree first, with no zero at
    either end, normalised so that Δ(1) = 1.  None, for *skipped*, when
    the component crosses itself more than ``ALEXANDER_CAP`` times.

    The Fox rows (``_FOX_ROWS``) of the passage walk (:func:`_fox_arcs`)
    make a square matrix a + t b over the arcs; one row and one column
    dropped, its determinant is ±t^k Δ.  That determinant is taken
    modulo the primes of ``_ALEXANDER_PRIMES``, as many as make their
    product more than twice the Hadamard bound 6^(N/2) on its
    coefficients (each of its N rows has norm at most √6 on the unit
    circle), so the Chinese remainder theorem gives each coefficient
    exactly.  DiagramError unless ``d`` is a closed front; ``c`` as
    :func:`thurston_bennequin` takes it.
    """
    _require_front(d)
    c = _component_arg(d, c)
    fox = _fox_arcs(d, c)
    n = len(fox)
    if n > ALEXANDER_CAP:
        return None
    if not n:
        return (1,)
    size = n - 1  # row n - 1 and column n - 1 are dropped
    a = [[0] * size for _ in range(size)]
    b = [[0] * size for _ in range(size)]
    for j, (sign, over) in enumerate(fox[:size]):
        for arc, (const, slope) in zip((over, j, j + 1), _FOX_ROWS[sign]):
            if arc < size:
                a[j][arc] += const
                b[j][arc] += slope
    coeffs, modulus = [0] * (size + 1), 1
    for p in _ALEXANDER_PRIMES:
        if modulus * modulus > 4 * 6**size:
            break
        residues = _fox_determinant(a, b, p)
        # Chinese remainder: the value mod modulus * p that is each
        # coefficient mod modulus and its residue mod p.
        step = pow(modulus, -1, p)
        coeffs = [
            x + modulus * ((r - x) * step % p) for x, r in zip(coeffs, residues)
        ]
        modulus *= p
    coeffs = [x - modulus if 2 * x > modulus else x for x in coeffs]
    while coeffs[-1] == 0:
        coeffs.pop()
    first = next(k for k, x in enumerate(coeffs) if x)
    sign = 1 if sum(coeffs) > 0 else -1
    return tuple(sign * x for x in coeffs[first:])


def reflect(d: FrontDiagram) -> FrontDiagram:
    """Reflect the diagram across a horizontal axis.

    Levels are renumbered top-for-bottom slice by slice; tb is preserved
    and every rotation number changes sign.
    """
    _require_front(d)
    out = []
    for ev, width in zip(d.events, _kernel.widths(d.events, 0)):
        if ev.kind == "L":
            out.append(Event("L", width - ev.level + 2))
        else:
            out.append(Event(ev.kind, width - ev.level))
    return FrontDiagram(out)


# Canonical small fronts -------------------------------------------------

def unknot() -> FrontDiagram:
    """The tb = -1, rotation 0 unknot."""
    return FrontDiagram([L(1), R(1)])


def trefoil() -> FrontDiagram:
    """The tb = +1, rotation 0 positive trefoil (two-bridge word)."""
    return FrontDiagram([L(1), L(3), X(2), X(2), X(2), R(1), R(1)])
