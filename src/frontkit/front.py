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

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from . import _kernel
from .errors import DiagramError, NotAKnot, ParameterOutOfRange


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
            raise DiagramError(f"not an event: {ev!r}", idx)
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
        raise DiagramError(f"component {c!r} is not an int")
    if not 0 <= c < d.n_components:
        raise DiagramError(
            f"no component {_shown(c)} in a {d.n_components}-component diagram"
        )
    return c


def _is_int(x) -> bool:
    """Whether ``x`` is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


# The most digits of an int that a message spells out.  ``str`` refuses
# an int of more than ``sys.get_int_max_str_digits()`` digits (4,300 by
# default), so a longer one is named by its digit count.
_SHOWN_DIGITS = 30


def _shown(value) -> str:
    """``repr(value)`` for a message, or, for an int of more than
    ``_SHOWN_DIGITS`` digits, its sign and its digit count."""
    if not isinstance(value, int) or abs(value) < 10**_SHOWN_DIGITS:
        return repr(value)
    size = abs(value)
    # The float log is off by at most one digit either way.
    digits = int(math.log10(size)) + 1
    digits += size >= 10**digits
    digits -= size < 10 ** (digits - 1)
    return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


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
