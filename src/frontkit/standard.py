"""Gompf standard-form diagrams: fronts in a strip with 1-handles.

A 1-handle is a pair of vertically aligned balls on the left and right
edges of the strip.  Each ball exposes numbered slots; a strand reaching
the right edge at slot ``s`` of handle ``h`` continues from the left edge
at the same slot, preserving its direction of travel.  The diagram data
is therefore: the handles, an ordered list of left-edge ports (the
initial slice), the event word of the strip, and an ordered list of
right-edge ports (the final slice).  Slots of one handle appear in
increasing order on both edges (no twisting), each exactly once per side.

A closed front is the strip with no ports, so the strip functions here
accept one: it has no homology (``()``), no pass (``{}``, 0), and it is
its own closure, with alpha 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import _kernel
from .errors import DiagramError, PortMismatch
from .front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    _check_size,
    _component_arg,
    _Diagram,
    _is_int,
    encode_word,
    thurston_bennequin,
)

Port = Tuple[str, int]  # (handle id, slot)

# A handle id is one word of the text format, where ``#`` starts a
# comment, and a port prints as ``P<id>.<slot>``, so an id holds no
# whitespace, no ``#`` and no dot.
_HANDLE_ID = re.compile(r"[^\s.#]+")


@dataclass(frozen=True)
class OneHandle:
    """A 1-handle with ``slots`` strand positions through it.  The id is
    a non-empty str with no whitespace, ``#`` or ``.``, so that it
    prints and parses back as itself."""

    id: str
    slots: int

    def __post_init__(self):
        if not (isinstance(self.id, str) and _HANDLE_ID.fullmatch(self.id)):
            raise PortMismatch(
                f"handle id {self.id!r} is not a non-empty str without "
                "whitespace, '#' or '.'"
            )
        if not _is_int(self.slots) or self.slots < 0:
            raise PortMismatch(
                f"handle {self.id!r} slot count {self.slots!r} is not an int >= 0"
            )
        _check_size(f"handle {self.id!r}", self.slots)

    def ports(self) -> List[Port]:
        return [(self.id, s) for s in range(1, self.slots + 1)]


def _as_tuple(name: str, items) -> tuple:
    """``items`` as a tuple, or PortMismatch naming the argument."""
    try:
        return tuple(items)
    except TypeError:
        raise PortMismatch(f"{name} are a sequence, not {type(items).__name__}") from None


class StandardFormDiagram(_Diagram):
    """An immutable, validated standard-form diagram."""

    __slots__ = ("handles", "left_ports", "right_ports")

    def __init__(
        self,
        handles: Sequence[OneHandle],
        left_ports: Sequence[Port],
        events: Sequence[Event],
        right_ports: Sequence[Port],
    ):
        object.__setattr__(self, "handles", _as_tuple("handles", handles))
        object.__setattr__(self, "left_ports", _as_tuple("left ports", left_ports))
        object.__setattr__(self, "events", encode_word(events))
        object.__setattr__(self, "right_ports", _as_tuple("right ports", right_ports))
        object.__setattr__(self, "_trace", self._run_trace())

    def __eq__(self, other):
        return (
            isinstance(other, StandardFormDiagram)
            and self.handles == other.handles
            and self.left_ports == other.left_ports
            and self.events == other.events
            and self.right_ports == other.right_ports
        )

    def __hash__(self):
        return hash((self.handles, self.left_ports, self.events, self.right_ports))

    def __repr__(self):
        word = " ".join(map(str, self.events))
        return (
            f"StandardFormDiagram(handles={list(self.handles)!r}, "
            f"left={list(self.left_ports)!r}, word={word!r}, "
            f"right={list(self.right_ports)!r})"
        )

    # -- validation -----------------------------------------------------

    def _run_trace(self):
        if not all(isinstance(h, OneHandle) for h in self.handles):
            raise PortMismatch(f"handles {self.handles!r} are not all OneHandles")
        ids = {h.id for h in self.handles}
        if len(ids) != len(self.handles):
            raise PortMismatch("duplicate handle ids")
        # The declared slots are the left ports of a diagram that traces.
        _check_size("word", len(self.events) + sum(h.slots for h in self.handles))
        declared = {(h.id, s) for h in self.handles for s in range(1, h.slots + 1)}
        for side_name, side in (("left", self.left_ports), ("right", self.right_ports)):
            seen = set()
            for p in side:
                try:
                    undeclared = p not in declared
                except TypeError:  # unhashable, so no (handle id, slot) pair
                    undeclared = True
                if undeclared:
                    raise PortMismatch(f"{side_name} port {p!r} not declared")
                if p in seen:
                    raise PortMismatch(f"{side_name} port {p!r} used twice")
                seen.add(p)
            if seen != declared:
                missing = sorted(map(repr, declared - seen))
                raise PortMismatch(f"{side_name} ports missing: {', '.join(missing)}")
            order: Dict[object, int] = {}
            for hid, slot in side:
                if order.get(hid, 0) >= slot:
                    raise PortMismatch(
                        f"{side_name} slots of handle {hid!r} out of order (twisted)"
                    )
                order[hid] = slot
        return _kernel.trace(self.events, len(self.left_ports), port_links(self))

    def component_of_port(self, port: Port) -> int:
        # The left-port strands are ids 0..len(left_ports)-1.
        if port not in self.left_ports:
            raise PortMismatch(f"port {port!r} not declared")
        return self._trace.strand_component[self.left_ports.index(port)]


def sorted_ports(d: _Diagram) -> List[Port]:
    """All ports in (handle declaration order, slot) order."""
    return [p for h in d.handles for p in h.ports()]


def port_links(d: _Diagram) -> List[Tuple[int, int]]:
    """The trace kernel's ``port_links`` of ``d``: one ``(final_pos,
    initial_pos)`` pair of edge positions per port, in sorted-port order."""
    right_pos = {p: i for i, p in enumerate(d.right_ports)}
    left_pos = {p: i for i, p in enumerate(d.left_ports)}
    return [(right_pos[p], left_pos[p]) for p in sorted_ports(d)]


def carried_components(
    d: _Diagram,
    d_new: _Diagram,
    pairs: Iterable[Tuple[int, int]],
) -> Dict[int, Set[int]]:
    """Old component -> the set of new components a rewrite carried it to.

    ``d`` and ``d_new`` are the diagrams before and after the rewrite
    (``d_new`` may be a closed front), and ``pairs`` are ``(old strand,
    new strand)`` witnesses: the new strand is a piece of the old one.
    Every strand starts at a left port or at a left cusp, so witnesses
    at the ports and at the left cusps the rewrite kept reach every
    component that survives it; a component with no witness is absent.
    """
    old, new = d.trace.strand_component, d_new.trace.strand_component
    out: Dict[int, Set[int]] = {}
    for s, t in pairs:
        out.setdefault(old[s], set()).add(new[t])
    return out


def tb_standard(d: _Diagram, c: Optional[int] = None) -> int:
    """Contact framing in standard form: strip writhe minus left cusps,
    which is :func:`thurston_bennequin` of the strip.

    Travel through a 1-handle contributes nothing.
    """
    return thurston_bennequin(d, c)


def geometric_passes(d: _Diagram, c: Optional[int], hid) -> int:
    """How many times component ``c`` runs through handle ``hid``."""
    return sum(1 for h, _s in pass_signs(d, c) if h == hid)


def pass_signs(d: _Diagram, c: Optional[int] = None) -> Dict[Port, int]:
    """Signed pass through each port used by ``c``.

    +1 when the traversal runs rightward through the handle (it leaves
    the right edge and re-enters on the left), -1 for the reverse.  The
    sign is the traversal direction of the strand ending at the right
    port.
    """
    c = _component_arg(d, c)
    t = d.trace
    return {
        p: t.strand_orient[t.final_strands[right]]
        for p, (right, left) in zip(sorted_ports(d), port_links(d))
        if t.strand_component[left] == c
    }


def homology_vector(d: _Diagram, c: Optional[int] = None) -> Tuple[int, ...]:
    """Signed pass counts of ``c`` over each 1-handle, in handle order.

    This is the class of the component in the first homology of the
    boundary of the 1-handlebody; the zero vector means null-homologous.
    """
    c = _component_arg(d, c)
    signs = pass_signs(d, c)
    return tuple(
        sum(v for (h, _s), v in signs.items() if h == hd.id) for hd in d.handles
    )


@dataclass(frozen=True)
class TwoHandleAttachment:
    """A 2-handle attached along a component of the strip diagram."""

    component: int
    framing: int


@dataclass(frozen=True)
class SteinViolation:
    attachment: int
    framing: int
    tb: int


class SteinHandlebody:
    """A standard-form diagram plus its 2-handle attachments."""

    __slots__ = ("diagram", "attachments")

    def __init__(
        self,
        diagram: StandardFormDiagram,
        attachments: Sequence[TwoHandleAttachment],
    ):
        if not isinstance(diagram, StandardFormDiagram):
            raise DiagramError(f"expected a strip, got a {type(diagram).__name__}")
        if not isinstance(attachments, Sequence):
            raise DiagramError(f"attachments {attachments!r} are not a sequence")
        for a in attachments:
            if not isinstance(a, TwoHandleAttachment):
                raise DiagramError(f"{a!r} is not a TwoHandleAttachment")
            if not (_is_int(a.component) and _is_int(a.framing)):
                raise DiagramError(
                    f"{a!r} has a component or framing that is not an int"
                )
            if not 0 <= a.component < diagram.n_components:
                raise DiagramError(f"attachment on missing component {a.component}")
        seen = set()
        for a in attachments:
            if a.component in seen:
                raise DiagramError(f"component {a.component} attached twice")
            seen.add(a.component)
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "attachments", tuple(attachments))

    def __setattr__(self, name, value):
        raise AttributeError("SteinHandlebody is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SteinHandlebody)
            and self.diagram == other.diagram
            and self.attachments == other.attachments
        )

    def __hash__(self):
        return hash((self.diagram, self.attachments))

    def __repr__(self):
        return (
            f"SteinHandlebody({self.diagram!r}, attachments="
            f"{list(self.attachments)!r})"
        )


def stein_check(h: SteinHandlebody) -> List[SteinViolation]:
    """Violations of the Stein framing condition framing = tb - 1.

    An empty list means every 2-handle is attached with contact framing
    minus one.
    """
    if not isinstance(h, SteinHandlebody):
        raise DiagramError(f"expected a SteinHandlebody, got a {type(h).__name__}")
    out = []
    for i, a in enumerate(h.attachments):
        tb = tb_standard(h.diagram, a.component)
        if a.framing != tb - 1:
            out.append(SteinViolation(attachment=i, framing=a.framing, tb=tb))
    return out


# -- closure to the three-sphere -----------------------------------------

def closure_to_sphere(
    d: _Diagram, c: Optional[int] = None
) -> Tuple[FrontDiagram, int]:
    """Surger out every 1-handle, producing a closed front in the plane.

    Each matched port pair is joined by a Legendrian arc routed above the
    strip: the arcs are created as nested left cusps in left-port order,
    run across the top, and close against their right ports with one
    right cusp each, crossing sibling arcs and not-yet-closed strands as
    needed.  Returns the closed diagram together with

        alpha = tb(image of c) - tb_standard(c),

    the framing correction of the closure, which depends only on the
    pattern of ports, not on the strip word between them.
    """
    c = _component_arg(d, c)
    n = len(d.left_ports)
    word: List[Event] = []
    # Nested creation: arc j (1-based, top to bottom of the return block)
    # serves left port n - j, i.e. cusp created first serves the last port.
    for j in range(1, n + 1):
        word.append(L(j))
    # After the cusps the slice is [u1..un, l1..ln]; lower strand at level
    # n + 1 + j serves left_ports[j] and return strand n - j serves it.
    word.extend(Event(e.kind, e.level + n) for e in d.events)
    # Close innermost first: return strand at the bottom of the return
    # block pairs with left_ports[0], whose right port sits somewhere in
    # the remaining right-port block.
    remaining = list(d.right_ports)
    for i in range(n):
        ret_level = n - i  # bottom of the shrinking return block
        port = d.left_ports[i]
        q = remaining.index(port)  # 0-based within remaining block
        for lvl in range(ret_level + q, ret_level, -1):
            word.append(X(lvl))
        word.append(R(ret_level))
        remaining.pop(q)

    closed = FrontDiagram(word)

    # The arc serving left_ports[j] was created by cusp event n - 1 - j,
    # and strip event i is event n + i of the closed word: witnesses at
    # the ports and the strip's left cusps reach every component.
    old, new = d.trace.event_strands, closed.trace.event_strands
    pairs = [(j, new[n - 1 - j][0]) for j in range(n)]
    pairs += [
        (old[i][0], new[n + i][0]) for i, e in enumerate(d.events) if e.kind == "L"
    ]
    (image,) = carried_components(d, closed, pairs)[c]
    alpha = thurston_bennequin(closed, image) - tb_standard(d, c)
    return closed, alpha
