"""Gompf standard-form diagrams: fronts in a strip with 1-handles.

A 1-handle is a pair of vertically aligned balls on the left and right
edges of the strip.  Each ball exposes numbered slots; a strand reaching
the right edge at slot ``s`` of handle ``h`` continues from the left edge
at the same slot, preserving its direction of travel.  The diagram data
is therefore: the handles, an ordered list of left-edge ports (the
initial slice), the event word of the strip, and an ordered list of
right-edge ports (the final slice).  Slots of one handle appear in
increasing order on both edges (no twisting), each exactly once per side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import _kernel
from .errors import DiagramError, PortMismatch
from .front import (
    Event,
    FrontDiagram,
    L,
    R,
    X,
    encode_word,
    thurston_bennequin,
)

Port = Tuple[object, int]  # (handle id, slot)


@dataclass(frozen=True)
class OneHandle:
    """A 1-handle with ``slots`` strand positions through it."""

    id: object
    slots: int

    def ports(self) -> List[Port]:
        return [(self.id, s) for s in range(1, self.slots + 1)]


class StandardFormDiagram:
    """An immutable, validated standard-form diagram."""

    __slots__ = ("handles", "left_ports", "events", "right_ports", "_trace")

    def __init__(
        self,
        handles: Sequence[OneHandle],
        left_ports: Sequence[Port],
        events: Sequence[Event],
        right_ports: Sequence[Port],
    ):
        object.__setattr__(self, "handles", tuple(handles))
        object.__setattr__(self, "left_ports", tuple(left_ports))
        object.__setattr__(self, "events", encode_word(events))
        object.__setattr__(self, "right_ports", tuple(right_ports))
        object.__setattr__(self, "_trace", self._run_trace())

    def __setattr__(self, name, value):
        raise AttributeError("StandardFormDiagram is immutable")

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
        ids = {h.id for h in self.handles}
        if len(ids) != len(self.handles):
            raise PortMismatch("duplicate handle ids")
        declared = {(h.id, s) for h in self.handles for s in range(1, h.slots + 1)}
        for side_name, side in (("left", self.left_ports), ("right", self.right_ports)):
            seen = set()
            for p in side:
                if p not in declared:
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
        right_pos = {p: i for i, p in enumerate(self.right_ports)}
        left_pos = {p: i for i, p in enumerate(self.left_ports)}
        port_links = [(right_pos[p], left_pos[p]) for p in sorted_ports(self)]
        return _kernel.trace(self.events, len(self.left_ports), port_links)

    # -- simple accessors -----------------------------------------------

    @property
    def trace(self) -> _kernel.TraceResult:
        return self._trace

    @property
    def n_components(self) -> int:
        return self._trace.n_components

    @property
    def components(self) -> range:
        return range(self._trace.n_components)

    def handle(self, hid) -> OneHandle:
        for h in self.handles:
            if h.id == hid:
                return h
        raise DiagramError(f"no handle {hid!r}")

    def port_strands(self, port: Port) -> Tuple[int, int]:
        """(left-edge strand id, right-edge strand id) using this port."""
        t = self._trace
        return (
            t.initial_strands[self.left_ports.index(port)],
            t.final_strands[self.right_ports.index(port)],
        )

    def component_of_port(self, port: Port) -> int:
        return self._trace.strand_component[self.port_strands(port)[0]]


def sorted_ports(d: StandardFormDiagram) -> List[Port]:
    """All ports in (handle declaration order, slot) order."""
    return [p for h in d.handles for p in h.ports()]


def _component_arg(d: StandardFormDiagram, c: Optional[int]) -> int:
    if c is None:
        if d.n_components != 1:
            raise DiagramError(
                f"diagram has {d.n_components} components; pass an explicit one"
            )
        return 0
    if not 0 <= c < d.n_components:
        raise DiagramError(f"no component {c}")
    return c


def tb_standard(d: StandardFormDiagram, c: Optional[int] = None) -> int:
    """Contact framing in standard form: strip writhe minus left cusps.

    Travel through a 1-handle contributes nothing.
    """
    c = _component_arg(d, c)
    return d.trace.self_writhe[c] - d.trace.left_cusps[c]


def geometric_passes(d: StandardFormDiagram, c: Optional[int], hid) -> int:
    """How many times component ``c`` runs through handle ``hid``."""
    c = _component_arg(d, c)
    t = d.trace
    return sum(
        1
        for (h, _s) in sorted_ports(d)
        if h == hid and t.strand_component[d.port_strands((h, _s))[0]] == c
    )


def pass_signs(d: StandardFormDiagram, c: Optional[int] = None) -> Dict[Port, int]:
    """Signed pass through each port used by ``c``.

    +1 when the traversal runs rightward through the handle (it leaves
    the right edge and re-enters on the left), -1 for the reverse.  The
    sign is the traversal direction of the strand ending at the right
    port.
    """
    c = _component_arg(d, c)
    t = d.trace
    out = {}
    for p in sorted_ports(d):
        lstrand, rstrand = d.port_strands(p)
        if t.strand_component[lstrand] == c:
            out[p] = t.strand_orient[rstrand]
    return out


def homology_vector(d: StandardFormDiagram, c: Optional[int] = None) -> Tuple[int, ...]:
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
        for a in attachments:
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
    out = []
    for i, a in enumerate(h.attachments):
        tb = tb_standard(h.diagram, a.component)
        if a.framing != tb - 1:
            out.append(SteinViolation(attachment=i, framing=a.framing, tb=tb))
    return out


# -- closure to the three-sphere -----------------------------------------

def closure_to_sphere(
    d: StandardFormDiagram, c: Optional[int] = None
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

    # Identify the image of component c: the arc serving left_ports[j]
    # was created by cusp event j' = n - 1 - j, whose strands are known.
    t_closed = closed.trace
    image = None
    signs = pass_signs(d, c)
    if signs:
        port = next(iter(signs))
        j = d.left_ports.index(port)
        cusp_event = n - 1 - j
        strand = t_closed.event_strands[cusp_event][0]
        image = t_closed.strand_component[strand]
    else:
        # Interior component: locate it through its first strip event.
        t = d.trace
        for idx, ev in enumerate(d.events):
            s = t.event_strands[idx][0]
            if t.strand_component[s] == c:
                image = t_closed.strand_component[t_closed.event_strands[n + idx][0]]
                break
    if image is None:
        raise DiagramError("component has neither ports nor events")

    alpha = thurston_bennequin(closed, image) - tb_standard(d, c)
    return closed, alpha
