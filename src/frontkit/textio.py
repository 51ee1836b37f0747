"""Line-oriented text format and deterministic renderers.

The format is diff-friendly: one declaration or event per line, `#`
comments, and a `front` or `standard` header.  Standard-form documents
list left ports (`P<handle>.<slot>` lines) before the first event,
right ports after the last one, and optional 2-handle attachments at
the end; any attachment promotes the result to a handlebody.

    front          |  standard
    L1             |  handle H 2
    R1             |  P H.1
                   |  P H.2
                   |  X1
                   |  P H.1
                   |  P H.2
                   |  attach 0 framing -3

Renderers are pure functions of the input: identical diagrams give
byte-identical output.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple, Union

from . import _kernel
from .errors import FormatError
from .front import Event, FrontDiagram
from .standard import (
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
)

Document = Union[FrontDiagram, StandardFormDiagram, SteinHandlebody]

_EVENT_RE = re.compile(r"^([LRX])([0-9]+)$")
_PORT_RE = re.compile(r"^P([^\s.]+)\.([0-9]+)$")
_HANDLE_RE = re.compile(r"^handle\s+([^\s.]+)\s+([0-9]+)$")
_ATTACH_RE = re.compile(r"^attach\s+(-?[0-9]+)\s+framing\s+(-?[0-9]+)$")


def _significant_lines(text: str) -> List[Tuple[int, str]]:
    """(1-based line number, stripped content) with comments removed."""
    out = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((num, line))
    return out


def _fail(message: str, line: int, column: int = 1) -> None:
    raise FormatError(message, line, column)


def parse(text: str) -> Document:
    """Parse a document, raising FormatError with line/column on the
    first offending token; semantic validation errors pass through."""
    lines = _significant_lines(text)
    if not lines:
        _fail("empty document: expected 'front' or 'standard' header", 1)
    num, header = lines[0]
    if header == "front":
        return _parse_front(lines[1:])
    if header == "standard":
        return _parse_standard(lines[1:])
    _fail(f"unknown header {header!r}: expected 'front' or 'standard'", num)


def _parse_event(num: int, line: str) -> Event:
    m = _EVENT_RE.match(line)
    if not m:
        _fail(f"expected an event like L1, R2, or X3, got {line!r}", num)
    return Event(m.group(1), int(m.group(2)))


def _parse_front(lines: List[Tuple[int, str]]) -> FrontDiagram:
    return FrontDiagram([_parse_event(num, line) for num, line in lines])


def _parse_standard(lines: List[Tuple[int, str]]) -> Document:
    handles: List[OneHandle] = []
    body: List[Tuple[int, str, object]] = []  # (line, kind, payload)
    attachments: List[TwoHandleAttachment] = []
    for num, line in lines:
        if m := _HANDLE_RE.match(line):
            if body or attachments:
                _fail("handle declarations must precede the body", num)
            handles.append(OneHandle(m.group(1), int(m.group(2))))
            continue
        if m := _ATTACH_RE.match(line):
            attachments.append(
                TwoHandleAttachment(int(m.group(1)), int(m.group(2)))
            )
            continue
        if attachments:
            _fail("attach lines must come last", num)
        if m := _PORT_RE.match(line):
            body.append((num, "port", (m.group(1), int(m.group(2)))))
        else:
            body.append((num, "event", _parse_event(num, line)))
    event_at = [i for i, (_, kind, _p) in enumerate(body) if kind == "event"]
    if event_at:
        first, last = event_at[0], event_at[-1]
        for num, kind, _p in body[first:last]:
            if kind == "port":
                _fail("port lines must lead or trail the event word", num)
        split_l, split_r = first, last + 1
    else:
        split_l = split_r = len(body) // 2
    left = [p for _n, _k, p in body[:split_l]]
    events = [p for _n, _k, p in body[split_l:split_r]]
    right = [p for _n, _k, p in body[split_r:]]
    d = StandardFormDiagram(handles, left, events, right)
    if attachments:
        return SteinHandlebody(d, attachments)
    return d


def print_text(obj: Document) -> str:
    """The canonical document: parse(print_text(x)) reproduces x."""
    if isinstance(obj, FrontDiagram):
        lines = ["front"]
        lines += [f"{e.kind}{e.level:d}" for e in obj.events]
        return "\n".join(lines) + "\n"
    attachments: Sequence[TwoHandleAttachment] = ()
    d = obj
    if isinstance(obj, SteinHandlebody):
        d, attachments = obj.diagram, obj.attachments
    lines = ["standard"]
    lines += [f"handle {h.id} {h.slots}" for h in d.handles]
    lines += [f"P{hid}.{slot}" for hid, slot in d.left_ports]
    lines += [f"{e.kind}{e.level:d}" for e in d.events]
    lines += [f"P{hid}.{slot}" for hid, slot in d.right_ports]
    lines += [f"attach {a.component} framing {a.framing}" for a in attachments]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Move scripts

_INT_RE = re.compile(r"^-?[0-9]+$")


def print_script(script: "MoveScript") -> str:
    """One move per line: kind, window index, level, then any
    kind-specific data tokens."""
    lines = []
    if script.note:
        lines.append(f"# {script.note}")
    for m in script.moves:
        tokens = [m.kind, str(m.index), str(m.level)]
        tokens += [str(x) for x in m.data]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def parse_script(text: str) -> "MoveScript":
    """Inverse of print_script; data tokens parse as ints when they
    look like ints and as bare strings otherwise."""
    from .moves import Move, MoveScript

    moves = []
    for num, line in _significant_lines(text):
        tokens = line.split()
        if len(tokens) < 3 or not (
            _INT_RE.match(tokens[1]) and _INT_RE.match(tokens[2])
        ):
            _fail("expected: <kind> <index> <level> [data...]", num)
        data = tuple(
            int(t) if _INT_RE.match(t) else t for t in tokens[3:]
        )
        moves.append(Move(tokens[0], int(tokens[1]), int(tokens[2]), data))
    return MoveScript(tuple(moves))


# ---------------------------------------------------------------------------
# Rendering


def render(d: Document, mode: str = "ascii") -> str:
    """Draw the diagram; output depends only on the input object."""
    if mode == "ascii":
        return _render_ascii(d)
    if mode == "svg":
        return _render_svg(d)
    raise ValueError(f"unknown render mode {mode!r}")


def _render_ascii(obj: Document) -> str:
    """Strands run left to right as `_` rows; `(`/`)` are cusps, `X`
    marks a crossing of the two adjacent rows (the strand of greater
    downward slope passes in front)."""
    d = obj.diagram if isinstance(obj, SteinHandlebody) else obj
    events = d.events
    slices = _kernel.slices(events, d.trace)
    width = d.trace.max_width
    cols = 2 * len(events) + 1
    grid = [[" "] * cols for _ in range(max(width, 1))]
    for t, sl in enumerate(slices):
        for row in range(len(sl)):
            grid[row][2 * t] = "_"
    for idx, ev in enumerate(events):
        col = 2 * idx + 1
        i = ev.level
        after = {s: row for row, s in enumerate(slices[idx + 1])}
        for s in slices[idx]:
            if s in after:
                grid[after[s]][col] = "_"
        if ev.kind == "L":
            grid[i - 1][col] = "_"
            grid[i][col] = "("
        elif ev.kind == "R":
            grid[i - 1][col] = "_"
            grid[i][col] = ")"
        else:
            grid[i - 1][col] = "X"
            grid[i][col] = "X"
    lines = ["".join(row).rstrip() for row in grid]
    while lines and not lines[-1]:
        lines.pop()
    out = "\n".join(lines) + "\n"
    if isinstance(obj, (StandardFormDiagram, SteinHandlebody)):
        out += _port_legend(obj)
    return out


def _port_legend(obj: Document) -> str:
    d = obj.diagram if isinstance(obj, SteinHandlebody) else obj
    lines = [f"[{h.id}] {h.slots} slots" for h in d.handles]
    lines.append("left:  " + " ".join(f"{h}.{s}" for h, s in d.left_ports))
    lines.append("right: " + " ".join(f"{h}.{s}" for h, s in d.right_ports))
    if isinstance(obj, SteinHandlebody):
        for a in obj.attachments:
            lines.append(f"attach component {a.component} framing {a.framing}")
    return "\n".join(lines) + "\n"


_SVG_STEP = 24  # horizontal pixels per event
_SVG_ROW = 16  # vertical pixels per level


def _render_svg(obj: Document) -> str:
    """One polyline per strand on an integer grid; cusp mates share
    their endpoint, so turnbacks close up."""
    d = obj.diagram if isinstance(obj, SteinHandlebody) else obj
    slices = _kernel.slices(d.events, d.trace)
    width = d.trace.max_width
    n_slices = len(slices)
    # points[s] = ordered (x, y) polyline for strand s.
    points: Dict[int, List[Tuple[int, int]]] = {}
    for t, sl in enumerate(slices):
        x = _SVG_STEP * (t + 1)
        for row, s in enumerate(sl):
            y = _SVG_ROW * (row + 1)
            pts = points.setdefault(s, [])
            if not pts and t > 0:
                # Born at a left cusp: start at the cusp apex.
                pts.append((x - _SVG_STEP // 2, y))
            pts.append((x, y))
    for idx, ev in enumerate(d.events):
        if ev.kind != "R":
            continue
        upper, lower = d.trace.event_strands[idx]
        x = _SVG_STEP * (idx + 1) + _SVG_STEP // 2
        y = _SVG_ROW * ev.level + _SVG_ROW // 2
        for s in (upper, lower):
            points[s].append((x, y))
    w = _SVG_STEP * (n_slices + 1)
    h = _SVG_ROW * (max(width, 1) + 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">'
    ]
    for s in sorted(points):
        path = " ".join(f"{x},{y}" for x, y in points[s])
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
