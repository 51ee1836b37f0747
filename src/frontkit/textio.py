"""Line-oriented text format and deterministic renderers.

The format is diff-friendly: one declaration or event per line, `#`
comments, and a `front` or `standard` header.  Every document has one
layout: handle declarations, left ports (`P<handle>.<slot>` lines)
before the first event, the events, right ports after the last one,
and optional 2-handle attachments at the end; any attachment promotes
the result to a handlebody.  A front is the strip with no handles and
no ports, so a `front` document holds event lines only, and one reader
and one writer serve both headers.

    front          |  standard
    L1             |  handle H 2
    R1             |  PH.1
                   |  PH.2
                   |  X1
                   |  PH.1
                   |  PH.2
                   |  attach 0 framing -3

Renderers are pure functions of the input: identical diagrams give
byte-identical output.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from itertools import compress, repeat
from operator import is_
from types import MappingProxyType
from typing import List, Sequence, Tuple, Union

from . import _kernel
from .errors import DiagramError, FormatError, MoveError, ParameterOutOfRange
from .front import Event, FrontDiagram, _Diagram, _require_diagram
from .standard import (
    _HANDLE_ID,
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
)

Document = Union[FrontDiagram, StandardFormDiagram, SteinHandlebody]

_EVENT_RE = re.compile(r"^([LRX])([0-9]+)$")
# The one token table: the text of every event at levels 1..256, read
# one way to parse and the other way to print.  No gallery or benchmark
# front is wider than 24 strands; a level past the table, and a token
# such as ``L01``, takes the regular expression or the f-string.  The
# table is read-only; ``parse`` reads the dict it wraps, whose ``get``
# costs about half the proxy's.
_token_event = {f"{k}{i}": Event(k, i) for k in "LRX" for i in range(1, 257)}
_TOKEN_EVENT = MappingProxyType(_token_event)
_EVENT_TOKEN = MappingProxyType({ev: tok for tok, ev in _TOKEN_EVENT.items()})
_PORT_RE = re.compile(rf"^P({_HANDLE_ID.pattern})\.([0-9]+)$")
_HANDLE_RE = re.compile(rf"^handle\s+({_HANDLE_ID.pattern})\s+([0-9]+)$")
_ATTACH_RE = re.compile(r"^attach\s+(-?[0-9]+)\s+framing\s+(-?[0-9]+)$")


def _significant_lines(text: str) -> Tuple[List[int], List[str]]:
    """The 1-based line numbers and the stripped contents of the lines
    that hold anything once comments are removed, as two lists built in
    bulk: the lines are cut at ``#`` only when the text holds one.
    FormatError when ``text`` is not a str."""
    if not isinstance(text, str):
        _fail(f"expected text (a str), got {type(text).__name__}", 1)
    raw = text.splitlines()
    if "#" in text:
        raw = [line.partition("#")[0] for line in raw]
    stripped = list(map(str.strip, raw))
    nums = list(compress(range(1, len(stripped) + 1), stripped))
    return nums, list(filter(None, stripped))


def _fail(message: str, line: int, column: int = 1) -> None:
    raise FormatError(message, line, column)


def _int(token: str, num: int) -> int:
    """``token``, a run of ASCII digits with an optional sign, as an int.
    FormatError on line ``num`` when it has more digits than ``int``
    converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(token)
    except ValueError:
        _fail(f"integer of {len(token.lstrip('-'))} digits is too long", num)


def parse(text: str) -> Document:
    """Parse a document, raising FormatError with line/column on the
    first offending token.  Validation errors keep their class and
    ``index``; one that names an event also names its text line.

    One pass reads both headers.  Every line is looked up once in the
    token table, and the loop visits only the lines the table misses:
    the header, handles, attachments and ports (standard documents
    only), and events the table does not hold, read by the regular
    expression, so ``L01`` reads as ``L1``.  Each run of table events
    between two visited lines joins the word as one slice, with its
    line numbers; a run after an attachment fails on its first line,
    and a run after a right port marks the document misplaced at the
    first right port.  A port between events is reported after the
    pass, so a later bad token wins; with no events, half the ports are
    left ones."""
    nums, lines = _significant_lines(text)
    if not lines:
        _fail("empty document: expected 'front' or 'standard' header", 1)
    header = lines[0]
    if header not in ("front", "standard"):
        _fail(f"unknown header {header!r}: expected 'front' or 'standard'", nums[0])
    standard = header == "standard"
    handles, left, events, right, attachments = [], [], [], [], []
    event_nums = []  # the text line of each event
    first_right = misplaced = 0  # text lines, so 0 is none
    evs = list(map(_token_event.get, lines))
    n = len(lines)
    # The lines the table misses, the header first, and ``n`` to close
    # the last run.
    visited = list(compress(range(n), map(is_, evs, repeat(None))))
    visited.append(n)
    for before, j in zip(visited, visited[1:]):
        if before + 1 < j:  # the table events between two visited lines
            if attachments:
                _fail("attach lines must come last", nums[before + 1])
            events += evs[before + 1 : j]
            event_nums += nums[before + 1 : j]
            if right:
                misplaced = misplaced or first_right
        if j == n:
            break
        num, line = nums[j], lines[j]
        if standard:
            if m := _HANDLE_RE.match(line):
                if left or events or right or attachments:
                    _fail("handle declarations must precede the body", num)
                handles.append(OneHandle(m.group(1), _int(m.group(2), num)))
                continue
            if m := _ATTACH_RE.match(line):
                attachments.append(
                    TwoHandleAttachment(_int(m.group(1), num), _int(m.group(2), num))
                )
                continue
            if attachments:
                _fail("attach lines must come last", num)
            if m := _PORT_RE.match(line):
                port = (m.group(1), _int(m.group(2), num))
                if events:
                    first_right = first_right or num
                    right.append(port)
                else:
                    left.append(port)
                continue
        events.append(_parse_event(num, line))
        event_nums.append(num)
        misplaced = misplaced or first_right
    if misplaced:
        _fail("port lines must lead or trail the event word", misplaced)
    if not events:
        half = len(left) // 2
        left, right = left[:half], left[half:]
    with _event_lines(event_nums):
        if not standard:
            return FrontDiagram(events)
        d = StandardFormDiagram(handles, left, events, right)
    if attachments:
        return SteinHandlebody(d, attachments)
    return d


def _parse_event(num: int, line: str) -> Event:
    """An event line that the token table does not hold."""
    m = _EVENT_RE.match(line)
    if not m:
        _fail(f"expected an event like L1, R2, or X3, got {line!r}", num)
    return Event(m.group(1), _int(m.group(2), num))


@contextmanager
def _event_lines(nums: List[int]):
    """Prefix ``line N`` to a DiagramError raised inside the block that
    names event ``index``, whose text line is ``nums[index]``.  Class,
    ``index`` and errors about the whole word are left as they are."""
    try:
        yield
    except DiagramError as exc:
        if exc.index >= 0:
            exc.args = (f"line {nums[exc.index]}, {exc}",)
        raise


def _strip(obj: Document) -> _Diagram:
    """The diagram of a document: a handlebody's strip, or the front or
    strip itself.  DiagramError for anything else."""
    if isinstance(obj, SteinHandlebody):
        return obj.diagram
    _require_diagram(obj)
    return obj


def _event_tokens(events: Sequence[Event]) -> List[str]:
    """The text of each event, from the token table; a level past the
    table prints as its digits."""
    try:
        return list(map(_EVENT_TOKEN.__getitem__, events))
    except KeyError:
        return [_EVENT_TOKEN.get(e) or f"{e.kind}{e.level:d}" for e in events]


# ``str`` refuses an int of more than ``sys.get_int_max_str_digits()``
# digits, and :func:`parse` refuses the same, so a document or a script
# that holds one has no text.
_TOO_LONG = "an int too long to print as digits, which parse could not read back"


def print_text(obj: Document) -> str:
    """The canonical document: parse(print_text(x)) reproduces x.

    One layout for every document: the header its class names, then the
    handles, the left ports, the events, the right ports and the
    attachments, all but the events empty on a front.  Each event's text
    is read from the token table that :func:`parse` reads the other way,
    so a level prints as its digits, a bool level as 1.  An int too long
    to print, such as a framing past ``sys.get_int_max_str_digits()``
    digits, raises ParameterOutOfRange."""
    d = _strip(obj)
    attachments = obj.attachments if isinstance(obj, SteinHandlebody) else ()
    lines = ["front" if isinstance(obj, FrontDiagram) else "standard"]
    lines += [f"handle {h.id} {h.slots:d}" for h in d.handles]
    lines += [f"P{hid}.{slot:d}" for hid, slot in d.left_ports]
    lines += _event_tokens(d.events)
    lines += [f"P{hid}.{slot:d}" for hid, slot in d.right_ports]
    # The size bound keeps every other int of a document short; a
    # framing is bounded by nothing.
    try:
        lines += [
            f"attach {a.component:d} framing {a.framing:d}" for a in attachments
        ]
    except ValueError:
        raise ParameterOutOfRange(_TOO_LONG) from None
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Move scripts

_INT_RE = re.compile(r"^-?[0-9]+$")


def _token(x) -> str:
    """A script token: an int (a bool too) as digits, anything else as
    its str."""
    return f"{x:d}" if isinstance(x, int) else str(x)


def print_script(script: "MoveScript") -> str:
    """One move per line: kind, window index, level, then any
    kind-specific data tokens, after a first line ``# <note>`` when the
    script has a note.  Ints print as digits, as levels do in
    :func:`print_text`, so a bool field parses back as its int.  Raises
    MoveError when ``script`` is not a MoveScript, and ParameterOutOfRange
    when a field is an int too long to print."""
    from .moves import MoveScript

    if not isinstance(script, MoveScript):
        raise MoveError(f"expected a MoveScript, got a {type(script).__name__}")
    lines = []
    if script.note:
        lines.append(f"# {script.note}")
    try:
        for m in script.moves:
            fields = (m.index, m.level, *m.data)
            lines.append(" ".join([m.kind, *map(_token, fields)]))
    except ValueError:
        raise ParameterOutOfRange(_TOO_LONG) from None
    return "\n".join(lines) + "\n"


def parse_script(text: str) -> "MoveScript":
    """Inverse of print_script; a first line that starts with ``# `` is
    the note, and every other comment is dropped.  Data tokens parse as
    ints when they look like ints and as bare strings otherwise, except
    the handle id that leads the data of a PullOff or a CancelPair,
    which stays a string even when it is made of digits."""
    from .moves import Move, MoveScript

    nums, lines = _significant_lines(text)
    head = (text.splitlines() or [""])[0]
    moves = []
    for num, line in zip(nums, lines):
        tokens = line.split()
        if len(tokens) < 3 or not (
            _INT_RE.match(tokens[1]) and _INT_RE.match(tokens[2])
        ):
            _fail("expected: <kind> <index> <level> [data...]", num)
        start = 4 if tokens[0] in ("PullOff", "CancelPair") else 3
        data = tuple(tokens[3:start]) + tuple(
            _int(t, num) if _INT_RE.match(t) else t for t in tokens[start:]
        )
        moves.append(
            Move(tokens[0], _int(tokens[1], num), _int(tokens[2], num), data)
        )
    return MoveScript(tuple(moves), head[2:] if head.startswith("# ") else "")


# ---------------------------------------------------------------------------
# Rendering


def render(d: Document, mode: str = "ascii") -> str:
    """Draw the diagram; output depends only on the input object."""
    if mode == "ascii":
        return _render_ascii(d)
    if mode == "svg":
        return _render_svg(d)
    raise ParameterOutOfRange(f"unknown render mode {mode!r}")


def _render_ascii(obj: Document) -> str:
    """Strands run left to right as `_` rows; `(`/`)` are cusps, `X`
    marks a crossing of the two adjacent rows (the strand of greater
    downward slope passes in front).

    Column ``2t`` draws slice ``t`` and column ``2t + 1`` draws event
    ``t``.  Each is a closed form of the event and the width ``k`` of
    the slice before it, read from :func:`frontkit._kernel.widths`, with
    rows counted from 0 at the top: a slice is ``k`` underscores; a left
    cusp at level ``i`` puts `(` on row ``i`` of ``k + 2`` rows; a right
    cusp puts `)` on row ``i``, keeping the rows of the ``k - 2``
    survivors and the row above the cusp; a crossing marks rows
    ``i - 1`` and ``i`` of ``k``.  A column pair depends only on the
    event and ``k``, so each distinct pair is drawn once per call, as
    one string of ``2 * height`` characters: the slice column, then the
    event column, each padded to the height.  A cable repeats a few
    dozen pairs thousands of times.  The pairs of the word and the last
    slice column are joined into one column-major grid, so row ``r`` is
    the strided slice ``grid[r::height]``, right-stripped.
    """
    d = _strip(obj)
    widths = _kernel.widths(d.events, len(d.left_ports))
    height = max(d.trace.max_width, 1)
    keys = list(zip(d.events, widths))
    drawn = {}
    for key in set(keys):
        (kind, i), k = key
        if kind == "L":
            col = "_" * i + "(" + "_" * (k + 1 - i)
        elif kind == "R":
            col = ("_" * i + ")").ljust(k - 2, "_")
        else:
            col = "_" * (i - 1) + "XX" + "_" * (k - i - 1)
        drawn[key] = ("_" * k).ljust(height) + col.ljust(height)
    grid = "".join(map(drawn.__getitem__, keys)) + ("_" * widths[-1]).ljust(height)
    lines = [grid[r::height].rstrip() for r in range(height)]
    while lines and not lines[-1]:
        lines.pop()
    out = "\n".join(lines) + "\n"
    if isinstance(obj, (StandardFormDiagram, SteinHandlebody)):
        out += _port_legend(obj)
    return out


def _port_legend(obj: Document) -> str:
    d = _strip(obj)
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
    their endpoint, so turnbacks close up.

    Slice ``t`` sits at x = 24(t + 1) and row ``r`` at y = 16(r + 1).
    A strand's polyline is its left-cusp apex (half a step before its
    first slice, on its own row), its turn points, and the tip of the
    right cusp that ends it.  One walk over the word cuts the strand's
    slices into runs of constant row; each row of the current slice
    holds its strand's list of points.  A crossing ends the runs of its
    two rows, written inline, and swaps the rows; a cusp at level ``i``
    ends the runs of every row from ``i - 1`` down, which it moves or
    ends, in one pass over the zipped rows, run starts and y texts.
    Each run is written as its first and last slice points, or as one
    point when it spans one slice, so a polyline keeps only the points
    where it turns.
    """
    d = _strip(obj)
    tr = d.trace
    n_slices = len(d.events) + 1
    xs = [str(_SVG_STEP * (t + 1)) for t in range(n_slices)]
    ys = [f",{_SVG_ROW * (r + 1)}" for r in range(tr.max_width)]
    parts: List[List[str]] = [[] for _ in range(tr.n_strands)]
    rows = [parts[s] for s in tr.initial_strands]  # per row: its strand's points
    start = [0] * len(rows)  # per row: the slice where its run began
    for t, ((kind, i), (a, b)) in enumerate(zip(d.events, tr.event_strands)):
        x = xs[t]
        if kind == "X":
            # End the runs of rows i - 1 and i at slice t, and swap them.
            upper, lower = rows[i - 1], rows[i]
            s, y = start[i - 1], ys[i - 1]
            if s == t:
                upper.append(x + y)
            else:
                upper += (xs[s] + y, x + y)
            s, y = start[i], ys[i]
            if s == t:
                lower.append(x + y)
            else:
                lower += (xs[s] + y, x + y)
            rows[i - 1], rows[i] = lower, upper
            start[i - 1] = start[i] = t + 1
            continue
        for points, s, y in zip(rows[i - 1 :], start[i - 1 :], ys[i - 1 :]):
            if s == t:
                points.append(x + y)
            else:
                points += (xs[s] + y, x + y)
        cusp_x = _SVG_STEP * (t + 1) + _SVG_STEP // 2
        if kind == "L":
            parts[a].append(f"{cusp_x},{_SVG_ROW * i}")
            parts[b].append(f"{cusp_x},{_SVG_ROW * (i + 1)}")
            rows[i - 1 : i - 1] = (parts[a], parts[b])
        else:
            tip = f"{cusp_x},{_SVG_ROW * i + _SVG_ROW // 2}"
            parts[a].append(tip)
            parts[b].append(tip)
            del rows[i - 1 : i + 1]
        start[i - 1 :] = [t + 1] * (len(rows) - i + 1)
    x = xs[-1]
    for points, s, y in zip(rows, start, ys):
        if s == n_slices - 1:
            points.append(x + y)
        else:
            points += (xs[s] + y, x + y)
    w = _SVG_STEP * (n_slices + 1)
    h = _SVG_ROW * (max(tr.max_width, 1) + 1)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">'
    ]
    out += [
        f'<polyline points="{" ".join(p)}" fill="none" stroke="black"/>'
        for p in parts
    ]
    out.append("</svg>")
    return "\n".join(out) + "\n"
