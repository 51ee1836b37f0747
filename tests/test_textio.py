"""Text format round-trips, positioned errors, and renderer determinism."""

import functools
import hashlib
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_front

from frontkit import _kernel, textio
from frontkit.errors import (
    DanglingStrand,
    DiagramError,
    FormatError,
    LevelOutOfRange,
    MoveNotApplicable,
    ParameterOutOfRange,
)
from frontkit.explore import fuzz_moves
from frontkit.front import Event, FrontDiagram, L, R, X, trefoil, unknot
from frontkit.gallery import (
    K_m_front,
    K_mn_cable_front,
    gallery_manifest,
    step3_pipeline,
    stein_rep_max,
)
from frontkit.moves import Move, MoveScript, apply_move, enumerate_moves
from frontkit.satellite import cable
from frontkit.standard import (
    _HANDLE_ID,
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
)
from frontkit.textio import (
    parse,
    parse_script,
    print_script,
    print_text,
    render,
)


def test_parse_unknot():
    d = parse("front\nL1\nR1\n")
    assert isinstance(d, FrontDiagram)
    assert d.events == unknot().events


def test_the_module_docstring_example_parses_and_round_trips():
    rows = [line.split("|") for line in textio.__doc__.splitlines() if "|" in line]
    for column in zip(*rows):
        doc = "".join(cell.strip() + "\n" for cell in column if cell.strip())
        assert print_text(parse(doc)) == doc


def test_the_token_table_agrees_with_the_regular_expression():
    table = textio._TOKEN_EVENT
    assert len(table) == 3 * 256
    for token, ev in table.items():
        m = textio._EVENT_RE.match(token)
        assert Event(m.group(1), int(m.group(2))) == ev
        assert textio._EVENT_TOKEN[ev] == token
    with pytest.raises(TypeError):
        table["L1"] = Event("R", 1)


def test_tokens_off_the_table_take_the_regular_expression():
    # A leading zero is no table token but still reads as its level.
    assert parse("front\nL01\nR001\n").events == (L(1), R(1))
    # A digit outside 0-9 and an unknown kind are errors on their line.
    for bad in ("L\u0663", "Q9"):
        with pytest.raises(FormatError) as exc:
            parse(f"front\nL1\n{bad}\nR1\n")
        assert exc.value.line == 3
        assert repr(bad) in str(exc.value)
    # A level past the table prints as its digits and parses back.
    d = FrontDiagram(
        [L(1)] * 129 + [L(259), X(258), X(258), R(259)] + [R(1)] * 129
    )
    doc = print_text(d)
    assert "\nL259\nX258\nX258\nR259\n" in doc
    assert parse(doc) == d
    assert print_text(parse(doc)) == doc


def test_parse_reports_position():
    with pytest.raises(FormatError) as exc:
        parse("front\nL1\nQ9\n")
    assert exc.value.line == 3


def test_front_event_errors_name_the_text_line():
    with pytest.raises(LevelOutOfRange) as exc:
        parse("front\n# c\nL1\n\nL1\nR5\n")
    assert exc.value.index == 2
    assert str(exc.value) == (
        "line 6, event 2: right cusp at level 5 with 4 strands"
    )
    # An error about the whole word names no event and no line.
    with pytest.raises(DanglingStrand) as exc:
        parse("front\nL1\n")
    assert str(exc.value) == "word ends with 2 strands, expected 0"


def test_standard_event_errors_name_the_text_line():
    doc = "standard\nhandle H 2\nPH.1\nPH.2\nL1\n# c\nX7\nR1\nPH.1\nPH.2\n"
    with pytest.raises(LevelOutOfRange) as exc:
        parse(doc)
    assert exc.value.index == 1
    assert str(exc.value).startswith("line 7, event 1: crossing at level 7")


def test_parse_rejects_unknown_header():
    with pytest.raises(FormatError) as exc:
        parse("diagram\nL1\n")
    assert exc.value.line == 1


def test_parse_comments_and_blanks():
    d = parse("# a comment\nfront\n\nL1  # trailing\nR1\n")
    assert d.events == unknot().events


def test_standard_document_roundtrip():
    h = stein_rep_max(-5, 2)
    doc = print_text(h)
    again = parse(doc)
    assert isinstance(again, SteinHandlebody)
    assert again == h and hash(again) == hash(h)
    reframed = [TwoHandleAttachment(a.component, a.framing + 1) for a in h.attachments]
    assert again != SteinHandlebody(h.diagram, reframed)
    assert again != h.diagram
    assert print_text(again) == doc


def _random_strip(rng, ids):
    """A strip on handles named ``ids``, each with 1 to 3 slots, whose
    ports lie in a random order on each edge, with a random word: the
    first that is valid of a few tries, else the empty word."""
    handles = [OneHandle(hid, rng.randint(1, 3)) for hid in ids]

    def edge():
        # A random interleaving that keeps each handle's slots in order.
        owners = [hd.id for hd in handles for _ in range(hd.slots)]
        rng.shuffle(owners)
        return [(hid, owners[: pos + 1].count(hid)) for pos, hid in enumerate(owners)]

    left, right = edge(), edge()
    n = len(left)
    for _ in range(10):
        width, word = n, []
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if width >= 2 and roll < 0.4:
                word.append(X(rng.randint(1, width - 1)))
            elif width > n and roll < 0.7:
                word.append(R(rng.randint(1, width - 1)))
                width -= 2
            else:
                word.append(L(rng.randint(1, width + 1)))
                width += 2
        while width > n:
            word.append(R(rng.randint(1, width - 1)))
            width -= 2
        try:
            return StandardFormDiagram(handles, left, word, right)
        except DiagramError:
            continue
    return StandardFormDiagram(handles, left, [], right)


_handle_ids = st.lists(
    st.one_of(st.from_regex(r"[0-9]{1,3}", fullmatch=True),
              st.from_regex(_HANDLE_ID, fullmatch=True)),
    max_size=3, unique=True,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), _handle_ids)
def test_printed_documents_parse_back(seed, ids):
    # A random front, a strip on random handle ids (digits only too), and
    # the handlebody of random 2-handles on the strip.
    rng = random.Random(seed)
    front = random_front(rng, rng.randint(0, 16))
    assert parse(print_text(front)) == front
    strip = _random_strip(rng, ids)
    assert parse(print_text(strip)) == strip
    h = SteinHandlebody(strip, [
        TwoHandleAttachment(c, rng.randint(-9, 9))
        for c in strip.components if rng.random() < 0.5
    ])
    back = parse(print_text(h))
    assert back == (h if h.attachments else strip)


def test_port_lines_must_bracket_events():
    bad = "standard\nhandle H 1\nPH.1\nL2\nPH.1\nR1\n"
    with pytest.raises(FormatError):
        parse(bad)


def test_a_later_bad_token_wins_over_a_port_between_events():
    # The port on line 5 sits between the events, but the bad token on
    # line 7 is reported: misplaced ports are judged after every line.
    with pytest.raises(FormatError) as exc:
        parse("standard\nhandle H 1\nPH.1\nL2\nPH.1\nR1\nQ9\n")
    assert exc.value.line == 7
    assert "expected an event like L1, R2, or X3, got 'Q9'" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        parse("standard\nhandle H 1\nPH.1\nL2\nPH.1\nR1\n")
    assert exc.value.line == 5
    assert "port lines must lead or trail the event word" in str(exc.value)


@pytest.mark.parametrize(
    "line", ["PH.1", "handle H 1", "attach 0 framing -1"]
)
def test_a_front_admits_event_lines_only(line):
    with pytest.raises(FormatError) as exc:
        parse(f"front\nL1\n{line}\nR1\n")
    assert exc.value.line == 3
    assert f"expected an event like L1, R2, or X3, got {line!r}" in str(exc.value)


def test_roundtrip_full_manifest():
    for entry in gallery_manifest():
        doc = print_text(entry.artifact)
        assert print_text(parse(doc)) == doc, entry.name


def test_bool_levels_print_as_integers():
    # bool is an int, so the constructors accept it as a level; the text
    # must still say L1, not LTrue.
    d = FrontDiagram([Event("L", True), Event("R", True)])
    doc = print_text(d)
    assert doc == "front\nL1\nR1\n"
    assert parse(doc) == d
    s = StandardFormDiagram(
        [OneHandle("H", 1)], [("H", 1)],
        [Event("L", 2), Event("X", True), Event("R", True)], [("H", 1)],
    )
    doc = print_text(s)
    assert "\nX1\nR1\n" in doc
    assert parse(doc) == s
    # Slot counts, port slots and attachment numbers are ints too.
    s = StandardFormDiagram(
        [OneHandle("H", True)], [("H", True)],
        [Event("L", 2), Event("R", 1)], [("H", True)],
    )
    h = SteinHandlebody(s, [TwoHandleAttachment(False, True)])
    doc = print_text(h)
    assert doc == "standard\nhandle H 1\nPH.1\nL2\nR1\nPH.1\nattach 0 framing 1\n"
    assert parse(doc) == h


def test_script_roundtrip():
    for m, n in ((-5, 2), (-6, 2), (-9, 3)):
        script = _step3(m, n)[1]
        text = print_script(script)
        assert parse_script(text) == script
        assert text.startswith(f"# step3 m={m} n={n}\n")
    # Only a first line "# ..." is the note; other comments are dropped.
    assert parse_script("#step3\n" + text).note == ""
    assert parse_script("R1a 0 1\n# a comment\n").note == ""


def _with_bools(d, m: Move, rng: random.Random):
    """``m`` with some of its int fields that are 0 or 1 made bools, if
    ``apply_move`` takes them so (a handle slide does not), and the
    diagram it gives on ``d``."""
    def flip(x):
        return bool(x) if type(x) is int and x in (0, 1) and rng.random() < 0.5 else x

    b = replace(m, index=flip(m.index), level=flip(m.level),
                data=tuple(map(flip, m.data)))
    try:
        return b, apply_move(d, b)
    except MoveNotApplicable:
        return m, apply_move(d, m)


@functools.lru_cache(maxsize=None)
def _step3(m, n):
    return stein_rep_max(m, n), step3_pipeline(m, n)[1]


def test_bool_move_fields_print_as_integers():
    script = MoveScript((Move("PullOff", data=("H", True)), Move("R1a", True, 1)))
    assert print_script(script) == "PullOff 0 0 H 1\nR1a 1 1\n"
    assert parse_script(print_script(script)).moves == script.moves


_NOTES = st.text(max_size=12).filter(lambda t: t.splitlines() in ([], [t]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), _NOTES)
def test_printed_scripts_replay_to_the_same_diagram(seed, note):
    # A walk of enumerated moves (stabilizations and R2 expansions too)
    # on a random front, or a step-3 script, with some 0/1 fields as
    # bools and a note: the printed script parses back to the script
    # and replays to the diagram the script does.
    rng = random.Random(seed)
    if rng.random() < 0.25:
        start, script = _step3(*rng.choice([(-5, 2), (-6, 2), (-9, 3)]))
        steps = list(script.moves)
    else:
        start = random_front(rng, rng.randint(2, 16))
        steps = [None] * rng.randint(1, 6)
    current, moves = start, []
    for m in steps:
        m = m or rng.choice(enumerate_moves(current))
        m, current = _with_bools(current, m, rng)
        moves.append(m)
    script = MoveScript(tuple(moves), note)
    again = parse_script(print_script(script))
    assert again == script
    assert again.replay(start) == current


def test_a_handle_id_of_digits_stays_a_str_in_a_script():
    ports = [("7", 1), ("7", 2)]
    strip = StandardFormDiagram([OneHandle("7", 2)], ports, [R(1), L(1)], ports)
    circle = StandardFormDiagram(
        [OneHandle("12", 1)], [("12", 1)], [L(2), R(1)], [("12", 1)]
    )
    h = SteinHandlebody(circle, [TwoHandleAttachment(0, -1)])
    for start, move in (
        (strip, Move("PullOff", data=("7", 1))),
        (h, Move("CancelPair", data=("12", 0, -1))),
    ):
        script = MoveScript((move,))
        again = parse_script(print_script(script))
        assert again.moves == script.moves
        assert again.replay(start) == script.replay(start)


def test_script_parse_error_positions():
    with pytest.raises(FormatError) as exc:
        parse_script("R1a one 2\n")
    assert exc.value.line == 1


def test_renderers_are_byte_deterministic():
    for entry in gallery_manifest():
        for mode in ("ascii", "svg"):
            a = render(entry.artifact, mode)
            b = render(parse(print_text(entry.artifact)), mode)
            assert a == b, (entry.name, mode)


def test_ascii_unknot_is_a_small_oval():
    art = render(unknot())
    assert len(art.rstrip("\n").splitlines()) == 2
    assert "(" in art and ")" in art


def test_svg_is_well_formed_markup():
    for d in (unknot(), trefoil(), step3_pipeline(-5, 2)[0]):
        root = ET.fromstring(render(d, "svg"))
        assert root.tag.endswith("svg")
        assert len(list(root)) >= 1


def test_unknown_render_mode_is_a_domain_error():
    with pytest.raises(ParameterOutOfRange, match="png"):
        render(unknot(), "png")


# -- the per-slice renderers, kept as byte references ----------------------


def _reference_ascii(obj):
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
        lines = [f"[{h.id}] {h.slots} slots" for h in d.handles]
        lines.append("left:  " + " ".join(f"{h}.{s}" for h, s in d.left_ports))
        lines.append("right: " + " ".join(f"{h}.{s}" for h, s in d.right_ports))
        if isinstance(obj, SteinHandlebody):
            for a in obj.attachments:
                lines.append(
                    f"attach component {a.component} framing {a.framing}"
                )
        out += "\n".join(lines) + "\n"
    return out


def _reference_svg(obj):
    d = obj.diagram if isinstance(obj, SteinHandlebody) else obj
    slices = _kernel.slices(d.events, d.trace)
    width = d.trace.max_width
    points = {}
    for t, sl in enumerate(slices):
        x = 24 * (t + 1)
        for row, s in enumerate(sl):
            y = 16 * (row + 1)
            pts = points.setdefault(s, [])
            if not pts and t > 0:
                pts.append((x - 12, y))
            pts.append((x, y))
    for idx, ev in enumerate(d.events):
        if ev.kind != "R":
            continue
        upper, lower = d.trace.event_strands[idx]
        x = 24 * (idx + 1) + 12
        y = 16 * ev.level + 8
        for s in (upper, lower):
            points[s].append((x, y))
    w = 24 * (len(slices) + 1)
    h = 16 * (max(width, 1) + 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">'
    ]
    for s in sorted(points):
        path = " ".join(f"{x},{y}" for x, y in points[s])
        parts.append(f'<polyline points="{path}" fill="none" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_POINTS_RE = re.compile(r'points="([^"]*)"')


def _points(text):
    return [tuple(map(int, p.split(","))) for p in text.split()]


def _turn_points(svg):
    """``svg`` with each slice point (x a multiple of 24) dropped whose
    two neighbours on its polyline are slice points on its row; a cusp's
    apex and tip are never slice points, so they stay."""

    def on_row(p, y):
        return p[0] % 24 == 0 and p[1] == y

    def keep(m):
        pts = _points(m.group(1))
        kept = [
            (x, y)
            for j, (x, y) in enumerate(pts)
            if not (
                0 < j < len(pts) - 1
                and x % 24 == 0
                and on_row(pts[j - 1], y)
                and on_row(pts[j + 1], y)
            )
        ]
        return 'points="' + " ".join(f"{x},{y}" for x, y in kept) + '"'

    return _POINTS_RE.sub(keep, svg)


def _unit_segments(svg):
    """Per polyline, its segments in order, each run along a row cut into
    steps of one slice."""
    out = []
    for text in _POINTS_RE.findall(svg):
        pts = _points(text)
        segs = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if y0 == y1 and x0 % 24 == 0 and x1 % 24 == 0:
                segs += [((x, y0), (x + 24, y0)) for x in range(x0, x1, 24)]
            else:
                segs.append(((x0, y0), (x1, y1)))
        out.append(segs)
    return out


# The perfbench pipeline grid: m from -4n+3 down to -4n-5, n in 2..4.
_PIPELINE_GRID = [(-4 * n + 3 - k, n) for n in (2, 3, 4) for k in range(9)]


def test_renderers_match_the_per_slice_reference():
    docs = [entry.artifact for entry in gallery_manifest()]
    h = stein_rep_max(-5, 2)
    docs += [h, h.diagram]  # a handlebody with its legend, a bare standard form
    for m, n in _PIPELINE_GRID:
        docs += [step3_pipeline(m, n)[0], cable(K_m_front(m), n, -1)]
    fronts = [d for d in docs if isinstance(d, FrontDiagram)]
    for seed in range(20):
        start = fronts[seed % len(fronts)]
        docs.append(fuzz_moves(start, seed=seed, steps=40).final)
    docs.append(FrontDiagram([]))
    docs.append(StandardFormDiagram(
        [OneHandle("H", 3)], [("H", 1), ("H", 2), ("H", 3)], [],
        [("H", 1), ("H", 2), ("H", 3)],
    ))
    for d in docs:
        assert render(d, "ascii") == _reference_ascii(d), print_text(d)
        svg, ref = render(d, "svg"), _reference_svg(d)
        # The SVG keeps only the points where a polyline turns.
        assert svg == _turn_points(ref), print_text(d)
        assert _unit_segments(svg) == _unit_segments(ref), print_text(d)
    # sha256 of the renders of this cable: the ASCII one the per-slice
    # renderer gave, and the SVG one with the turn points only.
    d = K_mn_cable_front(-5, 3)
    digests = [
        hashlib.sha256(render(d, mode).encode()).hexdigest()
        for mode in ("ascii", "svg")
    ]
    assert digests == [
        "62938d0746a60ffe1adb8b67685739957e400ba8dbac92dd3eb672001ec4b487",
        "06cbaf73e3d70f9c87f2a2976e6074d9855cc2edc4ba98a36ab0754b7b2b738b",
    ]
