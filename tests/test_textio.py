"""Text format round-trips, positioned errors, and renderer determinism."""

import xml.etree.ElementTree as ET

import pytest

from frontkit.errors import FormatError
from frontkit.front import Event, FrontDiagram, trefoil, unknot
from frontkit.gallery import gallery_manifest, step3_pipeline, stein_rep_max
from frontkit.moves import MoveScript
from frontkit.standard import OneHandle, StandardFormDiagram, SteinHandlebody
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


def test_parse_reports_position():
    with pytest.raises(FormatError) as exc:
        parse("front\nL1\nQ9\n")
    assert exc.value.line == 3


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
    assert again.diagram == h.diagram
    assert tuple(again.attachments) == tuple(h.attachments)
    assert print_text(again) == doc


def test_port_lines_must_bracket_events():
    bad = "standard\nhandle H 1\nPH.1\nL2\nPH.1\nR1\n"
    with pytest.raises(FormatError):
        parse(bad)


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


def test_script_roundtrip():
    _closed, script = step3_pipeline(-5, 2)
    text = print_script(script)
    again = parse_script(text)
    assert again.moves == script.moves


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
