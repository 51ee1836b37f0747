"""Command-line surface: subcommands, exit codes, and stdin handling."""

import subprocess
import sys
from dataclasses import replace

import pytest

from frontkit import cli
from frontkit.front import _MAX_WORD, trefoil, unknot
from frontkit.gallery import (
    K_m_front,
    K_mn_cable_front,
    Z_m_handlebody,
    step3_pipeline,
    stein_rep_max,
    torus_front,
)
from frontkit.moves import Move, MoveScript, stabilize
from frontkit.satellite import n_copy
from frontkit.textio import print_script, print_text

UNKNOT_DOC = "front\nL1\nR1\n"


def run(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "frontkit.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_invariants_from_stdin():
    code, out, _ = run(["invariants", "-"], stdin=UNKNOT_DOC)
    assert code == 0
    assert out.strip() == "tb=-1 rot=0 components=1"


def test_invariants_from_file(tmp_path):
    p = tmp_path / "u.front"
    p.write_text(UNKNOT_DOC)
    code, out, _ = run(["invariants", str(p)])
    assert code == 0
    assert "tb=-1" in out


def test_gallery_pipes_into_invariants():
    code, doc, _ = run(["gallery", "cable", "-m", "-1", "-n", "2"])
    assert code == 0
    code, out, _ = run(["invariants", "-"], stdin=doc)
    assert code == 0
    assert "tb=-3" in out


def test_apply_rejects_a_handle_move_with_an_index(tmp_path):
    _closed, script = step3_pipeline(-5, 2)
    h = MoveScript(script.moves[:2]).replay(stein_rep_max(-5, 2))
    pull = script.moves[2]
    assert pull.kind == "PullOff"
    doc = tmp_path / "h.std"
    doc.write_text(print_text(h))
    good = tmp_path / "good.moves"
    good.write_text(print_script(MoveScript((pull,))))
    assert run(["apply", str(doc), str(good)])[0] == 0
    bad = tmp_path / "bad.moves"
    bad.write_text(print_script(MoveScript((replace(pull, index=42, level=42),))))
    code, _, err = run(["apply", str(doc), str(bad)])
    assert code == 1
    assert "index 0 and level 0" in err


def test_cable_command():
    code, doc, _ = run(["cable", "-", "-n", "2", "-q", "-1"], stdin=UNKNOT_DOC)
    assert code == 0
    code, out, _ = run(["invariants", "-"], stdin=doc)
    assert "tb=-3" in out


def test_report_command():
    code, out, _ = run(["report", "-5", "2"])
    assert code == 0
    assert "coefficient = -2" in out
    assert "gap = 1" in out


def test_certify_command():
    code, out, _ = run(["certify", "-", "--genus", "0"], stdin=UNKNOT_DOC)
    assert code == 0
    assert "verdict=Certified" in out


def test_search_command():
    doc = "front\nL1\nL2\nR1\nR1\n"
    code, out, _ = run(["search", "-", "--depth", "2"], stdin=doc)
    assert code == 0
    assert "best_tb=-1" in out


# The stabilized knot, then the (-5, 2) strip with its candidate
# (component 0) or its attaching circle (component 1) stabilized: only
# the circle holds the least tb, so only its zigzag raises it.
_SEARCHES = [
    (lambda: stabilize(stabilize(trefoil(), None, 1), None, -1),
     "best_tb=1 nodes=49\nDestabilize 1 1 down\nDestabilize 1 1 up\n"),
    (lambda: stabilize(stein_rep_max(-5, 2).diagram, 0, -1),
     "best_tb=-4 nodes=20\n\n"),
    (lambda: stabilize(stein_rep_max(-5, 2).diagram, 1, -1),
     "best_tb=-4 nodes=31\nDestabilize 0 3 down\n"),
]


@pytest.mark.parametrize("build, printed", _SEARCHES,
                         ids=["knot", "strip-candidate", "strip-circle"])
def test_search_output_is_pinned(tmp_path, build, printed):
    doc = tmp_path / "d.txt"
    doc.write_text(print_text(build()))
    code, out, err = run(["search", str(doc), "--depth", "3", "--budget", "300"])
    assert (code, err) == (0, "")
    assert out == printed


def test_closure_command():
    code, doc, _ = run(["gallery", "stein-max", "-m", "-5", "-n", "2"])
    assert code == 0
    code, out, _ = run(["closure", "-"], stdin=doc)
    assert code == 0
    assert out.startswith("alpha=")


def test_usage_error_exits_2():
    code, _, _ = run(["bogus-subcommand"])
    assert code == 2
    code, _, _ = run([])
    assert code == 2


def test_domain_error_exits_1():
    code, _, err = run(["invariants", "-"], stdin="front\nL1\n")
    assert code == 1
    assert "error" in err.lower()
    code, _, _ = run(["invariants", "/does/not/exist"])
    assert code == 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts integers of any length",
)
def test_a_level_too_long_to_convert_exits_1():
    code, out, err = run(["invariants", "-"], stdin=f"front\nL{'1' * 5000}\n")
    assert code == 1
    assert out == ""
    assert err == "error: line 2, column 1: integer of 5000 digits is too long\n"


# A size past the bound fails before anything is allocated, for counts
# past sys.maxsize and for counts below it.
@pytest.mark.parametrize(
    "args, stdin, name",
    [
        (["gallery", "K", "-m", "-100000000000000000000"], "", "m"),
        (["gallery", "Z", "-m", "-100000000000000000000"], "", "m"),
        (["cable", "-", "-n", "2", "-q", "99999999999999999999999"],
         print_text(K_m_front(-1)), "q"),
        (["gallery", "stein-max", "-m", "-99999999999999999999", "-n", "2"], "", "m"),
        (["gallery", "step3", "-m", "-99999999999999999999", "-n", "2"], "", "m"),
        (["gallery", "stein-variant", "-m", "-99999999999999999999", "-n", "2"],
         "", "m"),
        (["cable", "-", "-n", "99999999999999999999", "-q", "1"],
         print_text(K_m_front(-1)), "copies"),
        (["gallery", "K", "-m", "-1099511627776"], "", "m"),
        (["gallery", "stein-variant", "-m", "-9223372036854775808",
          "-n", "2305843009213693952"], "", "n"),
        (["gallery", "cable", "-m", "-1", "-n", "99999999999999"], "", "copies"),
        (["cable", "-", "-n", "2", "-q", "99999999999999999"],
         print_text(K_m_front(-1)), "q"),
        (["invariants", "-"], "standard\nhandle H 99999999999\n", "handle 'H'"),
    ],
)
def test_a_repeat_count_past_maxsize_exits_1(args, stdin, name):
    code, out, err = run(args, stdin=stdin)
    assert code == 1
    assert out == ""
    assert err == f"error: {name} asks for a size past the bound {_MAX_WORD}\n"


def test_invariants_names_the_line_of_a_bad_event(tmp_path):
    p = tmp_path / "bad.front"
    p.write_text("front\n# c\nL1\n\nL1\nR5\n")
    code, out, err = run(["invariants", str(p)])
    assert code == 1
    assert out == ""
    assert "line 6, event 2: right cusp at level 5" in err
    assert "Traceback" not in err


def test_a_file_that_is_not_utf8_is_a_domain_error(tmp_path):
    p = tmp_path / "bad.front"
    p.write_bytes(b"front\nL1\xff\nR1\n")
    code, out, err = run(["invariants", str(p)])
    assert code == 1
    assert out == ""
    assert err == f"error: line 2, column 3: {p} is not UTF-8: byte 8 is 0xff\n"
    assert "Traceback" not in err


def test_search_zero_budget_is_a_domain_error():
    doc = "front\nL1\nL2\nR1\nR1\n"
    code, out, err = run(["search", "-", "--budget", "0"], stdin=doc)
    assert code == 1
    assert out == ""
    assert "budget must be positive" in err
    assert "Traceback" not in err


def test_search_negative_depth_is_a_domain_error():
    doc = "front\nL1\nL2\nR1\nR1\n"
    code, out, err = run(["search", "-", "--depth", "-4"], stdin=doc)
    assert code == 1
    assert out == ""
    assert "max_depth must be non-negative" in err
    assert "Traceback" not in err


def test_render_flag():
    code, out, _ = run(["gallery", "unknot", "--render", "ascii"])
    assert code == 0
    assert "(" in out
    code, out, _ = run(["gallery", "unknot", "--render", "svg"])
    assert code == 0
    assert out.startswith("<svg")


def test_apply_command(tmp_path):
    front = tmp_path / "d.front"
    front.write_text("front\nL1\nL2\nX1\nR2\nR1\n")
    script = tmp_path / "s.moves"
    script.write_text("R1a 1 1\n")
    code, out, _ = run(["apply", str(front), str(script)])
    assert code == 0
    assert out == "front\nL1\nR1\n"


def test_apply_names_the_step_that_does_not_match(tmp_path):
    front = tmp_path / "d.front"
    front.write_text("front\nL1\nL2\nX1\nR2\nR1\n")
    script = tmp_path / "s.moves"
    script.write_text("R1a 1 1\nR1a 1 1\n")
    code, out, err = run(["apply", str(front), str(script)])
    assert (code, out) == (1, "")
    assert err == "error: step 2: no R1a@1/1 site\n"
    script.write_text(print_script(MoveScript((Move("StabilizePlus", 1, 1),
                                               Move("R3", 1, 1)))))
    code, out, err = run(["apply", str(front), str(script)])
    assert (code, out) == (1, "")
    assert err == "error: step 2: no R3@1/1 site\n"


# Every subcommand that reads a document, on every kind of document: a
# knot, an empty front, a link, a strip, a handlebody and an empty
# strip.  Each run answers or fails with one "error:" line; none ends
# in a traceback.
_SWEEP_DOCS = {
    "trefoil": lambda: print_text(trefoil()),
    "empty-front": lambda: "front\n",
    "link": lambda: print_text(n_copy(trefoil(), 2)),
    "strip": lambda: print_text(stein_rep_max(-5, 2).diagram),
    "handlebody": lambda: print_text(stein_rep_max(-5, 2)),
    "empty-strip": lambda: "standard\n",
}
_SWEEP_ARGS = {
    "alexander": [],
    "invariants": [],
    "apply": ["SCRIPT"],
    "cable": ["-n", "2", "-q", "-1"],
    "slide": ["--component", "0"],
    "cancel": ["--handle", "H"],
    "closure": [],
    "certify": ["--genus", "1"],
    "search": ["--depth", "2", "--budget", "300"],
}


@pytest.mark.parametrize("doc", sorted(_SWEEP_DOCS))
@pytest.mark.parametrize("command", sorted(_SWEEP_ARGS))
def test_every_subcommand_answers_or_names_its_error(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.txt"
    path.write_text(_SWEEP_DOCS[doc]())
    script = tmp_path / "s.moves"
    script.write_text("StabilizePlus 0 1\n")
    args = [str(script) if a == "SCRIPT" else a for a in _SWEEP_ARGS[command]]
    code = cli.main([command, str(path), *args])
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "args, flag",
    [
        (["unknot", "-m", "5", "-n", "9"], "-m"),
        (["list", "-m", "3"], "-m"),
        (["Z", "-n", "7"], "-n"),
        (["K", "-m", "-2", "-n", "3"], "-n"),
        (["trefoil", "-n", "2"], "-n"),
        (["list", "--render", "svg"], "--render"),
        (["torus", "-m", "-1"], "-m"),
        (["K", "-p", "3"], "-p"),
        (["stein-max", "-q", "5"], "-q"),
    ],
)
def test_gallery_rejects_a_flag_its_family_does_not_take(capsys, args, flag):
    assert cli.main(["gallery", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"gallery {args[0]} takes no {flag}" in captured.err


@pytest.mark.parametrize(
    "args, want",
    [
        (["K"], lambda: K_m_front(-1)),
        (["K", "-m", "-3"], lambda: K_m_front(-3)),
        (["cable"], lambda: K_mn_cable_front(-1, 2)),
        (["Z", "-m", "-2"], lambda: Z_m_handlebody(-2)),
        (["stein-max", "-m", "-5"], lambda: stein_rep_max(-5, 2)),
        (["unknot"], unknot),
        (["torus"], lambda: torus_front(2, 3)),
        (["torus", "-p", "3", "-q", "4"], lambda: torus_front(3, 4)),
        (["torus", "-q", "7"], lambda: torus_front(2, 7)),
    ],
)
def test_gallery_takes_its_flags_with_their_defaults(capsys, args, want):
    assert cli.main(["gallery", *args]) == 0
    assert capsys.readouterr().out == print_text(want())
