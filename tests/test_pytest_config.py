"""The repository's pytest configuration, run on a probe file in a
subprocess: a failing Hypothesis test fails alone, and the session goes
on to the next test."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_PROBE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # On a failure, Hypothesis's pytest plugin imports modules that may
    # warn as they load; with every warning an error, such a warning
    # ended the whole session as an INTERNALERROR after the first failure.
    (tmp_path / "test_probe.py").write_text(_PROBE, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
