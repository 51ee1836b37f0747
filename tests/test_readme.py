"""The README's quick start runs as written."""

import os
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme():
    with open(os.path.join(ROOT, "README.md")) as f:
        return f.read()


def test_quick_start_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # A line "expression  # value" promises that value.
    checked = 0
    for line in block.splitlines():
        m = re.match(r"^([^=#]+?)\s+# (-?[0-9]+)$", line)
        if m:
            assert eval(m.group(1), namespace) == int(m.group(2)), line
            checked += 1
    assert checked == 3


def test_quick_start_report_line_runs():
    (line,) = re.findall(r"^\$ frontkit (report .*)$", _readme(), re.M)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "frontkit.cli", *shlex.split(line)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "coefficient = -2" in proc.stdout
