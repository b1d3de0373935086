"""The opt-in line-coverage plugin, run in a subprocess over one small
test file: its report names each statement by file, function and source
text."""

import itertools
import os
import pathlib
import re
import subprocess
import sys

from linecov import read_allowlist

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {path.name for path in (ROOT / "src" / "gradeswitch").glob("*.py")}
SUMMARY = re.compile(r"linecov: (\d+) of (\d+) executable lines never ran; "
                     r"(\d+) statements, (\d+) of them allowlisted$")
KEY = re.compile(r"(\w+\.py):([\w.<>]+): (\S.*)$")


def test_linecov_reports_unreached_statements_by_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "linecov", "-p",
         "no:cacheprovider", "-q", str(ROOT / "tests" / "test_echelon.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    section = run.stdout.split(" linecov ", 1)[1].splitlines()[1:]
    summary = SUMMARY.match(section[0])
    keys = list(itertools.takewhile(KEY.match, section[1:]))
    assert re.match(r"\d+ passed in ", section[len(keys) + 1])
    missed, total, statements, allowed = map(int, summary.groups())
    assert 0 < missed < total and statements == len(keys) + allowed
    assert len(set(keys)) == len(keys)
    for key in keys:
        name, _, statement = KEY.match(key).groups()
        assert name in MODULES and statement == statement.strip()
    allowed = read_allowlist()
    assert all(allowed.values()) and not set(keys) & set(allowed)
    # echelon's tests never reach the torus comparison
    assert "toral.py:compare_switch_to_toral: return out" in keys
