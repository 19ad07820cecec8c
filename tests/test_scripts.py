"""Smoke tests that run the bundled scripts as subprocesses."""

import json
import os
import subprocess
import sys

import pytest
from conftest import INSTANCES
from qnetcode.cli import main

ROOT = INSTANCES.parent


def run_script(name, *args, check=True):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=check,
    )


def test_walkthrough_delivers_the_input():
    # the whole printed run is pinned; it ends with fidelity 1
    out = run_script("butterfly_walkthrough.py", "--branch", "101100110").stdout
    assert out == (ROOT / "tests" / "walkthrough_101100110.txt").read_text()


@pytest.mark.parametrize(
    "branch, message",
    [
        ("1011001101", "branch must list 9 outcome labels, got 10"),
        ("101100112", "branch labels out of range"),
    ],
)
def test_walkthrough_rejects_a_bad_branch(branch, message):
    proc = run_script("butterfly_walkthrough.py", "--branch", branch, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert message in proc.stderr


def test_census_costs_match_cost_command(capsys):
    out = run_script("instance_census.py", "--samples", "2", "--full-enum", "64").stdout
    rows = [line.split() for line in out.splitlines()[2:]]
    names = sorted(p.name for p in INSTANCES.glob("*.json") if not p.name.startswith("superpos"))
    assert [row[0] for row in rows] == names
    for row in rows:
        assert main(["cost", str(INSTANCES / row[0]), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (int(row[-3]), int(row[-2])) == (doc["broadcast_elements"], doc["bound_elements"])
