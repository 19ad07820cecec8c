"""Smoke tests that run the bundled scripts, and README's worked examples, as
subprocesses."""

import json
import os
import shlex
import subprocess
import sys

import pytest
from conftest import INSTANCES
from qnetcode.cli import main

ROOT = INSTANCES.parent
WORKED_EXAMPLES = (ROOT / "README.md").read_text().split("Try the worked examples:\n\n```\n")[1].split("```")[0]
COMMANDS = [shlex.split(line) for line in WORKED_EXAMPLES.splitlines()]
COMMANDS += [["qnetcode", cmd, "--help"] for cmd in ("verify", "simulate", "enumerate", "cost")] + [["qnetcode", "--help"]]


def run_python(*args, check=True, cwd=ROOT, src_only=False):
    """A fresh Python process in `cwd` (the repository root) that imports this
    checkout: src/ comes first on its path, and with `src_only` nothing else
    from PYTHONPATH follows it."""
    paths = [str(ROOT / "src"), "" if src_only else os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
        check=check,
    )


def run_script(name, *args, check=True):
    return run_python(str(ROOT / "scripts" / name), *args, check=check)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_examples_and_help_run_in_a_fresh_process(argv):
    # the entry point `qnetcode` is `python -m qnetcode.cli` without an install
    assert argv[0] in ("qnetcode", "python3")
    proc = run_python(*(["-m", "qnetcode.cli"] if argv[0] == "qnetcode" else []), *argv[1:], check=False)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr


STANDALONE_CHECK = """
import importlib, pathlib, pkgutil, sys
import qnetcode
assert pathlib.Path(qnetcode.__file__).parent == pathlib.Path(sys.argv[1]), qnetcode.__file__
for module in pkgutil.iter_modules(qnetcode.__path__):
    importlib.import_module(f"qnetcode.{module.name}")
assert not hasattr(qnetcode.rings, "RingElem")
try:
    import oracles
except ImportError:
    pass
else:
    sys.exit(f"the test oracles are importable from {oracles.__file__}")
"""


def test_src_stands_alone(tmp_path):
    # only src/ on the path and a working directory outside the checkout: the
    # package needs nothing from tests/ or the repository root
    alone = dict(cwd=tmp_path, src_only=True, check=False)
    proc = run_python("-c", STANDALONE_CHECK, str(ROOT / "src" / "qnetcode"), **alone)
    assert proc.returncode == 0, proc.stderr
    instance = str(INSTANCES / "butterfly_f2.json")
    for argv in (["verify", instance], ["cost", instance], ["simulate", instance, "--seed", "1"]):
        proc = run_python("-m", "qnetcode.cli", *argv, **alone)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.startswith(f"instance: {instance}\n")


def test_walkthrough_delivers_the_input():
    # the whole printed run is pinned; it ends with fidelity 1
    out = run_script("butterfly_walkthrough.py", "--branch", "101100110").stdout
    assert out == (ROOT / "tests" / "walkthrough_101100110.txt").read_text()


def test_walkthrough_reads_a_comma_branch():
    out = run_script("butterfly_walkthrough.py", "--branch", "1,0,1,1,0,0,1,1,0").stdout
    assert out == (ROOT / "tests" / "walkthrough_101100110.txt").read_text()


@pytest.mark.parametrize(
    "arg, message",
    [
        ("1011001101", "branch must list 9 outcome labels, got 10"),
        ("", "branch must list 9 outcome labels, got 0"),
        ("101100112", "branch labels out of range"),
        ("1x", "branch must be comma-separated labels"),
        ("1,0,1,1,0,0,1,1,x", "branch labels must be integers"),
        ("--amps=a,b", "bad --amps: could not convert string to float: 'a'"),
        ("--amps=1,0,0", "bad --amps: need 4 amplitudes for 2 registers of dimension 2, got 3"),
        ("--amps=0,0,0,0", "bad --amps: state vector must not be all zero"),
    ],
)
def test_walkthrough_rejects_a_bad_branch(arg, message):
    # an argument that names its flag is an --amps value; the rest are branches
    args = [arg] if arg.startswith("--") else ["--branch", arg]
    proc = run_script("butterfly_walkthrough.py", *args, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("samples", ["0", "-1", "x"])
def test_census_rejects_a_bad_sample_count(samples):
    proc = run_script("instance_census.py", f"--samples={samples}", check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --samples" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_census_costs_match_cost_command(capsys):
    out = run_script("instance_census.py", "--samples", "2", "--full-enum", "64").stdout
    rows = [line.split() for line in out.splitlines()[2:]]
    names = sorted(p.name for p in INSTANCES.glob("*.json") if not p.name.startswith("superpos"))
    assert [row[0] for row in rows] == names
    for row in rows:
        assert main(["cost", str(INSTANCES / row[0]), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (int(row[-3]), int(row[-2])) == (doc["broadcast_elements"], doc["bound_elements"])
