"""CLI stdout and exit codes, pinned byte for byte on every bundled instance.

`cli_golden.json` holds, for each command below, its exit code and stdout
when run from the repository root. After a deliberate change of output,
rewrite it with `python tests/test_cli_golden.py` from the repository root.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qnetcode.cli import main
from qnetcode.network import parse_network
from qnetcode.protocol import plan_scheme

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
INSTANCE_NAMES = sorted(
    p.name for p in (ROOT / "instances").glob("*.json") if not p.name.startswith("superpos")
)
# the all-ones branch of each instance: label 1 on every measurement
ALL_ONES = {
    name: "1" * plan_scheme(*parse_network(ROOT / "instances" / name)).measurement_count
    for name in INSTANCE_NAMES
}
COMMANDS = [
    argv
    for name in INSTANCE_NAMES
    for argv in (
        ["verify", f"instances/{name}"],
        ["verify", f"instances/{name}", "--format", "json"],
        ["cost", f"instances/{name}"],
        ["simulate", f"instances/{name}", "--seed", "1"],
        ["simulate", f"instances/{name}", "--branch", ALL_ONES[name]]
        + (["--skip-classical-check"] if "broken" in name else []),
        ["simulate", f"instances/{name}", "--seed", "1", "--copy-skip", "--prune"],
        ["simulate", f"instances/{name}", "--seed", "2", "--alt-phi"],
        ["enumerate", f"instances/{name}", "--copy-skip", "--max-branches", "729"],
    )
]


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert run(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(argv): run(argv) for argv in COMMANDS}, indent=1) + "\n")
