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

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
INSTANCE_NAMES = sorted(
    p.name for p in (ROOT / "instances").glob("*.json") if not p.name.startswith("superpos")
)
COMMANDS = [
    argv
    for name in INSTANCE_NAMES
    for argv in (
        ["verify", f"instances/{name}"],
        ["verify", f"instances/{name}", "--format", "json"],
        ["cost", f"instances/{name}"],
        ["simulate", f"instances/{name}", "--seed", "1"],
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
