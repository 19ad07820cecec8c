import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnetcode.cli
import qnetcode.network
import qnetcode.protocol
import qnetcode.quantum
from conftest import INSTANCES, butterfly_with_isolated_node
from qnetcode.cli import build_parser, main
from qnetcode.network import MEMO_SIZE, InstanceError, parse_network
from qnetcode.protocol import CostReport, PhaseTable
from qnetcode.quantum import _scaled_fourier, _uniform, fourier_matrix, state_from_rows
from qnetcode.rings import RingError, parse_ring_spec

BUTTERFLY = str(INSTANCES / "butterfly_f2.json")
BROKEN = str(INSTANCES / "butterfly_f2_broken.json")
SINGLE = str(INSTANCES / "single_edge_f2.json")
SUPERPOS = str(INSTANCES / "superpos_f2_k2.json")


def _call(argv):
    """(exit code, stdout, stderr) of one in-process call, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_valid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", BUTTERFLY)
        assert code == 0
        assert "solution: VALID" in out
        assert "tgt:1: [I, 0]" in out
        assert "tgt:2: [0, I]" in out

    def test_invalid_with_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "verify", BROKEN)
        assert code == 1
        assert "INVALID" in out
        assert "counterexample" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        doc = json.loads(Path(BUTTERFLY).read_text())
        doc["edges"].append({"id": "back", "from": "t1", "to": "s1"})
        doc["coding"]["t1"]["outputs"].append({"edge": "back", "coeffs": [0, 0]})
        doc["coding"]["s1"]["inputs"] = ["src:1", "back"]
        doc["coding"]["s1"]["outputs"] = [
            {"edge": "R1", "coeffs": [1, 0]},
            {"edge": "R2", "coeffs": [1, 0]},
        ]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "cycle" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no_such_instance.json")
        assert code == 2
        assert "error" in err

    def test_many_pairs_read_from_the_transfer_map(self, capsys, tmp_path):
        # 10 pairs over Z(4) joined by single edges: 4^10 input tuples
        k = 10
        doc = {
            "ring": "Z(4)",
            "q": 1,
            "nodes": [f"{end}{i}" for i in range(1, k + 1) for end in "st"],
            "edges": [{"id": f"R{i}", "from": f"s{i}", "to": f"t{i}"} for i in range(1, k + 1)],
            "pairs": [{"source": f"s{i}", "target": f"t{i}"} for i in range(1, k + 1)],
            "coding": {},
        }
        for i in range(1, k + 1):
            doc["coding"][f"s{i}"] = {"inputs": [f"src:{i}"], "outputs": [{"edge": f"R{i}", "coeffs": [1]}]}
            doc["coding"][f"t{i}"] = {"inputs": [f"R{i}"], "outputs": [{"edge": f"tgt:{i}", "coeffs": [1]}]}
        path = tmp_path / "parallel.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "solution: VALID" in out
        # doubling pair 7 loses every odd input of it; the first is 1 with all else 0
        doc["coding"]["s7"]["outputs"][0]["coeffs"] = [2]
        path.write_text(json.dumps(doc))
        bad = tuple((1,) if i == 7 else (0,) for i in range(1, k + 1))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert f"solution: INVALID (counterexample input {bad})" in out
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out)["counterexample"] == [list(x) for x in bad]

    def test_no_max_check_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", BUTTERFLY, "--max-check", "10"])
        assert exc.value.code == 2
        assert "--max-check" in capsys.readouterr().err


class TestSimulate:
    def test_basis_input_seeded(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", BUTTERFLY, "--seed", "7", "--input", "1,0"
        )
        assert code == 0
        assert "fidelity: 1.000000000000" in out

    def test_byte_identical_reports(self, capsys):
        args = ("simulate", BUTTERFLY, "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_cost_keys_are_the_cost_record_fields(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", BUTTERFLY, "--seed", "7", "--format", "json")
        assert code == 0
        fields = [f.name for f in dataclasses.fields(CostReport)]
        assert list(json.loads(out)["cost"]) == [name for name in fields if name != "per_node"]

    def test_zero_branch_zero_phase_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            BUTTERFLY,
            "--branch",
            "000000000",
            "--input",
            SUPERPOS,
        )
        assert code == 0
        assert "h_1: [0, 0]" in out
        assert "h_2: [0, 0]" in out

    def test_needs_seed_or_branch(self, capsys):
        code, _, err = run_cli(capsys, "simulate", BUTTERFLY)
        assert code == 2
        assert "--seed" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", BUTTERFLY, "--seed", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fidelity"] >= 1 - 1e-9
        assert doc["cost"]["bound_elements"] == 24
        assert doc["cost"]["elements_sent"] == 18
        assert len(doc["branch"]) == 9
        assert json.loads(json.dumps(doc)) == doc

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_forced_empty_branch_replays_a_run_that_measures_nothing(self, capsys, fmt):
        sampled = run_cli(capsys, "simulate", SINGLE, "--copy-skip", "--seed", "1", "--format", fmt)
        forced = run_cli(capsys, "simulate", SINGLE, "--copy-skip", "--branch", "", "--format", fmt)
        assert sampled[0] == 0 and forced == sampled
        if fmt == "json":
            assert json.loads(forced[1])["branch"] == []

    def test_branch_wrong_length(self, capsys):
        code, _, err = run_cli(capsys, "simulate", BUTTERFLY, "--branch", "01")
        assert code == 2
        assert "9" in err

    def test_alt_phi_still_perfect(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", BUTTERFLY, "--seed", "11", "--alt-phi"
        )
        assert code == 0
        assert "fidelity: 1.000000000000" in out

    def test_invalid_scheme_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "simulate", BROKEN, "--seed", "0")
        assert code == 1
        assert "does not solve" in err

    def test_copy_skip_and_prune(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", BUTTERFLY, "--seed", "5", "--copy-skip", "--prune"
        )
        assert code == 0
        assert "fidelity: 1.000000000000" in out


class TestEnumerate:
    def test_butterfly(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", BUTTERFLY, "--input", "1,1")
        assert code == 0
        assert "512 branches, min fidelity 1.000000000000" in out

    def test_single_edge(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", SINGLE)
        assert code == 0
        assert "4 branches, min fidelity 1.000000000000" in out

    def test_broken_min_fidelity_low(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", BROKEN, "--input", "0,1", "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["min_fidelity"] <= 0.9

    def test_cap_exceeded_names_override(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", BUTTERFLY, "--max-branches", "100"
        )
        assert code == 2
        assert err == (
            "error: 512 branches exceed the cap of 100; raise max_branches to force full "
            "enumeration (use --max-branches N)\n"
        )


class TestInputFormats:
    def test_gf4_coordinate_labels(self, capsys, tmp_path):
        # |t, t+1> written as coordinate lists; delivered intact
        path = tmp_path / "state.json"
        triple = [[[[0, 1]], [[1, 1]]], 1.0, 0.0]
        path.write_text(json.dumps([triple]))
        code, out, _ = run_cli(
            capsys,
            "simulate",
            str(INSTANCES / "butterfly_gf4.json"),
            "--branch",
            ",".join(["0"] * 9),
            "--input",
            str(path),
        )
        assert code == 0
        assert "fidelity: 1.000000000000" in out

    @pytest.mark.parametrize(
        "triples",
        [
            [[[0, 0], 1, 0], [[0, 0], 0, 1], [[1, 1], 1, 0]],
            # the same basis state written as an index and as coordinate lists
            [[[1, 0], 1, 0], [[[1], [0]], 1, 0]],
        ],
        ids=["same-label", "same-state"],
    )
    def test_repeated_label_exit_2(self, capsys, tmp_path, triples):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(triples))
        code, out, err = run_cli(capsys, "simulate", BUTTERFLY, "--seed", "1", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: input state lists basis label {triples[1][0]!r} twice\n"

    def test_normalization_warning_is_one_line(self, capsys, tmp_path):
        # rescaled with a one-line warning, not Python's warning format, and the
        # run is that of the normalised state
        reports = []
        for amp in (1.0, 0.5**0.5):
            path = tmp_path / f"state_{amp}.json"
            path.write_text(json.dumps([[[0, 0], amp, 0.0], [[1, 1], amp, 0.0]]))
            reports.append(run_cli(capsys, "simulate", BUTTERFLY, "--seed", "1", "--input", str(path)))
        assert reports[0][2] == "warning: normalizing input state (norm was 1.41421)\n"
        assert reports[0][:2] == reports[1][:2] and reports[0][0] == 0
        assert reports[1][2] == ""

    def test_uniform_default_input(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", BUTTERFLY, "--seed", "2")
        assert code == 0
        assert "fidelity: 1.000000000000" in out


class TestCost:
    def test_butterfly_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "cost", BUTTERFLY)
        assert code == 0
        assert "bound k*M*|V|: 24 elements (24 bits)" in out
        assert "broadcast: 18 elements (18 bits)" in out
        assert "prune: 12 elements (12 bits)" in out
        assert "quantum registers sent over edges: 7" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "cost", BUTTERFLY, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_elements"] == 24
        assert doc["broadcast_elements"] == 18
        assert doc["prune_elements"] <= doc["broadcast_elements"]
        assert doc["quantum_registers_sent"] == 7

    def test_cost_works_on_broken_scheme(self, capsys):
        code, out, _ = run_cli(capsys, "cost", BROKEN)
        assert code == 0
        assert "broadcast: 18 elements" in out

    @pytest.mark.parametrize(
        "modulus, bits", [(3, 2), (5, 3), (2**53 + 1, 54), (2**60 + 1, 61), (2**64 + 1, 65)]
    )
    def test_bits_per_element_are_exact_for_large_rings(self, capsys, tmp_path, modulus, bits):
        # a float log2 rounds 2^53 + 1 down to 2^53, one bit short
        path = tmp_path / "edge.json"
        path.write_bytes(_copy_with(SINGLE, ring=f"Z({modulus})"))
        code, out, _ = run_cli(capsys, "cost", str(path), "--format", "json")
        doc = json.loads(out)
        assert (code, doc["bound_elements"], doc["broadcast_elements"]) == (0, 2, 2)
        assert (doc["bound_bits"], doc["broadcast_bits"], doc["prune_bits"]) == (2 * bits, 2 * bits, bits)


def test_node_without_inputs_announces(capsys, tmp_path):
    # it measures no registers, yet it announces: to every pair, or under
    # prune to none; the cost table lists it
    path = str(tmp_path / "iso.json")
    Path(path).write_text(json.dumps(butterfly_with_isolated_node()))
    _, out, _ = run_cli(capsys, "simulate", path, "--seed", "3")
    assert "\n  iso:  -> pairs [1, 2]\n" in out
    _, out, _ = run_cli(capsys, "simulate", path, "--seed", "3", "--copy-skip", "--prune")
    assert "\n  iso:  -> pairs []\n" in out
    _, out, _ = run_cli(capsys, "cost", path)
    assert "\n  iso: 0 measured x 2 recipients = 0 elements\n" in out


def _assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1


# longer than Python's int() converts (4300 digits by default)
LONG_LITERAL = "9" * 5000
LONG_INT = "<integer literal of 5000 digits>"
# parses, but its square, the butterfly's input dimension, is too long to print
MODULUS_4000 = "9" * 4000


def _long_ints(doc) -> str:
    """JSON text of `doc` with every LONG_INT string written as LONG_LITERAL."""
    return json.dumps(doc).replace(json.dumps(LONG_INT), LONG_LITERAL)


def _copy_with(path, **fields) -> bytes:
    return _long_ints({**json.loads(Path(path).read_text()), **fields}).encode()


def _butterfly_with(**fields) -> bytes:
    return _copy_with(BUTTERFLY, **fields)


def _huge_ring_copy(tmp_path, path):
    """A copy of an instance over Z(2^40), too large for any amplitude table."""
    doc = json.loads(Path(path).read_text())
    doc["ring"] = f"Z({2**40})"
    out = tmp_path / "huge.json"
    out.write_text(json.dumps(doc))
    return str(out)


def _fan_out(n: int) -> dict:
    """One pair over Z(2) whose source copies its input onto n parallel edges."""
    edges = [f"e{i}" for i in range(1, n + 1)]
    return {
        "ring": "Z(2)",
        "q": 1,
        "nodes": ["s", "t"],
        "edges": [{"id": e, "from": "s", "to": "t"} for e in edges],
        "pairs": [{"source": "s", "target": "t"}],
        "coding": {
            "s": {"inputs": ["src:1"], "outputs": [{"edge": e, "coeffs": [1]} for e in edges]},
            "t": {"inputs": edges, "outputs": [{"edge": "tgt:1", "coeffs": [1] + [0] * (n - 1)}]},
        },
    }


def _with_file(argv, file_doc, tmp_path) -> list:
    """`argv`, with the path of `file_doc` written out appended, if one is given."""
    if file_doc is None:
        return argv
    path = tmp_path / "doc.json"
    if isinstance(file_doc, bytes):
        path.write_bytes(file_doc)
    else:
        path.write_text(json.dumps(file_doc))
    return argv + [str(path)]


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv, file_doc",
        [
            pytest.param(["simulate", SINGLE, "--seed", "1", "--max-dim", "2"], None, id="cap"),
            pytest.param(["simulate", BUTTERFLY, "--seed", "1", "--input"], [[[0, 0], 0, 0]], id="zero"),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[0, 0], "x", 0]],
                id="text-amplitude",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--branch", "0,0,0,0,0,0,0,0,x"], None, id="text-label"
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[True, 0], 1.0, 0.0]],
                id="bool-label",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"], b"\xff\xfe[]", id="state-not-utf8"
            ),
            pytest.param(["verify"], b"\xff\xfe{}", id="instance-not-utf8"),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                b"[[[0,0], NaN, 0.0], [[1,1], 1.0, 0.0]]",
                id="nan-amplitude",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--branch", "000000000", "--input"],
                b"[[[0,0], NaN, 0.0], [[1,1], 1.0, 0.0]]",
                id="nan-amplitude-forced",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                b"[[[0,0], Infinity, 0.0]]",
                id="infinite-amplitude",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                b"[[[0,0],1e308,0],[[0,1],1e308,0],[[1,0],1e308,0],[[1,1],1e308,0]]",
                id="norm-overflows",
            ),
            pytest.param(["verify"], _butterfly_with(ring=f"Z({LONG_LITERAL})"), id="long-z-modulus"),
            pytest.param(["cost"], _butterfly_with(ring=f"GF({LONG_LITERAL})"), id="long-gf-order"),
            pytest.param(["verify"], _butterfly_with(q=LONG_INT), id="long-q"),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input", f"{LONG_LITERAL},0"],
                None,
                id="long-input-label",
            ),
            pytest.param(["simulate", BUTTERFLY, "--seed", "-1"], None, id="negative-seed"),
            pytest.param(
                ["simulate", "--seed", "1"],
                _butterfly_with(ring=f"Z({MODULUS_4000})"),
                id="4000-digit-modulus-simulate",
            ),
            pytest.param(
                ["enumerate"], _butterfly_with(ring=f"Z({MODULUS_4000})"), id="4000-digit-modulus-enumerate"
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[[5], 0], 1.0, 0.0]],
                id="entry-out-of-range",
            ),
            # sizes no array can index, refused before anything is allocated
            pytest.param(
                ["simulate", "--seed", "1", "--max-dim", str(2**62)],
                _butterfly_with(ring=f"Z({2**31})"),
                id="unindexable-uniform-state",
            ),
            pytest.param(
                ["simulate", "--seed", "1", "--input", "0,0", "--max-dim", str(2**62)],
                _butterfly_with(ring=f"Z({2**31})"),
                id="unindexable-basis-state",
            ),
            pytest.param(
                ["simulate", "--seed", "1", "--max-dim", "9" * 4100],
                _copy_with(SINGLE, ring=f"Z({MODULUS_4000})"),
                id="unindexable-4000-digit-modulus",
            ),
            pytest.param(
                ["simulate", "--seed", "1", "--max-dim", str(2**70)],
                _fan_out(61),
                id="unindexable-coded-state",
            ),
            # coordinate lists are range-checked like labels, not reduced
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[[[5]], 0], 1.0, 0.0]],
                id="state-coordinate-out-of-range",
            ),
        ],
    )
    def test_runtime_errors_exit_2(self, capsys, tmp_path, argv, file_doc):
        code, out, err = run_cli(capsys, *_with_file(argv, file_doc, tmp_path))
        assert code == 2
        assert out == ""
        _assert_one_line_error(err)

    @pytest.mark.parametrize(
        "argv, file_doc, message",
        [
            pytest.param(
                ["simulate", BUTTERFLY, "--branch", "1,,1,1,1,1,1,1,1,1"],
                None,
                "branch has an empty label: '1,,1,1,1,1,1,1,1,1'",
                id="branch-empty-token",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--branch", "1,1,1,1,1,1,1,1,1,"],
                None,
                "branch has an empty label: '1,1,1,1,1,1,1,1,1,'",
                id="branch-trailing-comma",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--branch", ""],
                None,
                "branch must list 9 outcome labels, got 0",
                id="branch-blank",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input", " 1 , , 0 "],
                None,
                "input literal has an empty label: ' 1 , , 0 '",
                id="input-empty-token",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input", "1,0,"],
                None,
                "input literal has an empty label: '1,0,'",
                id="input-trailing-comma",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input", "1,0,1"],
                None,
                "input literal must give 2 labels, got 3",
                id="input-literal-length",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input", "no_such_state.json"],
                None,
                "input state file not found: no_such_state.json",
                id="input-file-missing",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[5, 0], 1.0, 0.0]],
                "basis label 5 out of range (dimension 2)",
                id="basis-label-out-of-range",
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[0], 1.0, 0.0]],
                "basis label must list 2 registers, got [0]",
                id="basis-label-register-count",
            ),
            # for q = 1 an unnested list is one entry's coordinates
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[[1, 0], 0], 1.0, 0.0]],
                "entry [1, 0] has 2 coordinates, expected 1",
                id="q1-coordinate-list-count",
            ),
            pytest.param(
                ["simulate", "--branch", "000000000"],
                _butterfly_with(ring="Z(11)"),
                "branch must be comma-separated labels (or a digit string for dimensions up to 10)",
                id="digit-branch-above-10",
            ),
            pytest.param(
                ["verify"], _butterfly_with(ring="Z(2x3)"), "cannot parse ring factor 'Z(2'", id="x-in-modulus"
            ),
            pytest.param(
                ["verify"],
                _butterfly_with(ring="GF(4)[1,x,1]"),
                "cannot parse ring factor 'GF(4)[1,'",
                id="x-in-polynomial",
            ),
        ],
    )
    def test_input_errors_name_the_fault(self, capsys, tmp_path, argv, file_doc, message):
        assert run_cli(capsys, *_with_file(argv, file_doc, tmp_path)) == (2, "", f"error: {message}\n")

    def test_q1_coordinate_list_entry_is_accepted(self, capsys, tmp_path):
        # GF(4) has two coordinates: [0, 1] is one entry, the same as [[0, 1]]
        reports = []
        for label in ([[0, 1], [1, 1]], [[[0, 1]], [[1, 1]]]):
            path = tmp_path / "state.json"
            path.write_text(json.dumps([[label, 1.0, 0.0]]))
            gf4 = str(INSTANCES / "butterfly_gf4.json")
            reports.append(run_cli(capsys, "simulate", gf4, "--seed", "1", "--input", str(path)))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0 and "fidelity: 1.000000000000" in reports[0][1]

    def test_input_labels_are_split_on_commas_only(self, capsys):
        # over Z(11), "1 0" is no label: it once ran the basis state |10>
        single = json.dumps({**json.loads(Path(SINGLE).read_text()), "ring": "Z(11)"})
        code, out, err = run_cli(capsys, "simulate", single, "--seed", "1", "--input", "1 0")
        assert (code, out) == (2, "")
        assert err == "error: input literal labels are separated by commas, not spaces: '1 0'\n"
        code, out, _ = run_cli(capsys, "simulate", single, "--seed", "1", "--input", " 10 ")
        assert code == 0 and "fidelity: 1.000000000000" in out
        reports = [
            run_cli(capsys, "simulate", BUTTERFLY, "--seed", "1", "--input", arg)
            for arg in ("1,0", "1, 0", " 1 ,0 ")
        ]
        assert reports[0][0] == 0 and reports[0] == reports[1] == reports[2]

    def test_branch_and_seed_together_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", BUTTERFLY, "--seed", "1", "--branch", "000000000")
        assert (code, out, err) == (2, "", "error: give either a branch or a seed, not both\n")

    def test_memory_error_exit_2(self, capsys, monkeypatch, fresh_memo):
        # an empty memo: the uniform input is built, not taken from an earlier call
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate the array")

        monkeypatch.setattr(np, "full", refuse)
        code, out, err = run_cli(capsys, "simulate", SINGLE, "--seed", "1")
        assert (code, out) == (2, "")
        assert "Unable to allocate" in err
        _assert_one_line_error(err)

    def test_long_literals_are_instance_and_ring_errors(self):
        with pytest.raises(InstanceError, match="longer than"):
            parse_network(_butterfly_with(q=LONG_INT).decode())
        for ring in (f"Z({LONG_LITERAL})", f"GF({LONG_LITERAL})", f"GF(2^{LONG_LITERAL})"):
            with pytest.raises(RingError, match="longer than"):
                parse_ring_spec(ring)

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", BUTTERFLY, "--seed", "1"], "--max-dim"),
            (["enumerate", BUTTERFLY], "--max-dim"),
            (["enumerate", BUTTERFLY], "--max-branches"),
        ],
    )
    def test_caps_below_one_are_refused(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be at least 1, got {value}\n"

    def test_input_state_checked_against_max_dim(self, capsys):
        code, out, err = run_cli(capsys, "simulate", SINGLE, "--seed", "1", "--max-dim", "1")
        assert (code, out) == (2, "")
        assert err == "error: the state would hold 2 amplitudes, above the cap 1 (use --max-dim N)\n"

    def test_node_loop_cap_names_the_flag(self, capsys):
        # the node s codes the 2-amplitude input into one more register
        code, out, err = run_cli(capsys, "simulate", SINGLE, "--seed", "1", "--max-dim", "2")
        assert (code, out) == (2, "")
        assert err == "error: the state would hold 4 amplitudes, above the cap 2 (use --max-dim N)\n"

    def test_huge_ring_input_state_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", _huge_ring_copy(tmp_path, SINGLE), "--seed", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: the state would hold {2**40} amplitudes, above the cap {2**24} "
            "(use --max-dim N)\n"
        )

    def test_huge_ring_cost_and_verify(self, capsys, tmp_path):
        # neither command needs a table of size |R|^q or a pass over the inputs
        huge = _huge_ring_copy(tmp_path, BUTTERFLY)
        counts = {}
        for path in (BUTTERFLY, huge):
            code, out, _ = run_cli(capsys, "cost", path, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            counts[path] = [doc[key] for key in ("bound_elements", "broadcast_elements", "prune_elements")]
            counts[path].append(doc["per_node_broadcast"])
        assert counts[huge] == counts[BUTTERFLY]
        # all-ones coefficients solve the butterfly only in characteristic 2
        code, out, _ = run_cli(capsys, "verify", huge)
        assert code == 1
        assert "solution: INVALID (counterexample input ((0,), (1,)))" in out
        # the Z(4) butterfly with its -1 relabelled for Z(2^40) is a solution there
        doc = json.loads((INSTANCES / "butterfly_z4.json").read_text())
        doc["ring"] = f"Z({2**40})"
        for block in doc["coding"].values():
            for output in block["outputs"]:
                output["coeffs"] = [2**40 - 1 if c == 3 else c for c in output["coeffs"]]
        (tmp_path / "huge_z4.json").write_text(json.dumps(doc))
        rows = {}
        for path in (BUTTERFLY, str(tmp_path / "huge_z4.json")):
            code, out, _ = run_cli(capsys, "verify", path)
            assert code == 0
            rows[path] = [line for line in out.splitlines() if line.startswith("  tgt:")]
        assert list(rows.values()) == [["  tgt:1: [I, 0]", "  tgt:2: [0, I]"]] * 2

    @pytest.mark.parametrize(
        "mutate, field",
        [
            pytest.param(lambda d: d["edges"][0].pop("to"), "'to'", id="edge-without-to"),
            pytest.param(
                lambda d: d["coding"]["s1"]["outputs"][0].pop("coeffs"),
                "'coeffs'",
                id="output-without-coeffs",
            ),
            pytest.param(lambda d: d["pairs"][0].pop("target"), "'target'", id="pair-no-target"),
            pytest.param(lambda d: d["coding"].update(s1=[]), "coding['s1']", id="coding-list"),
            pytest.param(
                lambda d: d["edges"].__setitem__(0, ["R1", "s1", "t2"]), "edges[0]", id="edge-list"
            ),
            pytest.param(lambda d: d.update(ring=2), "'ring'", id="ring-not-string"),
            pytest.param(lambda d: d.update(q=True), "'q'", id="q-bool"),
            pytest.param(lambda d: d.update(nodes="s1"), "'nodes'", id="nodes-string"),
            pytest.param(
                lambda d: d["coding"]["s1"]["outputs"][0].update(coeffs=[[True]]),
                "[True]",
                id="coefficient-bool",
            ),
            pytest.param(
                lambda d: d["coding"]["n1"]["outputs"][0].update(coeffs=[[5], [7]]),
                "entry coordinate 5 out of range for Z(2)",
                id="coordinate-out-of-range",
            ),
            pytest.param(
                lambda d: d["coding"]["s1"]["outputs"][0].update(coeffs=[[1, 0]]),
                "entry [1, 0] has 2 coordinates, expected 1",
                id="coordinate-count",
            ),
            pytest.param(lambda d: d["nodes"].append("s1"), "duplicate node id", id="duplicate-node"),
            pytest.param(
                lambda d: d["edges"].append({"id": "src:3", "from": "n1", "to": "n2"}),
                "edge id 'src:3' collides with virtual edge names",
                id="edge-named-src",
            ),
            pytest.param(
                lambda d: d["edges"].append({"id": "tgt:1", "from": "n1", "to": "n2"}),
                "edge id 'tgt:1' collides with virtual edge names",
                id="edge-named-tgt",
            ),
            pytest.param(
                lambda d: d["pairs"].append({"source": "s1", "target": "ghost"}),
                "pair ('s1', 'ghost') names an unknown node",
                id="pair-unknown-node",
            ),
            pytest.param(
                lambda d: d["coding"].update(ghost={"inputs": [], "outputs": []}),
                "coding block names unknown node 'ghost'",
                id="coding-unknown-node",
            ),
            pytest.param(lambda d: d["coding"].pop("t1"), "node 't1' has no coding block", id="no-coding"),
            pytest.param(
                lambda d: d["coding"]["n2"]["outputs"].pop(),
                "node 'n2': declared outputs ['R6'] do not match its outgoing edges ['R6', 'R7']",
                id="outputs-mismatch",
            ),
        ],
    )
    def test_malformed_document_exit_2(self, capsys, tmp_path, mutate, field):
        doc = json.loads(Path(BUTTERFLY).read_text())
        mutate(doc)
        with pytest.raises(InstanceError, match=re.escape(field)):
            parse_network(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert field in err
        _assert_one_line_error(err)


FUZZ_DOCUMENTS = [
    json.loads(p.read_text()) for p in sorted(INSTANCES.glob("*.json")) if not p.name.startswith("superpos")
]
ODD_VALUES = [None, True, 0, -1, 7, 2**40, LONG_INT, 2.5, "", "x", "tgt:1", [], [0], [[1]], {}]
OUT_OF_RANGE = [-1, 2, 4, 255, 2**40, LONG_INT]
RING_DESCRIPTORS = [
    "Z(0)", "Z(1)", "GF(6)", "GF(2^0)", "GF(4)[1,0,1]", "GF(4)[1,,1]", "Z(2)xZ(", "Z(2)x", "R", "",
    "Z(3)", "GF(8)", "GF(2^20)", f"Z({2**40})", f"Z(2)xZ({2**40})", f"Z({2**70})",
    "GF(2^40)", "GF(3^30)", f"GF({2**40})", f"GF({2**61 - 1})", "GF(2^65)", f"GF({2**70})",
    f"Z({MODULUS_4000})", f"Z({LONG_LITERAL})", f"GF({LONG_LITERAL})", f"GF(2^{LONG_LITERAL})",
    f"GF(4)[1,{LONG_LITERAL},1]", "Z(2x3)", "GF(4)[1,x,1]",
]


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_documents(draw):
    """A bundled instance with 1-2 keys dropped, retyped or duplicated, labels
    out of range or too long to convert, or a bad or huge ring descriptor."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["drop", "retype", "duplicate", "label", "ring"]))
        if action == "ring":
            doc["ring"] = draw(st.sampled_from(RING_DESCRIPTORS))
            continue
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "drop":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif action == "duplicate":
            # a repeated key reads as its last value: some sibling's
            parent[key] = copy.deepcopy(parent[draw(st.sampled_from(sorted(parent)))])
        elif action == "label" and type(parent[key]) is int:
            parent[key] = draw(st.sampled_from(OUT_OF_RANGE))
        else:
            parent[key] = draw(st.sampled_from(ODD_VALUES))
    return doc


@given(
    mutated_documents(),
    st.lists(st.sampled_from(["--prune", "--copy-skip", "--alt-phi"]), unique=True),
    st.sampled_from(
        [[], ["--input", "0,0"], ["--input", "1,5"], ["--input", "0"], ["--input", f"{LONG_LITERAL},0"]]
    ),
    st.sampled_from(["text", "json"]),
)
@settings(max_examples=60, deadline=None)
def test_mutated_documents_keep_the_exit_contract(tmp_path_factory, doc, flags, state, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(_long_ints(doc))
    runs = [["simulate", "--seed", "1"] + state, ["enumerate", "--max-branches", "64"] + state]
    commands = [["verify"], ["cost"]] + [argv + flags + ["--max-dim", "512"] for argv in runs]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), "--format", fmt] + argv[1:])
        assert code in (0, 1, 2), argv
        if code == 2:
            _assert_one_line_error(err.getvalue())


def test_in_process_runs_keep_the_ring_caches_bounded(capsys, fresh_memo):
    # each ring measured leaves a d x d matrix, a parsed document, a transfer
    # map and a plan behind;
    # more rings than the bounds evict
    caches = (fourier_matrix, _scaled_fourier, _uniform)
    for cache in caches:
        cache.cache_clear()
    doc = json.loads(Path(SINGLE).read_text())
    rings = range(2, 4 + MEMO_SIZE // 2)
    for m in rings:
        doc["ring"] = f"Z({m})"
        assert main(["simulate", json.dumps(doc), "--seed", "1"]) == 0
    capsys.readouterr()
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == len(rings) and info.currsize <= info.maxsize == 16
    assert 2 * len(rings) > MEMO_SIZE == len(fresh_memo)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", BUTTERFLY, "--seed", "1"],
        ["simulate", BUTTERFLY, "--seed", "1", "--input", "1,0"],
        ["enumerate", BUTTERFLY],
        ["enumerate", BUTTERFLY, "--input", SUPERPOS],
    ],
    ids=["simulate", "simulate-literal", "enumerate", "enumerate-file"],
)
def test_a_run_checks_its_input_rows_once(capsys, monkeypatch, fresh_memo, argv):
    # the CLI builds the input with `state_from_rows`, and the run takes it as it is;
    # an empty memo, so that a uniform input is built rather than taken from it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return state_from_rows(*args, **kwargs)

    for module in (qnetcode.quantum, qnetcode.cli, qnetcode.protocol):  # each name it could be called by
        monkeypatch.setattr(module, "state_from_rows", counted, raising=False)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_an_instance_rewritten_in_place_is_parsed_anew(capsys, tmp_path):
    path = tmp_path / "instance.json"
    for source, want in [(BUTTERFLY, 0), (BROKEN, 1), (BUTTERFLY, 0)]:
        path.write_bytes(Path(source).read_bytes())
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == want and ("INVALID" in out) == bool(want)


def test_a_basis_label_past_int64_exits_2(capsys):
    # the input's rows are checked before its d^k is counted against the cap
    doc = json.loads(Path(SINGLE).read_text())
    doc["ring"] = f"Z({2**70})"
    code, out, err = run_cli(capsys, "simulate", json.dumps(doc), "--seed", "1", "--input", str(2**65))
    assert (code, out) == (2, "")
    assert err == "error: basis label 36893488147419103232 is too large for the int64 support rows\n"


def test_files_that_are_not_utf8_name_the_byte(capsys, tmp_path):
    # instances and input-state files share one reader, and one message
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"ring": "\xe9"}')
    want = f"error: {path} is not UTF-8 text (invalid continuation byte at byte 10)\n"
    for argv in (["verify", str(path)], ["simulate", BUTTERFLY, "--seed", "1", "--input", str(path)]):
        assert run_cli(capsys, *argv) == (2, "", want)


def _cli_env(**overrides):
    root = INSTANCES.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **overrides)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_141_without_a_message(unbuffered):
    # the reader is gone before the report is written, buffered or not
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qnetcode.cli", "cost", BUTTERFLY],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
            env=_cli_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_reused_parser_leaks_nothing_between_calls():
    # each in-process call prints and exits as the same argv in a fresh process
    sequence = [
        ["simulate", BUTTERFLY, "--seed", "7", "--prune", "--copy-skip", "--alt-phi", "--format", "json"],
        ["simulate", BUTTERFLY, "--seed", "7"],
        ["enumerate", BUTTERFLY, "--max-branches", "64"],
        ["enumerate", SINGLE],
        ["verify", BUTTERFLY, "--max-check", "10"],
        ["verify", BUTTERFLY],
    ]
    root = INSTANCES.parent
    env = _cli_env()
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "qnetcode.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        for argv in sequence
    ]
    parser = build_parser()
    for argv, proc in zip(sequence, fresh):
        code, out, err = _call(argv)
        want_out, want_err = proc.communicate(timeout=300)
        assert (code, out) == (proc.returncode, want_out), argv
        # a usage message is wrapped to the terminal width; its last line is not
        assert err.splitlines()[-1:] == want_err.splitlines()[-1:], argv
    assert [proc.returncode for proc in fresh] == [0, 0, 2, 0, 2, 0]
    assert build_parser() is parser


COMMANDS = "'verify', 'simulate', 'enumerate', 'cost'"


@pytest.mark.parametrize(
    "argv, whole, last_err",
    [
        (["verify", BUTTERFLY], False, None),
        (["verify", BROKEN, "--format", "json"], False, None),
        (["simulate", BUTTERFLY, "--seed", "1", "--prune", "--alt-phi"], False, None),
        (["simulate", BUTTERFLY, "--branch", "0" * 9, "--input", "1,0"], False, None),
        (["enumerate", SINGLE, "--copy-skip"], False, None),
        (["cost", BUTTERFLY, "--format", "json"], False, None),
        (["simulate", BUTTERFLY, "--seed", "1", "--form", "json"], False, None),
        (["simulate", "-h"], False, None),
        (["simulate"], False, "qnetcode simulate: error: the following arguments are required: instance"),
        (
            ["verify", BUTTERFLY, "--format", "xml"],
            False,
            "qnetcode verify: error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')",
        ),
        (
            ["simulate", BUTTERFLY, "--seed", "1", "--bogus"],
            True,
            "qnetcode: error: unrecognized arguments: --bogus",
        ),
        (
            ["simulat", BUTTERFLY],
            True,
            f"qnetcode: error: argument command: invalid choice: 'simulat' (choose from {COMMANDS})",
        ),
        ([], True, "qnetcode: error: the following arguments are required: command"),
        (
            ["--format", "json", "verify", BUTTERFLY],
            True,
            f"qnetcode: error: argument command: invalid choice: 'json' (choose from {COMMANDS})",
        ),
        (
            ["--form", "text", "verify", BUTTERFLY],
            True,
            f"qnetcode: error: argument command: invalid choice: 'text' (choose from {COMMANDS})",
        ),
    ],
)
def test_a_subcommand_parser_answers_as_the_whole_parser(monkeypatch, argv, whole, last_err):
    # the whole parser parses only what it must report on, and says what it always said
    parser = build_parser()
    wholes = []
    monkeypatch.setattr(parser, "parse_args", lambda *a: wholes.append(a) or type(parser).parse_args(parser, *a))
    got = _call(argv)
    assert len(wholes) == whole
    with monkeypatch.context() as m:
        m.setattr(qnetcode.cli, "_parsers", lambda: (parser, {}))  # every call through the whole parser
        want = _call(argv)
    assert got == want
    code, out, err = got
    if last_err is None:
        assert code in (0, 1) and err == ""
        assert out.startswith("usage: qnetcode simulate") if "-h" in argv else out
    else:
        assert (code, out, err.splitlines()[-1]) == (2, "", last_err)
        assert err.startswith("usage: qnetcode")


def test_the_console_script_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qnetcode", "simulate", BUTTERFLY, "--seed", "1", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "qnetcode: error: unrecognized arguments: --bogus"
    monkeypatch.setattr(sys, "argv", ["qnetcode", "cost", BUTTERFLY])
    assert main() == 0 and capsys.readouterr().out.startswith(f"instance: {BUTTERFLY}")


def test_the_cap_holds_before_the_memoised_uniform_input(capsys, fresh_memo):
    # the uniform input is kept per ring, twisted phi included, and a smaller
    # cap still refuses it
    z3 = str(INSTANCES / "butterfly_z3.json")
    assert run_cli(capsys, "simulate", z3, "--seed", "1")[0] == 0
    assert run_cli(capsys, "simulate", z3, "--seed", "2", "--alt-phi")[0] == 0
    assert run_cli(capsys, "simulate", z3, "--seed", "3")[0] == 0
    uniform = [key for key in fresh_memo if key[0] == "uniform input"]
    assert len(uniform) == 2 and uniform[0][1] != uniform[1][1]
    code, out, err = run_cli(capsys, "simulate", z3, "--seed", "1", "--max-dim", "8")
    assert (code, out, err) == (2, "", "error: the state would hold 9 amplitudes, above the cap 8 (use --max-dim N)\n")


@pytest.mark.parametrize("ring", ["Z(12)", "GF(4)", f"Z({2**70})"])
def test_phase_table_strings_are_the_fractions(ring):
    spec = parse_ring_spec(ring)
    big = spec.exponent
    row = [0, 1, big // 2, big // 3, big - 1, 2 % big, (big * 5) // 6]
    table = PhaseTable(spec, 1, np.array([row], dtype=object if big > 2**62 else np.int64))
    assert table.fractions == (tuple(str(Fraction(n, big)) for n in row),)


def _count_init_state(monkeypatch) -> list:
    """The argument lists of every `init_state` call the CLI makes."""
    calls = []
    build = qnetcode.cli.init_state
    monkeypatch.setattr(qnetcode.cli, "init_state", lambda *a: calls.append(a) or build(*a))
    return calls


def test_a_refused_simulate_builds_no_input(capsys, tmp_path, monkeypatch, fresh_memo):
    # butterfly_f2's coefficients do not solve the butterfly over Z(1024), and
    # its default input would be 2^20 rows
    doc = json.loads(Path(BUTTERFLY).read_text())
    doc["ring"] = "Z(1024)"
    path = tmp_path / "butterfly_z1024.json"
    path.write_text(json.dumps(doc))
    calls = _count_init_state(monkeypatch)
    code, out, err = run_cli(capsys, "simulate", str(path), "--seed", "1")
    assert (code, out) == (1, "")
    assert err == (
        "error: the classical scheme does not solve the instance; "
        "fix it or skip the check to inspect the imperfect run\n"
    )
    assert calls == []
    assert not [key for key in fresh_memo if key[0] == "uniform input"]


def test_a_refused_enumerate_builds_no_input(capsys, monkeypatch, fresh_memo):
    calls = _count_init_state(monkeypatch)
    z4 = str(INSTANCES / "butterfly_z4.json")
    code, out, err = run_cli(capsys, "enumerate", z4, "--copy-skip", "--max-branches", "729")
    assert (code, out) == (2, "")
    assert err == (
        "error: 4096 branches exceed the cap of 729; raise max_branches to force full enumeration "
        "(use --max-branches N)\n"
    )
    assert calls == []



def test_a_second_verify_names_no_matrix(capsys, tmp_path, monkeypatch, fresh_memo):
    # butterfly_z3 with t1's coefficients doubled: tgt:1 receives 2 x1, a
    # matrix that is neither the identity nor zero
    doc = json.loads((INSTANCES / "butterfly_z3.json").read_text())
    for output in doc["coding"]["t1"]["outputs"]:
        output["coeffs"] = [2 * c % 3 for c in output["coeffs"]]
    path = tmp_path / "butterfly_z3_doubled.json"
    path.write_text(json.dumps(doc))
    calls = []
    entries = qnetcode.network.matrix_entries
    monkeypatch.setattr(qnetcode.network, "matrix_entries", lambda *a: calls.append(a) or entries(*a))
    first = run_cli(capsys, "verify", str(path))
    assert first[0] == 1 and "  tgt:1: [[[2]], 0]" in first[1] and len(calls) == 1
    for fmt in ("text", "json"):
        assert run_cli(capsys, "verify", str(path), "--format", fmt)[0] == 1
    assert len(calls) == 1


def test_the_memo_keeps_uniform_inputs_up_to_the_default_cap(capsys, monkeypatch, fresh_memo):
    # uniform inputs of 9, 16 and 16 rows against a budget of 40: the least
    # recently used one goes, and the parsed documents and plans stay
    monkeypatch.setattr(qnetcode.network, "MAX_STATE_ENTRIES", 40)
    names = {n: str(INSTANCES / f"butterfly_{n}.json") for n in ("z3", "z4", "gf4")}
    ring = {str(parse_network(path)[1].ring): name for name, path in names.items()}
    held = lambda: [ring.get(str(key[1])) for key in fresh_memo if key[0] == "uniform input"]
    for name in ("z3", "z4", "gf4"):
        assert run_cli(capsys, "simulate", names[name], "--seed", "1")[0] == 0
    assert held() == ["z4", "gf4"]
    assert run_cli(capsys, "enumerate", names["z4"], "--copy-skip", "--max-branches", "4096")[0] == 0
    assert run_cli(capsys, "simulate", names["z3"], "--seed", "1")[0] == 0
    assert held() == ["z4", "z3"]
    assert sum(key[0] == "document" for key in fresh_memo) == 3
    monkeypatch.setattr(qnetcode.network, "MAX_STATE_ENTRIES", 8)
    assert run_cli(capsys, "simulate", names["z3"], "--seed", "2", "--alt-phi")[0] == 0
    assert held() == []  # nine rows are above the budget: built, used, not kept
