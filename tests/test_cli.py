import json
import re

import pytest

from conftest import INSTANCES
from qnetcode.cli import main
from qnetcode.network import InstanceError, parse_network

BUTTERFLY = str(INSTANCES / "butterfly_f2.json")
BROKEN = str(INSTANCES / "butterfly_f2_broken.json")
SINGLE = str(INSTANCES / "single_edge_f2.json")
SUPERPOS = str(INSTANCES / "superpos_f2_k2.json")


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
        doc = json.loads(open(BUTTERFLY).read())
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
        assert "max_branches" in err


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


def _assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv, state_doc",
        [
            pytest.param(["simulate", SINGLE, "--seed", "1", "--max-dim", "2"], None, id="cap"),
            pytest.param(["simulate", BUTTERFLY, "--seed", "1"], [[[0, 0], 0, 0]], id="zero"),
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1"], [[[0, 0], "x", 0]], id="text-amplitude"
            ),
            pytest.param(
                ["simulate", BUTTERFLY, "--branch", "0,0,0,0,0,0,0,0,x"], None, id="text-label"
            ),
        ],
    )
    def test_runtime_errors_exit_2(self, capsys, tmp_path, argv, state_doc):
        if state_doc is not None:
            path = tmp_path / "state.json"
            path.write_text(json.dumps(state_doc))
            argv = argv + ["--input", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        _assert_one_line_error(err)

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
        ],
    )
    def test_malformed_document_exit_2(self, capsys, tmp_path, mutate, field):
        doc = json.loads(open(BUTTERFLY).read())
        mutate(doc)
        with pytest.raises(InstanceError, match=re.escape(field)):
            parse_network(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert field in err
        _assert_one_line_error(err)
