import contextlib
import copy
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INSTANCES, butterfly_with_isolated_node
from qnetcode.cli import main
from qnetcode.network import InstanceError, parse_network
from qnetcode.rings import RingError, parse_ring_spec

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


class TestErrorContract:
    # a given file document is written out and its path appended to argv
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
            # coordinate lists are range-checked like labels, not reduced
            pytest.param(
                ["simulate", BUTTERFLY, "--seed", "1", "--input"],
                [[[[[5]], 0], 1.0, 0.0]],
                id="state-coordinate-out-of-range",
            ),
        ],
    )
    def test_runtime_errors_exit_2(self, capsys, tmp_path, argv, file_doc):
        if file_doc is not None:
            path = tmp_path / "doc.json"
            if isinstance(file_doc, bytes):
                path.write_bytes(file_doc)
            else:
                path.write_text(json.dumps(file_doc))
            argv = argv + [str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        _assert_one_line_error(err)

    def test_memory_error_exit_2(self, capsys, monkeypatch):
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

    def test_input_state_checked_against_max_dim(self, capsys):
        code, out, err = run_cli(capsys, "simulate", SINGLE, "--seed", "1", "--max-dim", "1")
        assert (code, out) == (2, "")
        assert "input state needs 2 amplitudes" in err
        _assert_one_line_error(err)

    def test_huge_ring_input_state_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", _huge_ring_copy(tmp_path, SINGLE), "--seed", "1")
        assert (code, out) == (2, "")
        assert f"input state needs {2**40} amplitudes" in err
        _assert_one_line_error(err)

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
    f"GF(4)[1,{LONG_LITERAL},1]",
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
