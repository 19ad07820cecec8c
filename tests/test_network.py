import itertools
import json
from pathlib import Path

import pytest

from qnetcode.network import (
    CapExceededError,
    InstanceError,
    evaluate_classical,
    find_counterexample,
    parse_network,
    source_edge,
    target_edge,
    transfer_coefficients,
    verify_solution,
)
from qnetcode.rings import is_identity, is_zero

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

VALID_INSTANCES = [
    "butterfly_f2.json",
    "butterfly_z3.json",
    "butterfly_z4.json",
    "butterfly_gf4.json",
    "butterfly_z2_q2.json",
    "single_edge_f2.json",
]


def load(name):
    return parse_network(INSTANCES / name)


def butterfly_doc():
    with open(INSTANCES / "butterfly_f2.json") as fh:
        return json.load(fh)


class TestParse:
    def test_butterfly_shape(self):
        net, scheme = load("butterfly_f2.json")
        assert len(net.nodes) == 6
        assert len(net.edges) == 7
        assert net.k == 2
        assert net.max_fan_in == 2
        assert scheme.register_dim == 2

    def test_single_edge(self):
        net, scheme = load("single_edge_f2.json")
        assert len(net.edges) == 1
        assert net.k == 1
        assert net.node_inputs["s"] == (source_edge(1),)
        assert net.node_outputs["t"] == (target_edge(1),)

    def test_cycle_detected(self):
        doc = butterfly_doc()
        doc["edges"].append({"id": "back", "from": "n2", "to": "n1"})
        with pytest.raises(InstanceError, match="cycle"):
            parse_network(doc)

    def test_reversed_edge_reports_scheme_shape_error_at_n1(self):
        doc = butterfly_doc()
        for e in doc["edges"]:
            if e["id"] == "R5":
                e["from"], e["to"] = "n2", "n1"
        with pytest.raises(InstanceError, match="'n1'"):
            parse_network(doc)

    def test_dangling_endpoint(self):
        doc = butterfly_doc()
        doc["edges"][0]["to"] = "ghost"
        with pytest.raises(InstanceError, match="dangling"):
            parse_network(doc)

    def test_duplicate_edge_id(self):
        doc = butterfly_doc()
        doc["edges"].append({"id": "R1", "from": "n1", "to": "n2"})
        with pytest.raises(InstanceError, match="duplicate edge"):
            parse_network(doc)

    def test_self_loop_rejected(self):
        doc = butterfly_doc()
        doc["edges"].append({"id": "loop", "from": "n1", "to": "n1"})
        with pytest.raises(InstanceError, match="self-loop"):
            parse_network(doc)

    def test_unknown_ring(self):
        doc = butterfly_doc()
        doc["ring"] = "F(2)"
        with pytest.raises(Exception):
            parse_network(doc)

    def test_coeff_shape_mismatch(self):
        doc = butterfly_doc()
        doc["coding"]["n1"]["outputs"][0]["coeffs"] = [1]
        with pytest.raises(InstanceError, match="n1"):
            parse_network(doc)

    def test_orphan_internal_node_rejected(self):
        doc = butterfly_doc()
        doc["nodes"].append("lone")
        doc["edges"].append({"id": "R8", "from": "lone", "to": "n2"})
        doc["coding"]["lone"] = {"inputs": [], "outputs": [{"edge": "R8", "coeffs": []}]}
        doc["coding"]["n2"]["inputs"] = ["R5", "R8"]
        doc["coding"]["n2"]["outputs"] = [
            {"edge": "R6", "coeffs": [1, 0]},
            {"edge": "R7", "coeffs": [1, 0]},
        ]
        with pytest.raises(InstanceError, match="not a source"):
            parse_network(doc)

    def test_parallel_edges_allowed(self):
        doc = {
            "ring": "Z(2)",
            "q": 1,
            "nodes": ["s", "t"],
            "edges": [
                {"id": "a", "from": "s", "to": "t"},
                {"id": "b", "from": "s", "to": "t"},
            ],
            "pairs": [{"source": "s", "target": "t"}],
            "coding": {
                "s": {
                    "inputs": ["src:1"],
                    "outputs": [
                        {"edge": "a", "coeffs": [1]},
                        {"edge": "b", "coeffs": [1]},
                    ],
                },
                "t": {
                    "inputs": ["a", "b"],
                    "outputs": [{"edge": "tgt:1", "coeffs": [1, 0]}],
                },
            },
        }
        net, scheme = parse_network(doc)
        assert verify_solution(net, scheme)


class TestEvaluate:
    def test_butterfly_basis_input(self):
        net, scheme = load("butterfly_f2.json")
        outputs, values = evaluate_classical(net, scheme, (1, 0), collect_edges=True)
        assert outputs == (1, 0)
        assert values["R5"] == 1  # bottleneck carries the sum

    def test_linearity_at_zero(self):
        net, scheme = load("butterfly_f2.json")
        assert evaluate_classical(net, scheme, (0, 0)) == (0, 0)

    def test_z3_brute_force_oracle(self):
        net, scheme = load("butterfly_z3.json")

        def oracle(x1, x2):
            # straight-line propagation of the bundled Z(3) scheme
            r1, r2 = x1, x1
            r3, r4 = x2, x2
            r5 = (r2 + r4) % 3
            r6 = r7 = r5
            return ((2 * r3 + r7) % 3, (2 * r1 + r6) % 3)

        for a, b in itertools.product(range(3), repeat=2):
            got = evaluate_classical(net, scheme, (a, b))
            assert got == oracle(a, b) == (a, b)

    def test_order_independence(self):
        net, scheme = load("butterfly_f2.json")
        orders = [
            ("s1", "s2", "n1", "n2", "t1", "t2"),
            ("s2", "s1", "n1", "n2", "t2", "t1"),
            ("s2", "n1", "s1", "n2", "t1", "t2"),
        ]
        # the third order is invalid (n1 needs s1's edge); fix it
        orders[2] = ("s2", "s1", "n1", "n2", "t1", "t2")
        results = set()
        for order in orders:
            _, values = evaluate_classical(net, scheme, (1, 1), order=order, collect_edges=True)
            results.add(tuple(sorted((e, int(v)) for e, v in values.items())))
        assert len(results) == 1

    def test_non_topological_order_rejected(self):
        net, scheme = load("butterfly_f2.json")
        with pytest.raises(InstanceError, match="topological"):
            evaluate_classical(net, scheme, (0, 0), order=("t1", "s1", "s2", "n1", "n2", "t2"))


class TestVerify:
    @pytest.mark.parametrize("name", VALID_INSTANCES)
    def test_bundled_schemes_are_solutions(self, name):
        net, scheme = load(name)
        assert verify_solution(net, scheme)

    def test_broken_butterfly_rejected_with_counterexample(self):
        net, scheme = load("butterfly_f2_broken.json")
        assert not verify_solution(net, scheme)
        bad = find_counterexample(net, scheme)
        assert bad is not None
        assert evaluate_classical(net, scheme, bad) != bad
        # the first failing tuple in order, found by one scalar run per tuple
        tuples = itertools.product(range(scheme.register_dim), repeat=net.k)
        assert bad == next(x for x in tuples if evaluate_classical(net, scheme, x) != x)

    def test_cap(self):
        net, scheme = load("butterfly_gf4.json")
        with pytest.raises(CapExceededError, match="cap"):
            verify_solution(net, scheme, cap=10)


class TestTransfer:
    def test_butterfly_gammas(self):
        net, scheme = load("butterfly_f2.json")
        tmap = transfer_coefficients(net, scheme)
        eye_zero = lambda g: (is_identity(g[0]), is_zero(g[1]))
        assert is_identity(tmap.gammas["R5"][0]) and is_identity(tmap.gammas["R5"][1])
        assert eye_zero(tmap.gammas[source_edge(1)]) == (True, True)
        assert eye_zero(tmap.gammas[target_edge(1)]) == (True, True)
        assert is_zero(tmap.gammas[target_edge(2)][0])
        assert is_identity(tmap.gammas[target_edge(2)][1])

    @pytest.mark.parametrize("name", VALID_INSTANCES + ["butterfly_f2_broken.json"])
    def test_oracle_equivalence_exhaustive(self, name):
        net, scheme = load(name)
        assert scheme.register_dim**net.k <= 4096
        tmap = transfer_coefficients(net, scheme)
        for inputs in itertools.product(range(scheme.register_dim), repeat=net.k):
            _, values = evaluate_classical(net, scheme, inputs, collect_edges=True)
            for edge, value in values.items():
                assert tmap.evaluate(edge, inputs) == value

    @pytest.mark.parametrize("name", VALID_INSTANCES + ["butterfly_f2_broken.json"])
    def test_identity_rows_characterize_solutions(self, name):
        net, scheme = load(name)
        tmap = transfer_coefficients(net, scheme)
        rows_ok = all(
            is_identity(g) if j == i else is_zero(g)
            for i in range(net.k)
            for j, g in enumerate(tmap.gammas[target_edge(i + 1)])
        )
        assert rows_ok == verify_solution(net, scheme)
