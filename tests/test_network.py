import copy
import itertools
import json
import re
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import element, elements, evaluate, evaluate_classical, from_int, to_labels
from qnetcode.network import (
    CodingScheme,
    Edge,
    InstanceError,
    Network,
    _topological_order,
    parse_entry,
    parse_network,
    source_edge,
    target_edge,
    transfer_coefficients,
    verify_solution,
)
from qnetcode.rings import (
    coefficient_matrix,
    is_identity,
    is_zero,
    linear_map,
    matrix_entries,
    parse_ring_spec,
    register_label,
)

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

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(lambda c: c.update(coeffs=[[[1, "x"], [0, 1]]]), "bad ring entry 'x'", id="bad-entry"),
            pytest.param(lambda c: c.update(coeffs=[[[1, 0]]]), "must be a 2x2 matrix", id="too-few-rows"),
            pytest.param(lambda c: c.update(coeffs=[[[1, 0], [1]]]), "must be a 2x2 matrix", id="short-row"),
        ],
    )
    def test_malformed_q2_coefficients(self, mutate, message):
        with open(INSTANCES / "butterfly_z2_q2.json") as fh:
            doc = json.load(fh)
        mutate(doc["coding"]["s1"]["outputs"][0])
        with pytest.raises(InstanceError, match=re.escape(message)):
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


def test_parsed_coefficients_are_read_only():
    # the scheme keeps the plans built from it, so its coefficients must not change
    net, scheme = load("butterfly_f2.json")
    for rows in scheme.coeffs.values():
        for row in rows:
            assert all(not g.flags.writeable for g in row)
    with pytest.raises(ValueError, match="read-only"):
        scheme.coeffs["n1"][0][0][0, 0] = 0


def test_shared_mappings_are_read_only():
    # parses of one text, and runs of one instance, share these mappings
    net, scheme = load("butterfly_f2.json")
    tmap = transfer_coefficients(net, scheme)
    mappings = [(net.node_inputs, "n1"), (net.node_outputs, "n1"), (scheme.coeffs, "n1")]
    for mapping, key in mappings + [(tmap.gammas, "R1")]:
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
    # built by hand from plain dicts: proxies too, with the parsed objects' keys
    fields = {f: getattr(net, f) for f in ("nodes", "edges", "pairs", "topo_order")}
    other_net = Network(**fields, node_inputs=dict(net.node_inputs), node_outputs=dict(net.node_outputs))
    other = CodingScheme(scheme.ring, scheme.q, dict(scheme.coeffs))
    assert isinstance(other_net.node_inputs, MappingProxyType)
    assert isinstance(other.coeffs, MappingProxyType)
    assert (other_net.key, other.key) == (net.key, scheme.key)


class TestDocumentMemo:
    def test_one_text_is_parsed_once(self, fresh_memo, tmp_path):
        path = INSTANCES / "butterfly_f2.json"
        text = path.read_text()
        moved = tmp_path / "moved.json"
        moved.write_text(text)
        net, scheme = parse_network(path)
        for source in (path, str(path), moved, text):
            again = parse_network(source)
            assert again[0] is net and again[1] is scheme, source
        assert len(fresh_memo) == 1

    def test_malformed_text_raises_on_every_call(self, fresh_memo, tmp_path):
        load("butterfly_f2.json")
        missing = json.dumps({"ring": "Z(2)", "q": 1})
        cyclic = butterfly_doc()
        cyclic["edges"].append({"id": "R8", "from": "t1", "to": "s1"})
        bad_file = tmp_path / "bad.json"
        bad_file.write_text('{"ring": "Z(2)",')
        for source, error in [
            (missing, "missing field 'nodes'"),
            (json.dumps(cyclic), "cycle"),
            (bad_file, "Expecting property name"),
        ]:
            for _ in range(2):
                with pytest.raises(ValueError, match=error):
                    parse_network(source)
            assert len(fresh_memo) == 1

    def test_dicts_are_checked_on_every_call(self, fresh_memo):
        doc = butterfly_doc()
        net, scheme = parse_network(json.dumps(doc))
        from_dict = parse_network(doc)
        assert from_dict[0] is not net and from_dict[1] is not scheme
        assert (from_dict[0].key, from_dict[1].key) == (net.key, scheme.key)
        assert len(fresh_memo) == 1
        del doc["coding"]["n1"]
        with pytest.raises(InstanceError, match="node 'n1' has no coding block"):
            parse_network(doc)


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


class TestVerify:
    @pytest.mark.parametrize("name", VALID_INSTANCES)
    def test_bundled_schemes_are_solutions(self, name):
        net, scheme = load(name)
        assert verify_solution(net, scheme)

    def test_broken_butterfly_rejected_with_counterexample(self):
        net, scheme = load("butterfly_f2_broken.json")
        assert not verify_solution(net, scheme)
        bad = transfer_coefficients(net, scheme).counterexample
        assert bad is not None
        assert evaluate_classical(net, scheme, bad) != bad
        # the first failing tuple in order, found by one scalar run per tuple
        tuples = itertools.product(range(scheme.register_dim), repeat=net.k)
        assert bad == next(x for x in tuples if evaluate_classical(net, scheme, x) != x)


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
                assert evaluate(tmap, edge, inputs) == value

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


def first_failing_tuple(net, scheme):
    """Reference verdict: scan every input tuple, first pair most significant."""
    for inputs in itertools.product(range(scheme.register_dim), repeat=net.k):
        if evaluate_classical(net, scheme, inputs) != inputs:
            return inputs
    return None


def _over_ring(name, ring, labels):
    """A bundled q = 1 instance over another ring, its coefficient labels renamed."""
    doc = json.loads((INSTANCES / name).read_text())
    doc["ring"] = ring
    for block in doc["coding"].values():
        for output in block["outputs"]:
            output["coeffs"] = [labels.get(c, c) for c in output["coeffs"]]
    return doc


ORACLE_TEMPLATES = {
    name: json.loads((INSTANCES / f"{name}.json").read_text())
    for name in ("butterfly_f2", "butterfly_f2_broken", "butterfly_z4", "butterfly_gf4", "butterfly_z2_q2")
}
# -1 is label 5 in Z(6); in Z(2)xZ(3) the one (1, 1) is label 4 and -1 = (1, 2) is label 5
ORACLE_TEMPLATES["butterfly_z6"] = _over_ring("butterfly_z4.json", "Z(6)", {3: 5})
ORACLE_TEMPLATES["butterfly_z2xz3"] = _over_ring("butterfly_z4.json", "Z(2)xZ(3)", {1: 4, 3: 5})


def _coefficient_slots(doc):
    """(container, key) of every coefficient entry: whole 1x1 coefficients for
    q = 1, matrix entries for q > 1."""
    for block in doc["coding"].values():
        for output in block["outputs"]:
            row = output["coeffs"]
            for i in range(len(row)):
                if doc["q"] == 1:
                    yield row, i
                else:
                    yield from ((line, c) for line in row[i] for c in range(len(line)))


@st.composite
def perturbed_schemes(draw):
    """A bundled butterfly scheme with 0-3 coefficient entries redrawn."""
    doc = copy.deepcopy(ORACLE_TEMPLATES[draw(st.sampled_from(sorted(ORACLE_TEMPLATES)))])
    size = parse_ring_spec(doc["ring"]).cardinality
    slots = list(_coefficient_slots(doc))
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(st.integers(0, size - 1))
    return doc


def test_oracle_templates_solve_their_instances():
    verdicts = {name: verify_solution(*parse_network(doc)) for name, doc in ORACLE_TEMPLATES.items()}
    assert verdicts == {name: name != "butterfly_f2_broken" for name in ORACLE_TEMPLATES}


@given(perturbed_schemes())
@settings(max_examples=150, deadline=None)
def test_transfer_verdict_matches_exhaustive_scan(doc):
    net, scheme = parse_network(doc)
    expected = first_failing_tuple(net, scheme)
    assert transfer_coefficients(net, scheme).counterexample == expected
    assert verify_solution(net, scheme) == (expected is None)


@st.composite
def declared_graphs(draw):
    """Nodes declared in a drawn order and edges, parallel ones included,
    running forward in another drawn order; if `cyclic`, also a forward path
    and one edge back from its end to its start."""
    n = draw(st.integers(1, 8))
    nodes = tuple(draw(st.permutations([f"v{i}" for i in range(n)])))
    hidden = draw(st.permutations(nodes))  # a topological order
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    links = [sorted(p) for p in draw(st.lists(ends, max_size=3 * n)) if p[0] != p[1]]
    cyclic = n > 1 and draw(st.booleans())
    if cyclic:
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        links += [(i, i + 1) for i in range(a, b)] + [(b, a)]
    edges = [Edge(f"e{i}", hidden[t], hidden[h]) for i, (t, h) in enumerate(links)]
    return nodes, tuple(draw(st.permutations(edges))), cyclic


def declared_first_order(nodes, edges):
    """Reference rule: place, each time, the ready node declared first; None
    if no node is ready before all are placed."""
    order = []
    while len(order) < len(nodes):
        ready = [
            v for v in nodes
            if v not in order and all(e.tail in order for e in edges if e.head == v)
        ]
        if not ready:
            return None
        order.append(ready[0])
    return tuple(order)


@given(declared_graphs())
@settings(max_examples=300, deadline=None)
def test_topological_order_takes_the_ready_node_declared_first(graph):
    nodes, edges, cyclic = graph
    expected = declared_first_order(nodes, edges)
    assert (expected is None) == cyclic
    if cyclic:
        with pytest.raises(InstanceError, match="^graph has a cycle$"):
            _topological_order(nodes, edges)
    else:
        assert _topological_order(nodes, edges) == expected


def _single_edge(ring, q, coeff):
    """One pair over one edge whose source and target each multiply by `coeff`."""
    doc = json.loads((INSTANCES / "single_edge_f2.json").read_text())
    doc["ring"], doc["q"] = ring, q
    for block in doc["coding"].values():
        block["outputs"][0]["coeffs"] = [coeff]
    return doc


@pytest.mark.parametrize("ring", ["Z(6)", "Z(8)", "Z(2)xZ(3)", "GF(4)xZ(2)"])
class TestEntrySpellings:
    """Labels and coordinate lists, zero divisors included, against the object ring."""

    def test_every_element(self, ring):
        spec = parse_ring_spec(ring)
        units = [element(spec, row) for row in np.eye(len(spec.moduli), dtype=int)]
        for x in elements(spec):
            label, coords = x.to_int(), list(x.coords)
            assert parse_entry(label, spec) == parse_entry(coords, spec) == label
            # row t of the block holds the coordinates of x times unit t
            block = [list((x * u).coords) for u in units]
            for spelling in (label, coords, [[label]], [[coords]]):
                g = parse_network(_single_edge(ring, 1, spelling))[1].coeffs["s"][0][0]
                assert g.tolist() == coefficient_matrix(spec, [[label]]).tolist() == block
                assert matrix_entries(spec, g) == [[label]]

    def test_mixed_matrices(self, ring):
        spec = parse_ring_spec(ring)
        rng = np.random.default_rng(len(ring))
        for _ in range(20):
            B = [[from_int(spec, int(rng.integers(spec.cardinality))) for _ in range(2)] for _ in range(2)]
            spelt = [[e.to_int() if rng.random() < 0.5 else list(e.coords) for e in row] for row in B]
            g = parse_network(_single_edge(ring, 2, spelt))[1].coeffs["s"][0][0]
            assert matrix_entries(spec, g) == to_labels(B)
            v = [from_int(spec, int(rng.integers(spec.cardinality))) for _ in range(2)]
            Bv = [B[i][0] * v[0] + B[i][1] * v[1] for i in range(2)]
            got = linear_map(spec, 2, [[g]], [register_label(spec, to_labels(v))])
            assert got[0] == register_label(spec, to_labels(Bv))
