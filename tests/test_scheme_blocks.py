"""The scheme-only expressions over stacked transfer blocks, on random schemes.

The transfer map (`transfer_coefficients`), its verdict
(`TransferMap.counterexample`) and the pruned recipients of a plan
(`protocol._plan`) are whole-array expressions over each node's stacked
blocks. Here they are checked against the classical simulation
(`oracles.evaluate_classical`), a brute-force scan of every input tuple,
and the per-(pair, input) `is_zero` rule, on schemes with random
coefficients over the bundled topologies and generated butterflies.

A random scheme is a solution regauged: each real edge's value is scaled by
a random unit u_e, so a node's coefficient from input j to output o becomes
u_o B u_j^-1 and the scheme still solves the instance. Up to three entries
are then redrawn, which mostly makes it fail.
"""

import copy
import json

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import INSTANCES, generated_butterfly
from oracles import elements, evaluate, evaluate_classical, from_int, one, to_labels, zero
from qnetcode.network import parse_network, target_edge, transfer_coefficients
from qnetcode.protocol import plan_scheme
from qnetcode.rings import is_zero, parse_ring_spec

RINGS = ["Z(2)", "Z(4)", "Z(6)", "GF(4)", "Z(2)xZ(3)"]
BRUTE_FORCE_TUPLES = 4096


def _z4_template(doc):
    """A q = 1 document's coefficients as labels of Z(4): 0, 1 and 3 = -1."""
    doc = copy.deepcopy(doc)
    for block in doc["coding"].values():
        for output in block["outputs"]:
            output["coeffs"] = [c[0] if isinstance(c, list) else c for c in output["coeffs"]]
    return doc


# topologies with coefficients in {0, 1, -1}: all but the broken butterfly solve theirs
TEMPLATES = {
    name: _z4_template(json.loads((INSTANCES / f"{name}.json").read_text()))
    for name in ("butterfly_z4", "butterfly_f2_broken", "single_edge_f2")
}
TEMPLATES.update({f"generated k={k}": _z4_template(generated_butterfly(k, "Z(4)", 1)) for k in (2, 3, 4)})


def _units(spec):
    """Each unit of the ring with its inverse."""
    found = {}
    for a in elements(spec):
        for b in elements(spec):
            if a * b == one(spec):
                found[a] = b
    return sorted(found.items(), key=lambda pair: pair[0].to_int())


@st.composite
def random_schemes(draw):
    """A template's scheme over a drawn ring and width, regauged by random
    units, and half the time with 1-3 matrix entries redrawn."""
    name = draw(st.sampled_from(sorted(TEMPLATES)), label="topology")
    doc = copy.deepcopy(TEMPLATES[name])
    spec = parse_ring_spec(draw(st.sampled_from(RINGS), label="ring"))
    q = draw(st.sampled_from([1, 2]), label="q")
    units = _units(spec)
    gauge = {e["id"]: draw(st.sampled_from(units)) for e in doc["edges"]}  # (u_e, u_e^-1)
    scalar = {0: zero(spec), 1: one(spec), 3: -one(spec)}
    for block in doc["coding"].values():
        for output in block["outputs"]:
            left = gauge.get(output["edge"], (one(spec), one(spec)))[0]
            rights = [gauge.get(e, (one(spec), one(spec)))[1] for e in block["inputs"]]
            output["coeffs"] = [
                [[left * scalar[c] * right if r == s else zero(spec) for s in range(q)] for r in range(q)]
                for c, right in zip(output["coeffs"], rights)
            ]
    slots = [
        (row, s) for block in doc["coding"].values() for output in block["outputs"]
        for matrix in output["coeffs"] for row in matrix for s in range(q)
    ]
    for _ in range(0 if draw(st.booleans(), label="solved") else draw(st.integers(1, 3), label="redrawn")):
        row, s = draw(st.sampled_from(slots))
        row[s] = from_int(spec, draw(st.integers(0, spec.cardinality - 1)))
    for block in doc["coding"].values():
        for output in block["outputs"]:
            output["coeffs"] = to_labels(output["coeffs"])
    doc["ring"], doc["q"] = spec.describe(), q
    return doc


def delivered(net, scheme, inputs):
    """Whether each input tuple (one label array per pair) reaches the targets."""
    outputs = evaluate_classical(net, scheme, inputs)
    return np.logical_and.reduce([np.asarray(o) == x for o, x in zip(outputs, inputs)])


def check_transfer_map(net, scheme, rng):
    """The map's label on every edge equals the simulated one, on random inputs."""
    tmap = transfer_coefficients(net, scheme)
    inputs = tuple(rng.integers(0, scheme.register_dim, size=32) for _ in range(net.k))
    _, values = evaluate_classical(net, scheme, inputs, collect_edges=True)
    for edge, value in values.items():
        assert np.array_equal(evaluate(tmap, edge, inputs), value), edge
    return tmap


def per_pair_recipients(net, tmap, node, prune):
    """Reference rule: every pair, or under prune those whose transfer
    coefficient from some input is nonzero, but the node's own target."""
    pairs = range(net.k) if not prune else (
        j for j in range(net.k)
        if net.pairs[j][1] != node and any(not is_zero(tmap.gammas[e][j]) for e in net.node_inputs[node])
    )
    return tuple(j + 1 for j in pairs)


@seed(9081457)
@given(random_schemes())
@settings(max_examples=120, deadline=None)
def test_stacked_expressions_match_the_oracles(doc):
    net, scheme = parse_network(doc)
    tmap = check_transfer_map(net, scheme, np.random.default_rng(0))

    d, k = scheme.register_dim, net.k
    if d**k <= BRUTE_FORCE_TUPLES:
        tuples = np.indices((d,) * k).reshape(k, -1)  # first pair most significant
        failing = np.flatnonzero(~delivered(net, scheme, tuple(tuples)))
        expected = tuple(int(x) for x in tuples[:, failing[0]]) if failing.size else None
        assert tmap.counterexample == expected
    elif tmap.counterexample is not None:
        assert not delivered(net, scheme, tmap.counterexample)

    for prune in (False, True):
        for copy_skip in (False, True):
            plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
            for p in plan.nodes:
                if p.kept is not None:  # a copy-skip node measures and tells nothing
                    assert p.recipients == () and copy_skip
                else:
                    assert p.recipients == per_pair_recipients(net, tmap, p.node, prune)


@seed(9081457)
@given(st.data())
@settings(max_examples=10, deadline=None)
def test_object_arrays_map_random_inputs(data):
    """Over Z(2^31) the blocks are Python integers: random coefficients, checked on random inputs."""
    doc = copy.deepcopy(TEMPLATES[data.draw(st.sampled_from(sorted(TEMPLATES)))])
    doc["ring"] = "Z(2147483648)"
    for block in doc["coding"].values():
        for output in block["outputs"]:
            output["coeffs"] = [data.draw(st.integers(0, 2**31 - 1)) for _ in output["coeffs"]]
    net, scheme = parse_network(doc)
    tmap = check_transfer_map(net, scheme, np.random.default_rng(0))
    assert tmap.gammas[target_edge(1)].dtype == object
