"""Multi-pair network instances and classical linear coding schemes.

An instance is a JSON document:

    {
      "ring":  "<ring descriptor>",
      "q":     <message width, a positive integer>,
      "nodes": ["s1", "n1", ...],
      "edges": [{"id": "R1", "from": "s1", "to": "n1"}, ...],
      "pairs": [{"source": "s1", "target": "t1"}, ...],
      "coding": {
        "<node>": {
          "inputs":  [<edge id>, ...],          ordered, incl. virtual src:i
          "outputs": [{"edge": <edge id>,       incl. virtual tgt:i
                       "coeffs": [<matrix>, ...]}, ...]
        }, ...
      }
    }

Pair i (1-based) contributes a virtual incoming edge "src:i" at its source
and a virtual outgoing edge "tgt:i" at its target; coding blocks must list
them alongside the real edges. Each output carries one coefficient matrix
per declared input, so the value sent on an output edge is the sum over
inputs j of coeffs[j] @ input_j. A matrix is written as a q x q array of
ring-element entries; an entry is either a small-integer label or a
coordinate list. For q = 1 a bare entry may stand for the whole matrix.

The declared input order is significant: it fixes the argument order of the
node map and, downstream, the order in which registers are measured.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from .rings import (
    RingElem,
    RingMatrix,
    RingSpec,
    RingVector,
    basis_vectors,
    identity_matrix,
    mat_add,
    mat_mul,
    mat_vec,
    matrix_from_rows,
    parse_ring_spec,
    vector_zero,
    zero_matrix,
)

VERIFY_CAP_DEFAULT = 65536


class InstanceError(ValueError):
    """The instance document is malformed or inconsistent."""


class CapExceededError(RuntimeError):
    """An exhaustive check would exceed its configured cap."""


def source_edge(pair_index: int) -> str:
    """Virtual incoming edge id for pair `pair_index` (1-based)."""
    return f"src:{pair_index}"


def target_edge(pair_index: int) -> str:
    """Virtual outgoing edge id for pair `pair_index` (1-based)."""
    return f"tgt:{pair_index}"


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True, eq=False)
class Network:
    """A directed acyclic graph with k source-target pairs.

    `node_inputs` / `node_outputs` hold the per-node ordered edge lists,
    virtual edges included, exactly as declared by the coding scheme.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    pairs: tuple[tuple[str, str], ...]
    node_inputs: dict[str, tuple[str, ...]] = field(repr=False)
    node_outputs: dict[str, tuple[str, ...]] = field(repr=False)
    topo_order: tuple[str, ...] = field(repr=False)

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def max_fan_in(self) -> int:
        if not self.nodes:
            return 0
        return max(len(self.node_inputs[v]) for v in self.nodes)

    def all_edge_ids(self) -> tuple[str, ...]:
        real = tuple(e.id for e in self.edges)
        virtual_in = tuple(source_edge(i + 1) for i in range(self.k))
        virtual_out = tuple(target_edge(i + 1) for i in range(self.k))
        return real + virtual_in + virtual_out


@dataclass(frozen=True, eq=False)
class CodingScheme:
    """Per-node coefficient arrays: coeffs[node][output_idx][input_idx]."""

    ring: RingSpec
    q: int
    coeffs: dict[str, tuple[tuple[RingMatrix, ...], ...]] = field(repr=False)

    @property
    def register_dim(self) -> int:
        return self.ring.cardinality**self.q

    def node_map(self, node: str):
        """The node's function on input tuples, one output value per out edge."""
        rows = self.coeffs[node]

        def apply(inputs: tuple[RingVector, ...]) -> tuple[RingVector, ...]:
            out = []
            for row in rows:
                acc = vector_zero(self.ring, self.q)
                for B, y in zip(row, inputs):
                    acc = acc + mat_vec(B, y)
                out.append(acc)
            return tuple(out)

        return apply


@dataclass(frozen=True, eq=False)
class TransferMap:
    """Edge contents as left-linear combinations of the k pair inputs.

    gammas[edge][j] is the matrix applied to input j (0-based pair index).
    """

    ring: RingSpec
    q: int
    gammas: dict[str, tuple[RingMatrix, ...]] = field(repr=False)

    def evaluate(self, edge: str, inputs: tuple[RingVector, ...]) -> RingVector:
        acc = vector_zero(self.ring, self.q)
        for B, x in zip(self.gammas[edge], inputs):
            acc = acc + mat_vec(B, x)
        return acc


# ---------------------------------------------------------------------------
# parsing and validation


def _parse_entry(obj, spec: RingSpec):
    if isinstance(obj, bool):
        raise InstanceError(f"bad ring entry {obj!r}")
    if isinstance(obj, int):
        if not 0 <= obj < spec.cardinality:
            raise InstanceError(f"entry label {obj} out of range for {spec}")
        return spec.from_int(obj)
    if isinstance(obj, list) and all(isinstance(c, int) for c in obj):
        if len(obj) != len(spec.moduli):
            raise InstanceError(
                f"entry {obj} has {len(obj)} coordinates, expected {len(spec.moduli)}"
            )
        return spec.element(obj)
    raise InstanceError(f"bad ring entry {obj!r}")


def _parse_matrix(obj, spec: RingSpec, q: int) -> RingMatrix:
    def looks_like_entry(o):
        return isinstance(o, int) or (
            isinstance(o, list) and all(isinstance(c, int) for c in o)
        )

    if q == 1:
        if isinstance(obj, list) and len(obj) == 1 and isinstance(obj[0], list) and len(obj[0]) == 1:
            obj = obj[0][0]  # accept the explicit 1x1 nesting
        if looks_like_entry(obj):
            return matrix_from_rows(spec, [[_parse_entry(obj, spec)]])
        raise InstanceError(f"bad 1x1 coefficient {obj!r}")

    if not (isinstance(obj, list) and len(obj) == q):
        raise InstanceError(f"coefficient must be a {q}x{q} matrix, got {obj!r}")
    rows = []
    for row in obj:
        if not (isinstance(row, list) and len(row) == q):
            raise InstanceError(f"coefficient must be a {q}x{q} matrix, got {obj!r}")
        rows.append([_parse_entry(e, spec) for e in row])
    return matrix_from_rows(spec, rows)


def _topological_order(nodes: tuple[str, ...], edges: tuple[Edge, ...]) -> tuple[str, ...]:
    order_index = {v: i for i, v in enumerate(nodes)}
    indegree = {v: 0 for v in nodes}
    successors: dict[str, list[str]] = {v: [] for v in nodes}
    for e in edges:
        indegree[e.head] += 1
        successors[e.tail].append(e.head)
    ready = sorted((v for v in nodes if indegree[v] == 0), key=order_index.get)
    out: list[str] = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        changed = False
        for w in successors[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort(key=order_index.get)
    if len(out) != len(nodes):
        raise InstanceError("graph has a cycle")
    return tuple(out)


def _need(ok: bool, where: str, what: str, obj) -> None:
    if not ok:
        got = f"a {type(obj).__name__}" if isinstance(obj, (list, dict)) else repr(obj)
        raise InstanceError(f"{where} must be {what}, got {got}")


def _need_fields(obj, where: str, keys) -> None:
    _need(isinstance(obj, dict), where, "an object", obj)
    for key in keys:
        if key not in obj:
            raise InstanceError(f"{where}: missing field {key!r}")


def _check_document(doc) -> None:
    """Check the document's shape, so that parsing can index it freely."""
    _need_fields(doc, "instance document", ("ring", "q", "nodes", "edges", "pairs", "coding"))
    _need(isinstance(doc["ring"], str), "field 'ring'", "a string", doc["ring"])
    _need(type(doc["q"]) is int and doc["q"] >= 1, "field 'q'", "a positive integer", doc["q"])
    for key in ("nodes", "edges", "pairs"):
        _need(isinstance(doc[key], list), f"field {key!r}", "a list", doc[key])
    for i, edge in enumerate(doc["edges"]):
        _need_fields(edge, f"edges[{i}]", ("id", "from", "to"))
    for i, pair in enumerate(doc["pairs"]):
        _need_fields(pair, f"pairs[{i}]", ("source", "target"))
    _need_fields(doc["coding"], "field 'coding'", ())
    for v, block in doc["coding"].items():
        where = f"coding[{v!r}]"
        _need_fields(block, where, ())
        for key in ("inputs", "outputs"):
            _need(isinstance(block.get(key, []), list), f"{where}.{key}", "a list", block.get(key))
        for j, out in enumerate(block.get("outputs", [])):
            _need_fields(out, f"{where}.outputs[{j}]", ("edge", "coeffs"))


def parse_network(source) -> tuple[Network, CodingScheme]:
    """Load and validate an instance from a path, JSON string, or dict."""
    if isinstance(source, (str, Path)) and not (
        isinstance(source, str) and source.lstrip().startswith("{")
    ):
        with open(source) as fh:
            doc = json.load(fh)
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    _check_document(doc)

    ring = parse_ring_spec(doc["ring"])
    q = doc["q"]

    nodes = tuple(str(v) for v in doc["nodes"])
    if len(set(nodes)) != len(nodes):
        raise InstanceError("duplicate node id")

    edges = []
    seen_edges = set()
    for item in doc["edges"]:
        eid, tail, head = str(item["id"]), str(item["from"]), str(item["to"])
        if eid in seen_edges:
            raise InstanceError(f"duplicate edge id {eid!r}")
        if eid.startswith(("src:", "tgt:")):
            raise InstanceError(f"edge id {eid!r} collides with virtual edge names")
        if tail not in nodes or head not in nodes:
            raise InstanceError(f"edge {eid!r} has a dangling endpoint")
        if tail == head:
            raise InstanceError(f"edge {eid!r} is a self-loop")
        seen_edges.add(eid)
        edges.append(Edge(eid, tail, head))
    edges = tuple(edges)

    pairs = []
    for item in doc["pairs"]:
        s, t = str(item["source"]), str(item["target"])
        if s not in nodes or t not in nodes:
            raise InstanceError(f"pair ({s!r}, {t!r}) names an unknown node")
        pairs.append((s, t))
    pairs = tuple(pairs)

    topo = _topological_order(nodes, edges)

    incoming: dict[str, set[str]] = {v: set() for v in nodes}
    outgoing: dict[str, set[str]] = {v: set() for v in nodes}
    for e in edges:
        incoming[e.head].add(e.id)
        outgoing[e.tail].add(e.id)
    for i, (s, t) in enumerate(pairs):
        incoming[s].add(source_edge(i + 1))
        outgoing[t].add(target_edge(i + 1))

    coding_doc = doc["coding"]
    unknown = set(coding_doc) - set(nodes)
    if unknown:
        raise InstanceError(f"coding block names unknown node {sorted(unknown)[0]!r}")

    node_inputs: dict[str, tuple[str, ...]] = {}
    node_outputs: dict[str, tuple[str, ...]] = {}
    coeffs: dict[str, tuple[tuple[RingMatrix, ...], ...]] = {}
    for v in nodes:
        if v not in coding_doc:
            raise InstanceError(f"node {v!r} has no coding block")
        block = coding_doc[v]
        ins = tuple(str(e) for e in block.get("inputs", ()))
        if set(ins) != incoming[v] or len(ins) != len(incoming[v]):
            raise InstanceError(
                f"node {v!r}: declared inputs {list(ins)} do not match its "
                f"incoming edges {sorted(incoming[v])}"
            )
        outs_doc = block.get("outputs", ())
        outs = tuple(str(o["edge"]) for o in outs_doc)
        if set(outs) != outgoing[v] or len(outs) != len(outgoing[v]):
            raise InstanceError(
                f"node {v!r}: declared outputs {list(outs)} do not match its "
                f"outgoing edges {sorted(outgoing[v])}"
            )
        if not ins and outs:
            raise InstanceError(f"node {v!r} has no inputs and is not a source")
        rows = []
        for o in outs_doc:
            row_doc = o["coeffs"]
            if not isinstance(row_doc, list) or len(row_doc) != len(ins):
                raise InstanceError(
                    f"node {v!r}: output {o['edge']!r} needs {len(ins)} "
                    f"coefficient matrices, got {row_doc!r}"
                )
            rows.append(tuple(_parse_matrix(m, ring, q) for m in row_doc))
        node_inputs[v] = ins
        node_outputs[v] = outs
        coeffs[v] = tuple(rows)

    net = Network(
        nodes=nodes,
        edges=edges,
        pairs=pairs,
        node_inputs=node_inputs,
        node_outputs=node_outputs,
        topo_order=topo,
    )
    scheme = CodingScheme(ring=ring, q=q, coeffs=coeffs)
    return net, scheme


def _check_order(net: Network, order) -> tuple[str, ...]:
    if order is None:
        return net.topo_order
    order = tuple(order)
    if sorted(order) != sorted(net.nodes):
        raise InstanceError("node order must list every node exactly once")
    position = {v: i for i, v in enumerate(order)}
    for e in net.edges:
        if position[e.tail] >= position[e.head]:
            raise InstanceError(f"order is not topological: edge {e.id} goes backwards")
    return order


# ---------------------------------------------------------------------------
# evaluation


def evaluate_classical(
    net: Network,
    scheme: CodingScheme,
    inputs,
    order=None,
    collect_edges: bool = False,
):
    """Propagate concrete inputs through the scheme in topological order.

    Returns the k virtual-output values in pair order; with
    `collect_edges=True` returns (outputs, values-by-edge) instead.
    """
    inputs = tuple(inputs)
    if len(inputs) != net.k:
        raise InstanceError(f"expected {net.k} inputs, got {len(inputs)}")
    values: dict[str, RingVector] = {}
    for i, x in enumerate(inputs):
        values[source_edge(i + 1)] = x
    for v in _check_order(net, order):
        node_fn = scheme.node_map(v)
        ins = tuple(values[e] for e in net.node_inputs[v])
        for eid, val in zip(net.node_outputs[v], node_fn(ins)):
            values[eid] = val
    outputs = tuple(values[target_edge(i + 1)] for i in range(net.k))
    if collect_edges:
        return outputs, values
    return outputs


def _input_tuples(scheme: CodingScheme, k: int):
    vectors = basis_vectors(scheme.ring, scheme.q)
    return itertools.product(vectors, repeat=k)


def find_counterexample(
    net: Network, scheme: CodingScheme, cap: int = VERIFY_CAP_DEFAULT
):
    """First input tuple the scheme fails to deliver, or None if it is a solution."""
    total = scheme.register_dim**net.k
    if total > cap:
        raise CapExceededError(
            f"exhaustive check needs {total} input tuples, above the cap of {cap}; "
            f"raise the cap to force it"
        )
    for inputs in _input_tuples(scheme, net.k):
        if evaluate_classical(net, scheme, inputs) != inputs:
            return inputs
    return None


def verify_solution(net: Network, scheme: CodingScheme, cap: int = VERIFY_CAP_DEFAULT) -> bool:
    """Exhaustively check that every input tuple is delivered in pair order."""
    return find_counterexample(net, scheme, cap) is None


def scheme_with_alternate_phi(scheme: CodingScheme) -> CodingScheme:
    """The same scheme over the ring with its twisted coordinate map.

    Element coordinates are untouched; only the character pairing changes.
    """
    ring = scheme.ring.with_alternate_phi()

    def rebuild(mat: RingMatrix) -> RingMatrix:
        rows = tuple(tuple(RingElem(ring, e.coords) for e in row) for row in mat.rows)
        return RingMatrix(ring, rows)

    coeffs = {
        v: tuple(tuple(rebuild(B) for B in row) for row in rows)
        for v, rows in scheme.coeffs.items()
    }
    return CodingScheme(ring=ring, q=scheme.q, coeffs=coeffs)


def transfer_coefficients(net: Network, scheme: CodingScheme) -> TransferMap:
    """Express every edge value as a left-linear combination of the pair inputs."""
    ring, q, k = scheme.ring, scheme.q, net.k
    eye, zero = identity_matrix(ring, q), zero_matrix(ring, q)
    gammas: dict[str, tuple[RingMatrix, ...]] = {}
    for j in range(k):
        gammas[source_edge(j + 1)] = tuple(eye if i == j else zero for i in range(k))
    for v in net.topo_order:
        in_rows = [gammas[e] for e in net.node_inputs[v]]
        for out_idx, eid in enumerate(net.node_outputs[v]):
            acc = [zero] * k
            for B, row in zip(scheme.coeffs[v][out_idx], in_rows):
                for j in range(k):
                    acc[j] = mat_add(acc[j], mat_mul(B, row[j]))
            gammas[eid] = tuple(acc)
    return TransferMap(ring=ring, q=q, gammas=gammas)
