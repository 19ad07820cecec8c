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

Verification reads the transfer map (`transfer_coefficients`): a scheme is a
solution iff target i's row is the identity at pair i and zero elsewhere.
`evaluate_classical`, which pushes inputs through the nodes, is the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .rings import RingSpec, coefficient_matrix, combine, decimal, linear_map, parse_ring_spec


class InstanceError(ValueError):
    """The instance document is malformed or inconsistent."""


class CapExceededError(RuntimeError):
    """A run or enumeration would exceed a configured resource cap."""


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


@dataclass(frozen=True, eq=False)
class CodingScheme:
    """Per-node coefficient matrices (see `rings.coefficient_matrix`):
    coeffs[node][output_idx][input_idx]."""

    ring: RingSpec
    q: int
    coeffs: dict[str, tuple[tuple[np.ndarray, ...], ...]] = field(repr=False)

    @property
    def register_dim(self) -> int:
        return self.ring.cardinality**self.q


@dataclass(frozen=True, eq=False)
class TransferMap:
    """Edge contents as left-linear combinations of the k pair inputs.

    gammas[edge][j] is the matrix applied to input j (0-based pair index).
    """

    ring: RingSpec
    q: int
    gammas: dict[str, np.ndarray] = field(repr=False)

    def evaluate(self, edge: str, inputs) -> np.ndarray:
        """The edge's label for the pair input labels (broadcast together)."""
        return linear_map(self.ring, self.q, [self.gammas[edge]], inputs)[..., 0]

    def counterexample(self, k: int):
        """First input label tuple (first pair most significant) the k targets
        do not receive, or None. Tuples below the unit digit vector u_t, for t
        the least significant digit whose row of gamma - I is nonzero at some
        target, use only digits with zero rows, so u_t is the first failure."""
        radix = self.ring.moduli * self.q
        eye = np.eye(len(radix), dtype=np.int64)
        bad = np.zeros((k, len(radix)), dtype=bool)
        for i in range(k):
            for j, g in enumerate(self.gammas[target_edge(i + 1)]):
                bad[j] |= (g != eye * (i == j)).any(axis=1)
        failing = np.flatnonzero(bad)
        if not failing.size:
            return None
        pair, t = divmod(int(failing[-1]), len(radix))
        place = math.prod(radix[t + 1 :])
        return tuple(place if j == pair else 0 for j in range(k))


# ---------------------------------------------------------------------------
# parsing and validation


def _is_coords(obj) -> bool:
    return isinstance(obj, list) and all(type(c) is int for c in obj)


def _parse_entry(obj, spec: RingSpec):
    if type(obj) is int:
        if not 0 <= obj < spec.cardinality:
            raise InstanceError(f"entry label {obj} out of range for {spec}")
        return spec.from_int(obj)
    if _is_coords(obj):
        if len(obj) != len(spec.moduli):
            raise InstanceError(
                f"entry {obj} has {len(obj)} coordinates, expected {len(spec.moduli)}"
            )
        for c, m in zip(obj, spec.moduli):
            if not 0 <= c < m:
                raise InstanceError(f"entry coordinate {c} out of range for {spec}")
        return spec.element(obj)
    raise InstanceError(f"bad ring entry {obj!r}")


def _parse_matrix(obj, spec: RingSpec, q: int) -> np.ndarray:
    if q == 1:
        if isinstance(obj, list) and len(obj) == 1 and isinstance(obj[0], list) and len(obj[0]) == 1:
            obj = obj[0][0]  # accept the explicit 1x1 nesting
        if type(obj) is int or _is_coords(obj):
            return coefficient_matrix(spec, [[_parse_entry(obj, spec)]])
        raise InstanceError(f"bad 1x1 coefficient {obj!r}")

    if not (isinstance(obj, list) and len(obj) == q):
        raise InstanceError(f"coefficient must be a {q}x{q} matrix, got {obj!r}")
    rows = []
    for row in obj:
        if not (isinstance(row, list) and len(row) == q):
            raise InstanceError(f"coefficient must be a {q}x{q} matrix, got {obj!r}")
        rows.append([_parse_entry(e, spec) for e in row])
    return coefficient_matrix(spec, rows)


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


def _json_int(digits: str) -> int:
    return decimal(digits, InstanceError)


def load_json(path):
    """Read a JSON file; text that is not UTF-8, or an integer literal
    longer than Python converts, is an InstanceError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_network(source) -> tuple[Network, CodingScheme]:
    """Load and validate an instance from a path, JSON string, or dict."""
    if isinstance(source, (str, Path)) and not (
        isinstance(source, str) and source.lstrip().startswith("{")
    ):
        doc = load_json(source)
    elif isinstance(source, str):
        doc = json.loads(source, parse_int=_json_int)
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
    coeffs: dict[str, tuple[tuple[np.ndarray, ...], ...]] = {}
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


# ---------------------------------------------------------------------------
# evaluation


def evaluate_classical(
    net: Network,
    scheme: CodingScheme,
    inputs,
    collect_edges: bool = False,
):
    """Propagate input labels through the scheme in topological order.

    `inputs` holds one register label, or one array of labels, per pair;
    arrays are broadcast together and pushed through each node at once.
    Returns the k virtual-output labels in pair order; with
    `collect_edges=True` returns (outputs, labels-by-edge) instead.
    """
    inputs = tuple(inputs)
    if len(inputs) != net.k:
        raise InstanceError(f"expected {net.k} inputs, got {len(inputs)}")
    values = {source_edge(i + 1): np.asarray(x) for i, x in enumerate(inputs)}
    for v in net.topo_order:
        if net.node_outputs[v]:
            ins = [values[e] for e in net.node_inputs[v]]
            outs = linear_map(scheme.ring, scheme.q, scheme.coeffs[v], ins)
            for n, eid in enumerate(net.node_outputs[v]):
                values[eid] = outs[..., n]
    outputs = tuple(values[target_edge(i + 1)] for i in range(net.k))
    if collect_edges:
        return outputs, values
    return outputs


def find_counterexample(net: Network, scheme: CodingScheme):
    """First input label tuple the scheme fails to deliver, or None if it is a
    solution; read from the transfer map (`TransferMap.counterexample`)."""
    return transfer_coefficients(net, scheme).counterexample(net.k)


def verify_solution(net: Network, scheme: CodingScheme) -> bool:
    """Whether every input tuple is delivered in pair order."""
    return find_counterexample(net, scheme) is None


def scheme_with_alternate_phi(scheme: CodingScheme) -> CodingScheme:
    """The same scheme over the ring with its twisted coordinate map.

    The coefficient matrices are untouched; only the character pairing changes.
    """
    return replace(scheme, ring=scheme.ring.with_alternate_phi())


def transfer_coefficients(net: Network, scheme: CodingScheme) -> TransferMap:
    """Express every edge value as a left-linear combination of the pair inputs."""
    ring, q, k = scheme.ring, scheme.q, net.k
    width = q * len(ring.moduli)
    eye = np.eye(width, dtype=np.int64)
    gammas = {source_edge(j + 1): np.eye(k, dtype=np.int64)[j, :, None, None] * eye for j in range(k)}
    for v in net.topo_order:
        in_rows = [gammas[e] for e in net.node_inputs[v]]
        for eid, row in zip(net.node_outputs[v], scheme.coeffs[v]):
            gammas[eid] = combine(ring, q, row, in_rows)
    return TransferMap(ring=ring, q=q, gammas=gammas)
