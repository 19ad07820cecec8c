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

A document is read in one pass, which checks each field's shape where it
reads the field. Entries are read straight to element labels (`parse_entry`,
which the CLI's input-state reader shares), and each matrix to its integer
form (`rings.coefficient_matrix`).

Verification reads the transfer map (`transfer_coefficients`, one
`rings.combine` per node): a scheme is a solution iff target i's row is
δ_ij·I, one comparison per map (`TransferMap.counterexample`).

What depends only on an instance is memoised by its content, not by object,
in one memo that keeps the MEMO_SIZE most recently used values, and states
of at most MAX_STATE_ENTRIES rows in all (`memoised`).
The parse of a document is keyed by its text: `parse_network` reads a
file's text on every call, so an edited file is parsed anew, while a text
seen before returns the objects parsed from it, whatever the path. A dict is
checked on every call and never memoised. A `Network` and a `CodingScheme`
each compute a content `key` once, so two parses of one document, whatever
its whitespace, share the transfer map (`transfer_map`) and the plans built
from it (`protocol.plan_scheme`). Parsed objects are shared, so their
mappings are read-only (`types.MappingProxyType`) and their arrays too.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .rings import RingSpec, coefficient_matrix, combine, coords_label, decimal, matrix_entries, parse_ring_spec

MAX_STATE_ENTRIES = 2**24  # the default amplitude cap (`quantum.check_growth`)


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


def _read_only(obj, *names) -> None:
    """Replace each named mapping field of a frozen dataclass by a read-only
    view of a copy, unless it is one already."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, MappingProxyType):
            object.__setattr__(obj, name, MappingProxyType(dict(value)))


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True, eq=False)
class Network:
    """A directed acyclic graph with k source-target pairs.

    `node_inputs` / `node_outputs` are read-only mappings of the per-node
    ordered edge lists, virtual edges included, exactly as declared by the
    coding scheme.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    pairs: tuple[tuple[str, str], ...]
    node_inputs: Mapping[str, tuple[str, ...]] = field(repr=False)
    node_outputs: Mapping[str, tuple[str, ...]] = field(repr=False)
    topo_order: tuple[str, ...] = field(repr=False)

    def __post_init__(self):
        _read_only(self, "node_inputs", "node_outputs")

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def max_fan_in(self) -> int:
        if not self.nodes:
            return 0
        return max(len(self.node_inputs[v]) for v in self.nodes)

    @cached_property
    def key(self) -> str:
        """Content key: equal for networks parsed from equal documents."""
        fields = (self.nodes, self.edges, self.pairs, self.node_inputs, self.node_outputs, self.topo_order)
        return repr(fields)


@dataclass(frozen=True, eq=False)
class CodingScheme:
    """Per-node coefficient matrices (see `rings.coefficient_matrix`):
    coeffs[node][output_idx][input_idx].

    A scheme is immutable: `coeffs` is a read-only mapping, and
    `parse_network` makes its arrays read-only. Its transfer maps and plans
    are memoised under its content `key` (`memoised`), so equal schemes share
    them and the scheme holds none.
    """

    ring: RingSpec
    q: int
    coeffs: Mapping[str, tuple[tuple[np.ndarray, ...], ...]] = field(repr=False)

    def __post_init__(self):
        _read_only(self, "coeffs")

    @property
    def register_dim(self) -> int:
        return self.ring.cardinality**self.q

    @cached_property
    def key(self) -> str:
        """Content key: the full ring (twisted phi included), q and every
        coefficient by value; `tolist`, as object arrays' bytes are pointers."""
        coeffs = {v: [[g.tolist() for g in row] for row in rows] for v, rows in self.coeffs.items()}
        return repr((self.ring, self.q, coeffs))


@dataclass(frozen=True, eq=False)
class TransferMap:
    """Edge contents as left-linear combinations of the k pair inputs.

    gammas[edge][j] is the matrix applied to input j (0-based pair index);
    `gammas` is a read-only mapping of read-only arrays, as a memoised map is
    shared by every run of its instance.
    """

    ring: RingSpec
    q: int
    k: int
    gammas: Mapping[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        _read_only(self, "gammas")

    @cached_property
    def counterexample(self):
        """The solution verdict, computed once per map: the first input label
        tuple (first pair most significant) the k targets do not receive, or
        None. Tuples below the unit digit vector u_t, for t the least
        significant digit whose row of gamma - I is nonzero at some target,
        use only digits with zero rows, so u_t is the first failure."""
        radix = self.ring.moduli * self.q
        rows = self.stacked([target_edge(i + 1) for i in range(self.k)])  # (target, pair, digit, digit)
        solved = np.eye(self.k, dtype=np.int64)[:, :, None, None] * np.eye(len(radix), dtype=np.int64)
        failing = np.flatnonzero((rows != solved).any(axis=(0, 3)))  # (pair, digit), flattened
        if not failing.size:
            return None
        pair, t = divmod(int(failing[-1]), len(radix))
        return tuple(np.eye(self.k, dtype=object)[pair] * math.prod(radix[t + 1 :]))

    def stacked(self, edges) -> np.ndarray:
        """The edges' transfer rows in one array, shape (len(edges), k, width, width)."""
        width = self.q * len(self.ring.moduli)
        return np.array([self.gammas[e] for e in edges]).reshape(len(edges), self.k, width, width)

    @cached_property
    def target_names(self) -> Mapping[str, tuple[str, ...]]:
        """Each target's transfer row as text, computed once per map: per
        pair "I" for the identity, "0" for zero (both found in one pass over
        the stacked rows), else the matrix's entries (`rings.matrix_entries`)."""
        edges = tuple(target_edge(i + 1) for i in range(self.k))
        rows = self.stacked(edges)
        eye = (rows == np.eye(rows.shape[-1], dtype=np.int64)).all(axis=(2, 3)).tolist()
        zero = (~rows.any(axis=(2, 3))).tolist()
        name = lambda t, j: "I" if eye[t][j] else "0" if zero[t][j] else str(matrix_entries(self.ring, rows[t, j]))
        return MappingProxyType({e: tuple(name(t, j) for j in range(self.k)) for t, e in enumerate(edges)})


# ---------------------------------------------------------------------------
# parsing and validation


def _is_coords(obj) -> bool:
    return isinstance(obj, list) and all(type(c) is int for c in obj)


def parse_entry(obj, spec: RingSpec) -> int:
    """Element label of a ring entry written as a label or a coordinate list."""
    if type(obj) is int:
        if not 0 <= obj < spec.cardinality:
            raise InstanceError(f"entry label {obj} out of range for {spec}")
        return obj
    if _is_coords(obj):
        if len(obj) != len(spec.moduli):
            raise InstanceError(
                f"entry {obj} has {len(obj)} coordinates, expected {len(spec.moduli)}"
            )
        for c, m in zip(obj, spec.moduli):
            if not 0 <= c < m:
                raise InstanceError(f"entry coordinate {c} out of range for {spec}")
        return coords_label(spec, obj)
    raise InstanceError(f"bad ring entry {obj!r}")


def _parse_matrix(obj, spec: RingSpec, q: int) -> np.ndarray:
    if q == 1:
        if isinstance(obj, list) and len(obj) == 1 and isinstance(obj[0], list) and len(obj[0]) == 1:
            obj = obj[0][0]  # accept the explicit 1x1 nesting
        if type(obj) is int or _is_coords(obj):
            return coefficient_matrix(spec, [[parse_entry(obj, spec)]])
        raise InstanceError(f"bad 1x1 coefficient {obj!r}")

    if not (isinstance(obj, list) and len(obj) == q):
        raise InstanceError(f"coefficient must be a {q}x{q} matrix, got {obj!r}")
    rows = []
    for row in obj:
        if not (isinstance(row, list) and len(row) == q):
            raise InstanceError(f"coefficient must be a {q}x{q} matrix, got {obj!r}")
        rows.append([parse_entry(e, spec) for e in row])
    return coefficient_matrix(spec, rows)


def _topological_order(nodes: tuple[str, ...], edges: tuple[Edge, ...]) -> tuple[str, ...]:
    """Kahn's order, taking the ready node declared first each time."""
    index = {v: i for i, v in enumerate(nodes)}
    indegree = [0] * len(nodes)
    successors: list[list[int]] = [[] for _ in nodes]
    for e in edges:
        indegree[index[e.head]] += 1
        successors[index[e.tail]].append(index[e.head])
    ready = [i for i, n in enumerate(indegree) if n == 0]  # ascending, so a heap
    out: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        out.append(nodes[i])
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
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


def _json_int(digits: str) -> int:
    return decimal(digits, InstanceError)


def _read_text(path) -> str:
    """The text of a file; text that is not UTF-8 is an InstanceError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _decode(text: str):
    """JSON text's value; an integer literal longer than Python converts is an
    InstanceError."""
    return json.loads(text, parse_int=_json_int)


def load_json(path):
    """The value of a JSON file (`_read_text`, then `_decode`)."""
    return _decode(_read_text(path))


def parse_network(source) -> tuple[Network, CodingScheme]:
    """Load and validate an instance from a path, JSON string, or dict.

    A path's file is read on every call. Its text, or a JSON string, keys the
    memo (`memoised`): a text seen before returns the objects parsed from it,
    and a text that fails to parse is never kept. A dict is checked anew on
    every call.
    """
    if not isinstance(source, (str, Path)):
        return _parse_document(source)
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        text = _read_text(source)
    return memoised(("document", text), lambda: _parse_document(_decode(text)))


def _parse_document(doc) -> tuple[Network, CodingScheme]:
    """Check a decoded document and build its network and scheme. Each
    field's shape is checked where the field is read."""
    _need_fields(doc, "instance document", ("ring", "q", "nodes", "edges", "pairs", "coding"))
    _need(isinstance(doc["ring"], str), "field 'ring'", "a string", doc["ring"])
    q = doc["q"]
    _need(type(q) is int and q >= 1, "field 'q'", "a positive integer", q)
    for key in ("nodes", "edges", "pairs"):
        _need(isinstance(doc[key], list), f"field {key!r}", "a list", doc[key])
    coding_doc = doc["coding"]
    _need_fields(coding_doc, "field 'coding'", ())
    ring = parse_ring_spec(doc["ring"])

    nodes = tuple(str(v) for v in doc["nodes"])
    if len(set(nodes)) != len(nodes):
        raise InstanceError("duplicate node id")

    edges = []
    seen_edges = set()
    for i, item in enumerate(doc["edges"]):
        _need_fields(item, f"edges[{i}]", ("id", "from", "to"))
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
    for i, item in enumerate(doc["pairs"]):
        _need_fields(item, f"pairs[{i}]", ("source", "target"))
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

    unknown = set(coding_doc) - set(nodes)
    if unknown:
        raise InstanceError(f"coding block names unknown node {sorted(unknown)[0]!r}")

    node_inputs: dict[str, tuple[str, ...]] = {}
    node_outputs: dict[str, tuple[str, ...]] = {}
    coeffs: dict[str, tuple[tuple[np.ndarray, ...], ...]] = {}
    for v in nodes:
        if v not in coding_doc:
            raise InstanceError(f"node {v!r} has no coding block")
        block, where = coding_doc[v], f"coding[{v!r}]"
        _need_fields(block, where, ())
        ins_doc, outs_doc = block.get("inputs", []), block.get("outputs", [])
        _need(isinstance(ins_doc, list), f"{where}.inputs", "a list", ins_doc)
        _need(isinstance(outs_doc, list), f"{where}.outputs", "a list", outs_doc)
        ins = tuple(str(e) for e in ins_doc)
        if set(ins) != incoming[v] or len(ins) != len(incoming[v]):
            raise InstanceError(
                f"node {v!r}: declared inputs {list(ins)} do not match its "
                f"incoming edges {sorted(incoming[v])}"
            )
        for j, o in enumerate(outs_doc):
            _need_fields(o, f"{where}.outputs[{j}]", ("edge", "coeffs"))
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
            for g in rows[-1]:
                g.flags.writeable = False
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
# the memo of what depends only on an instance

MEMO_SIZE = 64
_memo: OrderedDict = OrderedDict()  # key -> (value, amplitude entries it holds)


def memoised(key, build, entries: int = 0):
    """The value kept under `key`, from `build()` on a miss. The MEMO_SIZE
    most recently used values are kept, so a value is freed once MEMO_SIZE
    others have been used since. A value that holds amplitudes (a state of
    `entries` rows) also counts them: the least recently used of those
    values are freed while they hold more than MAX_STATE_ENTRIES in all, so
    one above it is returned but not kept."""
    hit = _memo.get(key)
    if hit is not None:
        _memo.move_to_end(key)
        return hit[0]
    value = build()
    _memo[key] = (value, entries)
    if len(_memo) > MEMO_SIZE:
        _memo.popitem(last=False)
    if entries:
        held = sum(n for _, n in _memo.values())
        for old in [k for k, (_, n) in _memo.items() if n]:  # least recently used first
            if held <= MAX_STATE_ENTRIES:
                break
            held -= _memo.pop(old)[1]
    return value


def transfer_map(net: Network, scheme: CodingScheme) -> TransferMap:
    """The instance's transfer map (`transfer_coefficients`), memoised by content."""
    return memoised((net.key, scheme.key), lambda: transfer_coefficients(net, scheme))


def verify_solution(net: Network, scheme: CodingScheme) -> bool:
    """Whether every input tuple is delivered in pair order: the transfer
    map's verdict (`TransferMap.counterexample`)."""
    return transfer_map(net, scheme).counterexample is None


def scheme_with_alternate_phi(scheme: CodingScheme) -> CodingScheme:
    """The same scheme over the ring with its twisted coordinate map,
    memoised by the scheme's content `key`.

    The coefficient matrices are untouched; only the character pairing changes.
    """
    twist = lambda: replace(scheme, ring=scheme.ring.with_alternate_phi())
    return memoised(("alternate phi", scheme.key), twist)


def transfer_coefficients(net: Network, scheme: CodingScheme) -> TransferMap:
    """Express every edge value as a left-linear combination of the pair
    inputs, in read-only arrays."""
    ring, q, k = scheme.ring, scheme.q, net.k
    sources = np.eye(k, dtype=np.int64)[:, :, None, None] * np.eye(q * len(ring.moduli), dtype=np.int64)
    sources.flags.writeable = False
    gammas = dict(zip(map(source_edge, range(1, k + 1)), sources))
    for v in net.topo_order:
        if net.node_outputs[v]:  # every output of the node from its stacked inputs at once
            outs = combine(ring, q, scheme.coeffs[v], [gammas[e] for e in net.node_inputs[v]])
            outs.flags.writeable = False
            gammas.update(zip(net.node_outputs[v], outs))
    return TransferMap(ring=ring, q=q, k=k, gammas=gammas)
