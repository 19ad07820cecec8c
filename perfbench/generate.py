"""Deterministic in-memory instance documents and document-level oracles.

The generators build instance documents (plain dicts in the format that
`qnetcode.parse_network` reads) that are valid by construction. Every matrix
entry is written as a coordinate list: over GF(p^k) with k > 1 the bare label
1 is the element t^(k-1), not the unit, so a generator that writes labels
builds schemes that fail `verify`.

The oracles read the same documents and never call the code under test, so
the benchmark can check the program's reported costs and branch counts
against numbers derived independently.
"""

from __future__ import annotations

import re

_Z_RE = re.compile(r"^Z\((\d+)\)$")
_GF_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)$")


def ring_moduli(ring: str) -> tuple[int, ...]:
    """Additive coordinate moduli of a single-factor ring descriptor.

    Only `Z(m)`, `GF(p^k)` and `GF(n)` with the default polynomial are
    understood; the benchmark's instances use nothing else.
    """
    m = _Z_RE.match(ring)
    if m:
        return (int(m.group(1)),)
    m = _GF_RE.match(ring)
    if not m:
        raise ValueError(f"ring descriptor {ring!r} is not a single Z or GF factor")
    base, exp = int(m.group(1)), m.group(2)
    if exp is not None:
        return (base,) * int(exp)
    for p in range(2, base + 1):
        if base % p == 0:
            k, n = 0, base
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise ValueError(f"GF({base}) is not a prime power")
            return (p,) * k
    raise ValueError(f"bad field size in {ring!r}")


def _unit(moduli) -> list[int]:
    return [1] + [0] * (len(moduli) - 1)


def _neg_unit(moduli) -> list[int]:
    return [moduli[0] - 1] + [0] * (len(moduli) - 1)


def _zero(moduli) -> list[int]:
    return [0] * len(moduli)


def _scalar_matrix(entry: list[int], zero: list[int], q: int):
    if q == 1:
        return entry
    return [[entry if i == j else zero for j in range(q)] for i in range(q)]


def butterfly(k: int, ring: str, q: int = 1) -> dict:
    """The k-pair butterfly over `ring` with messages of width q.

    Source i sends x_i to the bottleneck node m1 and to every target other
    than its own. m1 sends the sum of all x_i over the single bottleneck edge
    to m2, which copies it to every target; target j subtracts the k - 1
    side inputs it received and recovers x_j. The scheme is a solution over
    any ring, and both k and the fan-in M = k grow with k.
    """
    if k < 2:
        raise ValueError("a butterfly needs at least two pairs")
    moduli = ring_moduli(ring)
    one = _scalar_matrix(_unit(moduli), _zero(moduli), q)
    minus_one = _scalar_matrix(_neg_unit(moduli), _zero(moduli), q)
    sources = [f"s{i}" for i in range(1, k + 1)]
    targets = [f"t{i}" for i in range(1, k + 1)]
    edges = []
    coding = {}
    for i in range(1, k + 1):
        outs = [{"edge": f"a{i}", "coeffs": [one]}]
        edges.append({"id": f"a{i}", "from": f"s{i}", "to": "m1"})
        for j in range(1, k + 1):
            if j != i:
                eid = f"x{i}_{j}"
                edges.append({"id": eid, "from": f"s{i}", "to": f"t{j}"})
                outs.append({"edge": eid, "coeffs": [one]})
        coding[f"s{i}"] = {"inputs": [f"src:{i}"], "outputs": outs}
    edges.append({"id": "bottleneck", "from": "m1", "to": "m2"})
    coding["m1"] = {
        "inputs": [f"a{i}" for i in range(1, k + 1)],
        "outputs": [{"edge": "bottleneck", "coeffs": [one] * k}],
    }
    m2_outs = []
    for j in range(1, k + 1):
        edges.append({"id": f"b{j}", "from": "m2", "to": f"t{j}"})
        m2_outs.append({"edge": f"b{j}", "coeffs": [one]})
    coding["m2"] = {"inputs": ["bottleneck"], "outputs": m2_outs}
    for j in range(1, k + 1):
        side = [f"x{i}_{j}" for i in range(1, k + 1) if i != j]
        coding[f"t{j}"] = {
            "inputs": side + [f"b{j}"],
            "outputs": [{"edge": f"tgt:{j}", "coeffs": [minus_one] * len(side) + [one]}],
        }
    return {
        "ring": ring,
        "q": q,
        "nodes": sources + ["m1", "m2"] + targets,
        "edges": edges,
        "pairs": [{"source": s, "target": t} for s, t in zip(sources, targets)],
        "coding": coding,
    }


def routing_path(length: int, ring: str = "Z(2)", q: int = 1) -> dict:
    """One pair joined by a path of `length` edges; every node forwards a copy.

    Every node is copy-only, so with copy-skip nothing is measured and no
    classical message is sent; without it each of the length + 1 nodes
    measures one register.
    """
    if length < 1:
        raise ValueError("a path needs at least one edge")
    moduli = ring_moduli(ring)
    one = _scalar_matrix(_unit(moduli), _zero(moduli), q)
    nodes = [f"v{i}" for i in range(length + 1)]
    edges = [
        {"id": f"e{i}", "from": nodes[i], "to": nodes[i + 1]} for i in range(length)
    ]
    ins = ["src:1"] + [e["id"] for e in edges]
    outs = [e["id"] for e in edges] + ["tgt:1"]
    coding = {
        v: {"inputs": [i], "outputs": [{"edge": o, "coeffs": [one]}]}
        for v, i, o in zip(nodes, ins, outs)
    }
    return {
        "ring": ring,
        "q": q,
        "nodes": nodes,
        "edges": edges,
        "pairs": [{"source": nodes[0], "target": nodes[-1]}],
        "coding": coding,
    }


# ---------------------------------------------------------------------------
# oracles on documents


def _entry_coords(entry, moduli) -> tuple[int, ...]:
    if isinstance(entry, list):
        return tuple(c % m for c, m in zip(entry, moduli))
    coords = []
    for m in reversed(moduli):
        coords.append(entry % m)
        entry //= m
    return tuple(reversed(coords))


def _is_identity(matrix, moduli, q: int) -> bool:
    unit, zero = tuple(_unit(moduli)), tuple(_zero(moduli))
    if q == 1:
        if isinstance(matrix, list) and len(matrix) == 1 and isinstance(matrix[0], list):
            matrix = matrix[0][0]
        return _entry_coords(matrix, moduli) == unit
    return all(
        _entry_coords(matrix[i][j], moduli) == (unit if i == j else zero)
        for i in range(q)
        for j in range(q)
    )


def measured_nodes(doc: dict, copy_skip: bool = False) -> list[str]:
    """Nodes that measure their inputs; copy-skip exempts fan-in-one copiers."""
    moduli = ring_moduli(doc["ring"])
    out = []
    for v in doc["nodes"]:
        block = doc["coding"][v]
        copy_only = (
            len(block["inputs"]) == 1
            and len(block["outputs"]) >= 1
            and all(_is_identity(o["coeffs"][0], moduli, doc["q"]) for o in block["outputs"])
        )
        if not (copy_skip and copy_only):
            out.append(v)
    return out


def measurement_count(doc: dict, copy_skip: bool = False) -> int:
    return sum(len(doc["coding"][v]["inputs"]) for v in measured_nodes(doc, copy_skip))


def register_dim(doc: dict) -> int:
    d = 1
    for m in ring_moduli(doc["ring"]):
        d *= m
    return d ** doc["q"]


def branch_count(doc: dict, copy_skip: bool = False) -> int:
    """d^(number of measurements)."""
    return register_dim(doc) ** measurement_count(doc, copy_skip)


def broadcast_elements(doc: dict, copy_skip: bool = False) -> int:
    """Broadcast traffic: every measured outcome (q elements) goes to all k targets."""
    return len(doc["pairs"]) * doc["q"] * measurement_count(doc, copy_skip)


def bound_elements(doc: dict) -> int:
    """k * M * |V| * q."""
    fan_in = max(len(doc["coding"][v]["inputs"]) for v in doc["nodes"])
    return len(doc["pairs"]) * fan_in * len(doc["nodes"]) * doc["q"]
