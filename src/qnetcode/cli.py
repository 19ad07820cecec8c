"""Command-line front end: verify, simulate, enumerate, cost.

Exit statuses: 0 on success, 1 when a property fails (the scheme is not a
solution, or a run falls short of fidelity one), 2 on input or configuration
errors.

`verify` reads its verdict from the transfer map it prints, so it enumerates
no inputs and needs no cap.

Forced branches list one outcome label per measurement, nodes in topological
order and input edges in declared order; a plain digit string works for
register dimensions up to 10, comma-separated labels always. Input states
are either a comma-separated list of per-register basis labels or a JSON
file holding a list of [label, real, imag] triples, where a label lists one
entry per register: a basis index, or per-coordinate ring labels, or
coordinate lists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .network import (
    CapExceededError,
    InstanceError,
    _is_coords,
    _parse_entry,
    load_json,
    parse_network,
    scheme_with_alternate_phi,
    target_edge,
    transfer_coefficients,
)
from .protocol import (
    BRANCH_CAP_DEFAULT,
    InvalidSchemeError,
    classical_cost,
    enumerate_branches,
    plan_scheme,
    run_protocol,
)
from .quantum import (
    MAX_STATE_ENTRIES,
    DimensionCapError,
    QuantumError,
    ZeroProbabilityError,
    basis_state,
    fidelity,
    init_state,
)
from .rings import (
    RingError,
    decimal,
    int_text,
    is_identity,
    is_zero,
    matrix_entries,
    register_entries,
    register_label,
)

FIDELITY_TOL = 1e-9


def _register_index(obj, ring, q) -> int:
    d = ring.cardinality**q
    if type(obj) is int:
        if not 0 <= obj < d:
            raise InstanceError(f"basis label {obj} out of range (dimension {d})")
        return obj
    if isinstance(obj, list) and len(obj) == q:
        return register_label([_parse_entry(item, ring) for item in obj])
    if _is_coords(obj) and q == 1:
        return _parse_entry(obj, ring).to_int()
    raise InstanceError(f"bad basis label {obj!r}")


def _load_input_state(arg, ring, q, k, max_entries):
    d = ring.cardinality**q
    if d**k > max_entries:
        raise DimensionCapError(
            f"the input state needs {int_text(d**k)} amplitudes, above the cap {max_entries} "
            "(use --max-dim N)"
        )
    if d**k * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise DimensionCapError(
            f"the input state needs {int_text(d**k)} amplitudes, more than an array can index"
        )
    if arg is None:
        amps = np.full(d**k, 1.0 / math.sqrt(d**k), dtype=complex)
        return init_state(ring, q, k, amps, max_entries=max_entries)
    if os.path.exists(arg):
        triples = load_json(arg)
        if not isinstance(triples, list) or not all(
            isinstance(t, list) and len(t) == 3 and all(type(x) in (int, float) for x in t[1:])
            for t in triples
        ):
            raise InstanceError("input-state file must hold a list of [label, real, imag]")
        amps = np.zeros(d**k, dtype=complex)
        for label, re_part, im_part in triples:
            if not isinstance(label, list) or len(label) != k:
                raise InstanceError(f"basis label must list {k} registers, got {label!r}")
            flat = 0
            for item in label:
                flat = flat * d + _register_index(item, ring, q)
            amps[flat] = complex(float(re_part), float(im_part))
        return init_state(ring, q, k, amps, max_entries=max_entries)
    text = arg.strip()
    if all(ch.isdigit() or ch in ", " for ch in text) and any(ch.isdigit() for ch in text):
        labels = [decimal(tok) for tok in text.replace(" ", "").split(",") if tok]
        if len(labels) != k:
            raise InstanceError(f"input literal must give {k} labels, got {len(labels)}")
        labels = [_register_index(v, ring, q) for v in labels]
        return basis_state(ring, q, labels, max_entries=max_entries)
    raise InstanceError(f"input state file not found: {arg}")


def _parse_branch(text, dim) -> tuple[int, ...]:
    text = text.strip()
    if "," not in text and not (dim <= 10 and text.isdigit()):
        raise InstanceError(
            "branch must be comma-separated labels (or a digit string for dimensions up to 10)"
        )
    try:
        return tuple(int(tok) for tok in (text.split(",") if "," in text else text) if tok.strip())
    except ValueError:
        raise InstanceError(f"branch labels must be integers, got {text!r}") from None


def _gamma_name(ring, mat) -> str:
    if is_identity(mat):
        return "I"
    if is_zero(mat):
        return "0"
    return str(matrix_entries(ring, mat))


def _emit(payload: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _phase_table_strings(table) -> list[list[str]]:
    return [[str(v) for v in t] for t in table.tables]


def _cost_payload(report) -> dict:
    return {
        "k": report.k,
        "max_fan_in": report.max_fan_in,
        "nodes": report.node_count,
        "edges": report.edge_count,
        "q": report.q,
        "bound_elements": report.bound_elements,
        "bound_bits": report.bound_bits,
        "elements_sent": report.elements_sent,
        "bits_sent": report.bits_sent,
        "quantum_registers_sent": report.quantum_registers_sent,
        "policy": report.policy,
    }


def cmd_verify(args) -> int:
    net, scheme = parse_network(args.instance)
    tmap = transfer_coefficients(net, scheme)
    counterexample = tmap.counterexample(net.k)
    rows = {
        target_edge(i + 1): [_gamma_name(scheme.ring, g) for g in tmap.gammas[target_edge(i + 1)]]
        for i in range(net.k)
    }
    valid = counterexample is None
    payload = {
        "command": "verify",
        "instance": str(args.instance),
        "valid": valid,
        "target_transfer_rows": rows,
    }
    lines = [f"instance: {args.instance}", f"ring: {scheme.ring}  q: {scheme.q}"]
    if valid:
        lines.append("solution: VALID")
    else:
        bad = tuple(register_entries(scheme.ring, scheme.q, x) for x in counterexample)
        payload["counterexample"] = [list(v) for v in bad]
        lines.append(f"solution: INVALID (counterexample input {bad})")
    for edge, row in rows.items():
        lines.append(f"  {edge}: [{', '.join(row)}]")
    _emit(payload, lines, args.format)
    return 0 if valid else 1


def _prepare_scheme(args):
    net, scheme = parse_network(args.instance)
    if getattr(args, "alt_phi", False):
        scheme = scheme_with_alternate_phi(scheme)
    return net, scheme


def cmd_simulate(args) -> int:
    net, scheme = _prepare_scheme(args)
    state = _load_input_state(args.input, scheme.ring, scheme.q, net.k, args.max_dim)
    branch = None
    if args.branch is not None:
        branch = _parse_branch(args.branch, scheme.register_dim)
    elif args.seed is None:
        raise InstanceError("simulate needs --seed N or --branch LABELS")
    result = run_protocol(
        net,
        scheme,
        state,
        seed=args.seed,
        branch=branch,
        prune=args.prune,
        copy_skip=args.copy_skip,
        check_classical=not args.skip_classical_check,
        max_entries=args.max_dim,
    )
    fid = fidelity(state, result.state)
    report = classical_cost(result.plan)
    payload = {
        "command": "simulate",
        "instance": str(args.instance),
        "ring": str(scheme.ring),
        "q": scheme.q,
        "node_order": list(net.topo_order),
        "branch": list(result.log.branch_labels()),
        "outcomes": [
            {"node": e.node, "register": o.register, "label": o.label}
            for e in result.log.entries
            for o in e.outcomes
        ],
        "phase_table": _phase_table_strings(result.phase_table),
        "fidelity": fid,
        "cost": _cost_payload(report),
    }
    lines = [
        f"instance: {args.instance}",
        f"ring: {scheme.ring}  q: {scheme.q}  register dim: {scheme.register_dim}",
        f"node order: {' '.join(net.topo_order)}",
        "outcomes:",
    ]
    for entry in result.log.entries:
        outs = " ".join(f"{o.register}={o.label}" for o in entry.outcomes)
        lines.append(f"  {entry.node}: {outs} -> pairs {list(entry.recipients)}")
    lines.append("phase table:")
    for i, row in enumerate(_phase_table_strings(result.phase_table), start=1):
        lines.append(f"  h_{i}: [{', '.join(row)}]")
    lines.append(f"fidelity: {fid:.12f}")
    lines.append("cost:")
    lines.append(f"  quantum registers sent: {report.quantum_registers_sent}")
    lines.append(
        f"  classical elements sent ({report.policy}): {report.elements_sent} "
        f"({report.bits_sent} bits)"
    )
    lines.append(f"  bound k*M*|V|: {report.bound_elements} elements ({report.bound_bits} bits)")
    _emit(payload, lines, args.format)
    return 0 if fid >= 1 - FIDELITY_TOL else 1


def cmd_enumerate(args) -> int:
    net, scheme = _prepare_scheme(args)
    state = _load_input_state(args.input, scheme.ring, scheme.q, net.k, args.max_dim)
    fids = []
    skipped = 0
    try:
        for branch_result in enumerate_branches(
            net,
            scheme,
            state,
            max_branches=args.max_branches,
            prune=args.prune,
            copy_skip=args.copy_skip,
            max_entries=args.max_dim,
        ):
            if branch_result.fidelity is None:
                skipped += 1
            else:
                fids.append(branch_result.fidelity)
    except CapExceededError as exc:
        raise CapExceededError(f"{exc} (use --max-branches N)") from None
    total = len(fids) + skipped
    lo, hi = (min(fids), max(fids)) if fids else (0.0, 0.0)
    payload = {
        "command": "enumerate",
        "instance": str(args.instance),
        "branches": total,
        "realizable": len(fids),
        "unrealizable": skipped,
        "min_fidelity": lo,
        "max_fidelity": hi,
    }
    lines = [
        f"instance: {args.instance}",
        f"{total} branches, min fidelity {lo:.12f}, max fidelity {hi:.12f}",
    ]
    if skipped:
        lines.append(f"unrealizable branches skipped: {skipped}")
    _emit(payload, lines, args.format)
    return 0 if lo >= 1 - FIDELITY_TOL else 1


def cmd_cost(args) -> int:
    net, scheme = parse_network(args.instance)
    base = classical_cost(plan_scheme(net, scheme))
    pruned = classical_cost(plan_scheme(net, scheme, prune=True))
    payload = {
        "command": "cost",
        "instance": str(args.instance),
        "k": base.k,
        "max_fan_in": base.max_fan_in,
        "nodes": base.node_count,
        "edges": base.edge_count,
        "q": base.q,
        "bound_elements": base.bound_elements,
        "bound_bits": base.bound_bits,
        "quantum_registers_sent": base.quantum_registers_sent,
        "broadcast_elements": base.elements_sent,
        "broadcast_bits": base.bits_sent,
        "prune_elements": pruned.elements_sent,
        "prune_bits": pruned.bits_sent,
        "per_node_broadcast": [
            {"node": n, "measured": m, "recipients": r, "elements": el}
            for n, m, r, el in base.per_node
        ],
    }
    lines = [
        f"instance: {args.instance}",
        f"k: {base.k}  max fan-in M: {base.max_fan_in}  nodes |V|: {base.node_count}",
        f"bound k*M*|V|: {base.bound_elements} elements ({base.bound_bits} bits)",
        f"broadcast: {base.elements_sent} elements ({base.bits_sent} bits)",
        f"prune: {pruned.elements_sent} elements ({pruned.bits_sent} bits)",
        f"quantum registers sent over edges: {base.quantum_registers_sent}",
        "per node (broadcast):",
    ]
    for n, m, r, el in base.per_node:
        lines.append(f"  {n}: {m} measured x {r} recipients = {el} elements")
    _emit(payload, lines, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetcode",
        description="Quantum simulation of classical linear network coding schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("instance", help="instance JSON document")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="check the classical scheme is a solution")
    add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    def add_run_flags(p):
        p.add_argument("--input", help="basis-label literal 'a,b,...' or input-state JSON file")
        p.add_argument("--prune", action="store_true", help="send outcomes only where needed")
        p.add_argument(
            "--copy-skip",
            action="store_true",
            help="copy-only nodes forward their register without measuring",
        )
        p.add_argument("--alt-phi", action="store_true", help="use the twisted coordinate map")
        p.add_argument(
            "--max-dim",
            type=int,
            default=MAX_STATE_ENTRIES,
            help="cap on amplitude entries",
        )

    p_sim = sub.add_parser("simulate", help="run the protocol once")
    add_common(p_sim)
    add_run_flags(p_sim)
    p_sim.add_argument("--seed", type=int, help="sample outcomes with this seed")
    p_sim.add_argument("--branch", help="force this outcome branch")
    p_sim.add_argument(
        "--skip-classical-check",
        action="store_true",
        help="run even if the scheme is not a verified solution",
    )
    p_sim.set_defaults(fn=cmd_simulate)

    p_enum = sub.add_parser("enumerate", help="run every measurement branch")
    add_common(p_enum)
    add_run_flags(p_enum)
    p_enum.add_argument(
        "--max-branches",
        type=int,
        default=BRANCH_CAP_DEFAULT,
        help="cap on the number of enumerated branches",
    )
    p_enum.set_defaults(fn=cmd_enumerate)

    p_cost = sub.add_parser("cost", help="classical and quantum cost accounting")
    add_common(p_cost)
    p_cost.set_defaults(fn=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidSchemeError, ZeroProbabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        InstanceError, RingError, QuantumError, CapExceededError, OSError, MemoryError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
