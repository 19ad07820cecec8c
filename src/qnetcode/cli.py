"""Command-line front end: verify, simulate, enumerate, cost.

Exit statuses: 0 on success, 1 when a property fails (the scheme is not a
solution, or a run falls short of fidelity one), 2 on input or configuration
errors, and 141 (128 + SIGPIPE, as a shell reports a process killed by it)
when standard output is closed before the report is written, e.g. by
`qnetcode cost X | head -1`; then nothing is printed on stderr.

`verify` reads its verdict and the names it prints from the transfer map
(`TransferMap.counterexample`, `target_names`), so it enumerates no inputs
and needs no cap. The default input, the uniform superposition, is built
only after the refusals that need no state: the d^k cap, `--branch` and the
seed, then the verdict or the branch count (`protocol.check_solved`,
`check_branch_count`). Corrections print as `PhaseTable.fractions`.
`enumerate` takes its branches in batches (`protocol.enumerate_batches`).
Each command builds only the report it prints, text or JSON.

A call is parsed by its subcommand's parser alone, the one `build_parser`
made under the name in `argv[0]`. The whole parser parses only a call it must
report on: an empty argv, an unknown command, an option before the command,
or arguments left over; so its usage and error text are argparse's.

Forced branches list one outcome label per measurement, nodes in topological
order and input edges in declared order; a plain digit string works for
register dimensions up to 10, comma-separated labels always. Input states are
either a comma-separated list of per-register basis labels or a JSON file
holding a list of [label, real, imag] triples, where a label lists one entry
per register: a basis index, or the register's q ring entries, each an
element label or a coordinate list (`network.parse_entry`). No label of
either literal may be empty, and no basis label may hold a space. The input
is built as support rows, one per triple; a file whose norm is not one is
rescaled, with one `warning:` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from .network import (
    MAX_STATE_ENTRIES,
    CapExceededError,
    InstanceError,
    load_json,
    memoised,
    parse_entry,
    parse_network,
    scheme_with_alternate_phi,
    transfer_map,
)
from .protocol import (
    BRANCH_CAP_DEFAULT,
    InvalidSchemeError,
    check_branch_count,
    check_solved,
    classical_cost,
    enumerate_batches,
    plan_scheme,
    run_protocol,
)
from .quantum import (
    DimensionCapError,
    QuantumError,
    ZeroProbabilityError,
    check_growth,
    fidelity,
    init_state,
    state_from_rows,
)
from .rings import (
    RingError,
    decimal,
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
        return register_label(ring, [parse_entry(item, ring) for item in obj])
    if q == 1 and isinstance(obj, list):
        return parse_entry(obj, ring)  # a coordinate list
    raise InstanceError(f"bad basis label {obj!r}")


def _input_triples(arg, k) -> list:
    """The [label, real, imag] triples of an input-state file, or the one of a
    basis-label literal."""
    if os.path.exists(arg):
        triples = load_json(arg)
        if not isinstance(triples, list) or not all(
            isinstance(t, list) and len(t) == 3 and all(type(x) in (int, float) for x in t[1:])
            for t in triples
        ):
            raise InstanceError("input-state file must hold a list of [label, real, imag]")
        return triples
    text = arg.strip()
    if all(ch.isdigit() or ch in ", " for ch in text) and any(ch.isdigit() for ch in text):
        labels = [tok.strip() for tok in text.split(",")]
        if not all(labels):
            raise InstanceError(f"input literal has an empty label: {arg!r}")
        if any(" " in tok for tok in labels):
            raise InstanceError(f"input literal labels are separated by commas, not spaces: {arg!r}")
        if len(labels) != k:
            raise InstanceError(f"input literal must give {k} labels, got {len(labels)}")
        return [[[decimal(tok) for tok in labels], 1.0, 0.0]]
    raise InstanceError(f"input state file not found: {arg}")


def _load_input_state(arg, ring, q, k, max_entries):
    """The input state's rows, one per `_input_triples` triple, checked before
    the cap counts d^k, or None (`_uniform_input`) when `arg` is. A
    normalisation warning is one line on stderr."""
    d = ring.cardinality**q
    if arg is None:
        check_growth(d**k, max_entries)
        return None
    labels, amps, seen = [], [], set()
    for label, re_part, im_part in _input_triples(arg, k):
        if not isinstance(label, list) or len(label) != k:
            raise InstanceError(f"basis label must list {k} registers, got {label!r}")
        labels.append(tuple(_register_index(item, ring, q) for item in label))
        if labels[-1] in seen:
            raise InstanceError(f"input state lists basis label {label!r} twice")
        seen.add(labels[-1])
        amps.append(complex(float(re_part), float(im_part)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = state_from_rows(ring, q, labels, amps)
    check_growth(d**k, max_entries)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return state


def _uniform_input(ring, q, k):
    """The uniform superposition's d^k rows, memoised as d^k entries."""
    d = ring.cardinality**q
    uniform = lambda: init_state(ring, q, k, np.full(d**k, 1.0 / math.sqrt(d**k), dtype=complex))
    return memoised(("uniform input", ring, q, k), uniform, entries=d**k)


def _parse_branch(text, dim) -> tuple[int, ...]:
    text = text.strip()  # a blank text is the empty branch, of a plan that measures nothing
    if text and "," not in text and not (dim <= 10 and text.isdigit()):
        raise InstanceError(
            "branch must be comma-separated labels (or a digit string for dimensions up to 10)"
        )
    tokens = text.split(",") if "," in text else text
    if not all(tok.strip() for tok in tokens):
        raise InstanceError(f"branch has an empty label: {text!r}")
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise InstanceError(f"branch labels must be integers, got {text!r}") from None


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cost_payload(report) -> dict:
    """The cost record's fields, in order, but `per_node`."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "per_node"}


def cmd_verify(args) -> int:
    net, scheme = parse_network(args.instance)
    tmap = transfer_map(net, scheme)
    counterexample = tmap.counterexample
    valid = counterexample is None
    if not valid:
        bad = tuple(register_entries(scheme.ring, scheme.q, x) for x in counterexample)
    if args.format == "json":
        payload = {
            "command": "verify",
            "instance": str(args.instance),
            "valid": valid,
            "target_transfer_rows": dict(tmap.target_names),
        }
        if not valid:
            payload["counterexample"] = [list(v) for v in bad]
        _print_json(payload)
    else:
        lines = [f"instance: {args.instance}", f"ring: {scheme.ring}  q: {scheme.q}"]
        lines.append("solution: VALID" if valid else f"solution: INVALID (counterexample input {bad})")
        lines += [f"  {edge}: [{', '.join(row)}]" for edge, row in tmap.target_names.items()]
        print("\n".join(lines))
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
    if state is None:
        if not args.skip_classical_check:
            check_solved(transfer_map(net, scheme))
        state = _uniform_input(scheme.ring, scheme.q, net.k)
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
    phases = result.phase_table.fractions
    if args.format == "json":
        _print_json({
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
            "phase_table": phases,
            "fidelity": fid,
            "cost": _cost_payload(report),
        })
    else:
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
        for i, row in enumerate(phases, start=1):
            lines.append(f"  h_{i}: [{', '.join(row)}]")
        lines.append(f"fidelity: {fid:.12f}")
        lines.append("cost:")
        lines.append(f"  quantum registers sent: {report.quantum_registers_sent}")
        lines.append(
            f"  classical elements sent ({report.policy}): {report.elements_sent} "
            f"({report.bits_sent} bits)"
        )
        lines.append(f"  bound k*M*|V|: {report.bound_elements} elements ({report.bound_bits} bits)")
        print("\n".join(lines))
    return 0 if fid >= 1 - FIDELITY_TOL else 1


def cmd_enumerate(args) -> int:
    net, scheme = _prepare_scheme(args)
    state = _load_input_state(args.input, scheme.ring, scheme.q, net.k, args.max_dim)
    if state is None:
        plan = plan_scheme(net, scheme, prune=args.prune, copy_skip=args.copy_skip)
        check_branch_count(plan, args.max_branches)
        state = _uniform_input(scheme.ring, scheme.q, net.k)
    total = skipped = 0
    lo, hi = math.inf, -math.inf
    for batch in enumerate_batches(
        net,
        scheme,
        state,
        max_branches=args.max_branches,
        prune=args.prune,
        copy_skip=args.copy_skip,
        max_entries=args.max_dim,
    ):
        fids = batch.fidelities[~np.isnan(batch.fidelities)]
        total += len(batch.fidelities)
        skipped += len(batch.fidelities) - len(fids)
        if len(fids):
            lo, hi = min(lo, float(fids.min())), max(hi, float(fids.max()))
    if skipped == total:
        lo = hi = 0.0
    if args.format == "json":
        _print_json({
            "command": "enumerate",
            "instance": str(args.instance),
            "branches": total,
            "realizable": total - skipped,
            "unrealizable": skipped,
            "min_fidelity": lo,
            "max_fidelity": hi,
        })
    else:
        print(f"instance: {args.instance}")
        print(f"{total} branches, min fidelity {lo:.12f}, max fidelity {hi:.12f}")
        if skipped:
            print(f"unrealizable branches skipped: {skipped}")
    return 0 if lo >= 1 - FIDELITY_TOL else 1


def cmd_cost(args) -> int:
    net, scheme = parse_network(args.instance)
    base = classical_cost(plan_scheme(net, scheme))
    pruned = classical_cost(plan_scheme(net, scheme, prune=True))
    if args.format == "json":
        payload = {"command": "cost", "instance": str(args.instance), **_cost_payload(base)}
        del payload["elements_sent"], payload["bits_sent"], payload["policy"]
        for report in (base, pruned):
            payload[f"{report.policy}_elements"] = report.elements_sent
            payload[f"{report.policy}_bits"] = report.bits_sent
        payload["per_node_broadcast"] = [
            {"node": n, "measured": m, "recipients": r, "elements": el} for n, m, r, el in base.per_node
        ]
        _print_json(payload)
    else:
        lines = [
            f"instance: {args.instance}",
            f"k: {base.k}  max fan-in M: {base.max_fan_in}  nodes |V|: {base.nodes}",
            f"bound k*M*|V|: {base.bound_elements} elements ({base.bound_bits} bits)",
            f"broadcast: {base.elements_sent} elements ({base.bits_sent} bits)",
            f"prune: {pruned.elements_sent} elements ({pruned.bits_sent} bits)",
            f"quantum registers sent over edges: {base.quantum_registers_sent}",
            "per node (broadcast):",
        ]
        for n, m, r, el in base.per_node:
            lines.append(f"  {n}: {m} measured x {r} recipients = {el} elements")
        print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on the first call, then reused
    (`parse_args` returns a fresh namespace, and no default is mutable)."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommands' parsers by name, built once."""
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

    return parser, {"verify": p_verify, "simulate": p_sim, "enumerate": p_enum, "cost": p_cost}


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of a call, from its subcommand's parser; the whole parser
    parses (and reports on) any call that parser does not take whole."""
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def _check_caps(args) -> None:
    for flag in ("--max-dim", "--max-branches"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < 1:
            raise InstanceError(f"{flag} must be at least 1, got {value}")


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_caps(args)
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, whatever the buffering
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the interpreter's
        # last flush does not fail too (the SIGPIPE note of Python's `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InvalidSchemeError, ZeroProbabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        flag = "--max-dim" if isinstance(exc, DimensionCapError) else "--max-branches"
        print(f"error: {exc} (use {flag} N)", file=sys.stderr)
        return 2
    except (
        InstanceError, RingError, QuantumError, OSError, MemoryError, json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
