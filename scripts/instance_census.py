#!/usr/bin/env python3
"""Survey every bundled instance: verdict, branch census, and channel costs.

For instances with at most --full-enum branches the census enumerates every
branch; larger ones get --samples seeded runs. Fidelities are taken against
a fixed random superposition input.

    python3 scripts/instance_census.py
"""

import argparse
from pathlib import Path

import numpy as np

from qnetcode.network import parse_network
from qnetcode.protocol import classical_cost, enumerate_branches, plan_scheme, run_protocol
from qnetcode.quantum import fidelity, init_state

INSTANCES = sorted((Path(__file__).resolve().parent.parent / "instances").glob("*.json"))


def census(path, full_enum, samples):
    if path.name.startswith("superpos"):
        return None  # input-state fixture, not an instance
    net, scheme = parse_network(path)
    plan = plan_scheme(net, scheme)
    valid = plan.tmap.counterexample is None
    rng = np.random.default_rng(2718)
    d = scheme.register_dim
    amps = rng.normal(size=d**net.k) + 1j * rng.normal(size=d**net.k)
    amps /= np.linalg.norm(amps)
    state = init_state(scheme.ring, scheme.q, net.k, amps)

    branches = plan.branch_count
    if valid and branches <= full_enum:
        mode = f"all {branches}"
        branch_results = enumerate_branches(net, scheme, state, max_branches=full_enum)
        fids = [br.fidelity for br in branch_results]
    else:
        mode = f"{samples} sampled"
        fids = [
            fidelity(state, run_protocol(net, scheme, state, seed=s, check_classical=False).state)
            for s in range(samples)
        ]

    report = classical_cost(plan)
    return {
        "name": path.name,
        "ring": str(scheme.ring),
        "q": scheme.q,
        "valid": valid,
        "branches": branches,
        "mode": mode,
        "min_fid": min(fids),
        "elements": report.elements_sent,
        "bound": report.bound_elements,
        "registers": report.quantum_registers_sent,
    }


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full-enum", type=int, default=4096)
    parser.add_argument("--samples", type=positive_int, default=50)
    args = parser.parse_args()

    header = (
        f"{'instance':28} {'ring':12} {'q':>1} {'valid':5} {'branches':>8} "
        f"{'checked':>12} {'min fidelity':>14} {'elems':>5} {'bound':>5} {'regs':>4}"
    )
    print(header)
    print("-" * len(header))
    for path in INSTANCES:
        row = census(path, args.full_enum, args.samples)
        if row is None:
            continue
        print(
            f"{row['name']:28} {row['ring']:12} {row['q']:>1} "
            f"{str(row['valid']):5} {row['branches']:>8} {row['mode']:>12} "
            f"{row['min_fid']:>14.9f} {row['elements']:>5} {row['bound']:>5} "
            f"{row['registers']:>4}"
        )


if __name__ == "__main__":
    main()
