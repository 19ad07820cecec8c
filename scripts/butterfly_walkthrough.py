#!/usr/bin/env python3
"""Step through the butterfly run node by node for a chosen branch.

Prints the live registers and the support rows (nonzero amplitudes, in label
order) after every node, then the correction tables and the final comparison
with the input. Useful for seeing
where each measurement phase enters and how the targets cancel it.

    python3 scripts/butterfly_walkthrough.py --branch 101100110
"""

import argparse
from pathlib import Path

import numpy as np

from qnetcode.cli import _parse_branch
from qnetcode.network import InstanceError, parse_network
from qnetcode.protocol import finish_run, node_steps, plan_scheme
from qnetcode.quantum import fidelity, init_state

INSTANCE = Path(__file__).resolve().parent.parent / "instances" / "butterfly_f2.json"


def show_state(state, note):
    print(f"  {note}")
    print(f"    registers: {' '.join(state.reg_ids)}")
    for s in np.lexsort(state.labels.T[::-1]):
        amp = state.amps[s]
        if abs(amp) > 1e-12:
            ket = "".join(str(v) for v in state.labels[s])
            print(f"    |{ket}>  {amp.real:+.4f}{amp.imag:+.4f}i")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--branch", default="000000000", help="nine outcome labels, as digits or comma-separated"
    )
    parser.add_argument(
        "--amps",
        default="0.5,0.5,0.5,0.5",
        help="four comma-separated real amplitudes for |00>,|01>,|10>,|11>",
    )
    args = parser.parse_args()

    net, scheme = parse_network(INSTANCE)
    try:
        amps = [float(tok) for tok in args.amps.split(",")]
        state = init_state(scheme.ring, scheme.q, net.k, amps)
    except ValueError as exc:
        parser.error(f"bad --amps: {exc}")
    plan = plan_scheme(net, scheme)
    try:
        branch = _parse_branch(args.branch, scheme.register_dim)
        steps = list(node_steps(plan, state, branch=branch))
    except InstanceError as exc:
        parser.error(str(exc))

    print(f"instance: {INSTANCE.name}, branch {''.join(map(str, branch))}")
    show_state(state, "input on the source registers")
    for step in steps:
        got = " ".join(f"{o.register}={o.label}" for o in step.entry.outcomes)
        show_state(step.state, f"after {step.node} (outcomes {got})")

    result = finish_run(plan, state, steps)
    for i, row in enumerate(result.phase_table.fractions, start=1):
        print(f"  correction h_{i}: {list(row)}")
    show_state(result.state, "after corrections")

    print(f"fidelity with the input: {fidelity(state, result.state):.12f}")


if __name__ == "__main__":
    main()
