#!/usr/bin/env python3
"""Step through the butterfly run node by node for a chosen branch.

Prints the live registers and nonzero amplitudes after every node, then the
correction tables and the final comparison with the input. Useful for seeing
where each measurement phase enters and how the targets cancel it.

    python3 scripts/butterfly_walkthrough.py --branch 101100110
"""

import argparse
from pathlib import Path

import numpy as np

from qnetcode.network import InstanceError, parse_network
from qnetcode.protocol import finish_run, node_steps, plan_scheme
from qnetcode.quantum import fidelity, init_state

INSTANCE = Path(__file__).resolve().parent.parent / "instances" / "butterfly_f2.json"


def show_state(state, note):
    print(f"  {note}")
    print(f"    registers: {' '.join(state.reg_ids)}")
    for idx in np.ndindex(*state.amps.shape):
        amp = state.amps[idx]
        if abs(amp) > 1e-12:
            ket = "".join(str(v) for v in idx)
            print(f"    |{ket}>  {amp.real:+.4f}{amp.imag:+.4f}i")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--branch", default="000000000", help="nine outcome labels")
    parser.add_argument(
        "--amps",
        default="0.5,0.5,0.5,0.5",
        help="four comma-separated real amplitudes for |00>,|01>,|10>,|11>",
    )
    args = parser.parse_args()
    branch = [int(ch) for ch in args.branch]
    amps = [float(tok) for tok in args.amps.split(",")]

    net, scheme = parse_network(INSTANCE)
    state = init_state(scheme.ring, scheme.q, net.k, amps)
    plan = plan_scheme(net, scheme)
    try:
        steps = list(node_steps(plan, state, branch=branch))
    except InstanceError as exc:
        parser.error(str(exc))

    print(f"instance: {INSTANCE.name}, branch {args.branch}")
    show_state(state, "input on the source registers")
    for step in steps:
        got = " ".join(f"{o.register}={o.label}" for o in step.entry.outcomes)
        show_state(step.state, f"after {step.node} (outcomes {got})")

    result = finish_run(plan, state, steps)
    for i, table in enumerate(result.phase_table.tables, start=1):
        values = [str(table[x]) for x in range(scheme.register_dim)]
        print(f"  correction h_{i}: {values}")
    show_state(result.state, "after corrections")

    print(f"fidelity with the input: {fidelity(state, result.state):.12f}")


if __name__ == "__main__":
    main()
