"""One workload in its own process: set up, warm up, then time or trace it.

Run from the root of a qnetcode checkout; `run.py` starts it. The package is
imported from the checkout's `src/`, never from an installed copy. The last
line of standard output is one JSON object with the raw results.

    python3 perfbench/child.py --workload sim_tensor --seed 1 --seconds 5 \
        --trace 0 --launched-at <time.time() of the launch>
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path("src")


def _import_package() -> None:
    init = SRC / "qnetcode" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a qnetcode checkout")
    sys.path.insert(0, str(SRC.resolve()))
    import qnetcode

    if Path(qnetcode.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported qnetcode from {qnetcode.__file__}, not {init}")


def _timed_run(workload, seconds: float) -> dict:
    times = []
    failed = 0
    ops = workload.ops()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ok, elapsed = next(ops)
        times.append(elapsed)
        failed += not ok
    ops.close()
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "ops_per_s": len(times) / sum(times),
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_p90": p90 * 1e3,
            "ops_ok_frac": (len(times) - failed) / len(times),
        },
    }


def _pass(workload, n: int) -> tuple[float, int]:
    """Wall time and failures of the first n ops."""
    failed = 0
    ops = workload.ops()
    start = time.perf_counter()
    for _ in range(n):
        failed += not next(ops)[0]
    wall = time.perf_counter() - start
    ops.close()
    return wall, failed


def _traced_run(workload, seconds: float) -> dict:
    """Alternate untraced and traced passes over the same ops until time is up."""
    from tracing import QUANTUM_OPS, Tracer

    tracer = Tracer()
    n = workload.trace_ops
    plain_wall = traced_wall = 0.0
    passes = failed = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        # alternate which pass goes first, so drift within the run cancels
        for traced in (passes % 2 == 0, passes % 2 == 1):
            if not traced:
                wall, bad = _pass(workload, n)
                plain_wall += wall
                failed += bad
                continue
            tracer.install()
            try:
                wall, bad = _pass(workload, n)
            finally:
                tracer.restore()
            tracer.end_pass()
            traced_wall += wall
            failed += bad
        passes += 1

    ops = n * passes
    counts, group = tracer.counts, tracer.group_time
    run_self = (
        tracer.layer_self("protocol")
        - tracer.self_time["protocol.compute_corrections"]
        - tracer.self_time["protocol.classical_cost"]
    )
    metrics = {
        "cli.self_s": tracer.layer_self("cli") / ops,
        "network.parse_s": group["parse"] / ops,
        "network.verify_s": group["verify"] / ops,
        "network.verify_tuples": counts["network.evaluate_classical"] / ops,
        "network.transfer_s": group["transfer"] / ops,
        "network.transfer_per_scheme": (
            counts["network.transfer_coefficients"] / tracer.scheme_count
            if tracer.scheme_count
            else 0.0
        ),
        "quantum.peak_amp_entries": tracer.peak_entries,
        "quantum.amp_entries_moved": tracer.entries_moved / ops,
        "protocol.run_self_s": run_self / ops,
        "protocol.runs": counts["protocol.run_protocol"] / ops,
        "protocol.corrections_s": group["corrections"] / ops,
        "protocol.cost_s": group["cost"] / ops,
        "protocol.measurements": counts["measurements"] / ops,
        "protocol.elements_sent": counts["elements_sent"] / ops,
        "protocol.unrealizable_frac": (
            counts["unrealizable"] / counts["branches"] if counts["branches"] else 0.0
        ),
        "rings.mat_vec_calls": counts["rings.mat_vec"] / ops,
        "rings.mat_mul_calls": counts["rings.mat_mul"] / ops,
        "rings.elem_ops": counts["rings.elem_ops"] / ops,
        "unattributed_s": (traced_wall - tracer.covered_s) / ops,
        "trace_overhead_frac": traced_wall / plain_wall - 1.0,
    }
    for stem, fn in QUANTUM_OPS.items():
        metrics[f"quantum.{stem}_s"] = group[stem] / ops
        metrics[f"quantum.{stem}_calls"] = counts[f"quantum.{fn}"] / ops
    failed_observers = sorted(k.partition(":")[2] for k in counts if k.startswith("observe_failed:"))
    return {
        "attempted": 2 * ops,
        "failed": failed,
        "metrics": metrics,
        "absent": tracer.absent + failed_observers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm_ok = workload.warm_up()
    setup_s = time.time() - args.launched_at
    if args.setup_only:
        result = {"setup_s": setup_s, "warm_failed": warm_ok.count(False)}
    else:
        run = _traced_run if args.trace else _timed_run
        result = run(workload, args.seconds)
        result["setup_s"] = setup_s
        result["warm_failed"] = warm_ok.count(False)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
