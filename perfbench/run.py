#!/usr/bin/env python3
"""qnetcode benchmark: run one workload (or all) and report its metrics.

Run from the root of a qnetcode checkout:

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all                        # table of every metric

Each workload runs in its own child process (`child.py`) with one closed-loop
caller and BLAS threads capped at the core count. With `--trace 0` the
result holds the end-to-end metrics; set-up time is the median of several
fresh processes. With `--trace 1` it holds the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_mix", "enum_branches", "sim_tensor")
SETUP_SAMPLES = 7  # fresh processes whose set-up time enters the median
TIME_BUDGET_S = 170.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s/op",
    "network.parse_s": "s/op",
    "network.verify_s": "s/op",
    "network.verify_tuples": "calls/op",
    "network.transfer_s": "s/op",
    "network.transfer_per_scheme": "calls/scheme",
    "quantum.coding_s": "s/op",
    "quantum.coding_calls": "calls/op",
    "quantum.fourier_s": "s/op",
    "quantum.fourier_calls": "calls/op",
    "quantum.measure_s": "s/op",
    "quantum.measure_calls": "calls/op",
    "quantum.phase_s": "s/op",
    "quantum.phase_calls": "calls/op",
    "quantum.fidelity_s": "s/op",
    "quantum.fidelity_calls": "calls/op",
    "quantum.peak_amp_entries": "entries",
    "quantum.amp_entries_moved": "entries/op",
    "protocol.run_self_s": "s/op",
    "protocol.runs": "calls/op",
    "protocol.corrections_s": "s/op",
    "protocol.cost_s": "s/op",
    "protocol.measurements": "count/op",
    "protocol.elements_sent": "elements/op",
    "protocol.unrealizable_frac": "frac",
    "rings.mat_vec_calls": "calls/op",
    "rings.mat_mul_calls": "calls/op",
    "rings.elem_ops": "calls/op",
    "unattributed_s": "s/op",
    "trace_overhead_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _line_count(directory: str) -> int:
    total = 0
    for path in sorted(Path(directory).rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def _git_sha() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": _nproc(),
        "nproc": _nproc(),
        "git_sha": _git_sha(),
        "lines_src": _line_count("src"),
        "lines_scripts": _line_count("scripts"),
    }


def _child(workload, seed, seconds, trace, deadline, setup_only=False) -> dict:
    threads = str(_nproc())
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # a fixed string-hash seed removes one source of run-to-run variation
    env["PYTHONHASHSEED"] = "0"
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the run started")
    launched = time.time()
    try:
        proc = subprocess.run(
            argv + ["--launched-at", repr(launched)],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child process exceeded the time budget") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload}: child process exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, extra record) of one workload run."""
    deadline = time.monotonic() + TIME_BUDGET_S
    setups = []
    warm_failed = 0
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            sample = _child(workload, seed, seconds, trace, deadline, setup_only=True)
            setups.append(sample["setup_s"])
            warm_failed += sample["warm_failed"]
    main = _child(workload, seed, seconds, trace, deadline)
    setups.append(main["setup_s"])
    warm_failed += main["warm_failed"]
    units = PER_LAYER if trace else END_TO_END
    values = dict(main["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = main["peak_rss_mb"]
    result = {
        "correct": main["failed"] == 0 and warm_failed == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    extra = {
        "workload": workload,
        "seed": seed,
        "setup_samples_s": setups,
        "warm_up_failed": warm_failed,
        "absent": main.get("absent", []),
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, extra = results[args.workload]
        print(json.dumps({"environment": env, **extra}))
        print(json.dumps(result))
        return 0

    print(json.dumps({"environment": env}))
    ok = True
    for name, (result, extra) in results.items():
        failed_frac = result["failed"] / result["attempted"]
        ok = ok and result["correct"]
        print(f"{name}: {result['attempted']} ops, correct={result['correct']}")
        print(f"  {'ops_failed_frac':30s} {failed_frac:.6g} frac")
        for metric, entry in result["metrics"].items():
            label = " (computed)" if metric == "quantum.amp_entries_moved" else ""
            print(f"  {metric:30s} {entry['value']:.6g} {entry['unit']}{label}")
        if extra["absent"]:
            print(f"  absent functions: {', '.join(extra['absent'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
