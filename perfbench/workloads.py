"""The three benchmark workloads.

Each workload does its set-up in `__init__` (generation, verification of
generated instances, parsing), fills the program's caches in `warm_up()`,
and yields one `(ok, seconds)` pair per op from `ops()`: `seconds` is the
time spent inside the program's call, `ok` is the verdict of the
benchmark's own output check. `ops()` restarts the same op sequence from
the seed each time it is called, so two passes over its first n ops do
identical work.

The qnetcode modules are looked up at call time (`self.cli.main`, ...), so
the tracer's patched module attributes are the ones called.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import time
from pathlib import Path

import numpy as np

import generate as gen

FIDELITY_TOL = 1e-9
INSTANCE_DIR = Path("instances")


class SetupError(RuntimeError):
    """A generated instance or a set-up step is invalid; no op is timed."""


def _modules():
    return {
        name: importlib.import_module(f"qnetcode.{name}")
        for name in ("cli", "network", "protocol", "quantum")
    }


def _load_doc(name: str) -> dict:
    with open(INSTANCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


_RAISED = object()


def _timed(fn, *args, **kwargs):
    """(result, seconds) of one call; the result is _RAISED if it raised."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:  # an exception from the program is a failed op
        result = _RAISED
    return result, time.perf_counter() - start


def _random_state(quantum, scheme, k: int, rng: np.random.Generator):
    size = scheme.register_dim**k
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return quantum.init_state(scheme.ring, scheme.q, k, amps / np.linalg.norm(amps))


def _verified(network, doc: dict):
    net, scheme = network.parse_network(doc)
    if not network.verify_solution(net, scheme):
        raise SetupError(f"generated instance over {doc['ring']} is not a solution")
    return net, scheme


# ---------------------------------------------------------------------------
# cli_mix

BUNDLED = (
    "butterfly_f2",
    "butterfly_gf4",
    "butterfly_z2_q2",
    "butterfly_z3",
    "butterfly_z4",
    "single_edge_f2",
)
BROKEN = "butterfly_f2_broken"
SIM_FLAGS = (
    (),
    ("--prune",),
    ("--copy-skip",),
    ("--alt-phi",),
    ("--prune", "--copy-skip", "--alt-phi"),
)
PATH_LENGTH = 6

_TEXT_FIDELITY = re.compile(r"^fidelity: (\S+)$", re.M)
_TEXT_BOUND = re.compile(r"bound k\*M\*\|V\|: (\d+) elements")
_TEXT_SENT = re.compile(r"classical elements sent \((\w+)\): (\d+)")
_TEXT_BROADCAST = re.compile(r"^broadcast: (\d+) elements", re.M)
_TEXT_BRANCHES = re.compile(r"^(\d+) branches, min fidelity (\S+),", re.M)


class _Call:
    """One CLI invocation and what its output must show."""

    def __init__(self, argv, doc, expect_exit=0, copy_skip=False, prune=False):
        self.argv = list(argv)
        self.doc = doc
        self.expect_exit = expect_exit
        self.copy_skip = copy_skip
        self.prune = prune
        self.json = "json" in self.argv

    def check(self, code: int, out: str) -> bool:
        if code != self.expect_exit:
            return False
        command = self.argv[0]
        payload = json.loads(out) if self.json else None
        if command == "verify":
            valid = payload["valid"] if payload else "solution: VALID" in out
            return valid == (self.expect_exit == 0)
        bound = gen.bound_elements(self.doc)
        if command == "cost":
            if payload:
                got = (payload["bound_elements"], payload["broadcast_elements"])
            else:
                got = (
                    int(_TEXT_BOUND.search(out).group(1)),
                    int(_TEXT_BROADCAST.search(out).group(1)),
                )
            return got == (bound, gen.broadcast_elements(self.doc))
        if command == "simulate":
            if payload:
                fid = payload["fidelity"]
                cost = payload["cost"]
                got_bound, sent = cost["bound_elements"], cost["elements_sent"]
            else:
                fid = float(_TEXT_FIDELITY.search(out).group(1))
                got_bound = int(_TEXT_BOUND.search(out).group(1))
                sent = int(_TEXT_SENT.search(out).group(2))
            broadcast = gen.broadcast_elements(self.doc, self.copy_skip)
            sent_ok = sent <= broadcast if self.prune else sent == broadcast
            return fid >= 1 - FIDELITY_TOL and got_bound == bound and sent_ok
        if command == "enumerate":
            if payload:
                branches, lo = payload["branches"], payload["min_fidelity"]
            else:
                m = _TEXT_BRANCHES.search(out)
                branches, lo = int(m.group(1)), float(m.group(2))
            return branches == gen.branch_count(self.doc, self.copy_skip) and (
                lo >= 1 - FIDELITY_TOL
            )
        return False


class CliMix:
    """In-process `qnetcode.cli.main` calls over every bundled instance.

    The menu of calls is fixed; the seed picks the order, the `--seed`
    values and the basis-state inputs, so every seed runs the same mix.
    """

    name = "cli_mix"

    def __init__(self, seed: int):
        self.mods = _modules()
        rng = np.random.default_rng(seed)
        docs = {name: _load_doc(name) for name in BUNDLED + (BROKEN,)}
        path = gen.routing_path(PATH_LENGTH)
        _verified(self.mods["network"], path)
        path_arg = json.dumps(path)

        calls: list[_Call] = []
        for i, name in enumerate(BUNDLED):
            doc, file = docs[name], str(INSTANCE_DIR / f"{name}.json")
            fmt = ("--format", ("json", "text")[i % 2])
            other = ("--format", ("text", "json")[i % 2])
            calls.append(_Call(["verify", file, *fmt], doc))
            calls.append(_Call(["cost", file, *other], doc))
            for j in (2 * i, 2 * i + 1):
                flags = SIM_FLAGS[j % len(SIM_FLAGS)]
                seed_arg = str(int(rng.integers(1 << 30)))
                calls.append(
                    _Call(
                        ["simulate", file, "--seed", seed_arg, *flags, *(fmt if j % 2 else other)],
                        doc,
                        copy_skip="--copy-skip" in flags,
                        prune="--prune" in flags,
                    )
                )
            d = gen.register_dim(doc)
            literal = ",".join(str(int(v)) for v in rng.integers(d, size=len(doc["pairs"])))
            zero = "0" * gen.measurement_count(doc)
            calls.append(
                _Call(["simulate", file, "--branch", zero, "--input", literal, *fmt], doc)
            )
        broken_file = str(INSTANCE_DIR / f"{BROKEN}.json")
        calls.append(_Call(["verify", broken_file, "--format", "json"], docs[BROKEN], 1))
        calls.append(_Call(["verify", broken_file], docs[BROKEN], 1))
        calls.append(_Call(["cost", broken_file], docs[BROKEN]))
        f2 = str(INSTANCE_DIR / "butterfly_f2.json")
        superpos = str(INSTANCE_DIR / "superpos_f2_k2.json")
        calls.append(
            _Call(
                ["simulate", f2, "--seed", str(int(rng.integers(1 << 30))), "--input", superpos],
                docs["butterfly_f2"],
            )
        )
        single = str(INSTANCE_DIR / "single_edge_f2.json")
        calls.append(_Call(["enumerate", single, "--format", "json"], docs["single_edge_f2"]))
        calls.append(
            _Call(["enumerate", single, "--copy-skip"], docs["single_edge_f2"], copy_skip=True)
        )
        for flags in ((), ("--copy-skip",)):
            calls.append(
                _Call(
                    ["simulate", path_arg, "--seed", str(int(rng.integers(1 << 30))), *flags],
                    path,
                    copy_skip=bool(flags),
                )
            )
        self.calls = [calls[i] for i in rng.permutation(len(calls))]
        self.trace_ops = len(self.calls)

    def _run(self, call: _Call) -> tuple[bool, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, elapsed = _timed(self.mods["cli"].main, call.argv)
        try:
            return code is not _RAISED and call.check(code, out.getvalue()), elapsed
        except (ValueError, KeyError, AttributeError, TypeError):
            return False, elapsed

    def warm_up(self) -> list[bool]:
        return [self._run(call)[0] for call in self.calls]

    def ops(self):
        while True:
            for call in self.calls:
                yield self._run(call)


# ---------------------------------------------------------------------------
# enum_branches

ENUM_CONFIGS = (
    # instance, copy_skip, prune
    ("butterfly_f2", False, False),
    ("butterfly_f2", True, False),
    ("butterfly_z3", True, False),
    ("butterfly_gf4", True, True),
)


class EnumBranches:
    """`enumerate_branches` with a per-branch fidelity check.

    All configurations enumerate side by side. Each op advances the one
    furthest behind in proportion to its branch count, so any prefix of the
    op sequence has the mix of a full cycle and every enumeration of a cycle
    ends together. Cycles alternate between the plain and the alternate
    coordinate map, and each enumeration gets a fresh seeded superposition.
    """

    name = "enum_branches"
    trace_ops = 600

    def __init__(self, seed: int):
        self.mods = _modules()
        self.seed = seed
        network = self.mods["network"]
        self.configs = []
        for name, copy_skip, prune in ENUM_CONFIGS:
            doc = _load_doc(name)
            net, scheme = network.parse_network(doc)
            schemes = (scheme, network.scheme_with_alternate_phi(scheme))
            self.configs.append((net, schemes, copy_skip, prune, gen.branch_count(doc, copy_skip)))

    def _start(self, config, cycle: int, rng):
        net, schemes, copy_skip, prune, _ = config
        scheme = schemes[cycle % 2]
        state = _random_state(self.mods["quantum"], scheme, net.k, rng)
        return self.mods["protocol"].enumerate_branches(
            net, scheme, state, prune=prune, copy_skip=copy_skip
        )

    @staticmethod
    def _branch_ok(item) -> bool:
        return item.fidelity is not None and item.fidelity >= 1 - FIDELITY_TOL

    def warm_up(self) -> list[bool]:
        rng = np.random.default_rng(self.seed)
        out = []
        for config in self.configs:
            for cycle in (0, 1):
                branches = self._start(config, cycle, rng)
                out.append(self._branch_ok(next(branches)))
                branches.close()
        return out

    def ops(self):
        rng = np.random.default_rng(self.seed)
        cycle = 0
        while True:
            gens = [self._start(c, cycle, rng) for c in self.configs]
            totals = [c[4] for c in self.configs]
            done = [0] * len(gens)
            while True:
                i = min(range(len(gens)), key=lambda c: done[c] / totals[c])
                if done[i] >= totals[i]:
                    break
                start = time.perf_counter()
                try:
                    item = next(gens[i])
                    elapsed = time.perf_counter() - start
                    ok = self._branch_ok(item)
                    done[i] += 1
                    if done[i] == totals[i]:
                        # the branch count is right only if nothing follows
                        ok = ok and next(gens[i], None) is None
                except Exception:  # includes StopIteration: too few branches
                    elapsed = time.perf_counter() - start
                    ok = False
                    done[i] = totals[i]
                yield ok, elapsed
            cycle += 1


# ---------------------------------------------------------------------------
# sim_tensor

SIM_INSTANCES = (
    # k, ring, q
    (3, "Z(3)", 1),
    (4, "Z(2)", 1),
    (3, "Z(2)", 2),
)


class SimTensor:
    """Seeded `run_protocol` runs on generated k-pair butterflies, round robin."""

    name = "sim_tensor"
    trace_ops = 6

    def __init__(self, seed: int):
        self.mods = _modules()
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.cases = []
        for k, ring, q in SIM_INSTANCES:
            doc = gen.butterfly(k, ring, q)
            net, scheme = _verified(self.mods["network"], doc)
            state = _random_state(self.mods["quantum"], scheme, k, rng)
            self.cases.append((net, scheme, state, gen.broadcast_elements(doc)))

    def _run(self, case, seed: int) -> tuple[bool, float]:
        net, scheme, state, elements = case
        result, elapsed = _timed(
            self.mods["protocol"].run_protocol,
            net, scheme, state, seed=seed, check_classical=False,
        )
        if result is _RAISED:
            return False, elapsed
        fid = self.mods["quantum"].fidelity(state, result.state)
        return fid >= 1 - FIDELITY_TOL and result.log.elements_sent == elements, elapsed

    def warm_up(self) -> list[bool]:
        return [self._run(case, self.seed)[0] for case in self.cases]

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for case in self.cases:
                yield self._run(case, int(rng.integers(1 << 30)))


WORKLOADS = {w.name: w for w in (CliMix, EnumBranches, SimTensor)}
