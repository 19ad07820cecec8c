import importlib.util
import json
from collections import OrderedDict
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import qnetcode.network
from qnetcode.network import parse_network
from qnetcode.quantum import init_state, state_from_rows

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"

# two parallel edges s -> t, and t outputs 0 * e1 + 1 * e2: the coding table
# does not determine e1 from the outputs and e2, but every support row does
PARALLEL_EDGES = {
    "ring": "Z(2)",
    "q": 1,
    "nodes": ["s", "t"],
    "edges": [{"id": "e1", "from": "s", "to": "t"}, {"id": "e2", "from": "s", "to": "t"}],
    "pairs": [{"source": "s", "target": "t"}],
    "coding": {
        "s": {"inputs": ["src:1"], "outputs": [{"edge": "e1", "coeffs": [1]}, {"edge": "e2", "coeffs": [1]}]},
        "t": {"inputs": ["e1", "e2"], "outputs": [{"edge": "tgt:1", "coeffs": [0, 1]}]},
    },
}


@pytest.fixture(scope="session")
def instances_dir():
    return INSTANCES


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo for one test (`network.memoised`): what the test parses
    or plans is built anew, whatever other tests parsed or planned before."""
    memo = OrderedDict()
    monkeypatch.setattr(qnetcode.network, "_memo", memo)
    return memo


def load_instance(name):
    return parse_network(INSTANCES / name)


def random_input_state(scheme, k, seed):
    rng = np.random.default_rng(seed)
    d = scheme.register_dim
    amps = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    amps /= np.linalg.norm(amps)
    return init_state(scheme.ring, scheme.q, k, amps)


def choi_state(scheme, k):
    """src:i maximally entangled with an untouched ref:i, for every pair: the
    d^k rows |x, x>, built as rows (no d^(2k) array)."""
    d = scheme.register_dim
    x = np.indices((d,) * k).reshape(k, -1).T
    regs = tuple(f"src:{i}" for i in range(1, k + 1)) + tuple(f"ref:{i}" for i in range(1, k + 1))
    amps = np.full(len(x), d ** (-k / 2))
    return state_from_rows(scheme.ring, scheme.q, np.concatenate((x, x), axis=1), amps, reg_ids=regs)


def butterfly_with_isolated_node() -> dict:
    """butterfly_f2 plus a node `iso` with no inputs and no outputs."""
    doc = json.loads((INSTANCES / "butterfly_f2.json").read_text())
    doc["nodes"].append("iso")
    doc["coding"]["iso"] = {"inputs": [], "outputs": []}
    return doc


@cache
def _benchmark_generator():
    spec = importlib.util.spec_from_file_location("generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated_butterfly(k: int, ring: str, q: int) -> dict:
    """The k-pair butterfly document of the benchmark's generator."""
    return _benchmark_generator().butterfly(k, ring, q)
