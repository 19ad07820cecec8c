import json
from pathlib import Path

import numpy as np
import pytest

from qnetcode.network import parse_network
from qnetcode.quantum import init_state

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="session")
def instances_dir():
    return INSTANCES


def load_instance(name):
    return parse_network(INSTANCES / name)


def random_input_state(scheme, k, seed):
    rng = np.random.default_rng(seed)
    d = scheme.register_dim
    amps = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    amps /= np.linalg.norm(amps)
    return init_state(scheme.ring, scheme.q, k, amps)


def butterfly_with_isolated_node() -> dict:
    """butterfly_f2 plus a node `iso` with no inputs and no outputs."""
    doc = json.loads((INSTANCES / "butterfly_f2.json").read_text())
    doc["nodes"].append("iso")
    doc["coding"]["iso"] = {"inputs": [], "outputs": []}
    return doc
