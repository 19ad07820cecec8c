"""Acceptance gate: one test per release criterion, run with -v (add -s to
see the per-criterion summary lines)."""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import INSTANCES, load_instance, random_input_state
from oracles import evaluate, evaluate_classical, frac_mod1, is_homomorphism, phase_fractions
from qnetcode.cli import main as cli_main
from qnetcode.network import (
    scheme_with_alternate_phi,
    transfer_coefficients,
    verify_solution,
)
from qnetcode.protocol import enumerate_branches, run_protocol
from qnetcode.quantum import basis_state, fidelity

TOL = 1e-9

# phase tables produced while running criteria 1 to 6, checked in criterion 9
COLLECTED_TABLES: list = []


def _superpositions(scheme, k, count, seed0):
    return [random_input_state(scheme, k, seed0 + i) for i in range(count)]


def _enumerate_all_perfect(net, scheme, state, collect=True):
    worst = 1.0
    count = 0
    for br in enumerate_branches(net, scheme, state):
        assert br.fidelity is not None
        worst = min(worst, br.fidelity)
        count += 1
        if collect:
            COLLECTED_TABLES.append(br.result.phase_table)
    return count, worst


def test_criterion_01_golden_butterfly_all_branches():
    net, scheme = load_instance("butterfly_f2.json")
    inputs = [basis_state(scheme.ring, 1, labels) for labels in itertools.product((0, 1), repeat=2)]
    inputs += _superpositions(scheme, net.k, 10, seed0=1000)
    started = time.perf_counter()
    worst = 1.0
    for state in inputs:
        count, w = _enumerate_all_perfect(net, scheme, state)
        assert count == 512
        worst = min(worst, w)
    elapsed = time.perf_counter() - started
    assert worst >= 1 - TOL
    assert elapsed < 10.0
    print(f"criterion 1: PASS (512 branches x 14 inputs, min fidelity {worst:.12f}, {elapsed:.1f}s)")


def test_criterion_02_phase_table_closed_forms():
    net, scheme = load_instance("butterfly_f2.json")
    state = basis_state(scheme.ring, 1, (0, 0))
    rng = np.random.default_rng(20)
    for _ in range(20):
        branch = tuple(int(v) for v in rng.integers(0, 2, size=9))
        a, b, c1, c2, d, e1, e2, f1, f2 = branch
        result = run_protocol(net, scheme, state, branch=branch)
        h1, h2 = phase_fractions(result.phase_table)
        for z in (0, 1):
            assert h1[z] == frac_mod1(Fraction((a + c1 + d + e2 + f1 + f2) * z, 2))
            assert h2[z] == frac_mod1(Fraction((b + c2 + d + e1 + e2 + f2) * z, 2))
        COLLECTED_TABLES.append(result.phase_table)
    print("criterion 2: PASS (20 forced branches match both closed-form tables exactly)")


def test_criterion_03_pre_correction_signs():
    net, scheme = load_instance("butterfly_f2.json")
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(20):
        branch = tuple(int(v) for v in rng.integers(0, 2, size=9))
        a, b, c1, c2, d, e1, e2, f1, f2 = branch
        signs = {
            (0, 0): 0,
            (0, 1): b + c2 + d + e1 + e2 + f2,
            (1, 0): a + c1 + d + e2 + f1 + f2,
            (1, 1): a + b + c1 + c2 + e1 + f1,
        }
        for labels, exponent in signs.items():
            state = basis_state(scheme.ring, 1, labels)
            result = run_protocol(net, scheme, state, branch=branch)
            amp = result.pre_correction.amplitude(labels)
            assert amp == pytest.approx((-1) ** (exponent % 2), abs=TOL)
            checked += 1
    print(f"criterion 3: PASS ({checked} amplitude signs match the worked example)")


def test_criterion_04_cost_accounting():
    net, scheme = load_instance("butterfly_f2.json")
    state = basis_state(scheme.ring, 1, (0, 0))
    result = run_protocol(net, scheme, state, branch=(0,) * 9)
    from qnetcode.protocol import classical_cost

    report = classical_cost(result.plan)
    assert report.bound_elements == 24
    assert report.bound_bits == 24
    assert report.elements_sent == 18
    assert report.quantum_registers_sent == 7
    print("criterion 4: PASS (bound 24/24 bits, broadcast 18 elements, 7 registers)")


@pytest.mark.parametrize(
    "name", ["butterfly_z3.json", "butterfly_z4.json", "butterfly_gf4.json"]
)
def test_criterion_05_ring_generality(name):
    net, scheme = load_instance(name)
    assert verify_solution(net, scheme)
    state = random_input_state(scheme, net.k, 500)
    for seed in range(100):
        result = run_protocol(net, scheme, state, seed=seed)
        assert fidelity(state, result.state) >= 1 - TOL
        COLLECTED_TABLES.append(result.phase_table)
    print(f"criterion 5: PASS ({name}: verified solution, 100 seeded branches perfect)")


def test_criterion_06_vector_linear_q2():
    net, scheme = load_instance("butterfly_z2_q2.json")
    assert scheme.register_dim == 4
    assert verify_solution(net, scheme)
    rng = np.random.default_rng(60)
    branches = [(0,) * 9] + [
        tuple(int(v) for v in rng.integers(0, 4, size=9)) for _ in range(200)
    ]
    for state in _superpositions(scheme, net.k, 5, seed0=600):
        for branch in branches:
            result = run_protocol(net, scheme, state, branch=branch)
            assert fidelity(state, result.state) >= 1 - TOL
        COLLECTED_TABLES.append(result.phase_table)
    print("criterion 6: PASS (201 forced branches x 5 superpositions at q=2 perfect)")


def test_criterion_07_transfer_oracle_equivalence():
    names = [
        "butterfly_f2.json",
        "butterfly_z3.json",
        "butterfly_z4.json",
        "butterfly_gf4.json",
        "butterfly_z2_q2.json",
        "single_edge_f2.json",
        "butterfly_f2_broken.json",
    ]
    for name in names:
        net, scheme = load_instance(name)
        assert scheme.register_dim**net.k <= 4096
        tmap = transfer_coefficients(net, scheme)
        for inputs in itertools.product(range(scheme.register_dim), repeat=net.k):
            _, values = evaluate_classical(net, scheme, inputs, collect_edges=True)
            for edge, value in values.items():
                assert evaluate(tmap, edge, inputs) == value
    print(f"criterion 7: PASS (transfer rows match brute-force values on {len(names)} instances)")


def test_criterion_08_negative_instance(capsys):
    broken = str(INSTANCES / "butterfly_f2_broken.json")
    code = cli_main(["verify", broken])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out

    net, scheme = load_instance("butterfly_f2_broken.json")
    state = basis_state(scheme.ring, 1, (0, 1))
    fids = [br.fidelity for br in enumerate_branches(net, scheme, state)]
    assert min(fids) <= 0.9
    print(f"criterion 8: PASS (verify exits 1, min branch fidelity {min(fids):.3f} <= 0.9)")


def test_criterion_09_homomorphism_suite():
    assert COLLECTED_TABLES, "criteria 1-6 must run before the homomorphism suite"
    for table in COLLECTED_TABLES:
        assert is_homomorphism(table)
    print(f"criterion 9: PASS ({len(COLLECTED_TABLES)} phase tables are additive)")


def test_criterion_10_phi_independence():
    net, scheme = load_instance("butterfly_f2.json")
    twisted = scheme_with_alternate_phi(scheme)
    inputs = [basis_state(twisted.ring, 1, labels) for labels in itertools.product((0, 1), repeat=2)]
    inputs += _superpositions(twisted, net.k, 10, seed0=1000)
    worst = 1.0
    for state in inputs:
        count, w = _enumerate_all_perfect(net, twisted, state, collect=False)
        assert count == 512
        worst = min(worst, w)
    assert worst >= 1 - TOL
    print(f"criterion 10: PASS (alternate coordinate map, min fidelity {worst:.12f})")
