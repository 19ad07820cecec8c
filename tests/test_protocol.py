import dataclasses
import functools
import gc
import itertools
import json
import tracemalloc
import warnings
import weakref
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    INSTANCES,
    PARALLEL_EDGES,
    butterfly_with_isolated_node,
    choi_state,
    generated_butterfly,
    load_instance,
    random_input_state,
)
from oracles import frac_mod1, is_homomorphism, phase_fractions
import qnetcode.network
from qnetcode.cli import main
from qnetcode.network import (
    MEMO_SIZE,
    CapExceededError,
    CodingScheme,
    InstanceError,
    TransferMap,
    parse_network,
    scheme_with_alternate_phi,
    transfer_coefficients,
    verify_solution,
)
from qnetcode.protocol import (
    InvalidSchemeError,
    PhaseTable,
    classical_cost,
    compute_corrections,
    enumerate_branches,
    finish_run,
    node_steps,
    plan_scheme,
    run_protocol,
)
from qnetcode.quantum import (
    DimensionCapError,
    QuantumError,
    SupportState,
    basis_state,
    fidelity,
    init_state,
)
from qnetcode.rings import parse_ring_spec

VALID_INSTANCES = [
    p.name
    for p in sorted(INSTANCES.glob("*.json"))
    if not p.name.startswith("superpos") and p.name != "butterfly_f2_broken.json"
]

# forced-branch order for the bundled butterfly:
# s1 -> a, s2 -> b, n1 -> (c1, c2), n2 -> d, t1 -> (e1, e2), t2 -> (f1, f2)
BRANCH_VARS = "a b c1 c2 d e1 e2 f1 f2".split()


def butterfly_phase_exponent(branch, x1, x2):
    """Sign exponent of the pre-correction amplitude on basis input (x1, x2)."""
    a, b, c1, c2, d, e1, e2, f1, f2 = branch
    return (
        a * x1
        + b * x2
        + c1 * x1
        + c2 * x2
        + d * (x1 + x2)
        + e1 * x2
        + e2 * (x1 + x2)
        + f1 * x1
        + f2 * (x1 + x2)
    ) % 2


def encode(state, node, net, scheme, forced):
    """Run one node of the scheme's plan on a state, with forced outcomes."""
    plan = plan_scheme(net, scheme)
    p = next(p for p in plan.nodes if p.node == node)
    (step,) = node_steps(dataclasses.replace(plan, nodes=(p,)), state, branch=forced)
    return step.state, step.entry.outcomes


class TestEncodeNode:
    def test_n1_phase_kickback(self):
        net, scheme = load_instance("butterfly_f2.json")
        for y1, y2, c1, c2 in itertools.product((0, 1), repeat=4):
            state = basis_state(scheme.ring, 1, (y1, y2), reg_ids=("R2", "R4"))
            state, outcomes = encode(state, "n1", net, scheme, forced=(c1, c2))
            assert [o.label for o in outcomes] == [c1, c2]
            assert state.reg_ids == ("R5",)
            expected = (-1) ** (c1 * y1 + c2 * y2)
            assert state.amplitude(((y1 + y2) % 2,)) == pytest.approx(expected, abs=1e-12)

    def test_source_fanout_phase(self):
        net, scheme = load_instance("butterfly_f2.json")
        for y, a in itertools.product((0, 1), repeat=2):
            state = basis_state(scheme.ring, 1, (y, 0))
            state, outcomes = encode(state, "s1", net, scheme, forced=(a,))
            assert state.reg_ids == ("src:2", "R1", "R2")
            assert state.amplitude((0, y, y)) == pytest.approx((-1) ** (a * y), abs=1e-12)

    def test_zero_outcomes_add_no_phase(self):
        net, scheme = load_instance("butterfly_z4.json")
        for y1, y2 in itertools.product(range(4), repeat=2):
            state = basis_state(scheme.ring, 1, (y1, y2), reg_ids=("R2", "R4"))
            state, _ = encode(state, "n1", net, scheme, forced=(0, 0))
            assert state.amplitude(((y1 + y2) % 4,)) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_state_after_sources(self):
        # after both sources fire with outcomes (a, b), the four components
        # carry signs 1, (-1)^b, (-1)^a, (-1)^(a+b) on |x1 x1 x2 x2>
        net, scheme = load_instance("butterfly_f2.json")
        amps = np.array([0.5, 0.5, 0.5, 0.5])
        for a, b in itertools.product((0, 1), repeat=2):
            state = init_state(scheme.ring, 1, 2, amps)
            state, _ = encode(state, "s1", net, scheme, forced=(a,))
            state, _ = encode(state, "s2", net, scheme, forced=(b,))
            assert state.reg_ids == ("R1", "R2", "R3", "R4")
            for x1, x2 in itertools.product((0, 1), repeat=2):
                got = state.amplitude((x1, x1, x2, x2))
                assert got == pytest.approx(0.5 * (-1) ** (a * x1 + b * x2), abs=1e-12)


    def test_node_steps_checks_a_forced_branch(self):
        net, scheme = load_instance("butterfly_f2.json")
        plan, state = plan_scheme(net, scheme), basis_state(scheme.ring, 1, (0, 0))
        with pytest.raises(InstanceError, match="branch must list 9 outcome labels, got 10"):
            list(node_steps(plan, state, branch=(0,) * 10))
        with pytest.raises(InstanceError, match="branch labels out of range"):
            list(node_steps(plan, state, branch=(0,) * 8 + (2,)))

    def test_node_steps_refuses_a_branch_with_an_rng(self):
        net, scheme = load_instance("butterfly_f2.json")
        plan, state = plan_scheme(net, scheme), basis_state(scheme.ring, 1, (0, 0))
        with pytest.raises(InstanceError, match="give either a branch or an rng, not both"):
            next(node_steps(plan, state, np.random.default_rng(3), branch=(1,) * 9))

    def test_node_steps_checks_the_cap_before_coding(self, fresh_memo):
        # s1 codes the 4-amplitude input into two outputs: 4 * 2^2 amplitudes
        net, scheme = load_instance("butterfly_f2.json")
        plan, state = plan_scheme(net, scheme), basis_state(scheme.ring, 1, (0, 0))
        with pytest.raises(DimensionCapError, match="hold 16 amplitudes, above the cap 15$"):
            next(node_steps(plan, state, branch=(0,) * 9, max_entries=15))
        assert plan._coding == {}  # refused before s1's coding table was built
        assert next(node_steps(plan, state, branch=(0,) * 9, max_entries=16)).node == "s1"


class TestRunProtocol:
    def test_zero_branch_is_exact_identity(self):
        net, scheme = load_instance("butterfly_f2.json")
        for labels in itertools.product((0, 1), repeat=2):
            state = basis_state(scheme.ring, 1, labels)
            result = run_protocol(net, scheme, state, branch=(0,) * 9)
            assert result.state.reg_ids == ("tgt:1", "tgt:2")
            assert result.state.amplitude(labels) == pytest.approx(1.0, abs=1e-9)
            assert not result.phase_table.numerators.any()

    def test_superposition_any_seed(self):
        net, scheme = load_instance("butterfly_f2.json")
        for seed in range(8):
            state = random_input_state(scheme, net.k, seed)
            result = run_protocol(net, scheme, state, seed=seed)
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)
            # stronger than fidelity: amplitudes come back exactly
            assert np.allclose(result.state.amps, state.amps, atol=1e-9)

    def test_forced_branch_pre_correction_signs(self):
        net, scheme = load_instance("butterfly_f2.json")
        rng = np.random.default_rng(2024)
        for _ in range(10):
            branch = tuple(rng.integers(0, 2, size=9))
            for x1, x2 in itertools.product((0, 1), repeat=2):
                state = basis_state(scheme.ring, 1, (x1, x2))
                result = run_protocol(net, scheme, state, branch=branch)
                amp = result.pre_correction.amplitude((x1, x2))
                expected = (-1) ** butterfly_phase_exponent(branch, x1, x2)
                assert amp == pytest.approx(expected, abs=1e-9)

    def test_seeded_determinism(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = random_input_state(scheme, net.k, 7)
        r1 = run_protocol(net, scheme, state, seed=123)
        r2 = run_protocol(net, scheme, state, seed=123)
        assert r1.log.branch_labels() == r2.log.branch_labels()
        assert np.array_equal(r1.state.amps, r2.state.amps)

    def test_invalid_scheme_rejected_by_default(self):
        net, scheme = load_instance("butterfly_f2_broken.json")
        state = basis_state(scheme.ring, 1, (0, 1))
        with pytest.raises(InvalidSchemeError):
            run_protocol(net, scheme, state, seed=0)

    def test_needs_seed_or_branch(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        with pytest.raises(Exception, match="seed"):
            run_protocol(net, scheme, state)

    @pytest.mark.parametrize("ring, q", [("Z(3)", 1), ("Z(2)", 2)])
    def test_input_ring_or_width_mismatch(self, ring, q):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(parse_ring_spec(ring), q, (0, 0))
        with pytest.raises(InstanceError, match="ring or width does not match"):
            run_protocol(net, scheme, state, seed=0)

    @pytest.mark.parametrize(
        "name", ["butterfly_z3.json", "butterfly_z4.json", "butterfly_gf4.json"]
    )
    def test_other_rings_fidelity(self, name):
        net, scheme = load_instance(name)
        state = random_input_state(scheme, net.k, 42)
        for seed in range(10):
            result = run_protocol(net, scheme, state, seed=seed)
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)

    def test_vector_linear_q2(self):
        net, scheme = load_instance("butterfly_z2_q2.json")
        assert scheme.register_dim == 4
        state = random_input_state(scheme, net.k, 8)
        result = run_protocol(net, scheme, state, branch=(0,) * 9)
        assert np.allclose(result.state.amps, state.amps, atol=1e-9)
        for seed in range(5):
            result = run_protocol(net, scheme, state, seed=seed)
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)


class TestCorrections:
    def test_closed_form_tables(self):
        net, scheme = load_instance("butterfly_f2.json")
        rng = np.random.default_rng(99)
        state = basis_state(scheme.ring, 1, (0, 0))
        for _ in range(20):
            branch = tuple(int(v) for v in rng.integers(0, 2, size=9))
            a, b, c1, c2, d, e1, e2, f1, f2 = branch
            result = run_protocol(net, scheme, state, branch=branch)
            h1, h2 = phase_fractions(result.phase_table)
            for z in (0, 1):
                assert h1[z] == frac_mod1(Fraction((a + c1 + d + e2 + f1 + f2) * z, 2))
                assert h2[z] == frac_mod1(Fraction((b + c2 + d + e1 + e2 + f2) * z, 2))

    def test_tables_are_homomorphisms(self):
        for name in [
            "butterfly_f2.json",
            "butterfly_z3.json",
            "butterfly_z4.json",
            "butterfly_gf4.json",
            "butterfly_z2_q2.json",
        ]:
            net, scheme = load_instance(name)
            state = random_input_state(scheme, net.k, 1)
            result = run_protocol(net, scheme, state, seed=17)
            assert is_homomorphism(result.phase_table)
            assert not result.phase_table.numerators[:, 0].any()

    def test_zero_outcomes_zero_tables(self):
        net, scheme = load_instance("butterfly_gf4.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        result = run_protocol(net, scheme, state, branch=(0,) * 9)
        assert not result.phase_table.numerators.any()

    def test_one_correction_matrix_per_plan(self):
        net, scheme = load_instance("butterfly_z2_q2.json")
        state = random_input_state(scheme, net.k, 2)
        plans = [run_protocol(net, scheme, state, seed=s, copy_skip=True).plan for s in range(3)]
        plan = plans[0]
        width = len(scheme.ring.moduli) * scheme.q
        assert plan.measured == ("R2", "R4", "R3", "R7", "R1", "R6")  # sources and n2 only copy
        assert plan.corrections.shape == (len(plan.measured) * width, net.k * scheme.register_dim)
        assert all(p.corrections is plan.corrections for p in plans)

    def test_corrections_refuse_another_plans_log(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (1, 0))
        result = run_protocol(net, scheme, state, branch=(1,) * 9)
        reordered = dataclasses.replace(result.log, entries=result.log.entries[::-1])
        with pytest.raises(InstanceError, match="the log does not measure the plan's registers"):
            compute_corrections(reordered, result.plan)
        with pytest.raises(InstanceError, match="the log does not measure the plan's registers"):
            compute_corrections(result.log, plan_scheme(net, scheme, copy_skip=True))

    def test_homomorphism_check_rejects_non_additive_tables(self):
        ring = parse_ring_spec("Z(4)")
        assert is_homomorphism(PhaseTable(ring, 1, np.array([[0, 1, 2, 3]])))
        assert not is_homomorphism(PhaseTable(ring, 1, np.array([[0, 1, 3, 3]])))
        assert not is_homomorphism(PhaseTable(ring, 1, np.array([[1, 1, 1, 1]])))

    def test_pre_correction_matches_table_phase(self):
        # on basis input the only surviving amplitude carries exactly the
        # phase the combined correction tables predict
        net, scheme = load_instance("butterfly_z3.json")
        rng = np.random.default_rng(5)
        for _ in range(10):
            branch = tuple(int(v) for v in rng.integers(0, 3, size=9))
            for x1, x2 in itertools.product(range(3), repeat=2):
                state = basis_state(scheme.ring, 1, (x1, x2))
                result = run_protocol(net, scheme, state, branch=branch)
                h1, h2 = phase_fractions(result.phase_table)
                expected = np.exp(2j * np.pi * float(frac_mod1(h1[x1] + h2[x2])))
                assert result.pre_correction.amplitude((x1, x2)) == pytest.approx(
                    expected, abs=1e-9
                )
                assert result.state.amplitude((x1, x2)) == pytest.approx(1.0, abs=1e-9)


class TestCost:
    def test_butterfly_broadcast_numbers(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        result = run_protocol(net, scheme, state, branch=(0,) * 9)
        report = classical_cost(result.plan)
        assert report.bound_elements == 2 * 2 * 6 == 24
        assert report.bound_bits == 24
        assert report.elements_sent == 18  # k times total fan-in
        assert report.bits_sent == 18
        assert report.quantum_registers_sent == 7 == report.edges

    def test_prune_policy(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        result = run_protocol(net, scheme, state, branch=(0,) * 9, prune=True)
        report = classical_cost(result.plan)
        # sources inform one target each, n1/n2 both, targets only each other
        assert report.elements_sent == 12
        assert report.elements_sent <= 18
        by_node = {row[0]: row for row in report.per_node}
        assert by_node["s1"][2] == 1 and by_node["n1"][2] == 2 and by_node["t1"][2] == 1

    def test_prune_run_still_perfect(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = random_input_state(scheme, net.k, 12)
        result = run_protocol(net, scheme, state, seed=4, prune=True)
        assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)

    def test_q2_bound_scales_with_width(self):
        net, scheme = load_instance("butterfly_z2_q2.json")
        state = basis_state(scheme.ring, 2, (0, 0))
        result = run_protocol(net, scheme, state, branch=(0,) * 9)
        report = classical_cost(result.plan)
        assert report.bound_elements == 24 * 2
        assert report.elements_sent == 18 * 2

    def test_empty_instance_vacuous_cost(self):
        from qnetcode.network import parse_network

        net, scheme = parse_network(
            {"ring": "Z(2)", "q": 1, "nodes": [], "edges": [], "pairs": [], "coding": {}}
        )
        state = init_state(scheme.ring, 1, 0, [1.0])
        result = run_protocol(net, scheme, state, branch=())
        report = classical_cost(result.plan)
        assert report.bound_elements == 0
        assert report.elements_sent == 0
        assert report.quantum_registers_sent == 0

    @pytest.mark.parametrize(
        "instance",
        [p.name for p in sorted(INSTANCES.glob("*.json")) if not p.name.startswith("superpos")]
        + [pytest.param(butterfly_with_isolated_node(), id="butterfly_f2_iso")],
    )
    def test_plan_matches_seeded_run(self, instance):
        net, scheme = parse_network(INSTANCES / instance if isinstance(instance, str) else instance)
        state = random_input_state(scheme, net.k, 31)
        bound = net.k * scheme.q * net.max_fan_in * len(net.nodes)
        for prune, copy_skip in itertools.product((False, True), repeat=2):
            plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
            report = classical_cost(plan)
            log = run_protocol(
                net, scheme, state, seed=5, prune=prune, copy_skip=copy_skip, check_classical=False
            ).log
            assert log.elements_sent == report.elements_sent
            assert [(e.node, len(e.outcomes), len(e.recipients)) for e in log.entries] == [
                row[:3] for row in report.per_node
            ]
            planned = {p.node: p for p in plan.nodes}
            for e in log.entries:
                assert tuple(o.register for o in e.outcomes) == planned[e.node].measured
                assert e.recipients == planned[e.node].recipients
            skipped = {p.node for p in plan.nodes if p.kept is not None}
            assert copy_skip or not skipped
            assert skipped.isdisjoint(e.node for e in log.entries)
            if "iso" in planned:
                # it measures no registers, but it announces that
                assert planned["iso"].measured == ()
                assert "iso" in {e.node for e in log.entries}
            assert report.bound_elements == bound
            if not prune:
                assert report.elements_sent <= bound


class TestCopySkip:
    def test_butterfly_measurement_reduction(self):
        net, scheme = load_instance("butterfly_f2.json")
        assert plan_scheme(net, scheme).branch_count == 512
        assert plan_scheme(net, scheme, copy_skip=True).branch_count == 64  # only n1, t1, t2 measure
        state = random_input_state(scheme, net.k, 6)
        result = run_protocol(net, scheme, state, seed=9, copy_skip=True)
        assert len(result.log.branch_labels()) == 6
        assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)
        # copy nodes appear nowhere in the log, still 7 registers on edges
        assert {e.node for e in result.log.entries} == {"n1", "t1", "t2"}
        assert classical_cost(result.plan).quantum_registers_sent == 7

    def test_single_edge_no_measurements(self):
        net, scheme = load_instance("single_edge_f2.json")
        assert plan_scheme(net, scheme, copy_skip=True).branch_count == 1
        state = init_state(scheme.ring, 1, 1, [0.6, 0.8])
        result = run_protocol(net, scheme, state, branch=(), copy_skip=True)
        assert np.allclose(result.state.amps, state.amps, atol=1e-12)


class TestEnumerate:
    def test_butterfly_branch_count_and_fidelity(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (1, 1))
        results = list(enumerate_branches(net, scheme, state))
        assert len(results) == 512
        fids = [r.fidelity for r in results]
        assert min(fids) == pytest.approx(1.0, abs=1e-9)

    def test_single_edge_branches(self):
        net, scheme = load_instance("single_edge_f2.json")
        assert plan_scheme(net, scheme).branch_count == 4  # two fan-in-1 nodes measure
        state = init_state(scheme.ring, 1, 1, [0.6, 0.8])
        results = list(enumerate_branches(net, scheme, state))
        assert len(results) == 4
        assert all(r.fidelity == pytest.approx(1.0, abs=1e-9) for r in results)

    def test_branch_count_formula(self):
        for name, expected in [
            ("butterfly_f2.json", 2**9),
            ("butterfly_z3.json", 3**9),
            ("butterfly_gf4.json", 4**9),
            ("butterfly_z2_q2.json", 4**9),
            ("single_edge_f2.json", 4),
        ]:
            net, scheme = load_instance(name)
            assert plan_scheme(net, scheme).branch_count == expected

    def test_cap(self):
        net, scheme = load_instance("butterfly_gf4.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        with pytest.raises(CapExceededError, match="max_branches"):
            list(enumerate_branches(net, scheme, state, max_branches=1000))

    def test_cap_message_names_an_unprintable_count(self):
        # d^9 branches, far more digits than Python converts to text; the cap
        # trips before the input state is read, and no state fits this ring
        doc = json.loads((INSTANCES / "butterfly_f2.json").read_text())
        doc["ring"] = f"Z({'9' * 4000})"
        net, scheme = parse_network(doc)
        with pytest.raises(CapExceededError, match=r"about 10\^\d+ branches exceed"):
            next(enumerate_branches(net, scheme, None))

    def test_broken_scheme_low_fidelity(self):
        net, scheme = load_instance("butterfly_f2_broken.json")
        state = basis_state(scheme.ring, 1, (0, 1))
        results = list(enumerate_branches(net, scheme, state))
        assert len(results) == 512
        fids = [r.fidelity for r in results if r.fidelity is not None]
        assert min(fids) <= 0.9

    @staticmethod
    def outcome_deviations(name, alt_phi):
        """|p - 1/d| of every outcome in the first 512 copy-skip branches."""
        net, scheme = load_instance(name)
        if alt_phi:
            scheme = scheme_with_alternate_phi(scheme)
        state = random_input_state(scheme, net.k, 7)
        branches = enumerate_branches(net, scheme, state, max_branches=4**9, copy_skip=True)
        return [
            abs(o.probability - 1 / scheme.register_dim)
            for b in itertools.islice(branches, 512)
            if b.result is not None
            for o in b.result.log.all_outcomes()
        ]

    @pytest.mark.parametrize("alt_phi", [False, True], ids=["plain", "alt-phi"])
    @pytest.mark.parametrize("name", VALID_INSTANCES)
    def test_outcomes_uniform_on_solutions(self, name, alt_phi):
        assert max(self.outcome_deviations(name, alt_phi), default=0.0) <= 1e-12

    def test_broken_scheme_outcomes_not_uniform(self):
        assert max(self.outcome_deviations("butterfly_f2_broken.json", False)) >= 0.1

    def test_broken_scheme_pre_correction_differs(self):
        net, scheme = load_instance("butterfly_f2_broken.json")
        state = basis_state(scheme.ring, 1, (0, 1))
        result = run_protocol(net, scheme, state, branch=(0,) * 9, check_classical=False)
        assert abs(result.pre_correction.amplitude((0, 1))) < 1e-9


class TestOutcomesExactlyUniform:
    @pytest.mark.parametrize("alt_phi", [False, True], ids=["plain", "alt-phi"])
    @pytest.mark.parametrize("copy_skip", [False, True], ids=["measure-all", "copy-skip"])
    @pytest.mark.parametrize("name", VALID_INSTANCES)
    def test_every_outcome_has_probability_one_over_d(self, name, copy_skip, alt_phi):
        # on a solution every measurement leaves a phase: p is 1/d, not approximately
        net, scheme = load_instance(name)
        if alt_phi:
            scheme = scheme_with_alternate_phi(scheme)
        d, state = scheme.register_dim, random_input_state(scheme, net.k, 11)
        plan = plan_scheme(net, scheme, copy_skip=copy_skip)
        rng = np.random.default_rng(3)
        forced = [tuple(rng.integers(d, size=plan.measurement_count)) for _ in range(10)]
        runs = [node_steps(plan, state, branch=b) for b in forced]
        runs += [node_steps(plan, state, np.random.default_rng(seed)) for seed in range(10)]
        for steps in runs:
            result = finish_run(plan, state, steps)
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-12)
            assert all(o.probability == 1 / d for o in result.log.all_outcomes())

    def test_unrecoverable_first_input_is_still_a_phase(self):
        net, scheme = parse_network(PARALLEL_EDGES)
        assert verify_solution(net, scheme)
        state = random_input_state(scheme, net.k, 3)
        results = [b.result for b in enumerate_branches(net, scheme, state)]
        results += [run_protocol(net, scheme, state, seed=seed) for seed in range(4)]
        assert len(results) == 2**3 + 4
        for result in results:
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-12)
            assert all(o.probability == 1 / 2 for o in result.log.all_outcomes())


class TestAlternatePhi:
    @pytest.mark.parametrize(
        "name",
        [
            "butterfly_f2.json",
            "butterfly_z3.json",
            "butterfly_z4.json",
            "butterfly_gf4.json",
            "butterfly_z2_q2.json",
        ],
    )
    def test_protocol_still_perfect(self, name):
        net, scheme = load_instance(name)
        twisted = scheme_with_alternate_phi(scheme)
        assert twisted.ring.cardinality == scheme.ring.cardinality
        state = random_input_state(twisted, net.k, 77)
        for seed in range(5):
            result = run_protocol(net, twisted, state, seed=seed)
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)

    def test_twist_changes_phases_but_not_arithmetic(self):
        net, scheme = load_instance("butterfly_z3.json")
        twisted = scheme_with_alternate_phi(scheme)
        assert verify_solution_equivalent(net, scheme, twisted)

    def test_corrections_differ_under_twist(self):
        # outcome t at the first source; the sheared pairing rescores it
        net, scheme = load_instance("butterfly_gf4.json")
        twisted = scheme_with_alternate_phi(scheme)
        branch = (1, 0, 0, 0, 0, 0, 0, 0, 0)
        plain = run_protocol(
            net, scheme, basis_state(scheme.ring, 1, (0, 0)), branch=branch
        )
        alt = run_protocol(
            net, twisted, basis_state(twisted.ring, 1, (0, 0)), branch=branch
        )
        assert not np.array_equal(plain.phase_table.numerators, alt.phase_table.numerators)


def verify_solution_equivalent(net, scheme, twisted):
    from qnetcode.network import verify_solution

    return verify_solution(net, scheme) == verify_solution(net, twisted) == True  # noqa: E712


class TestCorpusPerfection:
    @pytest.mark.parametrize(
        "name",
        [
            "butterfly_f2.json",
            "butterfly_z3.json",
            "butterfly_z4.json",
            "butterfly_gf4.json",
            "butterfly_z2_q2.json",
            "single_edge_f2.json",
        ],
    )
    def test_every_basis_input_delivered(self, name):
        net, scheme = load_instance(name)
        d = scheme.register_dim
        for labels in itertools.product(range(d), repeat=net.k):
            state = basis_state(scheme.ring, scheme.q, labels)
            for seed in range(3):
                result = run_protocol(net, scheme, state, seed=seed)
                assert result.state.amplitude(labels) == pytest.approx(1.0, abs=1e-9)


class TestTransferInteraction:
    def test_corrections_need_transfer_rows(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        result = run_protocol(net, scheme, state, branch=(0,) * 9)
        tmap = transfer_coefficients(net, scheme)
        gammas = {e: g for e, g in tmap.gammas.items() if e != "src:1"}
        tmap = dataclasses.replace(tmap, gammas=gammas)
        with pytest.raises(Exception, match="transfer"):
            compute_corrections(result.log, dataclasses.replace(result.plan, tmap=tmap))


BUNDLED = [p.name for p in sorted(INSTANCES.glob("*.json")) if not p.name.startswith("superpos")]
POLICIES = list(itertools.product((False, True), repeat=2))  # (prune, copy_skip)


@pytest.fixture
def transfer_calls(fresh_memo, monkeypatch):
    """The schemes `transfer_coefficients` is called for, planning from an empty memo."""
    calls = []

    def counted(net, scheme):
        calls.append(scheme)
        return transfer_coefficients(net, scheme)

    monkeypatch.setattr(qnetcode.network, "transfer_coefficients", counted)
    return calls


@pytest.fixture
def verdict_calls(fresh_memo, monkeypatch):
    """The transfer maps whose verdict is computed, from an empty memo."""
    calls = []
    compute = TransferMap.counterexample.func

    def counted(tmap):
        calls.append(tmap)
        return compute(tmap)

    verdict = functools.cached_property(counted)
    verdict.__set_name__(TransferMap, "counterexample")
    monkeypatch.setattr(TransferMap, "counterexample", verdict)
    return calls


class TestPlanMemo:
    def test_the_verdict_is_computed_once_per_transfer_map(self, fresh_memo, verdict_calls, capsys):
        path = str(INSTANCES / "butterfly_gf4.json")  # its alternate phi is another ring
        assert main(["verify", path]) == 0
        assert len(fresh_memo) == 2  # the text and its map: verify plans nothing
        assert main(["cost", path]) == 0
        for flags in ((), ("--prune",), ("--copy-skip",), ("--prune", "--copy-skip")):
            assert main(["simulate", path, "--seed", "3", *flags]) == 0
        assert verify_solution(*load_instance("butterfly_gf4.json"))
        assert len(verdict_calls) == 1
        assert main(["simulate", path, "--seed", "3", "--alt-phi"]) == 0
        assert main(["simulate", path, "--seed", "3", "--alt-phi", "--prune"]) == 0
        capsys.readouterr()
        assert len(verdict_calls) == len({id(t) for t in verdict_calls}) == 2

    def test_one_plan_per_scheme_network_and_policy(self, fresh_memo):
        net, scheme = load_instance("butterfly_gf4.json")
        assert plan_scheme(net, scheme) is plan_scheme(net, scheme)
        plans = [plan_scheme(net, scheme, prune=p, copy_skip=c) for p, c in POLICIES]
        assert len({id(p) for p in plans}) == 4
        assert plans == [plan_scheme(net, scheme, prune=p, copy_skip=c) for p, c in POLICIES]
        twisted = scheme_with_alternate_phi(scheme)
        plan = plan_scheme(net, twisted)
        assert plan is not plans[0] and plan is plan_scheme(net, twisted)
        assert plan.tmap.ring == twisted.ring != scheme.ring
        # a second parse of the file is the same instance
        again = load_instance("butterfly_gf4.json")
        assert all(plan_scheme(*again, p, c) is plan for (p, c), plan in zip(POLICIES, plans))

    def test_changed_instances_get_their_own_plans(self, fresh_memo):
        doc = json.loads((INSTANCES / "butterfly_gf4.json").read_text())
        net, scheme = parse_network(doc)
        plan = plan_scheme(net, scheme)
        coefficient = json.loads(json.dumps(doc))
        coefficient["coding"]["n1"]["outputs"][0]["coeffs"][1] = [1, 1]
        renamed = json.loads(json.dumps(doc).replace('"R5"', '"R8"'))
        other_net, same_coeffs = parse_network(renamed)
        assert same_coeffs.key == scheme.key and other_net.key != net.key
        others = [
            plan_scheme(net, scheme_with_alternate_phi(scheme)),
            plan_scheme(*parse_network(coefficient)),
            plan_scheme(other_net, scheme),
        ]
        assert len({id(p) for p in [plan, *others]}) == 4
        assert len({id(p.tmap) for p in [plan, *others]}) == 4
        assert plan.tmap.counterexample is None and others[1].tmap.counterexample is not None
        assert plan_scheme(net, scheme) is plan

    def test_object_coefficients_are_keyed_by_value(self, fresh_memo):
        # from modulus 2^24 on, coefficients are object arrays, whose bytes are pointers
        doc = json.loads((INSTANCES / "single_edge_f2.json").read_text())
        doc["ring"] = f"Z({2**24})"

        def single_edge(c):
            doc["coding"]["s"]["outputs"][0]["coeffs"] = [c]
            return parse_network(doc)

        net, scheme = single_edge(2**24 - 1)
        assert scheme.coeffs["s"][0][0].dtype == object
        plan = plan_scheme(net, scheme)
        other = plan_scheme(*single_edge(2**24 - 3))
        assert other is not plan and other.tmap is not plan.tmap
        assert other.tmap.gammas["tgt:1"].tolist() != plan.tmap.gammas["tgt:1"].tolist()
        assert plan_scheme(*single_edge(2**24 - 1)) is plan
        # equal values held by other int objects: the same scheme
        fresh = lambda g: np.array([[int(str(x)) for x in row] for row in g.tolist()], dtype=object)
        coeffs = {v: tuple(tuple(map(fresh, row)) for row in rows) for v, rows in scheme.coeffs.items()}
        assert coeffs["s"][0][0][0, 0] is not scheme.coeffs["s"][0][0][0, 0]
        assert plan_scheme(net, CodingScheme(scheme.ring, scheme.q, coeffs)) is plan

    def test_the_cost_report_is_built_once_per_plan(self, fresh_memo):
        net, scheme = load_instance("butterfly_z2_q2.json")
        for prune, copy_skip in itertools.product((False, True), repeat=2):
            plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
            report = classical_cost(plan)
            assert classical_cost(plan) is report
            fresh_memo.clear()
            fresh = classical_cost(plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip))
            assert fresh is not report
            assert [getattr(fresh, f.name) for f in dataclasses.fields(fresh)] == [
                getattr(report, f.name) for f in dataclasses.fields(report)
            ]

    def test_reparsed_documents_share_one_plan_across_commands(
        self, fresh_memo, transfer_calls, capsys, tmp_path
    ):
        path = INSTANCES / "butterfly_f2.json"
        doc = json.loads(path.read_text())
        spaced = tmp_path / "spaced.json"
        spaced.write_text(json.dumps(doc, indent=7))
        assert main(["verify", str(path)]) == 0
        assert main(["cost", str(spaced)]) == 0
        assert main(["simulate", str(path), "--seed", "3"]) == 0
        assert main(["simulate", json.dumps(doc, separators=(",", ":")), "--seed", "4"]) == 0
        capsys.readouterr()
        assert len(transfer_calls) == 1
        # three texts (the file, its re-indented copy, the compact string), the
        # map, the broadcast and prune plans, then the uniform input both runs share
        assert len(fresh_memo) == 7
        assert plan_scheme(*parse_network(spaced)) is plan_scheme(*load_instance("butterfly_f2.json"))

    def test_runs_reuse_the_transfer_map(self, transfer_calls):
        net, scheme = load_instance("butterfly_z4.json")
        state = random_input_state(scheme, net.k, 3)
        results = [run_protocol(net, scheme, state, seed=s) for s in range(50)]
        assert len(transfer_calls) == 1
        assert all(r.plan is results[0].plan for r in results)

    def test_policies_share_the_transfer_map(self, transfer_calls, capsys):
        assert main(["cost", str(INSTANCES / "butterfly_f2.json")]) == 0
        assert "prune" in capsys.readouterr().out
        assert len(transfer_calls) == 1

    def test_memo_frees_the_least_recently_used_plan(self, fresh_memo):
        # no reference cycle keeps an evicted plan alive: it is freed with gc off
        doc = json.loads((INSTANCES / "single_edge_f2.json").read_text())

        def plan_over(m):
            doc["ring"] = f"Z({m})"
            return plan_scheme(*parse_network(doc))

        net, scheme = parse_network(doc)
        result = run_protocol(net, scheme, random_input_state(scheme, net.k, 4), seed=1)
        first = weakref.ref(result.plan)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del net, scheme, result
            m = 3
            while len(fresh_memo) < MEMO_SIZE:
                plan_over(m)
                m += 1
            assert first() is not None
            while m < MEMO_SIZE + 3:  # MEMO_SIZE + 1 distinct schemes in all
                plan_over(m)
                m += 1
            assert first() is None
        finally:
            if enabled:
                gc.enable()
        assert len(fresh_memo) == MEMO_SIZE

    def test_shared_plan_tables_are_read_only(self):
        net, scheme = load_instance("butterfly_f2.json")
        plan = run_protocol(net, scheme, basis_state(scheme.ring, 1, (1, 0)), seed=0).plan
        tables = [plan.digits, *plan.tmap.gammas.values(), plan.corrections]
        tables += [plan.coding(p) for p in plan.nodes if p.adjoined]
        assert all(not t.flags.writeable for t in tables)
        with pytest.raises(ValueError, match="read-only"):
            plan.corrections[...] = 0

    @pytest.mark.parametrize("name", BUNDLED)
    def test_memoised_runs_equal_fresh_runs(self, name, monkeypatch):
        net, scheme = load_instance(name)
        state = random_input_state(scheme, net.k, 7)
        for (prune, copy_skip), seed in itertools.product(POLICIES, range(25)):
            kwargs = dict(seed=seed, prune=prune, copy_skip=copy_skip, check_classical=False)
            memo = run_protocol(net, scheme, state, **kwargs)
            with monkeypatch.context() as m:  # planned anew, from a second parse
                m.setattr(qnetcode.network, "_memo", OrderedDict())
                fresh = run_protocol(*load_instance(name), state, **kwargs)
            assert fresh.plan is not memo.plan
            assert memo.plan is plan_scheme(net, scheme, prune, copy_skip)
            assert memo.log.entries == fresh.log.entries
            assert memo.phase_table.numerators.tobytes() == fresh.phase_table.numerators.tobytes()
            for got, want in [(memo.state, fresh.state), (memo.pre_correction, fresh.pre_correction)]:
                assert got.reg_ids == want.reg_ids
                assert got.amps.tobytes() == want.amps.tobytes()


class TestSpectators:
    def test_choi_state_delivered_on_every_branch(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = choi_state(scheme, net.k)
        results = list(enumerate_branches(net, scheme, state))
        assert len(results) == 512
        assert all(r.fidelity == pytest.approx(1.0, abs=1e-9) for r in results)
        assert results[0].result.state.reg_ids == ("tgt:1", "tgt:2", "ref:1", "ref:2")

    def test_choi_state_exposes_the_broken_scheme(self):
        net, scheme = load_instance("butterfly_f2_broken.json")
        state = choi_state(scheme, net.k)
        fids = [r.fidelity for r in enumerate_branches(net, scheme, state) if r.fidelity is not None]
        assert min(fids) < 1 - 1e-6

    def test_seeded_run_carries_spectators_last(self):
        net, scheme = load_instance("butterfly_z2_q2.json")
        state = choi_state(scheme, net.k)
        result = run_protocol(net, scheme, state, seed=11)
        assert result.state.reg_ids == ("tgt:1", "tgt:2", "ref:1", "ref:2")
        assert result.pre_correction.reg_ids == result.state.reg_ids
        assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)

    def test_choi_state_on_a_z4_k6_butterfly_is_4096_rows(self):
        # the dense form would hold 4^12 = 16.8 M amplitudes, 268 MB
        net, scheme = parse_network(generated_butterfly(6, "Z(4)", 1))
        tracemalloc.start()
        try:
            state = choi_state(scheme, net.k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.labels.shape == (4096, 12) and state.amps.shape == (4096,)
        assert peak < 4 * 2**20
        assert np.array_equal(state.labels[:, :6], state.labels[:, 6:])
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["R1", "src:3", "tgt:1"])
    def test_spectator_named_like_an_edge_is_refused(self, name):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (0, 0, 0), reg_ids=("src:1", "src:2", name))
        with pytest.raises(InstanceError, match="named like an edge"):
            run_protocol(net, scheme, state, seed=0)

    def test_sources_must_come_first(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (0, 0, 0), reg_ids=("ref:1", "src:1", "src:2"))
        with pytest.raises(InstanceError, match="must live on registers"):
            run_protocol(net, scheme, state, seed=0)

    def test_run_without_steps_names_the_left_registers(self):
        net, scheme = load_instance("butterfly_f2.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        with pytest.raises(
            InstanceError,
            match=r"run left registers \('src:1', 'src:2'\), expected exactly \('tgt:1', 'tgt:2'\)",
        ):
            finish_run(plan_scheme(net, scheme), state, [])


# Z(2)xZ(3), every entry a coordinate list: one is (1, 1) and minus one (1, 2),
# so t1 receives x1 + x2 - x2 on R7 and R3, and t2 likewise
ONE, MINUS_ONE = [1, 1], [1, 2]
BUTTERFLY_Z2XZ3 = {
    "ring": "Z(2)xZ(3)",
    "q": 1,
    "nodes": ["s1", "s2", "n1", "n2", "t1", "t2"],
    "edges": [
        {"id": e, "from": a, "to": b}
        for e, a, b in [
            ("R1", "s1", "t2"), ("R2", "s1", "n1"), ("R3", "s2", "t1"), ("R4", "s2", "n1"),
            ("R5", "n1", "n2"), ("R6", "n2", "t2"), ("R7", "n2", "t1"),
        ]
    ],
    "pairs": [{"source": "s1", "target": "t1"}, {"source": "s2", "target": "t2"}],
    "coding": {
        "s1": {"inputs": ["src:1"], "outputs": [{"edge": "R1", "coeffs": [ONE]}, {"edge": "R2", "coeffs": [ONE]}]},
        "s2": {"inputs": ["src:2"], "outputs": [{"edge": "R3", "coeffs": [ONE]}, {"edge": "R4", "coeffs": [ONE]}]},
        "n1": {"inputs": ["R2", "R4"], "outputs": [{"edge": "R5", "coeffs": [ONE, ONE]}]},
        "n2": {"inputs": ["R5"], "outputs": [{"edge": "R6", "coeffs": [ONE]}, {"edge": "R7", "coeffs": [ONE]}]},
        "t1": {"inputs": ["R3", "R7"], "outputs": [{"edge": "tgt:1", "coeffs": [MINUS_ONE, ONE]}]},
        "t2": {"inputs": ["R1", "R6"], "outputs": [{"edge": "tgt:2", "coeffs": [MINUS_ONE, ONE]}]},
    },
}


@pytest.mark.parametrize("alt_phi", [False, True], ids=["plain-phi", "alt-phi"])
def test_product_ring_butterfly_delivers_random_and_choi_inputs(alt_phi):
    net, scheme = parse_network(BUTTERFLY_Z2XZ3)
    assert verify_solution(net, scheme)
    if alt_phi:
        scheme = scheme_with_alternate_phi(scheme)
        assert scheme.ring.phi_rows != ((1, 0), (0, 1))
    choi = choi_state(scheme, net.k)
    for seed in range(20):
        for state in (random_input_state(scheme, net.k, seed), choi):
            result = run_protocol(net, scheme, state, seed=seed)
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-9)


# rows on src:1, src:2 of butterfly_f2 built past `state_from_rows`, and the
# QuantumError each must raise (None: the run goes on, on the checked rows)
HAND_BUILT = {
    "negative label": ([[0, -1]], [1.0], "basis label out of range"),
    "label 5": ([[0, 5]], [1.0], "basis label out of range"),
    "float labels": ([[0.0, 1.0]], [1.0], None),
    "duplicated row": ([[0, 1], [0, 1]], [0.6, 0.8], "lists a basis label twice"),
    "amplitude 2": ([[0, 1]], [2.0], None),
}


@pytest.mark.parametrize("labels", [[[0.5, 1.7]], [[True, False]]], ids=["fractional", "boolean"])
def test_runs_refuse_labels_that_are_not_integers(labels):
    net, scheme = load_instance("butterfly_f2.json")
    state = SupportState(scheme.ring, scheme.q, ("src:1", "src:2"), np.array(labels), np.array([1.0 + 0j]))
    with pytest.raises(QuantumError, match="basis labels must be integers"):
        run_protocol(net, scheme, state, seed=3)
    with pytest.raises(QuantumError, match="basis labels must be integers"):
        next(enumerate_branches(net, scheme, state))


@pytest.mark.parametrize("entry", ["run_protocol", "enumerate_branches"])
@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_runs_check_their_input_rows(name, entry):
    net, scheme = load_instance("butterfly_f2.json")
    labels, amps, error = HAND_BUILT[name]
    state = SupportState(
        scheme.ring, scheme.q, ("src:1", "src:2"), np.array(labels), np.array(amps, dtype=complex)
    )

    def fidelities():
        if entry == "run_protocol":
            result = run_protocol(net, scheme, state, seed=3)
            return [fidelity(basis_state(scheme.ring, scheme.q, [0, 1]), result.state)]
        return [b.fidelity for b in enumerate_branches(net, scheme, state)]

    if error is not None:
        with pytest.raises(QuantumError, match=error):
            fidelities()
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fids = fidelities()
    rescaled = ["normalizing input state (norm was 2)"] if name == "amplitude 2" else []
    assert [str(w.message) for w in caught] == rescaled
    assert fids and all(f == pytest.approx(1.0) for f in fids)
