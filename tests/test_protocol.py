import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import INSTANCES, butterfly_with_isolated_node, load_instance, random_input_state
from qnetcode.network import (
    CapExceededError,
    InstanceError,
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
    node_steps,
    plan_scheme,
    run_protocol,
)
from qnetcode.quantum import basis_state, fidelity, init_state
from qnetcode.rings import frac_mod1, parse_ring_spec

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


class TestRunProtocol:
    def test_zero_branch_is_exact_identity(self):
        net, scheme = load_instance("butterfly_f2.json")
        for labels in itertools.product((0, 1), repeat=2):
            state = basis_state(scheme.ring, 1, labels)
            result = run_protocol(net, scheme, state, branch=(0,) * 9)
            assert result.state.reg_ids == ("tgt:1", "tgt:2")
            assert result.state.amplitude(labels) == pytest.approx(1.0, abs=1e-9)
            assert all(v == 0 for table in result.phase_table.tables for v in table)

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
            h1, h2 = result.phase_table.tables
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
            assert result.phase_table.is_homomorphism()
            assert all(t[0] == 0 for t in result.phase_table.tables)

    def test_zero_outcomes_zero_tables(self):
        net, scheme = load_instance("butterfly_gf4.json")
        state = basis_state(scheme.ring, 1, (0, 0))
        result = run_protocol(net, scheme, state, branch=(0,) * 9)
        assert all(v == 0 for t in result.phase_table.tables for v in t)

    def test_homomorphism_check_rejects_non_additive_tables(self):
        ring = parse_ring_spec("Z(4)")
        assert PhaseTable(ring, 1, np.array([[0, 1, 2, 3]])).is_homomorphism()
        assert not PhaseTable(ring, 1, np.array([[0, 1, 3, 3]])).is_homomorphism()
        assert not PhaseTable(ring, 1, np.array([[1, 1, 1, 1]])).is_homomorphism()

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
                h1, h2 = result.phase_table.tables
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
        assert report.quantum_registers_sent == 7 == report.edge_count

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


# two parallel edges s -> t, and t outputs 0 * e1 + 1 * e2: the outputs and
# e2 do not determine e1
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


class TestFirstInputRecoverable:
    @pytest.mark.parametrize("copy_skip", [False, True], ids=["measure-all", "copy-skip"])
    @pytest.mark.parametrize("name", VALID_INSTANCES)
    def test_every_bundled_measuring_node_fuses(self, name, copy_skip):
        net, scheme = load_instance(name)
        plan = plan_scheme(net, scheme, copy_skip=copy_skip)
        assert {p.node: plan.coding(p)[1] for p in plan.nodes} == {
            p.node: p.measured is not None for p in plan.nodes
        }

    def test_unrecoverable_first_input_falls_back(self):
        net, scheme = parse_network(PARALLEL_EDGES)
        assert verify_solution(net, scheme)
        plan = plan_scheme(net, scheme)
        assert {p.node: plan.coding(p)[1] for p in plan.nodes} == {"s": True, "t": False}
        state = random_input_state(scheme, net.k, 3)
        results = [b.result for b in enumerate_branches(net, scheme, state)]
        results += [run_protocol(net, scheme, state, seed=seed) for seed in range(4)]
        assert len(results) == 2**3 + 4
        for result in results:
            assert fidelity(state, result.state) == pytest.approx(1.0, abs=1e-12)
            for o in result.log.all_outcomes():
                assert abs(o.probability - 1 / 2) <= 1e-12


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
        assert plain.phase_table.tables != alt.phase_table.tables


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
        del tmap.gammas["src:1"]
        with pytest.raises(Exception, match="transfer"):
            compute_corrections(result.log, dataclasses.replace(result.plan, tmap=tmap))
