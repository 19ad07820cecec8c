"""The support engine (`protocol.node_steps`, `protocol.finish_run`) against
a dense reference loop built from the dense kernels of `oracles`, node by
node, and its per-row corrections against the dense `oracles.apply_phase`."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnetcode.protocol
from conftest import (
    INSTANCES,
    PARALLEL_EDGES,
    choi_state,
    generated_butterfly,
    load_instance,
    random_input_state,
)
from oracles import StateVector, apply_coding_unitary, apply_fourier, apply_phase, dense, measure, support
from qnetcode.network import parse_network, scheme_with_alternate_phi, target_edge
from qnetcode.protocol import finish_run, node_steps, plan_scheme, run_protocol
from qnetcode.quantum import (
    ZeroProbabilityError,
    basis_state,
    code_rows,
    fidelity,
    init_state,
    measure_rows,
)

BUNDLED = [p.name for p in sorted(INSTANCES.glob("*.json")) if not p.name.startswith("superpos")]
# the instances of the benchmark's sim_tensor workload
GENERATED = [(3, "Z(3)", 1), (4, "Z(2)", 1), (3, "Z(2)", 2)]
POLICIES = {"broadcast": {}, "prune": {"prune": True}, "copy-skip": {"copy_skip": True}}


def dense_steps(plan, state, rng=None, branch=None):
    """`protocol.node_steps` on dense states, line for line: (node, state, outcomes)."""
    labels = itertools.repeat(None) if branch is None else iter(branch)
    state = dense(state)
    for p in plan.nodes:
        if p.kept is not None:
            ids = tuple(p.kept[1] if r == p.kept[0] else r for r in state.reg_ids)
            state = StateVector(state.ring, state.q, ids, state.amps)
        if p.adjoined:
            state = apply_coding_unitary(state, p.coded_from, p.adjoined, plan.coding(p))
        outcomes = []
        for reg in p.measured or ():
            outcome, state = measure(apply_fourier(state, reg), reg, rng, next(labels))
            outcomes.append(outcome)
        yield p.node, state, outcomes


def _advance(steps):
    """The next step, "zero" where a forced outcome is refused, None at the end."""
    try:
        return next(steps)
    except ZeroProbabilityError:
        return "zero"
    except StopIteration:
        return None


def compare_runs(plan, state, rng_seed=None, branch=None):
    """Run both loops in lockstep and check they agree; returns the support
    run's RunResult, or None where both refuse a forced outcome."""
    rngs = [None if rng_seed is None else np.random.default_rng(rng_seed) for _ in range(2)]
    steps_of_rows = node_steps(plan, state, rngs[0], branch)
    reference = dense_steps(plan, state, rngs[1], branch)
    steps = []
    while True:
        got, want = _advance(steps_of_rows), _advance(reference)
        if got is None or got == "zero":
            assert want == got
            break
        node, dense_state, outcomes = want
        assert got.node == node
        assert got.state.reg_ids == dense_state.reg_ids
        got_outcomes = got.entry.outcomes if got.entry is not None else ()
        assert [(o.register, o.label) for o in got_outcomes] == [
            (o.register, o.label) for o in outcomes
        ]
        for o, w in zip(got_outcomes, outcomes):
            assert o.probability == pytest.approx(w.probability, abs=1e-12)
        assert np.allclose(dense(got.state, dense_state.reg_ids).amps, dense_state.amps, rtol=0, atol=1e-12)
        steps.append(got)
    if got == "zero":
        return None
    result = finish_run(plan, state, steps)
    final = dense(support(dense_state), result.state.reg_ids)
    assert np.allclose(dense(result.pre_correction).amps, final.amps, rtol=0, atol=1e-12)
    assert np.allclose(dense(result.state).amps, dense_corrections(result).amps, rtol=0, atol=1e-12)
    return result


def dense_corrections(result) -> StateVector:
    """The run's pre-correction state made dense and corrected pair by pair
    with the dense `apply_phase`."""
    final = dense(result.pre_correction)
    turns = result.phase_table.numerators / result.plan.tmap.ring.exponent
    for i in range(1, result.plan.net.k + 1):
        final = apply_phase(final, target_edge(i), -turns[i - 1])
    return final


def _instance(case):
    kind, arg = case
    if kind == "bundled":
        return load_instance(arg)
    if kind == "parallel":
        return parse_network(PARALLEL_EDGES)
    return parse_network(generated_butterfly(*arg))


CASES = (
    [("bundled", name) for name in BUNDLED]
    + [("parallel", None)]
    + [("generated", args) for args in GENERATED]
)


@given(
    st.sampled_from(CASES),
    st.sampled_from(sorted(POLICIES)),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_support_engine_matches_dense_loop(case, policy, alt_phi, forced, seed):
    net, scheme = _instance(case)
    if alt_phi:
        scheme = scheme_with_alternate_phi(scheme)
    plan = plan_scheme(net, scheme, **POLICIES[policy])
    state = random_input_state(scheme, net.k, seed)
    if forced:
        rng = np.random.default_rng(seed)
        branch = tuple(int(v) for v in rng.integers(scheme.register_dim, size=plan.measurement_count))
        compare_runs(plan, state, branch=branch)
    else:
        compare_runs(plan, state, rng_seed=seed)


@pytest.mark.parametrize("alt_phi", [False, True], ids=["plain", "alt-phi"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: str(c[1]))
def test_every_case_matches_once_per_policy(case, alt_phi):
    # each instance, policy and coordinate map at least once, whatever hypothesis draws above
    net, scheme = _instance(case)
    if alt_phi:
        scheme = scheme_with_alternate_phi(scheme)
    state = random_input_state(scheme, net.k, 5)
    for kwargs in POLICIES.values():
        plan = plan_scheme(net, scheme, **kwargs)
        compare_runs(plan, state, rng_seed=17)
        compare_runs(plan, state, branch=(1,) * plan.measurement_count)


class TestBrokenButterfly:
    """butterfly_f2_broken: t2's R6 is the one measurement whose rows interfere."""

    @pytest.mark.parametrize("which", ["random", "uniform", "basis-01"])
    def test_every_branch_matches_the_dense_oracle(self, which):
        net, scheme = load_instance("butterfly_f2_broken.json")
        plan = plan_scheme(net, scheme)
        if which == "random":
            state = random_input_state(scheme, net.k, 7)
        elif which == "uniform":
            state = init_state(scheme.ring, 1, 2, [0.5] * 4)
        else:
            state = basis_state(scheme.ring, 1, (0, 1))
        verdicts = []
        for labels in np.ndindex(*(2,) * plan.measurement_count):
            result = compare_runs(plan, state, branch=labels)
            verdicts.append(None if result is None else fidelity(state, result.state))
            if result is None:
                continue
            for entry in result.log.entries:
                for o in entry.outcomes:
                    if (entry.node, o.register) != ("t2", "R6"):
                        assert o.probability == 1 / 2
        realizable = [f for f in verdicts if f is not None]
        assert min(realizable) < 0.9
        # on the uniform input R6's rows cancel on half of the branches
        assert len(verdicts) - len(realizable) == (256 if which == "uniform" else 0)

    def test_only_r6_is_not_a_phase(self):
        net, scheme = load_instance("butterfly_f2_broken.json")
        plan = plan_scheme(net, scheme)
        state = random_input_state(scheme, net.k, 7)
        seen = set()
        for seed in range(20):
            result = finish_run(plan, state, node_steps(plan, state, np.random.default_rng(seed)))
            for entry in result.log.entries:
                for o in entry.outcomes:
                    if o.probability != 1 / 2:
                        seen.add((entry.node, o.register))
        assert seen == {("t2", "R6")}


def per_register_steps(plan, state, rng=None, branch=None):
    """`protocol.node_steps` with each register measured alone, its rows
    checked for interference: (node, state, outcomes)."""
    labels = itertools.repeat(None) if branch is None else iter(branch)
    rows = state
    for p in plan.nodes:
        if p.kept is not None:
            rows = rows.renamed({p.kept[0]: p.kept[1]})
        if p.adjoined:
            rows = code_rows(rows, p.coded_from, p.adjoined, plan.coding(p))
        outcomes = ()
        for reg in p.measured or ():
            label = next(labels)
            forced = None if label is None else (label,)
            outcome, rows = measure_rows(rows, (reg,), rng, forced, certified=False)
            outcomes += outcome
        yield p.node, rows, outcomes


VALID = [name for name in BUNDLED if name != "butterfly_f2_broken.json"]
POLICY_GRID = list(itertools.product((False, True), repeat=2))  # (prune, copy_skip)


class TestCertifiedPath:
    """A certified plan measures each node's registers in one step; the
    per-register path, with its row-key check, must give the same bits."""

    @pytest.mark.parametrize("spectators", [False, True], ids=["plain-input", "choi"])
    @pytest.mark.parametrize("alt_phi", [False, True], ids=["plain", "alt-phi"])
    @pytest.mark.parametrize("name", VALID)
    def test_matches_the_per_register_path(self, name, alt_phi, spectators):
        net, scheme = load_instance(name)
        if alt_phi:
            scheme = scheme_with_alternate_phi(scheme)
        state = choi_state(scheme, net.k) if spectators else random_input_state(scheme, net.k, 3)
        for (prune, copy_skip), forced in itertools.product(POLICY_GRID, (False, True)):
            plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
            assert plan.certified
            rng = np.random.default_rng([prune, copy_skip])
            if forced:
                branch = tuple(int(v) for v in rng.integers(plan.register_dim, size=plan.measurement_count))
                runs = (node_steps(plan, state, branch=branch), per_register_steps(plan, state, branch=branch))
            else:
                seed = int(rng.integers(2**31))
                runs = (
                    node_steps(plan, state, np.random.default_rng(seed)),
                    per_register_steps(plan, state, np.random.default_rng(seed)),
                )
            for step, (node, rows, outcomes) in itertools.zip_longest(*runs):
                assert step.node == node
                assert (step.entry.outcomes if step.entry is not None else ()) == outcomes
                assert step.state.reg_ids == rows.reg_ids
                assert np.array_equal(step.state.labels, rows.labels)
                assert step.state.amps.tobytes() == rows.amps.tobytes()

    @pytest.mark.parametrize(
        "case",
        [c for c in CASES if c[1] != "butterfly_f2_broken.json"]
        + [("generated", (k, ring, q)) for k in (2, 6) for ring in ("Z(5)", "GF(4)") for q in (1, 2)],
        ids=lambda c: str(c[1]),
    )
    def test_plans_of_solutions_are_certified(self, case):
        net, scheme = _instance(case)
        for prune, copy_skip in POLICY_GRID:
            assert plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip).certified

    @pytest.mark.parametrize("prune, copy_skip", POLICY_GRID)
    def test_the_broken_butterfly_is_not_certified(self, prune, copy_skip):
        net, scheme = load_instance("butterfly_f2_broken.json")
        assert not plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip).certified

    @pytest.mark.parametrize("name", ["butterfly_f2.json", "butterfly_f2_broken.json"])
    def test_the_plan_picks_the_path(self, monkeypatch, name):
        # one call per measuring node, certified exactly when the plan is
        seen = []

        def counted(state, regs, rng=None, forced=None, certified=False):
            seen.append((len(regs), certified))
            return measure_rows(state, regs, rng, forced, certified)

        monkeypatch.setattr(qnetcode.protocol, "measure_rows", counted)
        net, scheme = load_instance(name)
        plan = plan_scheme(net, scheme)
        state = random_input_state(scheme, net.k, 1)
        finish_run(plan, state, node_steps(plan, state, np.random.default_rng(0)))
        assert len(seen) == 6
        assert sum(m for m, _ in seen) == plan.measurement_count == 9
        assert {certified for _, certified in seen} == {plan.certified}


class _CountingRng:
    """A generator that records the size of every `random` call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize("name", ["butterfly_f2.json", "butterfly_f2_broken.json"])
def test_only_an_uncertified_plan_reads_the_rng_after_the_first_node(name):
    # a certified plan takes its m doubles in one call before the first node;
    # an uncertified one takes one double per measurement, as it measures
    net, scheme = load_instance(name)
    plan = plan_scheme(net, scheme)
    state = random_input_state(scheme, net.k, 1)
    rng = _CountingRng(0)
    steps = node_steps(plan, state, rng)
    next(steps)
    before = list(rng.sizes)
    assert len(list(steps)) == len(plan.nodes) - 1
    if plan.certified:
        assert before == rng.sizes == [plan.measurement_count]
    else:
        assert before == [None] and rng.sizes == [None] * plan.measurement_count


@pytest.mark.parametrize("spectators", [False, True], ids=["plain-input", "choi"])
@pytest.mark.parametrize("alt_phi", [False, True], ids=["plain", "alt-phi"])
@pytest.mark.parametrize("name", BUNDLED)
def test_row_corrections_equal_dense_apply_phase(name, alt_phi, spectators):
    # finish_run's one integer sum mod L and one exp per row, against a dense
    # phase per pair, on sampled and forced runs under every policy
    net, scheme = load_instance(name)
    if alt_phi:
        scheme = scheme_with_alternate_phi(scheme)
    state = choi_state(scheme, net.k) if spectators else random_input_state(scheme, net.k, 11)
    for (prune, copy_skip), forced in itertools.product(POLICY_GRID, (False, True)):
        plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
        rng = np.random.default_rng([prune, copy_skip, forced])
        if forced:
            branch = tuple(int(v) for v in rng.integers(plan.register_dim, size=plan.measurement_count))
            steps = node_steps(plan, state, branch=branch)
        else:
            steps = node_steps(plan, state, rng)
        try:
            result = finish_run(plan, state, steps)
        except ZeroProbabilityError:
            continue  # only the broken butterfly has impossible branches
        want = dense_corrections(result)
        assert result.state.reg_ids == want.reg_ids == result.pre_correction.reg_ids
        assert np.array_equal(result.state.labels, result.pre_correction.labels)
        assert np.allclose(dense(result.state).amps, want.amps, rtol=0, atol=1e-12)


def _same_state(a, b) -> bool:
    arrays = (a.labels, b.labels), (a.amps, b.amps)
    return a.reg_ids == b.reg_ids and all(x.tobytes() == y.tobytes() for x, y in arrays)


@pytest.mark.parametrize("spectators", [False, True], ids=["random-input", "choi"])
@pytest.mark.parametrize("alt_phi", [False, True], ids=["plain", "alt-phi"])
@pytest.mark.parametrize("name", BUNDLED)
def test_a_seeded_run_is_the_forced_run_of_its_own_labels(name, alt_phi, spectators):
    # bitwise: on a certified plan the branch is drawn before the first node,
    # elsewhere each outcome as it is measured; either way forcing the drawn
    # labels gives the same run
    net, scheme = load_instance(name)
    if alt_phi:
        scheme = scheme_with_alternate_phi(scheme)
    state = choi_state(scheme, net.k) if spectators else random_input_state(scheme, net.k, 5)
    for (prune, copy_skip), seed in itertools.product(POLICY_GRID, (0, 1, 7)):
        flags = {"prune": prune, "copy_skip": copy_skip, "check_classical": False}
        sampled = run_protocol(net, scheme, state, seed=seed, **flags)
        forced = run_protocol(net, scheme, state, branch=sampled.log.branch_labels(), **flags)
        assert _same_state(sampled.state, forced.state)
        assert _same_state(sampled.pre_correction, forced.pre_correction)
        assert sampled.phase_table.numerators.tobytes() == forced.phase_table.numerators.tobytes()
        assert sampled.log == forced.log
