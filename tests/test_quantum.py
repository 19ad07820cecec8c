import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetcode.quantum import (
    DimensionCapError,
    QuantumError,
    RegisterError,
    StateVector,
    ZeroProbabilityError,
    apply_coding_unitary,
    apply_fourier,
    apply_phase,
    basis_state,
    code_and_measure_first,
    fidelity,
    fourier_matrix,
    init_state,
    injective_in_first_input,
    marginal_distribution,
    measure,
    output_labels,
)
from qnetcode.rings import coefficient_matrix, parse_ring_spec

Z2 = parse_ring_spec("Z(2)")
Z3 = parse_ring_spec("Z(3)")
GF4 = parse_ring_spec("GF(4)")

RING_POOL = ["Z(2)", "Z(3)", "Z(4)", "GF(4)", "GF(8)", "Z(2)xZ(4)", "Z(3)", "Z(2)xZ(2)"]


def code(state, ins, outs, rows, max_entries=2**24):
    """The coding unitary for scalar coefficients rows[i][j], each the ring's 1 or 0."""
    ring = state.ring
    coeffs = [[coefficient_matrix(ring, [[ring.one() if c else ring.zero()]]) for c in row] for row in rows]
    table = output_labels(ring, state.q, coeffs)
    return apply_coding_unitary(state, ins, outs, table, max_entries=max_entries)


def norm(state):
    return float(np.linalg.norm(state.amps))


def random_state(spec_text, q, n_regs, seed):
    spec = parse_ring_spec(spec_text)
    rng = np.random.default_rng(seed)
    d = spec.cardinality**q
    amps = rng.normal(size=d**n_regs) + 1j * rng.normal(size=d**n_regs)
    amps /= np.linalg.norm(amps)
    return init_state(spec, q, n_regs, amps, reg_ids=[f"r{i}" for i in range(n_regs)])


class TestInit:
    def test_basis_state(self):
        state = basis_state(Z2, 1, (1, 0))
        assert state.amplitude((1, 0)) == 1
        assert state.amplitude((0, 0)) == 0
        assert state.reg_ids == ("src:1", "src:2")

    def test_uniform(self):
        state = init_state(Z2, 1, 2, [0.5, 0.5, 0.5, 0.5])
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_gf4_superposition_norm(self):
        # equal weight on |t> and |t+1>, labels 1 and 3
        amps = [0, 1 / math.sqrt(2), 0, 1 / math.sqrt(2)]
        state = init_state(GF4, 1, 1, amps)
        assert norm(state) == pytest.approx(1.0, abs=1e-12)
        assert GF4.element((0, 1)).to_int() == 1
        assert GF4.element((1, 1)).to_int() == 3
        assert abs(state.amplitude((1,))) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_normalization_warns(self):
        with pytest.warns(UserWarning, match="normalizing"):
            state = init_state(Z2, 1, 1, [2.0, 0.0])
        assert state.amplitude((0,)) == 1

    def test_rejects_zero_and_wrong_length(self):
        with pytest.raises(QuantumError):
            init_state(Z2, 1, 1, [0.0, 0.0])
        with pytest.raises(QuantumError):
            init_state(Z2, 1, 2, [1.0, 0.0])

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            init_state(Z2, 1, 5, np.ones(32) / math.sqrt(32), max_entries=16)


class TestCodingUnitary:
    def test_fan_out_copy(self):
        for y in (0, 1):
            state = basis_state(Z2, 1, (y,), reg_ids=("S1",))
            state = code(state, ("S1",), ("R1", "R2"), [[1], [1]])
            assert state.reg_ids == ("S1", "R1", "R2")
            assert state.amplitude((y, y, y)) == 1

    def test_xor(self):
        for y1 in (0, 1):
            for y2 in (0, 1):
                state = basis_state(Z2, 1, (y1, y2), reg_ids=("a", "b"))
                state = code(state, ("a", "b"), ("c",), [[1, 1]])
                assert state.amplitude((y1, y2, (y1 + y2) % 2)) == 1

    def test_zero_coeffs(self):
        state = basis_state(Z2, 1, (1,), reg_ids=("a",))
        state = code(state, ("a",), ("b",), [[0]])
        assert state.amplitude((1, 0)) == 1

    def test_amplitude_multiset_preserved(self):
        state = random_state("Z(3)", 1, 2, seed=5)
        out = code(state, ("r0", "r1"), ("r2",), [[1, 1]])
        before = np.sort(np.abs(state.amps.ravel()))
        after = np.sort(np.abs(out.amps.ravel()))[-before.size :]
        assert np.allclose(before, after, atol=1e-12)
        assert norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_register_collision(self):
        state = basis_state(Z2, 1, (0,), reg_ids=("a",))
        with pytest.raises(RegisterError):
            code(state, ("a",), ("a",), [[1]])

    def test_growth_cap(self):
        state = basis_state(Z2, 1, (0,), reg_ids=("a",))
        with pytest.raises(DimensionCapError):
            code(state, ("a",), ("b", "c"), [[1], [1]], max_entries=4)

    def test_inputs_lead_the_new_layout(self):
        state = random_state("Z(3)", 1, 4, seed=2)
        out = code(state, ("r2", "r0"), ("o",), [[1, 1]])
        assert out.reg_ids == ("r2", "r0", "r1", "r3", "o")
        assert out.amps.flags.c_contiguous
        for y in itertools.product(range(3), repeat=4):
            assert out.amplitude((y[2], y[0], y[1], y[3], (y[0] + y[2]) % 3)) == state.amplitude(y)


class TestFourier:
    def test_z2_is_hadamard(self):
        mat = fourier_matrix(Z2, 1)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(mat, expected, atol=1e-12)
        state = apply_fourier(basis_state(Z2, 1, (0,)), "src:1")
        assert np.allclose(state.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_z3_phases(self):
        w = np.exp(2j * np.pi / 3)
        state = apply_fourier(basis_state(Z3, 1, (1,)), "src:1")
        expected = np.array([1, w, w**2]) / math.sqrt(3)
        assert np.allclose(state.amps, expected, atol=1e-12)

    @pytest.mark.parametrize("text", ["Z(2)", "Z(3)", "Z(4)", "GF(4)", "GF(8)", "Z(2)xZ(4)"])
    def test_unitary(self, text):
        spec = parse_ring_spec(text)
        assert spec.cardinality <= 9 or text == "GF(8)"
        mat = fourier_matrix(spec, 1)
        d = spec.cardinality
        assert np.allclose(mat @ mat.conj().T, np.eye(d), atol=1e-12)

    @given(st.sampled_from(RING_POOL), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_state(self, text, seed):
        state = random_state(text, 1, 2, seed)
        back = apply_fourier(apply_fourier(state, "r0"), "r0", adjoint=True)
        assert np.allclose(back.amps, state.amps, atol=1e-12)

    def test_vector_register_unitary(self):
        mat = fourier_matrix(Z2, 2)
        assert mat.shape == (4, 4)
        assert np.allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)

    def test_unknown_register(self):
        with pytest.raises(RegisterError):
            apply_fourier(basis_state(Z2, 1, (0,)), "nope")


class TestMeasure:
    def test_uniform_probabilities(self):
        state = init_state(Z2, 1, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        marg = marginal_distribution(state, "src:1")
        assert np.allclose(marg, [0.5, 0.5], atol=1e-12)

    def test_deterministic_on_basis_state(self):
        state = basis_state(Z2, 1, (1, 0))
        outcome, rest = measure(state, "src:1", rng=np.random.default_rng(0))
        assert outcome.label == 1
        assert rest.reg_ids == ("src:2",)
        assert rest.amplitude((0,)) == 1

    @pytest.mark.parametrize("text", ["Z(2)", "Z(3)", "Z(4)", "GF(4)", "Z(2)xZ(4)", "Z(3)xZ(3)"])
    def test_fourier_marginals_uniform(self, text):
        # after the transform every outcome of a basis state is equally likely
        spec = parse_ring_spec(text)
        d = spec.cardinality
        assert d <= 9
        for y in range(d):
            state = apply_fourier(basis_state(spec, 1, (y,)), "src:1")
            marg = marginal_distribution(state, "src:1")
            assert np.allclose(marg, np.full(d, 1.0 / d), atol=1e-12)

    def test_seeded_reproducibility(self):
        state = random_state("Z(4)", 1, 2, seed=11)
        runs = []
        for _ in range(2):
            out, rest = measure(state, "r0", rng=np.random.default_rng(42))
            runs.append((out.label, rest.amps.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_forced(self):
        state = init_state(Z2, 1, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        outcome, rest = measure(state, "src:1", forced=1)
        assert outcome.label == 1
        assert rest.reg_ids == ()
        assert rest.amps.shape == ()
        assert abs(rest.amps) == pytest.approx(1.0, abs=1e-12)

    def test_forced_zero_probability(self):
        state = basis_state(Z2, 1, (0,))
        with pytest.raises(ZeroProbabilityError):
            measure(state, "src:1", forced=1)

    def test_requires_exactly_one_mode(self):
        state = basis_state(Z2, 1, (0,))
        with pytest.raises(QuantumError):
            measure(state, "src:1")

    def test_register_count_bookkeeping(self):
        state = basis_state(Z2, 1, (0, 1), reg_ids=("a", "b"))
        grown = code(state, ("a",), ("c", "d"), [[1], [1]])
        assert len(grown.reg_ids) == 4
        _, shrunk = measure(grown, "a", forced=0)
        assert len(shrunk.reg_ids) == 3


class TestPhase:
    def test_zero_phase_is_identity(self):
        state = random_state("Z(3)", 1, 1, seed=3)
        out = apply_phase(state, "r0", [Fraction(0)] * 3)
        assert np.array_equal(out.amps, state.amps)

    def test_z_gate(self):
        state = init_state(Z2, 1, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        out = apply_phase(state, "src:1", [Fraction(x, 2) for x in range(2)], sign=-1)
        assert np.allclose(out.amps, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12)

    def test_sign_pair_inverts(self):
        state = random_state("GF(4)", 1, 2, seed=9)
        fn = [Fraction(x, 7) for x in range(4)]
        out = apply_phase(apply_phase(state, "r1", fn, sign=1), "r1", fn, sign=-1)
        assert np.allclose(out.amps, state.amps, atol=1e-12)


class TestFidelity:
    def test_self(self):
        state = random_state("Z(3)", 1, 2, seed=1)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = basis_state(Z2, 1, (0,))
        b = basis_state(Z2, 1, (1,))
        assert fidelity(a, b) == 0

    def test_half(self):
        plus = init_state(Z2, 1, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        zero = basis_state(Z2, 1, (0,))
        assert fidelity(plus, zero) == pytest.approx(0.5, abs=1e-12)

    def test_positional_matching_ignores_ids(self):
        a = basis_state(Z2, 1, (1,), reg_ids=("src:1",))
        b = basis_state(Z2, 1, (1,), reg_ids=("tgt:1",))
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_roster_mismatch(self):
        a = basis_state(Z2, 1, (0,))
        b = basis_state(Z2, 1, (0, 0))
        with pytest.raises(RegisterError):
            fidelity(a, b)


def fourier_reference(state, reg, adjoint):
    mat = fourier_matrix(state.ring, state.q)
    if adjoint:
        mat = mat.conj().T
    ax = state.axis(reg)
    return np.moveaxis(np.tensordot(mat, state.amps, axes=([1], [ax])), 0, ax)


def measure_reference(state, reg, rng=None, forced=None):
    """Label, probability and collapsed amplitudes of a measurement."""
    ax = state.axis(reg)
    probs = np.abs(state.amps) ** 2
    marginal = probs.sum(axis=tuple(i for i in range(probs.ndim) if i != ax))
    label = forced if rng is None else int(rng.choice(state.dim, p=marginal / marginal.sum()))
    return label, marginal[label], np.take(state.amps, label, axis=ax) / math.sqrt(marginal[label])


@st.composite
def kernel_states(draw):
    """Random states of 1-4 registers, half of them with transposed amplitudes."""
    text, q = draw(st.sampled_from([("Z(2)", 1), ("Z(3)", 1), ("Z(4)", 1), ("GF(4)", 1), ("Z(2)", 2)]))
    state = random_state(text, q, draw(st.integers(1, 4)), draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        state = state.reordered(draw(st.permutations(state.reg_ids)))
    return state


@given(kernel_states(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_kernels_match_reference_on_every_axis(state, seed):
    for reg in state.reg_ids:
        ax = state.axis(reg)
        for adjoint in (False, True):
            got = apply_fourier(state, reg, adjoint=adjoint)
            assert got.reg_ids == state.reg_ids
            assert np.allclose(got.amps, fourier_reference(state, reg, adjoint), atol=1e-12)
        other = tuple(i for i in range(state.amps.ndim) if i != ax)
        expected = (np.abs(state.amps) ** 2).sum(axis=other)
        assert np.allclose(marginal_distribution(state, reg), expected, atol=1e-12)
        rest_ids = state.reg_ids[:ax] + state.reg_ids[ax + 1 :]
        for forced in (None, seed % state.dim):
            rngs = [None if forced is not None else np.random.default_rng(seed) for _ in range(2)]
            label, p, amps = measure_reference(state, reg, rngs[0], forced)
            outcome, rest = measure(state, reg, rng=rngs[1], forced=forced)
            assert (outcome.register, outcome.label) == (reg, label)
            assert outcome.probability == pytest.approx(p, abs=1e-12)
            assert rest.reg_ids == rest_ids
            assert np.allclose(rest.amps, amps, atol=1e-12)


@st.composite
def fused_cases(draw):
    """A random state, 1-3 of its registers as inputs (the rest stay live), and
    a random table over 1-3 outputs that is injective in the first input."""
    text, q = draw(st.sampled_from([("Z(2)", 1), ("Z(3)", 1), ("Z(4)", 1), ("GF(4)", 1), ("Z(2)", 2)]))
    m, n, extra = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 1))
    seed = draw(st.integers(0, 2**31 - 1))
    state = random_state(text, q, m + extra, seed)
    if draw(st.booleans()):
        state = state.reordered(draw(st.permutations(state.reg_ids)))
    ins = tuple(draw(st.permutations(state.reg_ids)))[:m]
    d = state.dim
    rng = np.random.default_rng(seed)
    # column c holds the outputs of the d first inputs with the others fixed at c
    columns = [rng.permutation(d**n)[:d] for _ in range(d ** (m - 1))]
    table = np.stack(columns, axis=-1).reshape((d,) * m)
    return state, ins, tuple(f"o{i}" for i in range(n)), table


def code_fourier_measure(state, ins, outs, table, rng=None, forced=None):
    coded = apply_coding_unitary(state, ins, outs, table)
    return measure(apply_fourier(coded, ins[0]), ins[0], rng=rng, forced=forced)


@given(fused_cases(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_fused_first_input_matches_code_fourier_measure(case, seed):
    state, ins, outs, table = case
    assert injective_in_first_input(table)
    for forced in (None, seed % state.dim):
        runs = []
        for step in (code_fourier_measure, code_and_measure_first):
            rng = None if forced is not None else np.random.default_rng(seed)
            runs.append(step(state, ins, outs, table, rng=rng, forced=forced))
        (want, want_state), (got, got_state) = runs
        assert (got.register, got.label) == (want.register, want.label)
        assert got.probability == pytest.approx(want.probability, abs=1e-12)
        assert got_state.reg_ids == want_state.reg_ids
        assert got_state.amps.shape == want_state.amps.shape
        assert np.allclose(got_state.amps, want_state.amps, atol=1e-12)
    # a state too faint for any forced label raises the same error on both paths
    faint = StateVector(state.ring, state.q, state.reg_ids, state.amps * 1e-7)
    errors = []
    for step in (code_fourier_measure, code_and_measure_first):
        with pytest.raises(ZeroProbabilityError) as info:
            step(faint, ins, outs, table, forced=seed % state.dim)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_injectivity_in_first_input():
    assert injective_in_first_input(np.array([[0, 1], [1, 0]]))
    # outputs 0 * y1 + y2 do not see y1
    assert not injective_in_first_input(np.array([[0, 1], [0, 1]]))
    # distinct on one column only
    assert not injective_in_first_input(np.array([[0, 1], [2, 1]]))


@given(st.sampled_from(RING_POOL), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_norm_preserved_through_pipeline(text, seed):
    spec = parse_ring_spec(text)
    state = random_state(text, 1, 2, seed)
    state = code(state, ("r0", "r1"), ("r2",), [[1, 1]])
    assert norm(state) == pytest.approx(1.0, abs=1e-9)
    state = apply_fourier(state, "r0")
    assert norm(state) == pytest.approx(1.0, abs=1e-9)
    _, state = measure(state, "r0", rng=np.random.default_rng(seed))
    assert norm(state) == pytest.approx(1.0, abs=1e-9)
    state = apply_phase(state, "r1", [Fraction(x, 5) for x in range(spec.cardinality)])
    assert norm(state) == pytest.approx(1.0, abs=1e-9)
