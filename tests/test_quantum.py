import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnetcode.quantum
from oracles import (
    StateVector,
    apply_coding_unitary,
    apply_fourier,
    apply_phase,
    dense,
    dense_fidelity,
    element,
    measure,
    one,
    support,
)
from qnetcode.network import MAX_STATE_ENTRIES
from qnetcode.quantum import (
    _draw,
    _group_rows,
    _layout,
    _scaled_fourier,
    _uniform,
    DimensionCapError,
    QuantumError,
    RegisterError,
    SupportState,
    ZeroProbabilityError,
    basis_state,
    check_growth,
    code_rows,
    fidelities,
    fidelity,
    fourier_matrix,
    init_state,
    measure_rows,
    output_columns,
    state_from_rows,
    take_columns,
    uniform_branch,
)
from qnetcode.rings import coefficient_matrix, parse_ring_spec

Z2 = parse_ring_spec("Z(2)")
Z3 = parse_ring_spec("Z(3)")
GF4 = parse_ring_spec("GF(4)")
PRODUCT_RINGS = [("Z(2)", 1), ("Z(3)", 1), ("Z(4)", 1), ("GF(4)", 1), ("GF(8)", 1)]
PRODUCT_RINGS += [("Z(2)xZ(4)", 1), ("Z(2)xZ(2)", 1), ("Z(2)", 2)]


def code(state, ins, outs, rows):
    """The coding unitary for scalar coefficients rows[i][j], each the ring's 1 or 0."""
    ring = state.ring
    coeffs = [[coefficient_matrix(ring, [[one(ring).to_int() if c else 0]]) for c in row] for row in rows]
    table = output_columns(ring, state.q, coeffs)
    return apply_coding_unitary(dense(state), ins, outs, table)


def norm(state):
    return float(np.linalg.norm(state.amps))


def transposed(state, order):
    """The same state with its axes, and its amplitudes' memory layout, in `order`."""
    perm = [state.axis(r) for r in order]
    return StateVector(state.ring, state.q, tuple(order), np.transpose(state.amps, perm))


def product_state(spec, q, seed):
    """The product of three random one-register states on a, b, c, stored in
    c, a, b order, and its three factors."""
    rng, d = np.random.default_rng(seed), spec.cardinality**q
    factors = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in "abc"]
    factors = [f / np.linalg.norm(f) for f in factors]
    state = init_state(spec, q, 3, np.einsum("i,j,k->ijk", *factors), reg_ids=("a", "b", "c"))
    return transposed(dense(state), ("c", "a", "b")), factors


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
        assert element(GF4, (0, 1)).to_int() == 1
        assert element(GF4, (1, 1)).to_int() == 3
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

    def test_rejects_wrong_register_id_count(self):
        with pytest.raises(RegisterError, match="expected 2 register ids, got 1"):
            init_state(Z2, 1, 2, [1.0, 0.0, 0.0, 0.0], reg_ids=("a",))

    def test_cap_message_names_an_unprintable_count(self):
        # d^2 has 8000 digits, more than Python converts to text
        ring = parse_ring_spec(f"Z({'9' * 4000})")
        with pytest.raises(
            DimensionCapError,
            match=r"^the state would hold about 10\^\d+ amplitudes, above the cap 16777216$",
        ):
            check_growth(ring.cardinality**2, MAX_STATE_ENTRIES)
        # a basis state is one row on any ring: it needs no cap
        state = basis_state(ring, 1, (0, 7))
        assert state.labels.tolist() == [[0, 7]] and state.amps.tolist() == [1]


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

    # an unknown input, an input given twice, an output that is live
    @pytest.mark.parametrize("ins, outs", [("ax", "o"), ("aa", "o"), ("ab", "b")])
    def test_register_errors_in_both_engines(self, ins, outs):
        state, table = basis_state(Z2, 1, (1, 0), reg_ids=("a", "b")), np.zeros((4, 1), dtype=np.int64)
        for kernel in (lambda s, *args: apply_coding_unitary(dense(s), *args), code_rows):
            with pytest.raises(RegisterError):
                kernel(state, tuple(ins), tuple(outs), table)

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
        state = apply_fourier(dense(basis_state(Z2, 1, (0,))), "src:1")
        assert np.allclose(state.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_z3_phases(self):
        w = np.exp(2j * np.pi / 3)
        state = apply_fourier(dense(basis_state(Z3, 1, (1,))), "src:1")
        expected = np.array([1, w, w**2]) / math.sqrt(3)
        assert np.allclose(state.amps, expected, atol=1e-12)

    @pytest.mark.parametrize("text", ["Z(2)", "Z(3)", "Z(4)", "GF(4)", "GF(8)", "Z(2)xZ(4)"])
    def test_unitary(self, text):
        spec = parse_ring_spec(text)
        assert spec.cardinality <= 9 or text == "GF(8)"
        mat = fourier_matrix(spec, 1)
        d = spec.cardinality
        assert np.allclose(mat @ mat.conj().T, np.eye(d), atol=1e-12)

    def test_vector_register_unitary(self):
        mat = fourier_matrix(Z2, 2)
        assert mat.shape == (4, 4)
        assert np.allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("text, q", PRODUCT_RINGS)
    def test_each_axis_of_a_product_state(self, text, q):
        # F on one register of a product state transforms that factor alone
        spec = parse_ring_spec(text)
        state, factors = product_state(spec, q, seed=4)
        for i, reg in enumerate("abc"):
            got = apply_fourier(state, reg)
            assert got.reg_ids == state.reg_ids
            new = [fourier_matrix(spec, q) @ f if j == i else f for j, f in enumerate(factors)]
            assert np.allclose(transposed(got, "abc").amps, np.einsum("i,j,k->ijk", *new), atol=1e-12)

    def test_unknown_register(self):
        with pytest.raises(RegisterError):
            apply_fourier(dense(basis_state(Z2, 1, (0,))), "nope")


class TestMeasure:
    def test_uniform_probabilities(self):
        state = dense(init_state(Z2, 1, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)]))
        for z in (0, 1):
            assert measure(state, "src:1", forced=z)[0].probability == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_on_basis_state(self):
        state = dense(basis_state(Z2, 1, (1, 0)))
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
            state = apply_fourier(dense(basis_state(spec, 1, (y,))), "src:1")
            for z in range(d):
                assert measure(state, "src:1", forced=z)[0].probability == pytest.approx(1 / d, abs=1e-12)

    @pytest.mark.parametrize("text, q", PRODUCT_RINGS)
    def test_each_axis_of_a_product_state(self, text, q):
        # outcome z of one factor f: probability |f[z]|^2, the other factors stay
        state, factors = product_state(parse_ring_spec(text), q, seed=6)
        for i, reg in enumerate("abc"):
            rest_ids = tuple(r for r in "abc" if r != reg)
            others = [f for j, f in enumerate(factors) if j != i]
            for z, amp in enumerate(factors[i]):
                outcome, rest = measure(state, reg, forced=z)
                assert outcome.probability == pytest.approx(abs(amp) ** 2, abs=1e-12)
                assert sorted(rest.reg_ids) == list(rest_ids)
                expected = np.outer(*others) * amp / abs(amp)
                assert np.allclose(transposed(rest, rest_ids).amps, expected, atol=1e-12)

    def test_seeded_reproducibility(self):
        state = dense(random_state("Z(4)", 1, 2, seed=11))
        runs = []
        for _ in range(2):
            out, rest = measure(state, "r0", rng=np.random.default_rng(42))
            runs.append((out.label, rest.amps.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_forced(self):
        state = dense(init_state(Z2, 1, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)]))
        outcome, rest = measure(state, "src:1", forced=1)
        assert outcome.label == 1
        assert rest.reg_ids == ()
        assert rest.amps.shape == ()
        assert abs(rest.amps) == pytest.approx(1.0, abs=1e-12)

    def test_forced_zero_probability(self):
        state = dense(basis_state(Z2, 1, (0,)))
        with pytest.raises(ZeroProbabilityError):
            measure(state, "src:1", forced=1)

    def test_requires_exactly_one_mode(self):
        state = dense(basis_state(Z2, 1, (0,)))
        with pytest.raises(QuantumError):
            measure(state, "src:1")


class TestDraw:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 16, 27, 64])
    def test_labels_are_those_of_generator_choice(self, d):
        # the seeded labels pinned in tests/cli_golden.json rest on this: a
        # certified plan's branch drawn up front, then an uncertified one's draws
        uniform, _ = _uniform(d)
        for seed in range(150):
            weights = np.random.default_rng([d, seed]).random(d)
            weights[::3] = 0.0
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            branch = uniform_branch(d, 5, ours)
            assert branch == tuple(theirs.choice(d, p=uniform / uniform.sum()) for _ in range(5))
            assert all(type(label) is int for label in branch)
            for _ in range(5):
                assert _draw(uniform, "r", ours, None)[0] == theirs.choice(d, p=uniform / uniform.sum())
                assert _draw(weights, "r", ours, None)[0] == theirs.choice(d, p=weights / weights.sum())
            assert ours.random() == theirs.random()


def test_cached_tables_are_read_only():
    gather, weights, _ = _layout(("a", "b"), ("b",), ("c",), 4)
    for table in (fourier_matrix(GF4, 1), _scaled_fourier(GF4, 1), *_uniform(4), gather, weights):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


class TestPhase:
    """The dense corrections of `oracles`, which `finish_run`'s per-row ones
    are checked against (`test_engine`)."""

    def test_zero_phase_is_identity(self):
        state = dense(random_state("Z(3)", 1, 1, seed=3))
        out = apply_phase(state, "r0", [Fraction(0)] * 3)
        assert np.array_equal(out.amps, state.amps)

    def test_z_gate(self):
        state = dense(init_state(Z2, 1, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)]))
        out = apply_phase(state, "src:1", [-Fraction(x, 2) for x in range(2)])
        assert np.allclose(out.amps, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12)

    def test_wrong_phase_count(self):
        with pytest.raises(QuantumError, match="need 2 phases, got 3"):
            apply_phase(dense(basis_state(Z2, 1, (0,))), "src:1", [0, 0, 0])

    def test_sign_pair_inverts(self):
        state = dense(random_state("GF(4)", 1, 2, seed=9))
        fn = [Fraction(x, 7) for x in range(4)]
        out = apply_phase(apply_phase(state, "r1", fn), "r1", [-t for t in fn])
        assert np.allclose(out.amps, state.amps, atol=1e-12)


class TestStateFromRows:
    def test_rows_come_back_in_label_order_without_zeros(self):
        state = state_from_rows(Z3, 1, [[2, 0], [0, 1], [1, 1]], [0.8j, 0.6, 0], reg_ids=("a", "b"))
        assert state.reg_ids == ("a", "b")
        assert state.labels.tolist() == [[0, 1], [2, 0]]
        assert np.array_equal(state.amps, [0.6, 0.8j])
        assert state.amplitude((2, 0)) == 0.8j and state.amplitude((1, 1)) == 0

    def test_default_registers_are_the_sources(self):
        assert state_from_rows(Z2, 1, [[1, 0, 1]], [1.0]).reg_ids == ("src:1", "src:2", "src:3")

    def test_normalization_warns(self):
        with pytest.warns(UserWarning, match=r"normalizing input state \(norm was 2\)"):
            state = state_from_rows(Z2, 1, [[0], [1]], [math.sqrt(2), math.sqrt(2)])
        assert np.allclose(state.amps, [math.sqrt(0.5)] * 2, atol=1e-15)

    @pytest.mark.parametrize(
        "labels, amps, message",
        [
            ([[0, 1], [0, 1]], [0.6, 0.8], "lists a basis label twice"),
            ([[0, 1], [0, 1]], [1.0, 0.0], "lists a basis label twice"),
            ([[0, 2]], [1.0], r"basis label out of range \(dimension 2\)"),
            ([[-1, 0]], [1.0], "out of range"),
            ([[0, 1]], [0.0], "must not be all zero"),
            (np.zeros((0, 2)), [], "must not be all zero"),
            ([[0, 1]], [np.nan], "must be finite"),
            ([[0, 1], [1, 1]], [1.0], "one row of labels per amplitude"),
            ([0, 1], [0.6, 0.8], "one row of labels per amplitude"),
            ([[0.5, 1.7]], [1.0], "basis labels must be integers"),
            ([[True, False]], [1.0], "basis labels must be integers"),
        ],
    )
    def test_bad_rows_are_refused(self, labels, amps, message):
        with pytest.raises(QuantumError, match=message):
            state_from_rows(Z2, 1, labels, amps)

    @pytest.mark.parametrize("label", [2**63, 2**64, 2**65, float(2**65)])
    def test_labels_past_int64_are_too_large(self, label):
        # labels of Z(2^70) run past the support rows' int64
        ring = parse_ring_spec(f"Z({2**70})")
        message = f"^basis label {int(label)} is too large for the int64 support rows$"
        with pytest.raises(QuantumError, match=message):
            state_from_rows(ring, 1, [[label]], [1.0])
        with pytest.raises(QuantumError, match="out of range"):
            state_from_rows(ring, 1, [[-label]], [1.0])
        assert state_from_rows(ring, 1, [[2**63 - 1]], [1.0]).labels.tolist() == [[2**63 - 1]]

    def test_register_count_must_match(self):
        with pytest.raises(RegisterError, match="expected 2 register ids, got 3"):
            state_from_rows(Z2, 1, [[0, 1]], [1.0], reg_ids=("a", "b", "c"))

    def test_init_state_gives_the_nonzero_rows(self):
        amps = np.arange(27) % 4 * (1 + 1j)
        state = init_state(Z3, 1, 3, amps / np.linalg.norm(amps))
        nonzero = np.flatnonzero(amps)
        assert state.labels.tolist() == [list(np.unravel_index(i, (3, 3, 3))) for i in nonzero]
        assert np.allclose(state.amps, amps[nonzero] / np.linalg.norm(amps), atol=1e-15)
        assert init_state(Z2, 1, 0, [1.0]).labels.shape == (1, 0)


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


def _sorts(monkeypatch) -> list:
    """The row sets `fidelity` sorts, one entry per sort."""
    calls = []
    sort = qnetcode.quantum._lexsorted
    monkeypatch.setattr(qnetcode.quantum, "_lexsorted", lambda rows: calls.append(rows) or sort(rows))
    return calls


def _unchecked(state: SupportState) -> SupportState:
    """The same rows in a state `state_from_rows` did not make."""
    return SupportState(state.ring, state.q, state.reg_ids, state.labels, state.amps)


class TestPositionalFidelity:
    """A checked state against a state on the same labels pairs rows by
    position, with no sort, and gets the sorted path's bits."""

    @pytest.mark.parametrize("text, q, n", [("Z(2)", 1, 2), ("Z(3)", 1, 3), ("GF(4)", 1, 2), ("Z(2)", 2, 3)])
    def test_same_bits_as_the_sorted_path(self, monkeypatch, text, q, n):
        for seed in range(20):
            a = random_state(text, q, n, seed=seed)
            rng = np.random.default_rng(seed)
            amps = rng.normal(size=len(a.amps)) + 1j * rng.normal(size=len(a.amps))
            b = SupportState(a.ring, a.q, a.reg_ids, a.labels.copy(), amps / np.linalg.norm(amps))
            sorts = _sorts(monkeypatch)
            positional = fidelity(a, b)
            assert sorts == []
            sorted_path = fidelity(_unchecked(a), b)
            assert len(sorts) == 1
            assert np.float64(positional).tobytes() == np.float64(sorted_path).tobytes()
            monkeypatch.undo()

    def test_strided_amplitudes_get_the_contiguous_bits(self):
        a = random_state("Z(3)", 1, 3, seed=4)
        wide = np.repeat(a.amps[::-1], 2)[::2]  # a strided view
        b = SupportState(a.ring, a.q, a.reg_ids, a.labels, wide)
        assert not wide.flags.c_contiguous
        want = fidelity(_unchecked(a), b)
        assert np.float64(fidelity(a, b)).tobytes() == np.float64(want).tobytes()

    def test_unsorted_rows_are_sorted(self, monkeypatch):
        a = random_state("Z(3)", 1, 2, seed=2)
        order = np.random.default_rng(2).permutation(len(a.amps))
        b = SupportState(a.ring, a.q, a.reg_ids, a.labels[order], a.amps[order])
        sorts = _sorts(monkeypatch)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(_unchecked(b), a) == pytest.approx(1.0, abs=1e-12)
        assert len(sorts) == 2

    def test_mismatched_rows_are_sorted(self, monkeypatch):
        a = init_state(Z2, 1, 2, [0.5, 0.5, 0.5, 0.5])
        other = SupportState(Z2, 1, a.reg_ids, np.array([[0, 0], [0, 1], [1, 1]]), np.full(3, 3**-0.5))
        fewer = SupportState(Z2, 1, a.reg_ids, a.labels[:3], a.amps[:3])
        sorts = _sorts(monkeypatch)
        assert fidelity(a, other) == pytest.approx(0.75, abs=1e-12)
        assert fidelity(a, fewer) == pytest.approx(0.75**2, abs=1e-12)
        assert len(sorts) == 2

    def test_fidelities_are_fidelity_row_by_row(self):
        a = random_state("GF(4)", 1, 2, seed=6)
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(5, len(a.amps))) + 1j * rng.normal(size=(5, len(a.amps)))
        for labels in (a.labels, a.labels[::-1]):
            got = fidelities(a, labels, rows)
            want = [fidelity(a, SupportState(a.ring, a.q, a.reg_ids, labels, row)) for row in rows]
            assert got.tobytes() == np.array(want).tobytes()


@st.composite
def coding_cases(draw):
    """A random state with some amplitudes zeroed, 1-3 of its registers as
    inputs (the rest stay live), and a random table over 1-3 outputs: where it
    is not injective in the first input, rows share the other registers."""
    text, q = draw(st.sampled_from([("Z(2)", 1), ("Z(3)", 1), ("Z(4)", 1), ("GF(4)", 1), ("Z(2)", 2)]))
    m, n, extra = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 1))
    seed = draw(st.integers(0, 2**31 - 1))
    state = random_state(text, q, m + extra, seed)
    rng = np.random.default_rng(seed)
    amps = state.amps * (rng.random(state.amps.shape) < draw(st.sampled_from([0.3, 1.0])))
    if not amps.any():
        amps = state.amps
    state = dense(init_state(state.ring, q, m + extra, amps / np.linalg.norm(amps), reg_ids=state.reg_ids))
    if draw(st.booleans()):
        state = transposed(state, draw(st.permutations(state.reg_ids)))
    ins = tuple(draw(st.permutations(state.reg_ids)))[:m]
    d = state.dim
    table = rng.integers(min(d, draw(st.sampled_from([1, 2, d]))), size=(d**m, n))
    return state, ins, tuple(f"o{i}" for i in range(n)), table


def support_code_measure(state, ins, outs, table, reg, rng=None, forced=None):
    coded = code_rows(support(state), ins, outs, table)
    (outcome,), rest = measure_rows(coded, (reg,), rng=rng, forced=None if forced is None else (forced,))
    return outcome, rest


def dense_code_measure(state, ins, outs, table, reg, rng=None, forced=None):
    coded = apply_coding_unitary(state, ins, outs, table)
    return measure(apply_fourier(coded, reg), reg, rng=rng, forced=forced)


@given(coding_cases(), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_support_kernels_match_dense_kernels(case, seed):
    state, ins, outs, table = case
    # the first input leads the coded columns; every other register does not
    others = [r for r in state.reg_ids + outs if r != ins[0]]
    for reg, forced in itertools.product((ins[0], others[seed % len(others)]), (None, seed % state.dim)):
        runs = []
        for step in (dense_code_measure, support_code_measure):
            rng = None if forced is not None else np.random.default_rng(seed)
            try:
                runs.append(step(state, ins, outs, table, reg, rng=rng, forced=forced))
            except ZeroProbabilityError:
                runs.append(None)
        if runs[0] is None or runs[1] is None:
            assert runs[0] is runs[1] is None
            continue
        (want, want_state), (got, got_state) = runs
        assert (got.register, got.label) == (want.register, want.label)
        assert got.probability == pytest.approx(want.probability, abs=1e-12)
        assert got_state.reg_ids == want_state.reg_ids
        assert np.allclose(dense(got_state, want_state.reg_ids).amps, want_state.amps, atol=1e-12)
    for step in (dense_code_measure, support_code_measure):
        with pytest.raises(RegisterError, match="unknown register 'nope'"):
            step(state, ins, outs, table, "nope", forced=0)


class TestSupportState:
    def test_round_trip_in_label_order(self):
        amps = [0, 0.6, 0, 0, 0, 0, 0.8j, 0, 0]
        rows = init_state(Z3, 1, 2, amps, reg_ids=("a", "b"))
        assert rows.labels.tolist() == [[0, 1], [2, 0]]
        assert np.array_equal(rows.amps, [0.6, 0.8j])
        back = dense(rows, ("b", "a"))
        assert back.reg_ids == ("b", "a")
        assert np.array_equal(back.amps, np.reshape(amps, (3, 3)).T)
        again = support(dense(rows))
        assert np.array_equal(again.labels, rows.labels) and np.array_equal(again.amps, rows.amps)

    def test_dense_needs_the_live_registers(self):
        rows = basis_state(Z2, 1, (1, 0))
        with pytest.raises(RegisterError):
            dense(rows, ("src:1",))

    def test_measuring_a_determined_register_leaves_a_phase(self):
        # |00> + |11>: the other register fixes y, so each outcome has p = 1/d exactly
        rows = init_state(Z3, 1, 2, [0.6, 0, 0, 0, 0.8, 0, 0, 0, 0])
        for z in range(3):
            (outcome,), rest = measure_rows(rows, ("src:1",), forced=(z,))
            assert outcome.probability == 1 / 3
            assert rest.labels.tolist() == [[0], [1]]
            assert np.allclose(rest.amps, [0.6, 0.8 * np.exp(2j * np.pi * z / 3)], atol=1e-15)

    @pytest.mark.parametrize("regs", [("a", "b"), ("c", "a"), ("b", "c")])
    def test_certified_call_equals_the_checked_one(self, regs):
        # |x, 2x, x + 1> over Z(3): any register fixes the others, whether it leads or not
        x, amps = np.arange(3), np.zeros((3, 3, 3), dtype=complex)
        cols = {"a": x, "b": 2 * x % 3, "c": (x + 1) % 3}
        amps[cols["a"], cols["b"], cols["c"]] = [0.6, 0.48j, -0.64]
        rows = init_state(Z3, 1, 3, amps, reg_ids=("a", "b", "c"))
        (left,) = [r for r in "abc" if r not in regs]
        for forced in [(2, 1), None]:
            rng = None if forced else np.random.default_rng(9)
            checked, want = measure_rows(rows, regs, rng, forced)
            # a certified call draws nothing: it takes the labels the checked call drew
            columns, state = take_columns(rows, regs, [o.label for o in checked])
            assert [o.register for o in checked] == list(regs) and all(o.probability == 1 / 3 for o in checked)
            assert columns.tolist() == [cols[r].tolist() for r in regs]
            turns = sum(cols[o.register] * o.label for o in checked) / 3
            assert state.reg_ids == want.reg_ids == (left,)
            assert state.labels.tolist() == want.labels.tolist() == [[v] for v in cols[left]]
            assert np.allclose(state.amps, amps[amps != 0] * np.exp(2j * np.pi * turns), atol=1e-15)
            assert state.amps.tobytes() == want.amps.tobytes()

    @pytest.mark.parametrize("regs", [("src:1",), ("src:2", "src:1"), ("src:1", "src:2")])
    def test_taking_columns_without_labels_leaves_no_phase(self, regs):
        amps = np.arange(27) % 5
        rows = init_state(Z3, 1, 3, amps / np.linalg.norm(amps), reg_ids=("src:1", "src:2", "src:3"))
        columns, state = take_columns(rows, regs, ())
        assert state.amps is rows.amps
        assert state.reg_ids == tuple(r for r in rows.reg_ids if r not in regs)
        assert columns.tolist() == [rows.labels[:, rows.reg_ids.index(r)].tolist() for r in regs]
        assert state.labels.tolist() == take_columns(rows, regs, (0,) * len(regs))[1].labels.tolist()

    def test_made_states_are_read_only(self):
        state = state_from_rows(Z3, 1, [[0.0, 1.0], [2, 0]], [0.6, 0.8])
        assert state.labels.dtype == np.int64 and state.labels.tolist() == [[0, 1], [2, 0]]
        for array in (state.labels, state.amps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    # a certified step (`take_columns`) is never taken on interfering rows
    @pytest.mark.parametrize(
        "amps, certified",
        [([0.6, 0, 0, 0.8], False), ([0.6, 0, 0, 0.8], True), ([0.6, 0, 0.8, 0], False)],
        ids=["distinct", "certified", "interfering"],
    )
    def test_forced_label_out_of_range(self, amps, certified):
        rows = init_state(Z2, 1, 2, amps)
        with pytest.raises(QuantumError, match="outcome label 2 out of range"):
            if certified:
                take_columns(rows, ("src:1",), (2,))
            else:
                measure_rows(rows, ("src:1",), forced=(2,))

    def test_groups_keep_the_lexicographic_order_of_the_other_columns(self):
        # over Z(3), rows 0 and 1 share their other columns (1, 0) and interfere;
        # the survivors are listed as (0, 2), (1, 0), (2, 1), first column leading
        amps = np.zeros((3, 3, 3), dtype=complex)
        amps[0, 1, 0], amps[1, 1, 0], amps[2, 0, 2], amps[0, 2, 1] = 0.5, 0.5j, -0.5, 0.5
        state = init_state(Z3, 1, 3, amps, reg_ids=("a", "b", "c"))
        for z in range(3):
            want_outcome, want = measure(apply_fourier(dense(state), "a"), "a", forced=z)
            (outcome,), rest = measure_rows(state, ("a",), forced=(z,))
            assert outcome.probability == pytest.approx(want_outcome.probability, abs=1e-12)
            assert rest.labels.tolist() == [[0, 2], [1, 0], [2, 1]]
            assert np.allclose(dense(rest, ("b", "c")).amps, want.amps, atol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 3), (40, 1), (1, 4), (1, 1), (7, 6), (3, 0)])
    def test_grouping_matches_numpy_unique(self, shape):
        # first rows and groups as np.unique's, so seeded and forced runs do not move
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for high in (2, 3, 2**40):
            rows = rng.integers(0, high, size=shape)
            rows[shape[0] // 2 :] = rows[: shape[0] - shape[0] // 2]  # duplicate rows
            _, first, group = np.unique(rows, axis=0, return_index=True, return_inverse=True)
            got_first, got_group = _group_rows(rows)
            assert got_first.tolist() == first.tolist()
            assert got_group.tolist() == group.reshape(-1).tolist()

    def test_rows_that_share_the_others_interfere(self):
        # (|0> + |1>)|0> / sqrt 2 measured in the Fourier basis: outcome 1 never happens
        half = math.sqrt(0.5)
        rows = init_state(Z2, 1, 2, [half, 0, half, 0])
        (outcome,), rest = measure_rows(rows, ("src:1",), forced=(0,))
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)
        assert rest.labels.tolist() == [[0]] and rest.amps == pytest.approx([1.0], abs=1e-12)
        with pytest.raises(ZeroProbabilityError):
            measure_rows(rows, ("src:1",), forced=(1,))


@st.composite
def determined_cases(draw):
    """A state whose rows are distinct on its spectators (the registers left
    unmeasured), 1-4 measured registers at any columns (or leading, as after
    coding), their outcome labels, and one label out of range: so no
    measurement, alone or with the others, moves a row."""
    text, q = draw(st.sampled_from([("Z(2)", 1), ("Z(3)", 1), ("Z(4)", 1), ("GF(4)", 1), ("Z(2)", 2)]))
    spec, m, n = parse_ring_spec(text), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    d = spec.cardinality**q
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    size = draw(st.integers(1, min(12, d**n)))
    spectators = rng.choice(d**n, size, replace=False)[:, None] // d ** np.arange(n)[::-1] % d
    labels = np.concatenate((rng.integers(d, size=(size, m)), spectators), axis=1)
    names = [f"m{i}" for i in range(m)] + [f"s{i}" for i in range(n)]
    lead = draw(st.booleans())
    order = draw(st.permutations(range(m))) + draw(st.permutations(range(m, m + n)))
    if not lead:
        order = draw(st.permutations(order))
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    state = state_from_rows(spec, q, labels[:, order], amps / np.linalg.norm(amps), [names[c] for c in order])
    regs = state.reg_ids[:m] if lead else tuple(draw(st.permutations(names[:m])))
    outcomes = tuple(int(a) for a in rng.integers(d, size=m))
    bad = draw(st.one_of(st.integers(-(2**70), -1), st.integers(d, 2**70)))
    return state, regs, outcomes, (draw(st.integers(0, m - 1)), bad)


@given(determined_cases())
@settings(max_examples=120, deadline=None)
def test_take_columns_is_one_checked_measurement_per_register(case):
    state, regs, outcomes, (at, bad) = case
    d = state.ring.cardinality**state.q
    columns, got = take_columns(state, regs, outcomes)
    want, oracle = state, dense(state)
    for reg, label in zip(regs, outcomes):
        (outcome,), want = measure_rows(want, (reg,), forced=(label,))
        assert (outcome.register, outcome.label, outcome.probability) == (reg, label, 1 / d)
        oracle = measure(apply_fourier(oracle, reg), reg, forced=label)[1]
    assert columns.tolist() == [state.labels[:, state.reg_ids.index(r)].tolist() for r in regs]
    assert got.reg_ids == want.reg_ids == oracle.reg_ids
    assert np.array_equal(got.labels, want.labels)
    assert got.amps.tobytes() == want.amps.tobytes()
    assert np.allclose(dense(got, oracle.reg_ids).amps, oracle.amps, atol=1e-12)
    with pytest.raises(QuantumError, match=f"outcome label {bad} out of range"):
        take_columns(state, regs, outcomes[:at] + (bad,) + outcomes[at + 1 :])


@st.composite
def fidelity_cases(draw):
    """Two random states on the same register shape: random supports, rows
    that only one side lists, rows in any order, registers named apart and
    spectators (registers beyond the first) alike."""
    text, q = draw(st.sampled_from([("Z(2)", 1), ("Z(3)", 1), ("GF(4)", 1), ("Z(2)", 2)]))
    spec, n = parse_ring_spec(text), draw(st.integers(0, 4))
    d = spec.cardinality**q
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shared = rng.random(d**n) < draw(st.sampled_from([0.2, 0.7, 1.0]))
    states = []
    for ids in [[f"src:{i}" for i in range(n)], [f"tgt:{i}" for i in range(n)]]:
        amps = (rng.normal(size=d**n) + 1j * rng.normal(size=d**n)) * (shared | (rng.random(d**n) < 0.3))
        if not amps.any():
            amps[0] = 1.0
        state = init_state(spec, q, n, amps / np.linalg.norm(amps), reg_ids=ids)
        if draw(st.booleans()):
            order = rng.permutation(len(state.amps))
            state = SupportState(spec, q, state.reg_ids, state.labels[order], state.amps[order])
        states.append(state)
    return states


@given(fidelity_cases())
@settings(max_examples=150, deadline=None)
def test_row_fidelity_equals_the_dense_oracle(case):
    a, b = case
    want = dense_fidelity(dense(a), dense(b))
    assert fidelity(a, b) == pytest.approx(want, abs=1e-12)
    assert fidelity(b, a) == pytest.approx(want, abs=1e-12)
