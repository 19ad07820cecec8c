"""Dense state-vector engine over named registers of dimension |R|^q.

A state holds an ordered roster of live register ids and a complex amplitude
tensor with one axis per register. Axis order follows the roster; each axis
is indexed by the basis label of a width-q ring vector (see
`rings.RingVector.to_index`). Global phase is kept, never quotiented out.

Operations return new states. Registers are created by the coding unitary
and destroyed by measurement, so the tensor always has exactly one axis per
live register. A configurable cap bounds the amplitude count so a malformed
instance fails fast instead of exhausting memory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .network import CapExceededError
from .rings import (
    RingSpec,
    RingVector,
    basis_vectors,
    mat_vec,
    vector_character,
    vector_zero,
)

MAX_STATE_ENTRIES = 2**24
_NORM_TOL = 1e-9


class QuantumError(ValueError):
    pass


class RegisterError(QuantumError):
    """Unknown, duplicate, or mismatched register id."""


class DimensionCapError(CapExceededError):
    """The amplitude tensor would exceed the configured entry cap."""


class ZeroProbabilityError(QuantumError):
    """A forced measurement outcome has no support in the current state."""


@dataclass(frozen=True)
class MeasurementOutcome:
    register: str
    outcome: RingVector
    node: str | None = None

    @property
    def label(self) -> int:
        return self.outcome.to_index()


@dataclass(frozen=True, eq=False)
class StateVector:
    ring: RingSpec
    q: int
    reg_ids: tuple[str, ...]
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.ring.cardinality**self.q

    def axis(self, reg: str) -> int:
        try:
            return self.reg_ids.index(reg)
        except ValueError:
            raise RegisterError(f"unknown register {reg!r}") from None

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def amplitude(self, labels) -> complex:
        """Amplitude of the basis state given by one label per register."""
        return complex(self.amps[tuple(int(v) for v in labels)])

    def dims_signature(self) -> tuple[int, ...]:
        return (self.dim,) * len(self.reg_ids)

    def renamed(self, mapping: dict[str, str]) -> "StateVector":
        ids = tuple(mapping.get(r, r) for r in self.reg_ids)
        if len(set(ids)) != len(ids):
            raise RegisterError("renaming collides register ids")
        return StateVector(self.ring, self.q, ids, self.amps)

    def reordered(self, new_order) -> "StateVector":
        new_order = tuple(new_order)
        if sorted(new_order) != sorted(self.reg_ids):
            raise RegisterError("reorder must use exactly the live registers")
        perm = [self.axis(r) for r in new_order]
        return StateVector(self.ring, self.q, new_order, np.transpose(self.amps, perm))


def init_state(
    ring: RingSpec,
    q: int,
    k: int,
    amplitudes,
    reg_ids=None,
    max_entries: int = MAX_STATE_ENTRIES,
) -> StateVector:
    """State of k registers from a flat amplitude array of length (|R|^q)^k.

    The flat index runs over basis labels with the first register most
    significant. Non-normalized input is rescaled with a warning; an all-zero
    array is rejected.
    """
    dim = ring.cardinality**q
    if reg_ids is None:
        reg_ids = tuple(f"src:{i + 1}" for i in range(k))
    else:
        reg_ids = tuple(reg_ids)
        if len(reg_ids) != k:
            raise RegisterError(f"expected {k} register ids, got {len(reg_ids)}")
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != dim**k:
        raise QuantumError(
            f"need {dim ** k} amplitudes for {k} registers of dimension {dim}, "
            f"got {amps.size}"
        )
    if amps.size > max_entries:
        raise DimensionCapError(f"state of {amps.size} amplitudes exceeds cap {max_entries}")
    norm = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
    if norm == 0.0:
        raise QuantumError("state vector must not be all zero")
    if abs(norm - 1.0) > _NORM_TOL:
        warnings.warn(f"normalizing input state (norm was {norm:.6g})", stacklevel=2)
        amps = amps / norm
    return StateVector(ring, q, reg_ids, amps.reshape((dim,) * k))


def basis_state(ring: RingSpec, q: int, labels, reg_ids=None) -> StateVector:
    """Computational basis state |labels[0], labels[1], ...>."""
    labels = tuple(int(v) for v in labels)
    dim = ring.cardinality**q
    amps = np.zeros((dim,) * len(labels), dtype=complex)
    amps[labels] = 1.0
    return init_state(ring, q, len(labels), amps, reg_ids=reg_ids)


@lru_cache(maxsize=None)
def _coding_label_map(ring: RingSpec, q: int, coeffs) -> tuple[tuple[int, ...], ...]:
    """Output basis labels for every input label combination, in ndindex order."""
    vectors = basis_vectors(ring, q)
    dim = len(vectors)
    m = len(coeffs[0]) if coeffs else 0
    table = []
    for combo in np.ndindex(*(dim,) * m):
        ys = [vectors[c] for c in combo]
        out_labels = []
        for row in coeffs:
            acc = vector_zero(ring, q)
            for B, y in zip(row, ys):
                acc = acc + mat_vec(B, y)
            out_labels.append(acc.to_index())
        table.append(tuple(out_labels))
    return tuple(table)


def apply_coding_unitary(
    state: StateVector,
    in_regs,
    out_regs,
    coeffs,
    max_entries: int = MAX_STATE_ENTRIES,
) -> StateVector:
    """Adjoin fresh output registers holding the coded combination of inputs.

    `coeffs[i][j]` is the matrix applied to input j for output i, so basis
    states map as |y_1..y_m>|0..0> -> |y_1..y_m>|f_1(y)..f_n(y)> with
    f_i(y) = sum_j coeffs[i][j] @ y_j. A pure relabeling of basis states:
    the nonzero amplitudes are moved, never mixed.
    """
    in_regs = tuple(in_regs)
    out_regs = tuple(out_regs)
    coeffs = tuple(tuple(row) for row in coeffs)
    m, n = len(in_regs), len(out_regs)
    if len(coeffs) != n or any(len(row) != m for row in coeffs):
        raise QuantumError(f"coefficient array must be {n}x{m}")
    if set(out_regs) & set(state.reg_ids) or len(set(out_regs)) != n:
        raise RegisterError("output registers collide with live registers")
    in_axes = [state.axis(r) for r in in_regs]
    if len(set(in_axes)) != m:
        raise RegisterError("duplicate input register")

    dim = state.dim
    new_size = state.amps.size * dim**n
    if new_size > max_entries:
        raise DimensionCapError(
            f"state would grow to {new_size} amplitudes, above the cap {max_entries}"
        )

    label_map = _coding_label_map(state.ring, state.q, coeffs)
    old_rank = state.amps.ndim
    new = np.zeros(state.amps.shape + (dim,) * n, dtype=complex)
    base = [slice(None)] * old_rank
    for combo, out_labels in zip(np.ndindex(*(dim,) * m), label_map):
        idx = list(base)
        for ax, c in zip(in_axes, combo):
            idx[ax] = c
        new[tuple(idx) + out_labels] = state.amps[tuple(idx)]
    return StateVector(state.ring, state.q, state.reg_ids + out_regs, new)


@lru_cache(maxsize=None)
def fourier_matrix(ring: RingSpec, q: int) -> np.ndarray:
    """The group Fourier transform on one register: F[z, y] = chi(y, z) / sqrt(d)."""
    vectors = basis_vectors(ring, q)
    d = len(vectors)
    mat = np.empty((d, d), dtype=complex)
    for a, y in enumerate(vectors):
        for b, z in enumerate(vectors):
            mat[b, a] = np.exp(2j * np.pi * float(vector_character(y, z)))
    return mat / math.sqrt(d)


def apply_fourier(state: StateVector, reg: str, adjoint: bool = False) -> StateVector:
    ax = state.axis(reg)
    mat = fourier_matrix(state.ring, state.q)
    if adjoint:
        mat = mat.conj().T
    moved = np.tensordot(mat, state.amps, axes=([1], [ax]))
    return StateVector(state.ring, state.q, state.reg_ids, np.moveaxis(moved, 0, ax))


def marginal_distribution(state: StateVector, reg: str) -> np.ndarray:
    ax = state.axis(reg)
    probs = np.abs(state.amps) ** 2
    other = tuple(i for i in range(probs.ndim) if i != ax)
    return probs.sum(axis=other) if other else probs


def measure(
    state: StateVector,
    reg: str,
    rng: np.random.Generator | None = None,
    forced: int | RingVector | None = None,
    node: str | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Computational-basis measurement; the register is dropped afterwards.

    Exactly one of `rng` (sample from the exact marginal) and `forced`
    (condition on a given outcome label) must be provided.
    """
    if (rng is None) == (forced is None):
        raise QuantumError("provide exactly one of rng= and forced=")
    ax = state.axis(reg)
    marginal = marginal_distribution(state, reg)
    if forced is not None:
        label = forced.to_index() if isinstance(forced, RingVector) else int(forced)
        if not 0 <= label < state.dim:
            raise QuantumError(f"outcome label {label} out of range")
        p = float(marginal[label])
        if p <= 1e-12:
            raise ZeroProbabilityError(
                f"forced outcome {label} on register {reg!r} has probability 0"
            )
    else:
        total = float(marginal.sum())
        label = int(rng.choice(state.dim, p=marginal / total))
        p = float(marginal[label])
    collapsed = np.take(state.amps, label, axis=ax) / math.sqrt(p)
    outcome = MeasurementOutcome(
        register=reg,
        outcome=basis_vectors(state.ring, state.q)[label],
        node=node,
    )
    rest = state.reg_ids[:ax] + state.reg_ids[ax + 1 :]
    return outcome, StateVector(state.ring, state.q, rest, collapsed)


def apply_phase(state: StateVector, reg: str, phase_fn, sign: int = 1) -> StateVector:
    """Multiply each basis amplitude by exp(sign * 2 pi i * phase_fn(label)).

    `phase_fn` maps the register's basis RingVector to an exact rational.
    """
    if sign not in (1, -1):
        raise QuantumError("sign must be +1 or -1")
    ax = state.axis(reg)
    vectors = basis_vectors(state.ring, state.q)
    diag = np.array(
        [np.exp(sign * 2j * np.pi * float(Fraction(phase_fn(v)))) for v in vectors]
    )
    shape = [1] * state.amps.ndim
    shape[ax] = state.dim
    return StateVector(state.ring, state.q, state.reg_ids, state.amps * diag.reshape(shape))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 of two states with matching register shapes.

    Registers are matched by position, not id: a state transported onto new
    registers compares against the original input directly.
    """
    if a.dims_signature() != b.dims_signature():
        raise RegisterError(
            f"register rosters differ: {a.dims_signature()} vs {b.dims_signature()}"
        )
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
