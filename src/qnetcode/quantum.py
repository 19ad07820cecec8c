"""Dense state-vector engine over named registers of dimension |R|^q.

A state holds an ordered roster of live register ids and a complex amplitude
tensor with one axis per register. Axis order follows the roster; each axis
is indexed by the basis label of a width-q register (see `rings`). Global
phase is kept, never quotiented out.

Operations return new states. Registers are created by the coding unitary
and destroyed by measurement, so the tensor always has exactly one axis per
live register. A configurable cap bounds the amplitude count so a malformed
instance fails fast instead of exhausting memory. `check_growth` is the one
check against it, made before anything is allocated: by the caller that
builds the input state and by the node loop before each coding step. The
kernels below take no cap; only `basis_state`, which allocates from its own
arguments, checks at the default `MAX_STATE_ENTRIES`.

The coding unitary puts the node's input registers on the leading axes of a
fresh C-contiguous tensor, so the Fourier transform and the measurement that
follow act on a leading-axis reshape of the amplitudes (one matrix product,
one reduction) and build no transposed copy and no |amps|^2 tensor.

When the outputs and the other inputs determine the first input, measuring
it in the Fourier basis leaves only a phase, and each outcome has probability
1/d: `code_and_measure_first` draws it before coding and scatters each
amplitude, times its phase, straight to its output label, never building the
coded tensor (d^n times the state). The cap still counts that full tensor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import CapExceededError
from .rings import RingSpec, int_text, linear_map, pairing

MAX_STATE_ENTRIES = 2**24
_INDEXABLE_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize
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
    label: int
    probability: float  # the marginal of the outcome before the collapse


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


def init_state(ring: RingSpec, q: int, k: int, amplitudes, reg_ids=None) -> StateVector:
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
            f"need {int_text(dim**k)} amplitudes for {k} registers of dimension {int_text(dim)}, "
            f"got {amps.size}"
        )
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
    if not (np.isfinite(amps).all() and math.isfinite(norm)):
        raise QuantumError("state amplitudes and their norm must be finite")
    if norm == 0.0:
        raise QuantumError("state vector must not be all zero")
    if abs(norm - 1.0) > _NORM_TOL:
        warnings.warn(f"normalizing input state (norm was {norm:.6g})", stacklevel=2)
        amps = amps / norm
    return StateVector(ring, q, reg_ids, amps.reshape((dim,) * k))


def basis_state(ring: RingSpec, q: int, labels, reg_ids=None) -> StateVector:
    """Computational basis state |labels[0], labels[1], ...>, refused above
    `MAX_STATE_ENTRIES` amplitudes."""
    labels = tuple(int(v) for v in labels)
    dim = ring.cardinality**q
    check_growth(dim ** len(labels), MAX_STATE_ENTRIES)
    amps = np.zeros((dim,) * len(labels), dtype=complex)
    amps[labels] = 1.0
    return init_state(ring, q, len(labels), amps, reg_ids=reg_ids)


def check_growth(entries: int, max_entries: int) -> None:
    """The amplitude cap: refuse a state of `entries` amplitudes above
    `max_entries` (DimensionCapError), or larger than any array can index
    (QuantumError), before it is allocated."""
    if entries > max_entries:
        raise DimensionCapError(
            f"the state would hold {int_text(entries)} amplitudes, "
            f"above the cap {int_text(max_entries)}"
        )
    if entries > _INDEXABLE_ENTRIES:
        raise QuantumError(
            f"the state would hold {int_text(entries)} amplitudes, more than an array can index"
        )


def output_labels(ring: RingSpec, q: int, coeffs) -> np.ndarray:
    """The coding table of `apply_coding_unitary`: for every input label
    combination y (one axis per input), the joint label of the n outputs
    f_i(y) = sum_j coeffs[i][j] @ y_j, first output most significant."""
    d, m, n = ring.cardinality**q, len(coeffs[0]), len(coeffs)
    labels = linear_map(ring, q, coeffs, np.indices((d,) * m, sparse=True))
    return labels @ d ** np.arange(n - 1, -1, -1, dtype=np.int64)


def injective_in_first_input(table) -> bool:
    """Whether the outputs and the other inputs determine the first input."""
    table = np.sort(table, axis=0)
    return bool(np.all(table[1:] != table[:-1]))


def apply_coding_unitary(
    state: StateVector, in_regs, out_regs, table, first_row=None
) -> StateVector:
    """Adjoin fresh output registers holding the coded combination of inputs.

    `table` comes from `output_labels`: basis states map as
    |y_1..y_m>|0..0> -> |y_1..y_m>|table[y_1..y_m]>, the right side being
    the joint label of the outputs. A pure relabeling of basis states: the
    nonzero amplitudes are moved, never mixed, in one scatter into the new
    tensor. Its axes are the inputs in `in_regs` order, the other live
    registers in their current order, then the outputs.

    With `first_row` (a table injective in y_1; see `code_and_measure_first`)
    each amplitude takes the factor first_row[y_1] and y_1's axis is dropped.
    """
    in_regs = tuple(in_regs)
    out_regs = tuple(out_regs)
    m, n = len(in_regs), len(out_regs)
    dim = state.dim
    if np.shape(table) != (dim,) * m:
        raise QuantumError(f"coding table must have shape {(dim,) * m}")
    if set(out_regs) & set(state.reg_ids) or len(set(out_regs)) != n:
        raise RegisterError("output registers collide with live registers")
    in_axes = [state.axis(r) for r in in_regs]
    if len(set(in_axes)) != m:
        raise RegisterError("duplicate input register")

    # input combination y sends the amplitudes at y to joint output label
    # table[y] on one last axis
    order = in_axes + [ax for ax in range(state.amps.ndim) if ax not in in_axes]
    moved = state.amps.transpose(order)
    index = np.indices((dim,) * m, sparse=True)
    shape = moved.shape
    if first_row is not None:
        # y_1 goes to 0 on a length-one axis, dropped below; injectivity keeps writes apart
        moved = moved * first_row.reshape((dim,) + (1,) * (moved.ndim - 1))
        index = (0,) + index[1:]
        shape = (1,) + shape[1:]
    new = np.zeros(shape + (dim**n,), dtype=complex)
    new[(*index, ..., table)] = moved
    if first_row is not None:
        new, order = new[0], order[1:]
    reg_ids = tuple(state.reg_ids[ax] for ax in order) + out_regs
    return StateVector(state.ring, state.q, reg_ids, new.reshape(new.shape[:-1] + (dim,) * n))


def code_and_measure_first(
    state, in_regs, out_regs, table, rng=None, forced=None
) -> tuple[MeasurementOutcome, StateVector]:
    """`apply_coding_unitary`, `apply_fourier` and `measure` of the first input
    in one scatter, for a table injective in the first input.

    The outputs and the other inputs then fix y_1, so outcome z has probability
    sum_y |F[z, y]|^2 w_y = 1/d (w: the marginal of y_1; |F[z, y]|^2 = 1/d) and
    each amplitude just takes the factor F[z, y_1] sqrt(d).
    """
    reg = tuple(in_regs)[0]
    d = state.dim
    label, p = _draw(np.full(d, 1 / d), reg, rng, forced)
    row = fourier_matrix(state.ring, state.q)[label] * math.sqrt(d)
    coded = apply_coding_unitary(state, in_regs, out_regs, table, first_row=row)
    return MeasurementOutcome(register=reg, label=label, probability=p), coded


@lru_cache(maxsize=None)
def fourier_matrix(ring: RingSpec, q: int) -> np.ndarray:
    """The group Fourier transform on one register: F[z, y] = chi(y, z) / sqrt(d)
    (the character is symmetric)."""
    labels = np.arange(ring.cardinality**q)
    turns = pairing(ring, q, labels, labels) / ring.exponent
    return np.exp(2j * np.pi * turns) / math.sqrt(len(labels))


def apply_fourier(state: StateVector, reg: str) -> StateVector:
    """One matrix product on the amplitudes viewed as (A, d, B) around the
    register's axis: a single zgemm when the register leads (A = 1)."""
    ax = state.axis(reg)
    mat = fourier_matrix(state.ring, state.q)
    shape = state.amps.shape
    out = mat @ state.amps.reshape(math.prod(shape[:ax]), shape[ax], -1)
    return StateVector(state.ring, state.q, state.reg_ids, out.reshape(shape))


def marginal_distribution(state: StateVector, reg: str) -> np.ndarray:
    """Sum of |amplitude|^2 over the other axes, as one reduction over the
    real and imaginary parts, with no |amps|^2 tensor."""
    ax = state.axis(reg)
    amps = np.ascontiguousarray(state.amps)
    parts = amps.reshape(math.prod(amps.shape[:ax]), amps.shape[ax], -1).view(np.float64)
    return np.einsum("ajb,ajb->j", parts, parts)


def _draw(marginal: np.ndarray, reg: str, rng, forced) -> tuple[int, float]:
    """An outcome label and its probability: sampled from `rng`, or `forced`."""
    if (rng is None) == (forced is None):
        raise QuantumError("provide exactly one of rng= and forced=")
    if forced is None:
        label = int(rng.choice(len(marginal), p=marginal / float(marginal.sum())))
        return label, float(marginal[label])
    label = int(forced)
    if not 0 <= label < len(marginal):
        raise QuantumError(f"outcome label {label} out of range")
    p = float(marginal[label])
    if p <= 1e-12:
        raise ZeroProbabilityError(f"forced outcome {label} on register {reg!r} has probability 0")
    return label, p


def measure(
    state: StateVector,
    reg: str,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Computational-basis measurement; the register is dropped afterwards.

    Exactly one of `rng` (sample from the exact marginal) and `forced`
    (condition on a given outcome label) must be provided.
    """
    ax = state.axis(reg)
    label, p = _draw(marginal_distribution(state, reg), reg, rng, forced)
    collapsed = state.amps[(slice(None),) * ax + (label,)] / math.sqrt(p)
    outcome = MeasurementOutcome(register=reg, label=label, probability=p)
    rest = state.reg_ids[:ax] + state.reg_ids[ax + 1 :]
    return outcome, StateVector(state.ring, state.q, rest, collapsed)


def apply_phase(state: StateVector, reg: str, turns) -> StateVector:
    """Multiply the amplitude at basis label x by exp(2 pi i * turns[x]).

    `turns` lists one phase per basis label of the register, in turns.
    """
    ax = state.axis(reg)
    diag = np.exp(2j * np.pi * np.asarray(turns, dtype=float))
    if diag.shape != (state.dim,):
        raise QuantumError(f"need {state.dim} phases, got {diag.size}")
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
