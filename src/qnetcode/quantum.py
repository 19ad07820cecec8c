"""The one state type over named registers of dimension d = |R|^q.

A `SupportState` is a state's support: the live register ids, an (S, live)
integer array of basis labels with one row per nonzero amplitude, and the S
amplitudes. The paper's protocol does two things to a state, and both act on
rows. Coding relabels basis states, so `code_rows` appends output columns to
the rows. On a solution every live cut still determines the input, so
measuring a register in the Fourier basis leaves the phase chi(y, z) on each
row, each outcome at probability exactly 1/d (`measure_rows`); where rows
interfere, in a scheme that is not a solution, it sums them exactly. A
caller that certifies that none do (on a solution) skips looking for them
and gives the outcomes, uniform whatever the input, so drawn before the run
(`uniform_branch`). On a solution the support never grows past the input's.

Since a certified measurement moves no row, every branch of a certified
plan leaves its phases on the same rows: `take_columns` keeps a measured
register's labels where a measurement would drop it, and
`branch_amplitudes` multiplies many branches' phases onto the rows at once,
bit for bit as `measure_rows` would.

Inputs are built as rows by one routine, `state_from_rows`, which
`init_state` (a flat amplitude array) and `basis_state` (one label per
register) call too, and which remembers the read-only states it makes
(`checked_state`); `fidelity` matches two states' rows by label, by
position where the rows already agree (`_paired`), and `fidelities` one
state against many on the same rows. The kernels take register names;
coding puts the inputs first, then the other registers, then the outputs,
and a measurement drops its register. Only this module knows where a
register sits among the support's columns (`_layout`). Global phase is
kept, never quotiented out.

A configurable cap bounds the amplitude count so a malformed instance fails
fast instead of exhausting memory. `check_growth` is the one check against
it, made before anything is allocated: by the caller that builds a
full-support input and by the node loop before each coding step. The
kernels below take no cap.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import CapExceededError, source_edge
from .rings import RingSpec, int_text, linear_map, pairing, place_values

_INDEXABLE_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize
_NORM_TOL = 1e-9
_MADE = weakref.WeakSet()  # the states `state_from_rows` made: checked, read-only


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
class SupportState:
    """A state as its support rows: row s has label labels[s, c] on register
    reg_ids[c] and amplitude amps[s]. Rows are distinct; every basis state
    not listed has amplitude zero."""

    ring: RingSpec
    q: int
    reg_ids: tuple[str, ...]
    labels: np.ndarray  # (S, len(reg_ids)) int64
    amps: np.ndarray  # (S,) complex

    def renamed(self, mapping: dict[str, str]) -> "SupportState":
        ids = tuple(mapping.get(r, r) for r in self.reg_ids)
        return SupportState(self.ring, self.q, ids, self.labels, self.amps)

    def amplitude(self, labels) -> complex:
        """Amplitude of the basis state given by one label per register."""
        (hit,) = np.nonzero((self.labels == np.asarray(labels)).all(axis=1))
        return complex(self.amps[hit[0]]) if len(hit) else 0j


def state_from_rows(ring: RingSpec, q: int, labels, amplitudes, reg_ids=None) -> SupportState:
    """The state whose row s has basis labels labels[s], one per register,
    and amplitude amplitudes[s]: in label order (first register most
    significant), rows of amplitude zero dropped, on `src:1..n` unless
    `reg_ids` names the n registers.

    Amplitudes must be finite and not all zero; a norm other than one is
    rescaled with a warning. Labels must be integers (not booleans; floats
    of integral value will do), in range, within int64 and distinct. Arrays
    are read-only.
    """
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = math.sqrt(np.vdot(amps, amps).real)  # not finite if an amplitude is, or on overflow
    if not math.isfinite(norm):
        raise QuantumError("state amplitudes and their norm must be finite")
    if norm == 0.0:
        raise QuantumError("state vector must not be all zero")
    if abs(norm - 1.0) > _NORM_TOL:
        warnings.warn(f"normalizing input state (norm was {norm:.6g})", stacklevel=2)
        amps = amps / norm
    labels, d = np.asarray(labels), ring.cardinality**q
    if labels.ndim != 2 or len(labels) != len(amps):
        raise QuantumError(f"need one row of labels per amplitude, got shape {labels.shape}")
    n = labels.shape[1]
    reg_ids = tuple(source_edge(i + 1) for i in range(n)) if reg_ids is None else tuple(reg_ids)
    if len(reg_ids) != n:
        raise RegisterError(f"expected {n} register ids, got {len(reg_ids)}")
    kind = labels.dtype.kind
    if kind == "O" and all(type(x) is int for x in labels.flat):
        kind = "i"  # Python ints past int64, refused below once in range
    if kind not in "iuf" or kind == "f" and not (np.floor(labels) == labels).all():
        raise QuantumError("basis labels must be integers")
    if labels.size and not 0 <= labels.min() <= labels.max() < d:
        raise QuantumError(f"basis label out of range (dimension {int_text(d)})")
    if labels.size and labels.max() > np.iinfo(np.int64).max:
        raise QuantumError(f"basis label {int_text(int(labels.max()))} is too large for the int64 support rows")
    order, starts = _lexsorted(labels := labels.astype(np.int64, copy=False))
    if not starts.all():
        raise QuantumError("the state lists a basis label twice")
    keep = order[amps[order] != 0]
    state = SupportState(ring, q, reg_ids, labels[keep], amps[keep])
    state.labels.flags.writeable = state.amps.flags.writeable = False
    _MADE.add(state)
    return state


def checked_state(state: SupportState) -> SupportState:
    """`state` if `state_from_rows` made it, else what it makes of the rows."""
    if state in _MADE:
        return state
    return state_from_rows(state.ring, state.q, state.labels, state.amps, state.reg_ids)


def init_state(ring: RingSpec, q: int, k: int, amplitudes, reg_ids=None) -> SupportState:
    """State of k registers from a flat amplitude array of length (|R|^q)^k,
    the flat index running over basis labels with the first register most
    significant: its nonzero rows, checked as `state_from_rows` checks them."""
    dim = ring.cardinality**q
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != dim**k:
        raise QuantumError(
            f"need {int_text(dim**k)} amplitudes for {k} registers of dimension {int_text(dim)}, "
            f"got {amps.size}"
        )
    flat = np.flatnonzero(amps)
    labels = flat[:, None] // place_values((dim,) * k) % dim
    return state_from_rows(ring, q, labels, amps[flat], reg_ids)


def basis_state(ring: RingSpec, q: int, labels, reg_ids=None) -> SupportState:
    """Computational basis state |labels[0], labels[1], ...>: one row."""
    return state_from_rows(ring, q, [list(labels)], [1.0], reg_ids)


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


def output_columns(ring: RingSpec, q: int, coeffs) -> np.ndarray:
    """The coding table: row y, the m input labels read as one integer
    (`rings.place_values`), holds the labels of the n outputs
    f_i(y) = sum_j coeffs[i][j] @ y_j."""
    d, m, n = ring.cardinality**q, len(coeffs[0]), len(coeffs)
    labels = linear_map(ring, q, coeffs, np.indices((d,) * m, sparse=True))
    return labels.reshape(d**m, n).astype(np.int64)


@lru_cache(maxsize=1024)
def _layout(reg_ids, in_regs, out_regs, d: int):
    """The layout of coding, worked out here only: the gather order of
    columns (inputs first, then the other registers), the place values of
    the inputs' joint label, and the new roster (gathered, then the outputs).
    Arrays are read-only."""
    for r in in_regs:
        if r not in reg_ids:
            raise RegisterError(f"unknown register {r!r}")
    ins = [reg_ids.index(r) for r in in_regs]
    if len(set(ins)) != len(ins) or len(set(reg_ids + out_regs)) != len(reg_ids) + len(out_regs):
        raise RegisterError("duplicate input register, or outputs that collide with live registers")
    gather = np.array(ins + [c for c in range(len(reg_ids)) if c not in ins])
    roster = tuple(reg_ids[c] for c in gather) + out_regs
    weights = place_values((d,) * len(ins))
    gather.flags.writeable = weights.flags.writeable = False
    return gather, weights, roster


def code_rows(state: SupportState, in_regs, out_regs, table) -> SupportState:
    """The coding unitary |y>|0..0> -> |y>|f(y)> on the support: every row
    keeps its amplitude and gains the outputs' labels, row `inputs @ weights`
    of `table` (`output_columns`). The inputs lead the new columns."""
    d = state.ring.cardinality**state.q
    gather, weights, roster = _layout(state.reg_ids, tuple(in_regs), tuple(out_regs), d)
    labels = state.labels[:, gather]
    labels = np.concatenate((labels, table[labels[:, : len(weights)] @ weights]), axis=1)
    return SupportState(state.ring, state.q, roster, labels, state.amps)


@lru_cache(maxsize=16)
def fourier_matrix(ring: RingSpec, q: int) -> np.ndarray:
    """The group Fourier transform on one register: F[z, y] = chi(y, z) / sqrt(d)
    (the character is symmetric)."""
    labels = np.arange(ring.cardinality**q)
    turns = pairing(ring, q, labels, labels) / ring.exponent
    mat = np.exp(2j * np.pi * turns) / math.sqrt(len(labels))
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=16)
def _scaled_fourier(ring: RingSpec, q: int) -> np.ndarray:
    """F sqrt(d), read-only: at label y, row z is the phase outcome z leaves."""
    mat = fourier_matrix(ring, q) * math.sqrt(ring.cardinality**q)
    mat.flags.writeable = False
    return mat


def _cdf(marginal: np.ndarray) -> np.ndarray:
    """The cumulative distribution `Generator.choice(len(marginal), p=...)`
    searches for the normalised marginal."""
    cdf = (marginal / float(marginal.sum())).cumsum()
    cdf /= cdf[-1]
    return cdf


@lru_cache(maxsize=16)
def _uniform(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform marginal 1/d and its `_cdf`, read-only."""
    marginal = np.full(d, 1 / d)
    cdf = _cdf(marginal)
    marginal.flags.writeable = cdf.flags.writeable = False
    return marginal, cdf


def uniform_branch(d: int, m: int, rng) -> tuple[int, ...]:
    """m outcome labels, each uniform over d: one `rng.random(m)` searched in
    the uniform `_cdf`, the doubles and labels of m sampling `_draw`s."""
    return tuple(_uniform(d)[1].searchsorted(rng.random(m), side="right").tolist())


def _draw(marginal: np.ndarray, reg: str, rng, forced) -> tuple[int, float]:
    """One outcome label and its probability on an uncertified plan (a
    certified plan's branch is `uniform_branch`): sampled from `rng`, or
    `forced`. A sample takes one `rng.random()` and searches the marginal's
    `_cdf`, which is how `Generator.choice` draws, so the labels are those
    of `rng.choice(len(marginal), p=...)`.
    """
    if (rng is None) == (forced is None):
        raise QuantumError("provide exactly one of rng= and forced=")
    if forced is None:
        label = int(_cdf(marginal).searchsorted(rng.random(), side="right"))
        return label, float(marginal[label])
    label = int(forced)
    if not 0 <= label < len(marginal):
        raise QuantumError(f"outcome label {label} out of range")
    p = float(marginal[label])
    if p <= 1e-12:
        raise ZeroProbabilityError(f"forced outcome {label} on register {reg!r} has probability 0")
    return label, p


def _lexsorted(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows, first column most
    significant, and where in it each run of equal rows starts."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, starts


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each group of equal rows and each row's group, the
    groups in lexicographic order: `np.unique(rows, axis=0, return_index=True,
    return_inverse=True)[1:]`, without its structured-dtype sort."""
    order, starts = _lexsorted(rows)
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group  # the sort is stable: a group's first row leads it


def measure_rows(
    state: SupportState, regs, rng=None, forced=None, certified: bool = False
) -> tuple[tuple[MeasurementOutcome, ...], SupportState]:
    """Fourier-transform and measure live registers in turn on the support,
    each outcome taken from `forced`, one per register, or else sampled from
    `rng`; a measured register is dropped.

    Rows are grouped by their other columns, in lexicographic order. If no
    two share them, they fix the register's label y: outcome z has
    probability exactly 1/d and multiplies each row by F[z, y] sqrt(d).
    Otherwise each group's rows are summed with F[z, .], and z is drawn from
    the exact marginal (`_draw`). A `certified` call
    (`protocol.SchemePlan.certified`) takes `forced` labels and no `rng`, and
    skips grouping, dropping the measured columns at once (a view if they lead).
    """
    regs, m = tuple(regs), len(regs)
    scaled = _scaled_fourier(state.ring, state.q)
    d = len(scaled)
    if not certified:
        outcomes = ()
        for reg, label in zip(regs, (None,) * m if forced is None else forced, strict=True):
            gather, _, roster = _layout(state.reg_ids, (reg,), (), d)
            rest = state.labels[:, 1:] if gather[0] == 0 else state.labels[:, gather[1:]]
            first, group = _group_rows(rest)
            if len(first) == len(rest):
                label, _ = _draw(_uniform(d)[0], reg, rng, label)
                outcome, state = measure_rows(state, (reg,), forced=(label,), certified=True)
            else:
                rows = np.zeros((len(first), d), dtype=complex)
                rows[group, state.labels[:, gather[0]]] = state.amps
                coeffs = rows @ fourier_matrix(state.ring, state.q)  # F is symmetric
                label, p = _draw((np.abs(coeffs) ** 2).sum(axis=0), reg, rng, label)
                outcome = (MeasurementOutcome(reg, label, p),)
                state = SupportState(state.ring, state.q, roster[1:], rest[first], coeffs[:, label] / math.sqrt(p))
            outcomes += outcome
        return outcomes, state
    if rng is not None or forced is None:
        raise QuantumError("a certified measurement takes forced labels, not an rng")
    cols, rest, roster = _split(state, regs, d)
    amps, outcomes = state.amps, ()
    for col, reg, label in zip(cols, regs, map(int, forced), strict=True):
        if not 0 <= label < d:
            raise QuantumError(f"outcome label {label} out of range")
        amps = amps * scaled[label][state.labels[:, col]]
        outcomes += (MeasurementOutcome(reg, label, 1 / d),)
    return outcomes, SupportState(state.ring, state.q, roster, rest, amps)


def _split(state: SupportState, regs: tuple[str, ...], d: int):
    """Where live registers sit among the columns, the other columns (a view
    if the registers lead, as they do after coding) and their roster."""
    gather, _, roster = _layout(state.reg_ids, regs, (), d)
    m = len(regs)
    rest = state.labels[:, m:] if state.reg_ids[:m] == regs else state.labels[:, gather[m:]]
    return gather[:m], rest, roster[m:]


def take_columns(state: SupportState, regs) -> tuple[np.ndarray, SupportState]:
    """The labels of live registers, one row per register and one column per
    support row, and the state without them: what a certified measurement
    (`measure_rows`) drops, without the phase it leaves."""
    cols, rest, roster = _split(state, tuple(regs), state.ring.cardinality**state.q)
    return state.labels[:, cols].T, SupportState(state.ring, state.q, roster, rest, state.amps)


def branch_amplitudes(state: SupportState, columns: np.ndarray, prefix) -> np.ndarray:
    """The amplitudes every certified branch that starts with the outcomes
    `prefix` leaves on the rows of `state`, before correction: row b for the
    b-th of the other outcomes in product order, the first most significant.

    `columns[i]` holds measurement i's label on each row (`take_columns`).
    Outcome a_i multiplies the rows by the phase F[a_i, y] sqrt(d) at their
    labels y, one measurement after another, as the certified `measure_rows`
    does: so row b is bit for bit what the node loop leaves on branch b.
    """
    scaled = _scaled_fourier(state.ring, state.q)
    amps = state.amps
    for label, labels in zip(prefix, columns):
        amps = amps * scaled[label][labels]
    rows = amps[None]
    for labels in columns[len(prefix) :]:
        rows = (rows[:, None] * scaled[:, labels]).reshape(-1, len(amps))
    return rows


def _paired(a: SupportState, labels: np.ndarray):
    """Indices that pair a's rows with the rows of `labels` that share their
    labels, in label order. When `a` is checked (`checked_state`, so its rows
    are in label order) and `labels` equals its labels element for element,
    as on every delivered run, each row pairs with the row in its place;
    otherwise one sort of both sets of rows (`_lexsorted`) finds the pairs,
    and a label only one set lists pairs with nothing. Both give the same
    pairs in the same order."""
    if a in _MADE and a.labels.shape == labels.shape and (a.labels == labels).all():
        return slice(None), slice(None)
    order, starts = _lexsorted(np.concatenate((a.labels, labels)))
    pair = ~starts[1:]  # rows are distinct within a state, and a's come first
    return order[:-1][pair], order[1:][pair] - len(a.amps)


def fidelity(a: SupportState, b: SupportState) -> float:
    """Squared overlap |<a|b>|^2 of two states with matching register shapes.

    Registers are matched by position, not id: a state transported onto new
    registers compares against the original input directly. Rows are matched
    by label (`_paired`) and summed in label order whatever the order of
    either state's rows; a label only one state lists adds nothing.
    """
    shapes = [(s.ring.cardinality**s.q,) * len(s.reg_ids) for s in (a, b)]
    if shapes[0] != shapes[1]:
        raise RegisterError(f"register rosters differ: {shapes[0]} vs {shapes[1]}")
    ia, ib = _paired(a, b.labels)
    return float(abs(np.vdot(a.amps[ia], np.ascontiguousarray(b.amps[ib]))) ** 2)


def fidelities(a: SupportState, labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`fidelity(a, b)` for every state b on a's registers whose support
    rows have these labels and, in turn, each row of `rows` as amplitudes:
    the rows paired once (`_paired`), then one `np.vdot` per state, so each
    value is bit for bit `fidelity`'s. `np.vdot` sums contiguous rows in
    another order than strided ones, so both take theirs contiguous."""
    ia, ib = _paired(a, labels)
    ref, rows = a.amps[ia], np.ascontiguousarray(rows[:, ib])
    return np.array([abs(np.vdot(ref, row)) ** 2 for row in rows], dtype=float)
