"""Reference layers the product code is tested against. `qnetcode` runs none
of them and imports nothing from here.

- The object ring: `RingElem`, one Python object per element with
  coordinate-wise arithmetic, its constructors (`element`, `zero`, `one`,
  `from_int`, `elements`), the coordinate map `phi` and the pairing
  `character` as an exact fraction. The integer labels, blocks and character
  form of `qnetcode.rings` are checked against it.
- The dense state: a `StateVector` has one amplitude axis per live
  register. `dense` and `support` convert between it and the package's
  support rows, and `apply_phase` and `dense_fidelity` are the dense
  corrections and overlap the row ones are checked against.
- The dense kernels: `apply_coding_unitary`, `apply_fourier` and `measure`
  on a `StateVector`, written for clarity rather than speed. They take the
  support kernels' arguments and leave the same rosters, so the node loop
  is checked against them.
- The simulated verdict: `evaluate_classical` pushes input labels through
  the nodes, and `evaluate` reads an edge's label off the transfer map.
- The corrections: `phase_fractions` reads a `PhaseTable` as exact
  fractions, and `is_homomorphism` checks every table of it exhaustively for
  additivity against `add_labels`, the label of a register sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qnetcode.network import InstanceError, source_edge, target_edge
from qnetcode.quantum import (
    MeasurementOutcome,
    QuantumError,
    RegisterError,
    SupportState,
    _draw,
    _layout,
    fourier_matrix,
)
from qnetcode.rings import RingError, _radix, label_digits, linear_map, place_values

# ---------------------------------------------------------------------------
# the object ring


def frac_mod1(x: Fraction | int) -> Fraction:
    """Reduce an exact rational into [0, 1)."""
    return Fraction(x) % 1


@dataclass(frozen=True)
class RingElem:
    """A ring element in canonical coordinate form."""

    spec: object  # qnetcode.rings.RingSpec
    coords: tuple[int, ...]

    def _check(self, other: "RingElem") -> None:
        if not isinstance(other, RingElem) or other.spec != self.spec:
            raise RingError("operands belong to different rings")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        coords = tuple((a + b) % m for a, b, m in zip(self.coords, other.coords, self.spec.moduli))
        return RingElem(self.spec, coords)

    def __neg__(self) -> "RingElem":
        return RingElem(self.spec, tuple((-a) % m for a, m in zip(self.coords, self.spec.moduli)))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        out: list[int] = []
        start = 0
        for f in self.spec.factors:
            sl = slice(start, start + len(f.moduli))
            out.extend(f.mul(self.coords[sl], other.coords[sl]))
            start = sl.stop
        return RingElem(self.spec, tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_int(self) -> int:
        label = 0
        for c, m in zip(self.coords, self.spec.moduli):
            label = label * m + c
        return label

    def __repr__(self) -> str:
        return f"RingElem{self.coords}"


def element(spec, coords) -> RingElem:
    """The element with these coordinates, each reduced mod its modulus."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != len(spec.moduli):
        raise RingError(f"expected {len(spec.moduli)} coordinates, got {len(coords)}")
    return RingElem(spec, tuple(c % m for c, m in zip(coords, spec.moduli)))


def zero(spec) -> RingElem:
    return RingElem(spec, (0,) * len(spec.moduli))


def one(spec) -> RingElem:
    return RingElem(spec, tuple(c for f in spec.factors for c in f.one_coords))


def from_int(spec, label: int) -> RingElem:
    """The element whose mixed-radix label (first coordinate most significant) is `label`."""
    if not 0 <= label < spec.cardinality:
        raise RingError(f"label {label} out of range for {spec}")
    coords = []
    for m in reversed(spec.moduli):
        coords.append(label % m)
        label //= m
    return RingElem(spec, tuple(reversed(coords)))


def elements(spec):
    for coords in itertools.product(*(range(m) for m in spec.moduli)):
        yield RingElem(spec, coords)


def to_labels(x):
    """The labels of a RingElem, or of a (nested) list of them."""
    return x.to_int() if isinstance(x, RingElem) else [to_labels(e) for e in x]


def phi(spec, x: RingElem) -> tuple[int, ...]:
    """The (possibly twisted) coordinate map of the spec."""
    if x.spec != spec:
        raise RingError("element belongs to a different ring")
    return tuple(
        sum(t * cj for t, cj in zip(row, x.coords)) % m for row, m in zip(spec.phi_rows, spec.moduli)
    )


def character(y: RingElem, z: RingElem) -> Fraction:
    """Additive-group pairing of y and z, an exact rational mod 1.

    Bi-additive and symmetric; the denominator divides lcm of the moduli.
    """
    if y.spec != z.spec:
        raise RingError("operands belong to different rings")
    spec = y.spec
    total = Fraction(0)
    for cy, cz, m in zip(phi(spec, y), phi(spec, z), spec.moduli):
        if cy and cz:
            total += Fraction(cy * cz, m)
    return frac_mod1(total)


# ---------------------------------------------------------------------------
# the dense state


@dataclass(frozen=True, eq=False)
class StateVector:
    ring: object  # qnetcode.rings.RingSpec
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


def support(state: StateVector) -> SupportState:
    """The nonzero amplitudes of a dense state, in label order."""
    amps = state.amps.reshape(-1)[np.flatnonzero(state.amps)]
    return SupportState(state.ring, state.q, state.reg_ids, np.argwhere(state.amps), amps)


def dense(rows: SupportState, reg_ids=None) -> StateVector:
    """The dense state with one axis per live register, in `reg_ids` order
    (the rows' own by default)."""
    reg_ids = rows.reg_ids if reg_ids is None else tuple(reg_ids)
    d = rows.ring.cardinality**rows.q
    if sorted(reg_ids) != sorted(rows.reg_ids):
        raise RegisterError("a dense state must use exactly the live registers")
    columns = [rows.reg_ids.index(r) for r in reg_ids]
    amps = np.zeros(d ** len(columns), dtype=complex)
    amps[rows.labels[:, columns] @ place_values((d,) * len(columns))] = rows.amps
    return StateVector(rows.ring, rows.q, reg_ids, amps.reshape((d,) * len(columns)))


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


def dense_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 over the dense arrays, registers matched by position."""
    if a.amps.shape != b.amps.shape:
        raise RegisterError(f"register rosters differ: {a.amps.shape} vs {b.amps.shape}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# ---------------------------------------------------------------------------
# the dense kernels


def apply_coding_unitary(state: StateVector, in_regs, out_regs, table) -> StateVector:
    """Adjoin fresh output registers holding the coded combination of inputs.

    `table` comes from `quantum.output_columns`: basis states map as
    |y_1..y_m>|0..0> -> |y_1..y_m>|f(y)>. A pure relabeling of basis states:
    the nonzero amplitudes are moved, never mixed, in one scatter into the
    new tensor. Its axes are the inputs in `in_regs` order, the other live
    registers in their current order, then the outputs.
    """
    in_regs = tuple(in_regs)
    out_regs = tuple(out_regs)
    m, n = len(in_regs), len(out_regs)
    dim = state.dim
    if np.shape(table) != (dim**m, n):
        raise QuantumError(f"coding table must have shape {(dim**m, n)}")
    order, _, reg_ids = _layout(state.reg_ids, in_regs, out_regs, dim)

    # input combination y sends the amplitudes at y to the outputs' joint
    # label on one last axis
    moved = state.amps.transpose(order)
    joint = (table @ place_values((dim,) * n)).reshape((dim,) * m)
    new = np.zeros(moved.shape + (dim**n,), dtype=complex)
    new[(*np.indices((dim,) * m, sparse=True), ..., joint)] = moved
    return StateVector(state.ring, state.q, reg_ids, new.reshape(new.shape[:-1] + (dim,) * n))


def apply_fourier(state: StateVector, reg: str) -> StateVector:
    """The Fourier matrix applied along the register's axis."""
    ax = state.axis(reg)
    out = np.tensordot(fourier_matrix(state.ring, state.q), state.amps, axes=([1], [ax]))
    return StateVector(state.ring, state.q, state.reg_ids, np.moveaxis(out, 0, ax))


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
    others = tuple(i for i in range(state.amps.ndim) if i != ax)
    label, p = _draw((np.abs(state.amps) ** 2).sum(axis=others), reg, rng, forced)
    collapsed = state.amps[(slice(None),) * ax + (label,)] / math.sqrt(p)
    outcome = MeasurementOutcome(register=reg, label=label, probability=p)
    rest = state.reg_ids[:ax] + state.reg_ids[ax + 1 :]
    return outcome, StateVector(state.ring, state.q, rest, collapsed)


# ---------------------------------------------------------------------------
# the simulated verdict


def evaluate_classical(net, scheme, inputs, collect_edges: bool = False):
    """Propagate input labels through the scheme in topological order.

    `inputs` holds one register label, or one array of labels, per pair;
    arrays are broadcast together and pushed through each node at once.
    Returns the k virtual-output labels in pair order; with
    `collect_edges=True` returns (outputs, labels-by-edge) instead.
    """
    inputs = tuple(inputs)
    if len(inputs) != net.k:
        raise InstanceError(f"expected {net.k} inputs, got {len(inputs)}")
    values = {source_edge(i + 1): np.asarray(x) for i, x in enumerate(inputs)}
    for v in net.topo_order:
        if net.node_outputs[v]:
            ins = [values[e] for e in net.node_inputs[v]]
            outs = linear_map(scheme.ring, scheme.q, scheme.coeffs[v], ins)
            for n, eid in enumerate(net.node_outputs[v]):
                values[eid] = outs[..., n]
    outputs = tuple(values[target_edge(i + 1)] for i in range(net.k))
    if collect_edges:
        return outputs, values
    return outputs


def evaluate(tmap, edge: str, inputs) -> np.ndarray:
    """The edge's label read off the transfer map, for the pair input labels
    (broadcast together)."""
    return linear_map(tmap.ring, tmap.q, [tmap.gammas[edge]], inputs)[..., 0]


def add_labels(spec, q: int, a, b) -> np.ndarray:
    """Label of the register sum a + b, for broadcastable label arrays."""
    digits = label_digits(spec, q, a) + label_digits(spec, q, b)
    return digits % _radix(spec, q) @ place_values(spec.moduli * q)


def phase_fractions(table) -> tuple[tuple[Fraction, ...], ...]:
    """A `PhaseTable`'s corrections as exact fractions, [pair - 1][label]."""
    return tuple(tuple(Fraction(int(n), table.ring.exponent) for n in row) for row in table.numerators)


def is_homomorphism(table) -> bool:
    """Exhaustive additivity check of every table of a `PhaseTable`."""
    labels = np.arange(table.numerators.shape[1])
    sums = add_labels(table.ring, table.q, labels[:, None], labels)
    rows = table.numerators
    expected = (rows[:, :, None] + rows[:, None, :]) % table.ring.exponent
    return bool(np.all(rows[:, 0] == 0) and np.array_equal(rows[:, sums], expected))
