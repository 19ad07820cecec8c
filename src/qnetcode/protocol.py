"""Node-by-node quantum simulation of a classical linear coding scheme.

Each node runs the same routine on its incoming registers: adjoin fresh
output registers through the coding unitary, Fourier-transform every input
register, measure it, and announce the outcomes over the free classical
channel. Measurement leaves a basis-dependent phase behind; because every
register content is a linear combination of the pair inputs, the accumulated
phase splits into one additive correction per pair, which the targets cancel
at the end of the run.

Outcome announcements default to a broadcast to all k pair targets, which is
what the kM|V| cost bound counts. Two optional reductions are available:
`prune` sends a node's outcomes only to targets whose transfer coefficient
from some measured register is nonzero (a target never pays for messages to
itself), and `copy_skip` lets a fan-in-one node whose outputs are all plain
copies keep its input register alive instead of measuring, which removes its
measurements and messages entirely. `plan_scheme` fixes the policy: each
`NodePlan` records the registers its node keeps, codes, adjoins and
measures, and the pairs it tells.

Measurement order is fixed: nodes in `Network.topo_order` (any topological
order works), then input edges in declared order. Forced branches are given
as one outcome label per measurement in that order.

What depends only on the scheme and the policy is fixed once in a
`SchemePlan`; the message cost is read from it without simulation. Every
run, sampled or forced, goes through the one node loop, `node_steps`, which
reads no policy, is the only place a node is coded or measured and the only
place a forced branch is checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .network import (
    CapExceededError,
    CodingScheme,
    InstanceError,
    Network,
    TransferMap,
    source_edge,
    target_edge,
    transfer_coefficients,
)
from .quantum import (
    MAX_STATE_ENTRIES,
    MeasurementOutcome,
    StateVector,
    ZeroProbabilityError,
    apply_coding_unitary,
    apply_fourier,
    apply_phase,
    check_growth,
    code_and_measure_first,
    fidelity,
    injective_in_first_input,
    measure,
    output_labels,
)
from .rings import (
    RingSpec,
    add_labels,
    character_form,
    int_text,
    is_identity,
    is_zero,
    label_digits,
)

BRANCH_CAP_DEFAULT = 65536


class InvalidSchemeError(ValueError):
    """The classical scheme is not a solution, so the run cannot be perfect."""


@dataclass(frozen=True)
class LogEntry:
    node: str
    outcomes: tuple[MeasurementOutcome, ...]
    recipients: tuple[int, ...]  # 1-based pair indices


@dataclass
class MessageLog:
    """Every measurement of a run, with who was told."""

    q: int
    entries: list[LogEntry] = field(default_factory=list)

    @property
    def elements_sent(self) -> int:
        """Ring elements announced (a width-q outcome counts q elements)."""
        return sum(len(e.outcomes) * len(e.recipients) for e in self.entries) * self.q

    def all_outcomes(self) -> tuple[MeasurementOutcome, ...]:
        return tuple(o for e in self.entries for o in e.outcomes)

    def branch_labels(self) -> tuple[int, ...]:
        return tuple(o.label for o in self.all_outcomes())


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Per-pair additive phase corrections over basis labels, exact in turns:
    pair j's correction at label x is numerators[j, x] / ring.exponent."""

    ring: RingSpec
    q: int
    numerators: np.ndarray  # shape (k, register dim), values in [0, ring.exponent)

    @cached_property
    def tables(self) -> tuple[tuple[Fraction, ...], ...]:
        """The corrections as exact fractions, tables[pair - 1][label]."""
        return tuple(tuple(Fraction(int(n), self.ring.exponent) for n in row) for row in self.numerators)

    def turns(self, pair_index: int) -> np.ndarray:
        return self.numerators[pair_index - 1] / self.ring.exponent

    def is_homomorphism(self) -> bool:
        """Exhaustive additivity check of every table."""
        labels = np.arange(self.numerators.shape[1])
        sums = add_labels(self.ring, self.q, labels[:, None], labels)
        table = self.numerators
        expected = (table[:, :, None] + table[:, None, :]) % self.ring.exponent
        return bool(np.all(table[:, 0] == 0) and np.array_equal(table[:, sums], expected))


@dataclass(frozen=True)
class NodePlan:
    """What one node does in every run, under the plan's policy.

    A copy-skip node renames its kept input register to its first output and
    codes that register into its other outputs; any other node codes its
    inputs into its outputs and measures the inputs. `measured` is None when
    the node does not announce; a node without inputs announces, and tells
    `recipients`, that it measured nothing.
    """

    node: str
    kept: tuple[str, str] | None  # (input register, the output it becomes)
    coded_from: tuple[str, ...]  # registers the adjoined outputs are coded from
    adjoined: tuple[str, ...]  # output registers it adjoins
    rows: tuple  # rows[output][register], integer matrices
    measured: tuple[str, ...] | None  # in measurement order
    recipients: tuple[int, ...]  # 1-based pair indices


@dataclass(frozen=True, eq=False)
class SchemePlan:
    """The transfer map and one NodePlan per node in topological order, under
    the announcement policy named by `policy` ("broadcast" or "prune").

    The tables of size |R|^q and more (coding tables, label digits,
    correction rows) are built on first use, so planning and cost stay cheap
    on any ring.
    """

    net: Network
    scheme: CodingScheme
    tmap: TransferMap
    nodes: tuple[NodePlan, ...]
    policy: str
    _coding: dict = field(default_factory=dict, init=False, repr=False)

    def coding(self, p: NodePlan) -> tuple[np.ndarray | None, bool]:
        """The node's coding table (`quantum.output_labels`; None if it adjoins
        no registers) and whether its first measured register is measured
        inside the coding scatter: the outputs and the other inputs determine
        it."""
        if p.node not in self._coding:
            table = output_labels(self.scheme.ring, self.scheme.q, p.rows) if p.adjoined else None
            fused = bool(p.measured) and table is not None and injective_in_first_input(table)
            self._coding[p.node] = table, fused
        return self._coding[p.node]

    @cached_property
    def digits(self) -> np.ndarray:
        """Digits of every basis label of a register."""
        return label_digits(self.scheme.ring, self.scheme.q, np.arange(self.scheme.register_dim))

    @cached_property
    def correction_rows(self) -> dict[str, np.ndarray]:
        """Per register e, matrices P[j] with exponent * character(a, gamma_ej x)
        = digits(x) @ P[j] @ digits(a) mod exponent: outcome a on e adds the
        row digits @ P[j] @ digits(a) to pair j's correction."""
        ring, q = self.scheme.ring, self.scheme.q
        form = character_form(ring, q)
        return {e: g @ form % ring.exponent for e, g in self.tmap.gammas.items()}

    @property
    def measurement_count(self) -> int:
        return sum(len(p.measured) for p in self.nodes if p.measured is not None)

    @property
    def branch_count(self) -> int:
        return self.scheme.register_dim**self.measurement_count


def plan_scheme(
    net: Network, scheme: CodingScheme, prune: bool = False, copy_skip: bool = False
) -> SchemePlan:
    """Plan the scheme's run under a policy, nodes in `net.topo_order`."""
    tmap = transfer_coefficients(net, scheme)
    everyone = tuple(range(1, net.k + 1))
    nodes = []
    for v in net.topo_order:
        ins, outs, coeffs = net.node_inputs[v], net.node_outputs[v], scheme.coeffs[v]
        if copy_skip and len(ins) == 1 and outs and all(is_identity(r[0]) for r in coeffs):
            # the input register survives as the first output; the rest are copies
            rows = tuple((r[0],) for r in coeffs[1:])
            nodes.append(NodePlan(v, (ins[0], outs[0]), outs[:1], outs[1:], rows, None, ()))
            continue
        told = everyone
        if prune:
            told = tuple(
                j + 1
                for j in range(net.k)
                # a target already holds its own outcomes
                if net.pairs[j][1] != v and any(not is_zero(tmap.gammas[e][j]) for e in ins)
            )
        nodes.append(NodePlan(v, None, ins, outs, coeffs, ins, told))
    return SchemePlan(net, scheme, tmap, tuple(nodes), "prune" if prune else "broadcast")


@dataclass
class RunResult:
    state: StateVector  # corrected output on tgt:1..k, pair order
    pre_correction: StateVector
    log: MessageLog
    phase_table: PhaseTable
    plan: SchemePlan


@dataclass(frozen=True)
class BranchResult:
    branch: tuple[int, ...]
    result: RunResult | None  # None when the branch has probability zero
    fidelity: float | None


@dataclass(frozen=True)
class NodeStep:
    """The state after one node, and its announcement (None if it did not measure)."""

    node: str
    state: StateVector
    entry: LogEntry | None


def node_steps(
    plan: SchemePlan,
    input_state: StateVector,
    rng: np.random.Generator | None = None,
    branch=None,
    max_entries: int = MAX_STATE_ENTRIES,
):
    """The node loop: run the plan's nodes in order, yielding a NodeStep after each.

    Every node codes its inputs into fresh output registers, measuring a
    recoverable first input inside the coding scatter
    (`quantum.code_and_measure_first`), then Fourier-transforms and measures
    the remaining inputs in order; each step is the node's `NodePlan`.

    Outcomes are sampled from `rng`, or taken in turn from `branch`, one
    label per measurement; a branch of the wrong length or with a label out
    of range raises InstanceError when the first step is taken.
    """
    if branch is not None:
        branch = tuple(int(b) for b in branch)
        if len(branch) != plan.measurement_count:
            raise InstanceError(
                f"branch must list {plan.measurement_count} outcome labels, got {len(branch)}"
            )
        if any(not 0 <= b < plan.scheme.register_dim for b in branch):
            raise InstanceError("branch labels out of range")
        rng = None
    labels = itertools.repeat(None) if branch is None else iter(branch)
    state = input_state
    for p in plan.nodes:
        if p.kept is not None:
            state = state.renamed({p.kept[0]: p.kept[1]})
        outcomes = []
        if p.adjoined:
            # the full coded state even where the fused step builds one d times smaller:
            # at least d^2 and d^m * n * width, it also bounds the d x d Fourier matrix
            # (cached, uncapped) and the temporary the coding table is built from
            check_growth(state.amps.size * state.dim ** len(p.adjoined), max_entries)
            table, fused = plan.coding(p)
            if fused:
                outcome, state = code_and_measure_first(
                    state, p.coded_from, p.adjoined, table, rng, next(labels), max_entries
                )
                outcomes.append(outcome)
            else:
                state = apply_coding_unitary(state, p.coded_from, p.adjoined, table, max_entries)
        entry = None
        if p.measured is not None:
            for reg in p.measured[len(outcomes) :]:
                state = apply_fourier(state, reg)
                outcome, state = measure(state, reg, rng=rng, forced=next(labels))
                outcomes.append(outcome)
            entry = LogEntry(p.node, tuple(outcomes), p.recipients)
        yield NodeStep(p.node, state, entry)


def finish_run(plan: SchemePlan, input_state: StateVector, steps) -> RunResult:
    """Take a run's node steps in turn, log the announcements, and let the
    targets cancel their phases."""
    state, entries = input_state, []
    for step in steps:
        state = step.state
        if step.entry is not None:
            entries.append(step.entry)
    log = MessageLog(plan.scheme.q, entries)
    targets = tuple(target_edge(i + 1) for i in range(plan.net.k))
    if sorted(state.reg_ids) != sorted(targets):
        raise InstanceError(f"run left registers {state.reg_ids}, expected exactly {targets}")
    state = state.reordered(targets)
    pre_correction = state

    phase_table = compute_corrections(log, plan)
    for i in range(1, plan.net.k + 1):
        state = apply_phase(state, target_edge(i), -phase_table.turns(i))
    return RunResult(state, pre_correction, log, phase_table, plan)


def _check_input(net: Network, scheme: CodingScheme, state: StateVector) -> None:
    if state.ring != scheme.ring or state.q != scheme.q:
        raise InstanceError("input state ring or width does not match the scheme")
    expected_regs = tuple(source_edge(i + 1) for i in range(net.k))
    if state.reg_ids != expected_regs:
        raise InstanceError(f"input state must live on registers {expected_regs}")


def run_protocol(
    net: Network,
    scheme: CodingScheme,
    input_state: StateVector,
    seed: int | None = None,
    branch=None,
    prune: bool = False,
    copy_skip: bool = False,
    check_classical: bool = True,
    max_entries: int = MAX_STATE_ENTRIES,
) -> RunResult:
    """Simulate the scheme node by node and correct the target phases.

    Outcomes are either sampled (`seed`) or forced (`branch`, one label per
    measurement in node-then-input order). On a verified scheme the returned
    state equals the input state on the target registers.
    """
    _check_input(net, scheme, input_state)
    plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
    if check_classical and plan.tmap.counterexample(net.k) is not None:
        raise InvalidSchemeError(
            "the classical scheme does not solve the instance; "
            "fix it or skip the check to inspect the imperfect run"
        )
    if branch is not None and seed is not None:
        raise InstanceError("give either a branch or a seed, not both")
    if branch is None and seed is None:
        raise InstanceError("sampled mode needs a seed")
    if seed is not None and seed < 0:
        raise InstanceError(f"seed must be a non-negative integer, got {seed}")
    rng = None if seed is None else np.random.default_rng(seed)
    steps = node_steps(plan, input_state, rng, branch, max_entries)
    return finish_run(plan, input_state, steps)


def compute_corrections(log: MessageLog, plan: SchemePlan) -> PhaseTable:
    """Tabulate the per-pair phase corrections from the logged outcomes.

    Measuring outcome a on a register whose content is sum_j gamma_j x_j
    contributes the pairing of a with gamma_j x_j to pair j's phase; the
    table for pair j is the sum of those integer rows mod the ring's
    exponent, evaluated at each basis label.
    """
    ring, q = plan.scheme.ring, plan.scheme.q
    outcomes = log.all_outcomes()
    for outcome in outcomes:
        if outcome.register not in plan.tmap.gammas:
            raise InstanceError(
                f"measured register {outcome.register!r} has no transfer coefficients"
            )
    digits = plan.digits
    weights = np.zeros((plan.net.k, digits.shape[1]), dtype=np.int64)
    if outcomes:
        rows = np.stack([plan.correction_rows[o.register] for o in outcomes])
        weights = np.einsum("njab,nb->ja", rows, digits[[o.label for o in outcomes]])
    return PhaseTable(ring, q, weights % ring.exponent @ digits.T % ring.exponent)


@dataclass(frozen=True)
class CostReport:
    k: int
    max_fan_in: int
    node_count: int
    edge_count: int
    q: int
    bound_elements: int
    bound_bits: int
    elements_sent: int
    bits_sent: int
    quantum_registers_sent: int
    policy: str
    per_node: tuple[tuple[str, int, int, int], ...]  # node, measured, recipients, elements


def classical_cost(plan: SchemePlan) -> CostReport:
    """The classical traffic the plan announces, next to the bound k * M * |V|.

    Broadcast traffic is k * q times the total fan-in of the measuring nodes,
    and M is the largest fan-in, so it never exceeds the bound.
    """
    net, q = plan.net, plan.scheme.q
    bits = max(1, math.ceil(math.log2(plan.scheme.ring.cardinality)))
    bound = net.k * net.max_fan_in * len(net.nodes) * q
    per_node = []
    for p in plan.nodes:
        if p.measured is not None:
            told = len(p.recipients)
            per_node.append((p.node, len(p.measured), told, len(p.measured) * told * q))
    sent = sum(row[3] for row in per_node)
    return CostReport(
        net.k, net.max_fan_in, len(net.nodes), len(net.edges), q, bound, bound * bits,
        sent, sent * bits, len(net.edges), plan.policy, tuple(per_node)
    )


def enumerate_branches(
    net: Network,
    scheme: CodingScheme,
    input_state: StateVector,
    max_branches: int = BRANCH_CAP_DEFAULT,
    prune: bool = False,
    copy_skip: bool = False,
    max_entries: int = MAX_STATE_ENTRIES,
):
    """Yield a BranchResult for every outcome assignment, forced in turn.

    Branches whose forced outcome is impossible in the current state (this
    can only happen for schemes that are not solutions) are yielded with a
    None result. The classical solution check is not run here; combine with
    `verify_solution` when a verdict is needed.
    """
    plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
    total = plan.branch_count
    if total > max_branches:
        raise CapExceededError(
            f"{int_text(total)} branches exceed the cap of {max_branches}; "
            f"raise max_branches to force full enumeration"
        )
    _check_input(net, scheme, input_state)
    for labels in itertools.product(range(scheme.register_dim), repeat=plan.measurement_count):
        try:
            steps = node_steps(plan, input_state, branch=labels, max_entries=max_entries)
            result = finish_run(plan, input_state, steps)
        except ZeroProbabilityError:
            yield BranchResult(branch=labels, result=None, fidelity=None)
            continue
        yield BranchResult(
            branch=labels,
            result=result,
            fidelity=fidelity(input_state, result.state),
        )
