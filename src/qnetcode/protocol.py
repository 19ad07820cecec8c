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
`SchemePlan`; the message cost is read from it without simulation. Plans
are memoised by the content keys of the network and scheme, and the policy,
in the bounded memo of `network.memoised`, with one transfer map for all
policies (`network.transfer_map`): every run of an equal instance, parsed
once or many times, shares the map, coding tables and corrections.

Every run, sampled or forced, goes through the one node loop, `node_steps`,
which reads no policy, is the only place a node is coded or measured and the
only place a forced branch is checked. A run's state, from input to
output, is its support rows (`quantum.SupportState`), which on a solution
keep the input's size. The loop names registers only: where they sit among
the rows' columns is the `quantum` kernels' concern. A plan of a solution is
certified (`SchemePlan.certified`, which reads the transfer map's verdict):
each of its measurements leaves only a phase, and each outcome has
probability 1/d whatever the input. So a sampled run is the forced run of a
branch drawn uniformly before the first node, the loop measures each node's
registers in one step without checking rows, and `finish_run` cancels the
phases row by row. The input's rows are checked once, before any node runs
(`quantum.checked_state`). The input may carry spectator registers after
`src:1..k`, which no node touches; they come after `tgt:1..k` in the output.

Enumeration has two paths. `enumerate_branches` runs every branch through
the node loop and is the oracle. `enumerate_batches` gives the same
branches, fidelities and corrections bit for bit; on a certified plan it
codes the input's rows once and takes the branches in batches of phase
products (`quantum.branch_amplitudes`), and on any other plan it runs the
oracle.

Corrections are integers mod the ring's exponent, shown only as
`PhaseTable.fractions`. The refusals that read no state stand alone, so a
caller can ask them before it builds an input: `run_protocol` checks the
input's rows, then the verdict (`check_solved`); `enumerate_branches` the
branch count (`check_branch_count`), then the rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import (
    MAX_STATE_ENTRIES, CapExceededError, CodingScheme, InstanceError, Network, TransferMap, memoised,
    source_edge, target_edge, transfer_map,
)
from .quantum import (
    MeasurementOutcome, SupportState, ZeroProbabilityError, branch_amplitudes,
    check_growth, checked_state, code_rows, fidelities, fidelity, measure_rows, output_columns,
    take_columns, uniform_branch,
)
from .rings import RingSpec, character_form, int_text, is_identity, label_digits

BRANCH_CAP_DEFAULT = 65536
_BATCH_ENTRIES = 2**16  # amplitudes in one batch of `enumerate_batches`


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
    pair j's correction at label x is numerators[j, x] / ring.exponent, shown
    only as `fractions`."""

    ring: RingSpec
    q: int
    numerators: np.ndarray  # shape (k, register dim), values in [0, ring.exponent)

    @cached_property
    def fractions(self) -> tuple[tuple[str, ...], ...]:
        """The corrections as exact fractions in lowest terms, fractions[pair - 1][label]:
        numerator n reads as `str(Fraction(n, L))`, L the ring's exponent."""
        turns = self.ring.exponent
        text = lambda n, g: f"{n // g}" if g == turns else f"{n // g}/{turns // g}"
        return tuple(tuple(text(n, math.gcd(n, turns)) for n in row) for row in self.numerators.tolist())


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

    The tables of size |R|^q and more (coding tables, label digits, the
    correction matrix) are built on first use, so planning and cost stay cheap
    on any ring. Every run of the scheme shares them, so they are read-only.
    The ring and width are the transfer map's: a plan holds no reference to
    its scheme, and none to itself, so the memo frees it (`plan_scheme`).
    """

    net: Network
    tmap: TransferMap
    nodes: tuple[NodePlan, ...]
    policy: str
    _coding: dict = field(default_factory=dict, init=False, repr=False)

    def coding(self, p: NodePlan) -> np.ndarray:
        """The coding table of a node that adjoins registers (`quantum.output_columns`)."""
        if p.node not in self._coding:
            table = self._coding[p.node] = output_columns(self.tmap.ring, self.tmap.q, p.rows)
            table.flags.writeable = False
        return self._coding[p.node]

    @cached_property
    def register_dim(self) -> int:
        return self.tmap.ring.cardinality**self.tmap.q

    @property
    def certified(self) -> bool:
        """No measurement of a run interferes: true on a solution (the
        transfer map's verdict, `TransferMap.counterexample`), under any
        policy and with any spectators. A node measures only its own inputs,
        after adjoining its outputs, so the targets are computed from the
        other live registers. On a solution they hold x, which fixes each
        measured label gamma x: the rows' other columns are distinct, and
        every outcome has probability 1/d (`quantum.measure_rows`)."""
        return self.tmap.counterexample is None

    @cached_property
    def digits(self) -> np.ndarray:
        """Digits of every basis label of a register."""
        digits = label_digits(self.tmap.ring, self.tmap.q, np.arange(self.register_dim))
        digits.flags.writeable = False
        return digits

    @cached_property
    def measured(self) -> tuple[str, ...]:
        """The registers the plan's nodes measure, in measurement order."""
        return tuple(r for p in self.nodes if p.measured for r in p.measured)

    @cached_property
    def corrections(self) -> np.ndarray:
        """The corrections as one linear map: row (n, b), column (j, x) holds
        L * character(u_b, gamma_ej x) mod L, for e measurement n's register,
        u_b the b-th digit unit and L the ring's exponent. A branch's outcome
        digits times it give every pair's correction at every label."""
        ring, form = self.tmap.ring, character_form(self.tmap.ring, self.tmap.q)
        blocks = [np.zeros((0, self.net.k * self.register_dim), dtype=np.int64)]
        for e in self.measured:
            if e not in self.tmap.gammas:
                raise InstanceError(f"measured register {e!r} has no transfer coefficients")
            # (x, a) @ (j, a, b) -> (j, x, b): digits(x) @ gamma_ej @ K, then a row per b
            rows = self.digits @ (self.tmap.gammas[e] @ form % ring.exponent) % ring.exponent
            blocks.append(rows.transpose(2, 0, 1).reshape(len(form), -1))
        matrix = np.concatenate(blocks)
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def cost(self) -> CostReport:
        """The classical traffic the plan announces (`classical_cost`)."""
        net, q = self.net, self.tmap.q
        bits = max(1, (self.tmap.ring.cardinality - 1).bit_length())
        bound = net.k * net.max_fan_in * len(net.nodes) * q
        per_node = []
        for p in self.nodes:
            if p.measured is not None:
                told = len(p.recipients)
                per_node.append((p.node, len(p.measured), told, len(p.measured) * told * q))
        sent = sum(row[3] for row in per_node)
        return CostReport(
            net.k, net.max_fan_in, len(net.nodes), len(net.edges), q, bound, bound * bits,
            sent, sent * bits, len(net.edges), self.policy, tuple(per_node)
        )

    @property
    def measurement_count(self) -> int:
        return len(self.measured)

    @property
    def branch_count(self) -> int:
        return self.register_dim**self.measurement_count


def plan_scheme(
    net: Network, scheme: CodingScheme, prune: bool = False, copy_skip: bool = False
) -> SchemePlan:
    """The scheme's plan under a policy, nodes in `net.topo_order`, memoised
    by the content of the network and scheme (`network.memoised`)."""
    key = (net.key, scheme.key, prune, copy_skip)
    return memoised(key, lambda: _plan(net, scheme, prune, copy_skip))


def _plan(net: Network, scheme: CodingScheme, prune: bool, copy_skip: bool) -> SchemePlan:
    tmap = transfer_map(net, scheme)  # one per instance: the policies share it
    everyone = tuple(range(1, net.k + 1))
    targets = np.array([t for _, t in net.pairs], dtype=object)
    nodes = []
    for v in net.topo_order:
        ins, outs, coeffs = net.node_inputs[v], net.node_outputs[v], scheme.coeffs[v]
        if copy_skip and len(ins) == 1 and outs and all(is_identity(r[0]) for r in coeffs):
            # the input register survives as the first output; the rest are copies
            rows = tuple((r[0],) for r in coeffs[1:])
            nodes.append(NodePlan(v, (ins[0], outs[0]), outs[:1], outs[1:], rows, None, ()))
            continue
        told = everyone
        if prune:  # the pairs its inputs carry, but those it is the target of
            carried = tmap.stacked(ins).any(axis=(0, 2, 3)) & (targets != v)
            told = tuple((np.flatnonzero(carried) + 1).tolist())
        nodes.append(NodePlan(v, None, ins, outs, coeffs, ins, told))
    return SchemePlan(net, tmap, tuple(nodes), "prune" if prune else "broadcast")


@dataclass
class RunResult:
    state: SupportState  # corrected output on tgt:1..k in pair order, then the spectators
    pre_correction: SupportState
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
    state: SupportState
    entry: LogEntry | None


def node_steps(
    plan: SchemePlan,
    input_state: SupportState,
    rng: np.random.Generator | None = None,
    branch=None,
    max_entries: int = MAX_STATE_ENTRIES,
):
    """The node loop: run the plan's nodes in order, yielding a NodeStep after each.

    The loop runs on the input's rows as given and does what each node's
    `NodePlan` says: a node that adjoins registers codes them from its inputs
    (`quantum.code_rows`), then measures its registers in the Fourier basis
    (`quantum.measure_rows`), unchecked if `plan.certified`.
    Before a node codes, `quantum.check_growth` refuses a coded state above
    `max_entries` amplitudes, so nothing of that node is built.

    Outcomes are taken in turn from `branch`, one label per measurement, or
    sampled from `rng`: on a certified plan, where each is uniform, as one
    branch before the first node (`quantum.uniform_branch`). A branch of the
    wrong length, with a label out of range, or given with an `rng` raises
    InstanceError when the first step is taken.
    """
    pos, d = 0, plan.register_dim
    if branch is not None:
        if rng is not None:
            raise InstanceError("give either a branch or an rng, not both")
        branch = tuple(int(b) for b in branch)
        if len(branch) != plan.measurement_count:
            raise InstanceError(
                f"branch must list {plan.measurement_count} outcome labels, got {len(branch)}"
            )
        if any(not 0 <= b < d for b in branch):
            raise InstanceError("branch labels out of range")
    elif rng is not None and plan.certified:
        branch, rng = uniform_branch(d, plan.measurement_count, rng), None
    state = input_state
    for p in plan.nodes:
        state = _coded(plan, p, state, max_entries)
        outcomes = ()
        if p.measured:
            forced = None if branch is None else branch[pos : pos + len(p.measured)]
            pos += len(p.measured)
            outcomes, state = measure_rows(state, p.measured, rng, forced, plan.certified)
        entry = None if p.measured is None else LogEntry(p.node, outcomes, p.recipients)
        yield NodeStep(p.node, state, entry)


def _coded(plan: SchemePlan, p: NodePlan, state: SupportState, max_entries: int) -> SupportState:
    """The state once node `p` has coded: its kept register renamed, then its
    outputs adjoined (`quantum.code_rows`) if `quantum.check_growth` lets the
    coded state be built."""
    if p.kept is not None:
        state = state.renamed({p.kept[0]: p.kept[1]})
    if p.adjoined:
        # d^(live + adjoined), the dense coded state, not the support's rows: at
        # least d^2 and d^m * n, it bounds the d x d Fourier matrix (cached,
        # uncapped) and the coding table built next
        check_growth(plan.register_dim ** (len(state.reg_ids) + len(p.adjoined)), max_entries)
        state = code_rows(state, p.coded_from, p.adjoined, plan.coding(p))
    return state


def _output_rows(plan: SchemePlan, input_state: SupportState, state: SupportState):
    """The output roster, the targets then the input's spectators, and the
    labels of the run's last state in its order."""
    k = plan.net.k
    roster = tuple(target_edge(i + 1) for i in range(k)) + input_state.reg_ids[k:]
    if sorted(state.reg_ids) != sorted(roster):
        raise InstanceError(f"run left registers {state.reg_ids}, expected exactly {roster}")
    return roster, state.labels[:, [state.reg_ids.index(r) for r in roster]]


def _cancel(amps: np.ndarray, numerators: np.ndarray, targets: np.ndarray, exponent: int) -> np.ndarray:
    """The amplitudes with the targets' phases cancelled: numerators[..., j, x]
    is pair j's correction at label x (`PhaseTable.numerators`, one table or
    one per branch), targets[s] row s's labels on the targets. Each row's
    correction is one integer, the sum mod L of every pair's numerator at the
    row's label on its target, and one `exp` applies it."""
    k = targets.shape[1]
    row = numerators[..., np.arange(k), targets].sum(axis=-1) % exponent
    return amps * np.exp(-2j * np.pi * (row / exponent))


def finish_run(plan: SchemePlan, input_state: SupportState, steps) -> RunResult:
    """Take a run's node steps in turn, log the announcements, and let the
    targets cancel their phases. The rows' columns are put in order: the
    targets, then the input's spectator registers (those after `src:1..k`,
    which no node touches) in input order (`_output_rows`); each row's phase
    is cancelled by one integer (`_cancel`)."""
    state, entries = input_state, []
    for step in steps:
        state = step.state
        if step.entry is not None:
            entries.append(step.entry)
    log = MessageLog(plan.tmap.q, entries)
    roster, labels = _output_rows(plan, input_state, state)
    pre_correction = SupportState(state.ring, state.q, roster, labels, state.amps)

    phase_table = compute_corrections(log, plan)
    exponent = plan.tmap.ring.exponent
    amps = _cancel(state.amps, phase_table.numerators, labels[:, : plan.net.k], exponent)
    corrected = SupportState(state.ring, state.q, roster, labels, amps)
    return RunResult(corrected, pre_correction, log, phase_table, plan)


def _check_input(net: Network, scheme: CodingScheme, state: SupportState) -> SupportState:
    """The input's rows, checked once (`quantum.checked_state`). The input
    lives on `src:1..k`, then on any spectator registers, which must not be
    named like an edge, so that no node touches them."""
    if state.ring != scheme.ring or state.q != scheme.q:
        raise InstanceError("input state ring or width does not match the scheme")
    expected_regs = tuple(source_edge(i + 1) for i in range(net.k))
    if state.reg_ids[: net.k] != expected_regs:
        raise InstanceError(f"input state must live on registers {expected_regs}, then any spectators")
    edges = {e.id for e in net.edges}
    for reg in state.reg_ids[net.k :]:
        if reg in edges or reg.startswith(("src:", "tgt:")):
            raise InstanceError(f"spectator register {reg!r} is named like an edge")
    return checked_state(state)


def check_solved(tmap: TransferMap) -> None:
    """InvalidSchemeError unless the transfer map's verdict is a solution."""
    if tmap.counterexample is not None:
        raise InvalidSchemeError(
            "the classical scheme does not solve the instance; "
            "fix it or skip the check to inspect the imperfect run"
        )


def run_protocol(
    net: Network,
    scheme: CodingScheme,
    input_state: SupportState,
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
    state equals the input state on the target registers. The input's rows
    are checked first (`_check_input`).
    """
    input_state = _check_input(net, scheme, input_state)
    plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
    if check_classical:
        check_solved(plan.tmap)
    if branch is not None and seed is not None:
        raise InstanceError("give either a branch or a seed, not both")
    if branch is None and seed is None:
        raise InstanceError("sampled mode needs a seed")
    if seed is not None and seed < 0:
        raise InstanceError(f"seed must be a non-negative integer, got {seed}")
    rng = None if seed is None else np.random.default_rng(seed)
    steps = node_steps(plan, input_state, rng, branch, max_entries)
    return finish_run(plan, input_state, steps)


def _branch_numerators(plan: SchemePlan, branches: np.ndarray) -> np.ndarray:
    """The corrections of branches given as rows of outcome labels: one
    (k, register dim) table of numerators each (`PhaseTable.numerators`),
    the outcome digits times `plan.corrections`, mod the ring's exponent L."""
    digits = plan.digits[branches].reshape(len(branches), -1)
    numerators = digits @ plan.corrections % plan.tmap.ring.exponent
    return numerators.reshape(len(branches), plan.net.k, plan.register_dim)


def compute_corrections(log: MessageLog, plan: SchemePlan) -> PhaseTable:
    """The per-pair phase corrections of a logged branch: its outcome digits
    times `plan.corrections`, mod the ring's exponent L. The log must measure
    `plan.measured`, in that order."""
    outcomes = log.all_outcomes()
    if tuple(o.register for o in outcomes) != plan.measured:
        raise InstanceError(f"the log does not measure the plan's registers {plan.measured}")
    branch = np.array([[o.label for o in outcomes]], dtype=np.int64)
    return PhaseTable(plan.tmap.ring, plan.tmap.q, _branch_numerators(plan, branch)[0])


@dataclass(frozen=True)
class CostReport:
    k: int
    max_fan_in: int
    nodes: int
    edges: int
    q: int
    bound_elements: int
    bound_bits: int
    elements_sent: int
    bits_sent: int
    quantum_registers_sent: int
    policy: str
    per_node: tuple[tuple[str, int, int, int], ...]  # node, measured, recipients, elements


def classical_cost(plan: SchemePlan) -> CostReport:
    """The classical traffic the plan announces, next to the bound k * M * |V|,
    built once per plan and kept on it (`SchemePlan.cost`).

    Broadcast traffic is k * q times the total fan-in of the measuring nodes,
    and M is the largest fan-in, so it never exceeds the bound.
    """
    return plan.cost


def check_branch_count(plan: SchemePlan, max_branches: int) -> None:
    """CapExceededError if the plan has more than `max_branches` branches."""
    if plan.branch_count > max_branches:
        raise CapExceededError(
            f"{int_text(plan.branch_count)} branches exceed the cap of {max_branches}; "
            f"raise max_branches to force full enumeration"
        )


def enumerate_branches(
    net: Network,
    scheme: CodingScheme,
    input_state: SupportState,
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
    check_branch_count(plan, max_branches)
    input_state = _check_input(net, scheme, input_state)
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


@dataclass(frozen=True)
class BranchBatch:
    """Consecutive branches of an enumeration, in branch order: row b of
    each array is one branch."""

    branches: np.ndarray  # (B, measurements) outcome labels
    fidelities: np.ndarray  # (B,) against the input; NaN where the branch has probability zero
    numerators: np.ndarray  # (B, k, register dim): each branch's `PhaseTable.numerators`


def _coded_columns(
    plan: SchemePlan, input_state: SupportState, max_entries: int
) -> tuple[np.ndarray, SupportState]:
    """One pass of the plan's nodes over the input's rows that codes and
    measures nothing: each measured register's labels move, where the node
    loop would drop the register, into row n of an (m, S) table, n its
    measurement (`quantum.take_columns`). Returns the table and the state
    the nodes leave. The coding steps, and so the `check_growth` refusals,
    are the node loop's (`node_steps`)."""
    state = input_state
    columns = [np.empty((0, len(state.amps)), dtype=np.int64)]
    for p in plan.nodes:
        state = _coded(plan, p, state, max_entries)
        if p.measured:
            taken, state = take_columns(state, p.measured)
            columns.append(taken)
    return np.concatenate(columns), state


def enumerate_batches(
    net: Network,
    scheme: CodingScheme,
    input_state: SupportState,
    max_branches: int = BRANCH_CAP_DEFAULT,
    prune: bool = False,
    copy_skip: bool = False,
    max_entries: int = MAX_STATE_ENTRIES,
):
    """Yield every branch of `enumerate_branches`, in its order and with its
    fidelity and corrections bit for bit, as BranchBatch rows.

    On a certified plan no measurement moves a row, so the input's rows are
    coded once (`_coded_columns`) and every branch only multiplies phases
    onto them (`quantum.branch_amplitudes`). Branches are taken in batches
    that share their leading outcomes, of at most `_BATCH_ENTRIES` (and
    `max_entries`) amplitudes; each batch's corrections are one product
    (`_branch_numerators`), and its fidelities one `np.vdot` per branch,
    row against row (`quantum.fidelities`). Any other plan runs
    `enumerate_branches`, the oracle, one batch at a time.
    """
    plan = plan_scheme(net, scheme, prune=prune, copy_skip=copy_skip)
    check_branch_count(plan, max_branches)
    input_state = _check_input(net, scheme, input_state)
    m, d, rows = plan.measurement_count, plan.register_dim, len(input_state.amps)
    if not plan.certified:
        oracle = enumerate_branches(net, scheme, input_state, max_branches, prune, copy_skip, max_entries)
        while batch := list(itertools.islice(oracle, max(1, _BATCH_ENTRIES // rows))):
            branches = np.array([r.branch for r in batch], dtype=np.int64).reshape(len(batch), m)
            fids = np.array([np.nan if r.fidelity is None else r.fidelity for r in batch])
            yield BranchBatch(branches, fids, _branch_numerators(plan, branches))
        return
    columns, state = _coded_columns(plan, input_state, max_entries)
    targets = _output_rows(plan, input_state, state)[1]
    inner = 0  # the last outcomes, which each batch enumerates; the others lead
    while inner < m and d ** (inner + 1) * rows <= min(max_entries, _BATCH_ENTRIES):
        inner += 1
    tails = np.array(list(itertools.product(range(d), repeat=inner)), dtype=np.int64).reshape(d**inner, inner)
    for head in itertools.product(range(d), repeat=m - inner):
        branches = np.concatenate((np.full((len(tails), len(head)), head, dtype=np.int64), tails), axis=1)
        numerators = _branch_numerators(plan, branches)
        amps = branch_amplitudes(input_state, columns, head)
        amps = _cancel(amps, numerators, targets[:, : net.k], plan.tmap.ring.exponent)
        yield BranchBatch(branches, fidelities(input_state, targets, amps), numerators)
