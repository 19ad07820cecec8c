"""The batched enumeration (`protocol.enumerate_batches`) against the oracle,
`protocol.enumerate_branches`: the same branches in the same order, and bit
for bit the same fidelities, corrections and unrealizable branches."""

import itertools

import numpy as np
import pytest

import qnetcode.protocol
from conftest import INSTANCES, choi_state, generated_butterfly, load_instance, random_input_state
from qnetcode.network import parse_network, scheme_with_alternate_phi
from qnetcode.protocol import enumerate_batches, enumerate_branches, plan_scheme
from qnetcode.quantum import DimensionCapError, basis_state, init_state

BUNDLED = [p.name for p in sorted(INSTANCES.glob("*.json")) if not p.name.startswith("superpos")]
POLICIES = {
    "broadcast": {},
    "prune": {"prune": True},
    "copy-skip": {"copy_skip": True},
    "prune-copy-skip": {"prune": True, "copy_skip": True},
}
GENERATED = [(3, "Z(3)", 1), (3, "Z(2)", 2), (3, "Z(4)", 1)]


def _first(rows, limit):
    """The first `limit` rows of an iterator of row lists (all if None)."""
    return list(itertools.islice(itertools.chain.from_iterable(rows), limit))


def assert_batches_equal_oracle(net, scheme, state, limit=None, **policy):
    """The first `limit` branches of both paths (all if None) agree exactly:
    labels and order, fidelity bits, corrections, and which branches are
    unrealizable (NaN in a batch, None in the oracle)."""
    kwargs = dict(max_branches=plan_scheme(net, scheme, **policy).branch_count, **policy)
    batches = enumerate_batches(net, scheme, state, **kwargs)
    got = _first(
        (zip(map(tuple, b.branches.tolist()), b.fidelities.tolist(), b.numerators) for b in batches), limit
    )
    want = _first(([br] for br in enumerate_branches(net, scheme, state, **kwargs)), limit)
    assert [g[0] for g in got] == [w.branch for w in want]
    assert sum(np.isnan(g[1]) for g in got) == sum(w.fidelity is None for w in want)
    for (_, fid, numerators), br in zip(got, want):
        if br.fidelity is None:
            assert np.isnan(fid)
            continue
        assert np.float64(fid).tobytes() == np.float64(br.fidelity).tobytes()
        assert np.array_equal(numerators, br.result.phase_table.numerators)
    return len(got)


@pytest.fixture
def small_batches(monkeypatch):
    """Batches of a few branches, so that most branches have a leading outcome
    prefix and a batch of their own."""
    monkeypatch.setattr(qnetcode.protocol, "_BATCH_ENTRIES", 64)


@pytest.mark.parametrize("alt_phi", [False, True], ids=["plain", "alt-phi"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_instance_and_policy(name, policy, alt_phi, small_batches):
    net, scheme = load_instance(name)
    if alt_phi:
        scheme = scheme_with_alternate_phi(scheme)
    state = random_input_state(scheme, net.k, 41)
    assert assert_batches_equal_oracle(net, scheme, state, limit=96, **POLICIES[policy]) == min(
        96, plan_scheme(net, scheme, **POLICIES[policy]).branch_count
    )


def _input(kind, scheme, k):
    if kind == "basis":
        return basis_state(scheme.ring, scheme.q, [scheme.register_dim - 1] + [0] * (k - 1))
    if kind == "uniform":
        d = scheme.register_dim
        return init_state(scheme.ring, scheme.q, k, np.full(d**k, d ** (-k / 2)))
    if kind == "choi":
        return choi_state(scheme, k)
    return random_input_state(scheme, k, 43)


@pytest.mark.parametrize("kind", ["basis", "random", "uniform", "choi"])
@pytest.mark.parametrize("name", BUNDLED)
def test_every_input_kind(name, kind):
    # whole enumerations where they are small, batches of the default size
    net, scheme = load_instance(name)
    state = _input(kind, scheme, net.k)
    policy = {"copy_skip": True} if plan_scheme(net, scheme).branch_count > 512 else {}
    limit = 512 if plan_scheme(net, scheme, **policy).branch_count > 729 else None
    assert_batches_equal_oracle(net, scheme, state, limit=limit, **policy)


def test_the_broken_butterfly_has_unrealizable_branches_on_the_uniform_input():
    net, scheme = load_instance("butterfly_f2_broken.json")
    batches = list(enumerate_batches(net, scheme, _input("uniform", scheme, net.k)))
    assert sum(np.isnan(b.fidelities).sum() for b in batches) == 256
    assert sum(len(b.branches) for b in batches) == 512


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize(
    "args, kind",
    # a Choi input on d = 4 registers would code past the default amplitude cap
    [(args, "random") for args in GENERATED] + [((3, "Z(3)", 1), "choi"), ((3, "Z(2)", 1), "choi")],
    ids=str,
)
def test_generated_butterflies(args, kind, policy, small_batches):
    net, scheme = parse_network(generated_butterfly(*args))
    state = _input(kind, scheme, net.k)
    assert assert_batches_equal_oracle(net, scheme, state, limit=48, **POLICIES[policy]) == 48


def test_only_an_uncertified_plan_runs_the_oracle(monkeypatch):
    calls = []
    oracle = qnetcode.protocol.enumerate_branches
    monkeypatch.setattr(qnetcode.protocol, "enumerate_branches", lambda *a: calls.append(a) or oracle(*a))
    for name, runs in (("butterfly_f2.json", 0), ("butterfly_f2_broken.json", 1)):
        net, scheme = load_instance(name)
        list(enumerate_batches(net, scheme, random_input_state(scheme, net.k, 3)))
        assert len(calls) == runs


@pytest.mark.parametrize("max_entries", [4, 16, 32, 64, 128])
def test_the_amplitude_cap_refuses_at_the_same_node(max_entries):
    net, scheme = load_instance("butterfly_f2.json")
    state = random_input_state(scheme, net.k, 5)
    outcomes = []
    for entry in (enumerate_batches, enumerate_branches):
        try:
            next(entry(net, scheme, state, max_entries=max_entries))
            outcomes.append(None)
        except DimensionCapError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (max_entries >= 32)  # 2^5: four live registers and an output


def test_a_batch_keeps_its_amplitudes_under_the_caps(monkeypatch):
    seen = []
    kernel = qnetcode.protocol.branch_amplitudes

    def counted(*args):
        rows = kernel(*args)
        seen.append(rows.size)
        return rows

    monkeypatch.setattr(qnetcode.protocol, "branch_amplitudes", counted)
    net, scheme = load_instance("butterfly_z4.json")
    state = random_input_state(scheme, net.k, 9)
    batches = enumerate_batches(net, scheme, state, copy_skip=True, max_entries=1024)
    assert sum(len(b.branches) for b in batches) == 4**6
    assert max(seen) <= 1024 and len(seen) == 4**6 * 16 // 1024
