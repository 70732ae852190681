"""Placement-cache coherence: the cached availability rows stay exact.

``ClusterSimulator`` scores arrivals against ``_avail_norm``, a per-server
cache of capacity-normalized availability rows that is recomputed only
where the simulator's mutators (``_admit``, ``_detach``, ``_reattach``,
``_rebalance``, ``_set_capacity``, ``_attach_server``) marked it dirty.
After every event this suite refreshes the cache and compares each
nonzero-capacity row, byte for byte, with a from-scratch vectorized
recompute of the formula the pinned reference scores, so a writer that
forgets its dirty mark fails on the event where it happens.  Instrumented
runs must also return the same bits as plain ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from strategies import scenario_batch

from repro.scenario import ClusterSimEngine, fork_sweep, resolve_cluster, run_scenario
from repro.scenario.scenario import Scenario

#: A fixed batch covering every regime in ``REGIMES`` (asserted below).
SEED, COUNT = 3, 12

REGIMES = {
    "spot evacuate",
    "spot kill",
    "correlated warned drain",
    "drain budget",
    "elastic arrivals",
    "capacity dips",
    "partitioned",
    "preemption baseline",
}


def _regimes(scenario: Scenario) -> set[str]:
    spec = scenario.failures or {}
    model = spec.get("model")
    found = set()
    if model == "spot":
        found.add(f"spot {spec['response']}")
    if model == "correlated-spot" and "warning_intervals" in spec:
        found.add("correlated warned drain")
    if "evacuation_budget" in spec:
        found.add("drain budget")
    if model == "elastic-pool":
        found.add("elastic arrivals")
    if model == "capacity-dips":
        found.add("capacity dips")
    if scenario.partitioned:
        found.add("partitioned")
    if scenario.policy == "preemption":
        found.add("preemption baseline")
    return found


def _expected_rows(sim) -> np.ndarray:
    """The availability rows recomputed from scratch over every server."""
    com, cap = sim.committed, sim.server_cap
    with np.errstate(divide="ignore", invalid="ignore"):
        if sim._policy is None:
            return np.maximum(cap - com, 0.0) / cap
        recl = sim.reclaimed
        used = com - recl
        free = np.maximum(cap - used, 0.0)
        headroom = np.maximum((sim.defl_cap - recl) - sim.defl_floor, 0.0)
        oc = np.maximum(com / cap, 1.0)
        return (free + headroom / oc) / cap


def _instrument(sim, seen: list) -> None:
    """Check the cache after every event through the per-event seam."""

    def after(t, kind, key):
        rows = sim._refresh_avail()
        scored = (sim.server_cap != 0.0).all(axis=1)
        assert rows.shape == sim.server_cap.shape
        expected = _expected_rows(sim)
        assert rows[scored].tobytes() == expected[scored].tobytes(), (
            f"stale availability row after event (t={t}, kind={kind}, key={key})"
        )
        seen.append(kind)

    sim._after_event = after


def test_batch_covers_every_regime():
    found = set().union(*(_regimes(s) for s in scenario_batch(SEED, COUNT)))
    assert REGIMES <= found, f"batch lost coverage of {sorted(REGIMES - found)}"


@pytest.mark.parametrize("index", range(COUNT))
def test_cache_matches_recompute_after_every_event(index):
    scenario = scenario_batch(SEED, COUNT)[index]
    sim = ClusterSimEngine().build(scenario)
    seen: list = []
    _instrument(sim, seen)
    result = sim.run()
    assert seen, "no events were checked"
    assert result == run_scenario(scenario).sim, scenario.describe()


def test_cache_rebuilds_on_restore():
    """A resumed run (snapshot, then restore into a fresh simulator) keeps
    the cache exact from its first event, and finishes with cold bits."""
    scenario = next(
        s
        for s in scenario_batch(SEED, COUNT)
        if s.failures and s.failures["model"] == "capacity-dips" and s.policy != "preemption"
    )
    traces, _ = resolve_cluster(scenario)
    warm = ClusterSimEngine().build(scenario)
    warm.run_until(0.5 * float(traces.horizon()))
    warm._refresh_avail()  # a populated cache must not leak into the snapshot
    resumed = ClusterSimEngine().build(scenario.with_checkpoint(warm.snapshot()))
    assert resumed._avail_norm is None
    seen: list = []
    _instrument(resumed, seen)
    assert resumed.run() == run_scenario(scenario).sim
    assert seen


def test_cache_in_fork_sweep_branches(monkeypatch):
    """The shared prefix and every what-if branch (revocation, dip) stay
    coherent, and the forked results equal the uninstrumented ones."""
    base = (
        Scenario(name="avail-fork")
        .with_workload("azure", n_vms=150, seed=11)
        .with_overcommitment(0.4)
        .with_policy("priority")
    )
    traces, _ = resolve_cluster(base)
    at = 0.4 * float(traces.horizon())
    branches = [
        base.named("revoke").with_failures(
            "trace-schedule", events=[{"t": at + 3.0, "server": 0, "action": "revoke"}]
        ),
        base.named("dip").with_failures(
            "trace-schedule",
            events=[{"t": at + 3.0, "server": 1, "action": "dip", "scale": 0.5, "duration": 9.0}],
        ),
    ]
    plain = fork_sweep(base, branches, at=at)
    seen: list = []
    build = ClusterSimEngine.build

    def instrumented(self, scenario):  # the warm prefix and every branch
        sim = build(self, scenario)
        _instrument(sim, seen)
        return sim

    monkeypatch.setattr(ClusterSimEngine, "build", instrumented)
    forked = fork_sweep(base, branches, at=at)
    assert seen
    for f, p in zip(forked, plain):
        assert f.sim == p.sim, p.scenario.name
