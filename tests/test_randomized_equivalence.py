"""Randomized cross-mode equivalence (docs/testing.md).

Property: for any generated scenario, every execution mode produces the
same bits — serial == parallel sweep == resumed-from-snapshot, and ==
the sharded engine where the scenario qualifies for it.  The pinned
suites cover hand-picked corners; this layer walks the configuration
space broadly (policy x sizing x partitioning x collectors x failure
regime, via ``tests/strategies.py``).

Deterministic by construction: CI replays the fixed default seed; a
failure names ``(seed, index)``, which regenerates the exact scenario.
Run with ``--repro-fuzz-seed=N`` to probe fresh ground; any seed that
finds a divergence should be promoted to a pinned regression test.
"""

from __future__ import annotations

import pytest
from strategies import scenario_batch, waterfill_stress_batch

from repro.errors import SimulationError
from repro.scenario import ClusterSimEngine, resolve_cluster, run_scenario, run_sweep
from repro.simulator.sharded import plan_shards

#: Tier-1 keeps a small deterministic batch; the slow layer runs ~50.
SMALL_N = 8
FULL_N = 50

#: Fraction of the trace horizon at which the resume checkpoint is taken —
#: late enough that real placements/failures land in the prefix.
BOUNDARY_FRACTION = 0.4


def _resumed(scenario):
    """Cold prefix to the boundary, snapshot, finish from the checkpoint."""
    traces, _ = resolve_cluster(scenario)
    warm = ClusterSimEngine().build(scenario)
    warm.run_until(BOUNDARY_FRACTION * float(traces.horizon()))
    return run_scenario(scenario.with_checkpoint(warm.snapshot()))


def _shardable(scenario) -> bool:
    if not scenario.partitioned:
        return False
    try:
        plan_shards(scenario)
    except SimulationError:
        return False  # e.g. pools outnumber a tiny explicit cluster
    return True


def _assert_modes_agree(scenarios, seed: int) -> None:
    cold = [run_scenario(s) for s in scenarios]
    parallel = run_sweep(scenarios, workers=2)
    n_sharded = 0
    for i, (scenario, c, p) in enumerate(zip(scenarios, cold, parallel)):
        ctx = f"--repro-fuzz-seed={seed} index={i}: {scenario.describe()}"
        assert c.sim == p.sim, f"parallel diverged from serial ({ctx})"
        assert _resumed(scenario).sim == c.sim, f"resume diverged from cold ({ctx})"
        if _shardable(scenario):
            n_sharded += 1
            assert scenario.run(engine="sharded").sim == c.sim, (
                f"sharded diverged from flat ({ctx})"
            )
    # The batch must actually exercise the cross-engine arm; with ~half the
    # scenarios partitioned this only trips if the generator drifts.
    assert n_sharded > 0, f"no generated scenario qualified for sharding (seed={seed})"


def test_randomized_equivalence(fuzz_seed):
    _assert_modes_agree(scenario_batch(fuzz_seed, SMALL_N), fuzz_seed)


@pytest.mark.slow
def test_randomized_equivalence_full(fuzz_seed):
    _assert_modes_agree(scenario_batch(fuzz_seed, FULL_N), fuzz_seed)


def test_waterfill_stress_equivalence(fuzz_seed):
    """Water-fill-corner scenarios (tests/strategies.py): the closed-form
    solver under the one-shot replay against the stream/resume and sharded
    replays."""
    _assert_modes_agree(waterfill_stress_batch(fuzz_seed, SMALL_N), fuzz_seed)


@pytest.mark.slow
def test_waterfill_stress_equivalence_full(fuzz_seed):
    _assert_modes_agree(waterfill_stress_batch(fuzz_seed, FULL_N // 2), fuzz_seed)
