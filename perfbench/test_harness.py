"""The harness's own guarantees: tracing changes no output bit, and no
patch outlives the pass that made it."""

from __future__ import annotations

import multiprocessing

import pytest

from perfbench import calibrate, metrics, workloads
from perfbench.tracing import Tracer
from repro.core.deflation import get_policy
from repro.registry import names
from repro.scenario import sweep
from repro.simulator.cluster_sim import ClusterSimulator

SMALL = {"replay-deflation": 600, "replay-preemption": 600, "churn-sweep": 500}


def patch_targets() -> dict:
    """Everything a traced pass patches that outlives a single simulator."""
    state = {
        f"policy:{name}": set(vars(get_policy(name))) for name in names("policy")
    }
    for attr in ("run_until", "snapshot", "restore"):
        state[f"ClusterSimulator.{attr}"] = vars(ClusterSimulator)[attr]
    for attr in ("run_scenario", "run_sweep"):
        state[f"sweep.{attr}"] = getattr(sweep, attr)
    return state


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_is_bit_identical_and_leaves_no_patch(workload):
    before = patch_targets()
    plain = workloads.run_pass(workload, 5, n_vms=SMALL[workload])
    with Tracer() as tr:
        traced = workloads.run_pass(workload, 5, tr, tag="traced", n_vms=SMALL[workload])
        assert tr.active_patches > 0
    assert tr.active_patches == 0
    assert patch_targets() == before
    assert traced.outputs == plain.outputs
    if workload == "churn-sweep":
        for phase in ("cold", "warm", "forked"):
            assert [r.sim for r in traced.extra[phase]] == [r.sim for r in plain.extra[phase]]

    layers = metrics.layer_metrics(tr, traced.extra.get("cache", ()))
    assert set(layers) | {"trace.overhead_s"} == {name for name, _ in metrics.PER_LAYER}
    assert layers["scorer.calls"] > 0 and layers["simulator.events"] > 0
    if workload == "replay-preemption":
        assert layers["policy.solves"] == 0 and layers["admission.calls"] == 0
        assert layers["preemption.plans"] > 0
    if workload == "replay-deflation":
        assert layers["preemption.plans"] == 0 and layers["policy.solves"] > 0
    if workload == "churn-sweep":
        # Worker spans travelled back to the parent.
        assert layers["runtime.worker_busy_s"] > 0 and layers["collectors.hook_calls"] > 0
        assert layers["snapshot.bytes"] > 0 and layers["cache.hits"] > 0


def test_consecutive_traced_passes_do_not_stack_wrappers():
    # A leftover wrapper on the shared priority policy would be wrapped
    # again by the next pass; the tracer refuses that instead of recursing.
    for _ in range(2):
        with Tracer() as tr:
            workloads.run_pass("replay-deflation", 7, tr, n_vms=300)
    assert "reclaim_plan" not in vars(get_policy("priority"))


def test_patch_refuses_to_wrap_a_wrapper():
    policy = get_policy("priority")
    with Tracer() as tr:
        tr.patch(policy, "reclaim_plan", tr.rollup("policy.plan", policy.reclaim_plan))
        with pytest.raises(RuntimeError, match="already wrapped"):
            tr.patch(policy, "reclaim_plan", tr.rollup("policy.plan", policy.reclaim_plan))
    assert "reclaim_plan" not in vars(policy)


def test_parallel_calibration_waits_for_its_processes():
    with calibrate.Calibrator(parallel=2) as calibrator:
        times = calibrator.sample()
        assert len(multiprocessing.active_children()) == 2
    assert len(times) == 2 * calibrate.CALLS_BETWEEN_PASSES and all(t > 0 for t in times)
    assert multiprocessing.active_children() == []
    assert calibrate.host_scale([calibrate.NOMINAL_S] * 3) == 1.0
