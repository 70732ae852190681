"""The trusted fast entry must never bypass subclass policy overrides."""

import numpy as np
import pytest

from repro.core.deflation import (
    DeterministicPolicy,
    PriorityPolicy,
    ProportionalPolicy,
)

STOCK = [ProportionalPolicy, PriorityPolicy, DeterministicPolicy]


@pytest.mark.parametrize("base_cls", STOCK)
def test_trusted_matches_validated_for_stock_policies(base_cls):
    caps = np.array([8.0, 4.0, 2.0])
    mins = np.array([1.0, 0.5, 0.25])
    prios = np.array([0.2, 0.4, 0.8])
    policy = base_cls()
    a = policy.target_allocations(caps, mins, prios, 3.0)
    b = policy.target_allocations_trusted(caps, mins, prios, 3.0)
    assert a.reclaimed.tolist() == b.reclaimed.tolist()
    assert a.satisfied == b.satisfied


@pytest.mark.parametrize("base_cls", STOCK)
def test_trusted_honors_subclass_target_allocations(base_cls):
    class Custom(base_cls):
        name = "custom"

        def target_allocations(self, capacities, minimums, priorities, required):
            result = super().target_allocations(
                capacities, minimums, priorities, required
            )
            # A deliberately visible twist: everything doubled then clamped.
            twisted = np.minimum(result.reclaimed * 0.5, capacities)
            return type(result)(
                allocations=capacities - twisted,
                reclaimed=twisted,
                satisfied=result.satisfied,
            )

    caps = np.array([8.0, 4.0])
    mins = np.array([0.5, 0.5])
    prios = np.array([0.3, 0.6])
    custom = Custom()
    via_hook = custom.target_allocations(caps, mins, prios, 2.0)
    via_trusted = custom.target_allocations_trusted(caps, mins, prios, 2.0)
    assert via_trusted.reclaimed.tolist() == via_hook.reclaimed.tolist(), (
        "target_allocations_trusted must route through the subclass override"
    )


@pytest.mark.parametrize("base_cls", STOCK)
def test_reclaim_plan_matches_trusted_for_stock_policies(base_cls):
    caps = np.array([8.0, 4.0, 2.0])
    mins = np.array([1.0, 0.5, 0.25])
    prios = np.array([0.2, 0.4, 0.8])
    policy = base_cls()
    plan = policy.reclaim_plan(caps.tolist(), mins.tolist(), prios.tolist())
    for required in (-1.0, 0.0, 3.0, 50.0):
        one_shot = policy.target_allocations_trusted(caps, mins, prios, required)
        reclaimed, satisfied = plan(required)
        assert reclaimed == one_shot.reclaimed.tolist()
        assert satisfied == one_shot.satisfied


@pytest.mark.parametrize("base_cls", STOCK)
def test_reclaim_plan_honors_subclass_target_allocations(base_cls):
    """The cached plan path (like the trusted entry) must route subclass
    overrides through the documented hook, never the built-in fast math."""

    class Custom(base_cls):
        name = "custom"

        def target_allocations(self, capacities, minimums, priorities, required):
            result = super().target_allocations(
                capacities, minimums, priorities, required
            )
            twisted = np.minimum(result.reclaimed * 0.5, capacities)
            return type(result)(
                allocations=capacities - twisted,
                reclaimed=twisted,
                satisfied=result.satisfied,
            )

    caps = np.array([8.0, 4.0])
    mins = np.array([0.5, 0.5])
    prios = np.array([0.3, 0.6])
    custom = Custom()
    plan = custom.reclaim_plan(caps.tolist(), mins.tolist(), prios.tolist())
    via_hook = custom.target_allocations(caps, mins, prios, 2.0)
    assert plan(2.0)[0] == via_hook.reclaimed.tolist(), (
        "reclaim_plan must route through the subclass override"
    )
