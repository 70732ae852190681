"""Exact bits of the water-fill solver, pinned by digest.

The float-list solver in ``repro.core.deflation`` is a port of an earlier
NumPy implementation and reproduces it bit for bit.  The pinned reference
simulator shares this solver, so live == reference cannot catch last-bit
drift in it; this test can.  ``waterfill_digests.json`` holds one sha256
per instance over the float64 bytes of the reclaim vectors that the NumPy
solver returned (recorded with numpy 2.4.6):

* ``waterfill``: 240 seeded ``_random_instance`` pools (all six shapes of
  ``test_waterfill_equivalence.py``), each solved by one ``_WaterfillPlan``
  at every ``_amounts`` value;
* ``policy``: the ``reclaim_plan`` solves of
  ``test_reclaim_plan_matches_trusted_entry`` (60 seeded pools, six
  ``required`` values, the ``satisfied`` flag hashed too) for the priority,
  priority-eq3 and proportional policies.

Re-record the fixture (``PYTHONPATH=src python tests/core/test_waterfill_digests.py``)
only for a deliberate numerical change, and log it in docs/performance.md
("Deliberate numerical changes").
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.deflation import _WaterfillPlan, get_policy

from test_waterfill_equivalence import (
    PRIORITY_LEVELS,
    SEED,
    _amounts,
    _random_instance,
)

FIXTURE = Path(__file__).with_name("waterfill_digests.json")
N_WATERFILL = 240
N_POLICY = 60
POLICIES = ("priority", "priority-eq3", "proportional")


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def waterfill_digests() -> list[str]:
    rng = np.random.default_rng(SEED + 7)
    out = []
    for trial in range(N_WATERFILL):
        base, weight, cap = _random_instance(rng, trial)
        plan = _WaterfillPlan(base.tolist(), weight.tolist(), cap.tolist())
        h = hashlib.sha256()
        for amount in _amounts(rng, cap):
            h.update(_bytes(plan.reclaim(amount)))
        out.append(h.hexdigest())
    return out


def policy_digests(name: str) -> list[str]:
    policy = get_policy(name)
    rng = np.random.default_rng(SEED + 5)
    out = []
    for _ in range(N_POLICY):
        n = int(rng.integers(1, 30))
        caps = rng.integers(1, 33, n).astype(np.float64)
        mins = caps * rng.uniform(0.0, 0.9, n)
        prios = rng.choice(PRIORITY_LEVELS, n)
        plan = policy.reclaim_plan(caps.tolist(), mins.tolist(), prios.tolist())
        floor = getattr(policy, "priority_floor", False)
        eff_min = np.maximum(mins, prios * caps) if floor else mins
        pool_total = float((caps - eff_min).sum())
        h = hashlib.sha256()
        for required in (-1.0, 0.0, 0.3 * pool_total, 0.9 * pool_total,
                         pool_total, float(caps.sum())):
            reclaimed, satisfied = plan(required)
            h.update(_bytes(reclaimed))
            h.update(b"\x01" if satisfied else b"\x00")
        out.append(h.hexdigest())
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_waterfill_plan_reproduces_pinned_bits(pinned):
    got = waterfill_digests()
    bad = [i for i, (a, b) in enumerate(zip(got, pinned["waterfill"])) if a != b]
    assert len(got) == len(pinned["waterfill"])
    assert not bad, f"seed={SEED + 7}: trials {bad} differ from the pinned bits"


@pytest.mark.parametrize("name", POLICIES)
def test_reclaim_plan_reproduces_pinned_bits(pinned, name):
    got = policy_digests(name)
    bad = [i for i, (a, b) in enumerate(zip(got, pinned["policy"][name])) if a != b]
    assert len(got) == len(pinned["policy"][name])
    assert not bad, f"{name} seed={SEED + 5}: trials {bad} differ from the pinned bits"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        "numpy": np.__version__,
        "waterfill": waterfill_digests(),
        "policy": {name: policy_digests(name) for name in POLICIES},
    }, indent=1) + "\n")
