"""Output checks: every run verifies what it simulated, outside the timed region.

* Replays are re-run at reduced size on the pinned
  ``ReferenceClusterSimulator`` and must equal the live simulator exactly.
* Full-size replay statistics are compared with the values recorded in
  ``golden.json`` for the seeds recorded there: counts exactly, floats
  within the 1e-9 relative tolerance ``docs/performance.md`` allows for
  deliberate numerical changes.
* Repeated passes of one run must reproduce the first pass bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
# The benchmark checks the live simulator against the pinned reference,
# as benchmarks/ does.
from repro.simulator.reference import ReferenceClusterSimulator  # repro-lint: disable=golden-freeze
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Reduced trace size for the pinned-reference comparison.
REFERENCE_VMS = 1500

FLOAT_TOL = 1e-9

_COUNTS = (
    "n_vms",
    "n_deflatable",
    "n_placed",
    "n_rejected_deflatable",
    "n_rejected_on_demand",
    "n_preempted",
    "n_reclaim_failures",
)
_FLOATS = ("peak_committed_cores", "total_capacity_cores", "throughput_loss", "mean_deflation")


class Ledger:
    """Counts attempts and failures: scenarios run and checks made."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def result_stats(result) -> dict:
    """The comparable statistics of one ``ClusterSimResult``."""
    stats = {name: int(getattr(result, name)) for name in _COUNTS}
    for name in _FLOATS:
        stats[name] = float(getattr(result, name))
    for name, value in sorted(result.revenue.items()):
        stats[f"revenue.{name}"] = float(value)
    return stats


def stats_mismatches(got: dict, want: dict) -> list[str]:
    out = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            out.append(f"{key}: missing")
            continue
        g, w = got[key], want[key]
        if isinstance(w, int) and not isinstance(w, bool):
            ok = g == w
        else:
            ok = math.isclose(g, w, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
        if not ok:
            out.append(f"{key}: got {g!r}, recorded {w!r}")
    return out


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def golden_for(workload: str, seed: int, n_vms: int) -> list[dict] | None:
    """Recorded per-case statistics for this workload and seed, if any."""
    table = load_golden()
    if table.get("n_vms") != n_vms:
        return None
    return table.get("seeds", {}).get(str(seed), {}).get(workload)


def check_against_reference(ledger: Ledger, seed: int, cases, n_vms: int = REFERENCE_VMS) -> None:
    """Live simulator == pinned reference on a reduced trace of the same seed."""
    traces = synthesize_azure_trace(AzureTraceConfig(n_vms=n_vms, seed=seed))
    for policy, oc in cases:
        config = ClusterSimConfig(n_servers=servers_for_overcommitment(traces, oc), policy=policy)
        live = ClusterSimulator(traces, config).run()
        pinned = ReferenceClusterSimulator(traces, config).run()
        ledger.check(live == pinned, f"{policy}@oc{oc}: live != reference at {n_vms} VMs")


def check_against_golden(ledger: Ledger, workload: str, seed: int, n_vms: int, results) -> None:
    """Compare with the recorded values, when ``seed`` has any."""
    want = golden_for(workload, seed, n_vms)
    if want is None:
        return
    ledger.check(len(want) == len(results), f"golden: {len(results)} cases, {len(want)} recorded")
    for recorded, result in zip(want, results):
        bad = stats_mismatches(result_stats(result), recorded)
        ledger.check(not bad, f"golden seed {seed}: " + "; ".join(bad[:4]))
