"""The benchmark's workloads: one cold pass each, optionally traced.

A *pass* is everything a user waits for, from an empty process cache to
the last result: trace synthesis, simulator construction, replay, metric
collection, and for the sweep workload fan-out, cache I/O and snapshot
transport.  :func:`run_pass` returns its host-time figures and the
results that the output checks compare.

Workloads (see ``NOTES.md`` for why each exists):

* ``replay-deflation`` — 10k-VM Azure trace, flat ``ClusterSimulator``
  replays of priority@oc0.6 and proportional@oc0.3.
* ``replay-preemption`` — the same trace, preemption@oc0.3 and @oc0.6.
* ``churn-sweep`` — a 2.5k-VM declarative workload: a 3-policy x 4-regime
  ``run_sweep`` into a fresh on-disk ``SweepCache``, the same grid again
  through a new cache instance (all disk hits), and a ``fork_sweep`` of a
  failure-free priority base at mid-horizon into six what-if branches.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.scenario import engine, sweep
from repro.scenario.cache import SweepCache
from repro.scenario.engine import ClusterSimEngine, resolve_cluster
from repro.scenario.scenario import Scenario
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

from perfbench.tracing import (
    SPANS_ATTR,
    Tracer,
    annotate_run,
    instrument_simulator,
    traced_run_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Pinned so that ``REPRO_START_METHOD`` cannot change what is measured.
START_METHOD = "fork"

REPLAY_VMS = 10_000
CHURN_VMS = 2_500

REPLAY_CASES = {
    "replay-deflation": (("priority", 0.6), ("proportional", 0.3)),
    "replay-preemption": (("preemption", 0.3), ("preemption", 0.6)),
}
WORKLOADS = (*REPLAY_CASES, "churn-sweep")

CHURN_POLICIES = ("proportional", "priority", "preemption")
CHURN_OC = 0.3
CHURN_RATE = 0.002
CHURN_COLLECTORS = ("event-counts", "failure-log")


def worker_count() -> int:
    return max(1, len(os.sched_getaffinity(0)))


def parallelism(workload: str) -> int:
    """Processes a workload keeps busy at once."""
    return worker_count() if workload == "churn-sweep" else 1


def clear_caches() -> None:
    """Drop the per-process workload memo; fresh traces carry no p95 cache."""
    engine._cached_workload.cache_clear()


def _span(tr: Tracer | None, name: str, scope: str | None = None):
    return nullcontext() if tr is None else tr.span(name, scope)


@dataclass
class Pass:
    wall_s: float
    setup_s: float
    #: Seconds inside replays (``run()``); the sweep workload's dispatch phases.
    run_s: float
    events: int
    scenarios: int
    #: Comparable outputs: equal across passes, and traced == untraced.
    outputs: list
    extra: dict = field(default_factory=dict)


# -- replay workloads ---------------------------------------------------------------


def replay_pass(workload: str, seed: int, tr: Tracer | None = None, n_vms: int = REPLAY_VMS):
    clear_caches()
    t0 = time.perf_counter()
    setup_s = None
    run_s = 0.0
    results = []
    with _span(tr, "bench.pass", workload):
        with _span(tr, "traces.synthesize") as span:
            traces = synthesize_azure_trace(AzureTraceConfig(n_vms=n_vms, seed=seed))
            if span is not None:
                span.attrs["vms"] = len(traces)
        events = 2 * len(traces)
        for policy, oc in REPLAY_CASES[workload]:
            scope = f"{policy}@oc{oc}"
            with _span(tr, "simulator.build", scope):
                config = ClusterSimConfig(
                    n_servers=servers_for_overcommitment(traces, oc), policy=policy
                )
                sim = ClusterSimulator(traces, config)
            if tr is not None:
                instrument_simulator(tr, sim)
            if setup_s is None:
                setup_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            with _span(tr, "simulator.run", scope) as span:
                result = sim.run()
            run_s += time.perf_counter() - t1
            annotate_run(span, result, events)
            results.append(result)
            del sim
    wall_s = time.perf_counter() - t0
    return Pass(
        wall_s=wall_s,
        setup_s=setup_s,
        run_s=run_s,
        events=events * len(results),
        scenarios=len(results),
        outputs=results,
    )


# -- churn sweep ----------------------------------------------------------------------


def churn_base(seed: int, n_vms: int):
    return (
        Scenario(name="churn")
        .with_workload("azure", n_vms=n_vms, seed=seed)
        .with_overcommitment(CHURN_OC)
    )


def churn_grid(base, seed: int) -> list:
    """{proportional, priority, preemption} x four churn regimes."""
    fseed = seed + 17
    regimes = {
        "spot-evacuate": lambda s: s.with_failures(
            "spot", rate=CHURN_RATE, seed=fseed, response="evacuate"
        ),
        "correlated-warned": lambda s: s.with_topology(racks=8).with_failures(
            "correlated-spot",
            rate=CHURN_RATE,
            seed=fseed,
            response="evacuate",
            warning_intervals=3,
            evacuation_budget=4,
        ),
        "elastic": lambda s: s.with_failures(
            "elastic-pool", rate=CHURN_RATE, arrival_rate=0.01, seed=fseed, response="evacuate"
        ),
        "spot-kill": lambda s: s.with_failures(
            "spot", rate=CHURN_RATE, seed=fseed, response="kill", restart_delay=2
        ),
    }
    base = base.with_collectors(*CHURN_COLLECTORS)
    return [
        apply(base.with_policy(policy)).named(f"{policy}/{regime}")
        for policy in CHURN_POLICIES
        for regime, apply in regimes.items()
    ]


def fork_variants(fork_base, n_servers: int, at: float, seed: int) -> list:
    """Six trace-schedule what-ifs, every event past the boundary ``at``."""
    s0, s1, s2, s3 = (
        int(v) for v in np.random.default_rng(seed).choice(n_servers, size=4, replace=False)
    )

    def what_if(name, events, **extra):
        return fork_base.named(f"fork/{name}").with_failures(
            "trace-schedule", events=events, **extra
        )

    def revoke(server, dt):
        return {"t": at + dt, "server": server, "action": "revoke"}

    def dip(server, dt, scale, duration):
        return {
            "t": at + dt,
            "server": server,
            "action": "dip",
            "scale": scale,
            "duration": duration,
        }

    return [
        what_if("revoke", [revoke(s0, 5.0)]),
        what_if("multi-revoke", [revoke(s1, 5.0), revoke(s2, 20.0), revoke(s3, 40.0)]),
        what_if("kill-restart", [revoke(s0, 5.0)], response="kill", restart_delay=2),
        what_if("capacity-dip", [dip(s1, 10.0, 0.5, 24.0)]),
        what_if("dip-then-revoke", [dip(s2, 10.0, 0.6, 12.0), revoke(s3, 30.0)]),
        what_if("warned-revoke", [revoke(s0, 5.0)], warning_intervals=3, evacuation_budget=4),
    ]


#: The fork branch re-run cold and compared bit for bit.
COLD_CHECK_BRANCH = "fork/kill-restart"


def _trace_churn(tr: Tracer) -> None:
    """Parent-side patches of a traced churn pass (undone when ``tr`` closes)."""
    run_sweep = sweep.run_sweep

    def traced_run_sweep(*args, **kwargs):
        with tr.span("runtime.sweep") as span:
            span.attrs["workers"] = kwargs.get("workers") or 1
            results = run_sweep(*args, **kwargs)
        for result in results:
            spans = result.__dict__.pop(SPANS_ATTR, None)
            if spans:
                tr.adopt(spans, span, scope=result.scenario.name)
        return results

    capture = ClusterSimulator.snapshot

    def traced_snapshot(sim):
        with tr.span("snapshot.capture") as span:
            snap = capture(sim)
        span.attrs["bytes"] = len(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))
        return snap

    tr.patch(sweep, "run_scenario", traced_run_scenario)
    tr.patch(sweep, "run_sweep", traced_run_sweep)
    prefix = tr.spanned("snapshot.prefix", ClusterSimulator.run_until)
    tr.patch(ClusterSimulator, "run_until", prefix)
    tr.patch(ClusterSimulator, "snapshot", traced_snapshot)


def _trace_cache(tr: Tracer | None, cache) -> None:
    if tr is not None:
        tr.patch(cache, "get", tr.rollup("cache.get", cache.get))
        tr.patch(cache, "put", tr.rollup("cache.put", cache.put))


def _count_events(traces, at: float) -> tuple[int, int]:
    """Trace events (VM starts + ends) before and at-or-after ``at``."""
    before = sum(int(r.start_interval < at) + int(r.end_interval < at) for r in traces)
    return before, 2 * len(traces) - before


def churn_pass(seed: int, tr: Tracer | None = None, n_vms: int = CHURN_VMS, tag: str = "0"):
    workers = worker_count()
    cache_dir = OUT_DIR / f"cache-{os.getpid()}-{tag}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    clear_caches()
    base = churn_base(seed, n_vms)
    fork_base = base.named("fork-base").with_policy("priority")
    grid = churn_grid(base, seed)
    if tr is not None:
        _trace_churn(tr)
    try:
        t0 = time.perf_counter()
        with _span(tr, "bench.pass", "churn-sweep"):
            # Setup: synthesize the shared trace and build once in the parent,
            # so forked workers inherit the workload memo and the p95 cache.
            with _span(tr, "traces.synthesize") as span:
                traces, n_servers = resolve_cluster(fork_base)
                if span is not None:
                    span.attrs["vms"] = len(traces)
            with _span(tr, "simulator.build"):
                ClusterSimEngine().build(fork_base)
            at = float(traces.horizon() // 2)
            variants = fork_variants(fork_base, n_servers, at, seed)
            setup_s = time.perf_counter() - t0

            cold_cache = SweepCache(cache_dir)
            _trace_cache(tr, cold_cache)
            t1 = time.perf_counter()
            cold = sweep.run_sweep(
                grid, workers=workers, cache=cold_cache, start_method=START_METHOD,
                on_error="collect",
            )
            sweep_s = time.perf_counter() - t1

            warm_cache = SweepCache(cache_dir)
            _trace_cache(tr, warm_cache)
            warm = sweep.run_sweep(
                grid, workers=workers, cache=warm_cache, start_method=START_METHOD,
                on_error="collect",
            )

            t2 = time.perf_counter()
            with _span(tr, "scenario.fork_sweep"):
                forked = sweep.fork_sweep(
                    fork_base, variants, at=at, workers=workers, start_method=START_METHOD,
                    on_error="collect",
                )
            fork_s = time.perf_counter() - t2
        wall_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    before, after = _count_events(traces, at)
    events = len(grid) * 2 * len(traces) + before + len(variants) * after
    return Pass(
        wall_s=wall_s,
        setup_s=setup_s,
        run_s=sweep_s + fork_s,
        events=events,
        scenarios=sum(1 for r in (*cold, *warm, *forked) if r.ok),
        outputs=[r.sim for r in (*cold, *forked)],
        extra={
            "cold": cold,
            "warm": warm,
            "forked": forked,
            "variants": variants,
            "cache": [cold_cache.stats(), warm_cache.stats()],
        },
    )


def run_pass(
    workload: str, seed: int, tr: Tracer | None = None, tag: str = "0", n_vms: int | None = None
) -> Pass:
    """One cold pass; ``n_vms`` overrides the workload's trace size."""
    if workload == "churn-sweep":
        return churn_pass(seed, tr, n_vms=n_vms or CHURN_VMS, tag=tag)
    return replay_pass(workload, seed, tr, n_vms=n_vms or REPLAY_VMS)
