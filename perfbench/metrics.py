"""End-to-end figures from untraced passes; per-layer figures from traced ones.

Every metric here is declared in ``BENCHMARK.json``; the two tuples below
are the order the runner prints them in.  Layers a workload never enters
report 0 (for example the policy layer on ``replay-preemption``): that
zero is the prediction an optimisation of the layer is checked against.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("replay_events_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric.
PER_LAYER = (
    ("traces.synthesize_s", "s"),
    ("traces.vms", "count"),
    ("simulator.build_s", "s"),
    ("simulator.run_s", "s"),
    ("simulator.self_s", "s"),
    ("simulator.collect_s", "s"),
    ("simulator.events", "count"),
    ("simulator.placed", "count"),
    ("simulator.rejected", "count"),
    ("simulator.preempted", "count"),
    ("scorer.calls", "count"),
    ("scorer.busy_s", "s"),
    ("admission.calls", "count"),
    ("admission.busy_s", "s"),
    ("collectors.hook_calls", "count"),
    ("collectors.busy_s", "s"),
    ("policy.plan_builds", "count"),
    ("policy.plan_build_s", "s"),
    ("policy.solves", "count"),
    ("policy.solve_s", "s"),
    ("policy.solves_per_build", "ratio"),
    ("preemption.plans", "count"),
    ("preemption.plan_s", "s"),
    ("failures.schedule_s", "s"),
    ("failures.revocations", "count"),
    ("failures.evacuations", "count"),
    ("failures.arrivals", "count"),
    ("failures.requeues", "count"),
    ("engine.build_s", "s"),
    ("cache.put_s", "s"),
    ("cache.get_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.corrupt", "count"),
    ("runtime.worker_busy_s", "s"),
    ("runtime.utilization", "ratio"),
    ("runtime.fanout_overhead_s", "s"),
    ("snapshot.prefix_s", "s"),
    ("snapshot.capture_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.restore_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child.

    Forked workers share pages with the parent, so the sum is an upper
    bound on the concurrent footprint.  Linux reports ``ru_maxrss`` in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes, scales) -> dict[str, float]:
    """Medians over the untraced passes of one run, in nominal-host seconds.

    ``scales[i]`` turns pass ``i``'s host seconds into those of the
    nominal host (``calibrate.host_scale``); memory is not rescaled.
    """
    med = statistics.median
    both = list(zip(passes, scales))
    return {
        "wall_s": med(p.wall_s * k for p, k in both),
        "setup_s": med(p.setup_s * k for p, k in both),
        "replay_events_per_s": med(p.events / (p.run_s * k) for p, k in both),
        "scenarios_per_s": med(p.scenarios / (p.wall_s * k) for p, k in both),
        "peak_rss_mb": peak_rss_mb(),
    }


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: span time not covered by child spans or rollups.

    Children of one span may overlap (sweep tasks run in parallel
    workers), so coverage is the union of their intervals.  Rolled-up
    seams are sequential calls inside one span; each counts as its own
    layer.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        busy = sum(acc[1] for acc in span.rollups.values())
        covered = _covered(children.get(span.id, ()), span.start, span.end)
        out[span.name] += span.duration - covered - busy
        for seam, acc in span.rollups.items():
            out[seam] += acc[1]
    return dict(out)


def layer_metrics(tracer, cache_stats=()) -> dict[str, float]:
    """Per-layer figures of one traced pass (overhead figures added later)."""
    spans = tracer.spans
    dur: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    rolls: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        dur[span.name] += span.duration
        for seam, (calls, busy) in span.rollups.items():
            rolls[seam][0] += calls
            rolls[seam][1] += busy
        if span.name in ("simulator.run", "traces.synthesize", "snapshot.capture"):
            for key, value in span.attrs.items():
                attrs[key] += value

    busy = capacity = overhead = 0.0
    by_id = {span.id: span for span in spans}
    tasks = defaultdict(list)
    for span in spans:
        if span.name == "runtime.task" and span.parent is not None:
            tasks[span.parent].append(span.duration)
    for parent_id, durations in tasks.items():
        sweep = by_id[parent_id]
        workers = sweep.attrs.get("workers", 1)
        busy += sum(durations)
        capacity += workers * sweep.duration
        overhead += sweep.duration - sum(durations) / workers

    plans, solves = rolls["policy.plan"], rolls["policy.solve"]
    cache = defaultdict(int)
    for stats in cache_stats:
        for key in ("hits", "misses", "corrupt"):
            cache[key] += stats[key]
    return {
        "traces.synthesize_s": dur["traces.synthesize"],
        "traces.vms": attrs["vms"],
        "simulator.build_s": dur["simulator.build"],
        "simulator.run_s": dur["simulator.run"],
        "simulator.self_s": self_times(spans).get("simulator.run", 0.0),
        "simulator.collect_s": dur["simulator.collect"],
        "simulator.events": attrs["events"],
        "simulator.placed": attrs["placed"],
        "simulator.rejected": attrs["rejected"],
        "simulator.preempted": attrs["preempted"],
        "scorer.calls": rolls["scorer"][0],
        "scorer.busy_s": rolls["scorer"][1],
        "admission.calls": rolls["admission"][0],
        "admission.busy_s": rolls["admission"][1],
        "collectors.hook_calls": rolls["collectors"][0],
        "collectors.busy_s": rolls["collectors"][1],
        "policy.plan_builds": plans[0],
        "policy.plan_build_s": plans[1],
        "policy.solves": solves[0],
        "policy.solve_s": solves[1],
        "policy.solves_per_build": solves[0] / plans[0] if plans[0] else 0.0,
        "preemption.plans": rolls["preemption.plan"][0],
        "preemption.plan_s": rolls["preemption.plan"][1],
        "failures.schedule_s": dur["failures.schedule"],
        "failures.revocations": attrs["revocations"],
        "failures.evacuations": attrs["evacuations"],
        "failures.arrivals": attrs["arrivals"],
        "failures.requeues": attrs["requeues"],
        "engine.build_s": dur["engine.build"],
        "cache.put_s": rolls["cache.put"][1],
        "cache.get_s": rolls["cache.get"][1],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.corrupt": cache["corrupt"],
        "runtime.worker_busy_s": busy,
        "runtime.utilization": busy / capacity if capacity else 0.0,
        "runtime.fanout_overhead_s": overhead,
        "snapshot.prefix_s": dur["snapshot.prefix"],
        "snapshot.capture_s": dur["snapshot.capture"],
        "snapshot.bytes": attrs["bytes"],
        "snapshot.restore_s": dur["snapshot.restore"],
        "trace.spans": len(spans),
    }
