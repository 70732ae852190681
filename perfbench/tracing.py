"""In-memory spans around the simulator's public seams.

The benchmark never edits ``src/``: a :class:`Tracer` wraps the calls into
each layer from the outside, records one span per coarse call (trace
synthesis, simulator build/run/collect, sweeps, snapshot capture/restore)
and rolls hot per-call seams (scorer, admission, policy plans and solves,
preemption victim plans, collector hooks, cache get/put) up into the
enclosing span as ``(calls, busy seconds)`` pairs.  One span per scorer
call would be ~18k spans per replay and would cost more than the work it
times.

Wrapping rules that keep the traced run on the untraced code path:

* component methods are wrapped on the *instance* after construction — a
  timing ``MetricsCollector`` would switch off batched departures, and a
  timing subclass would fail the admission controller's exact type check;
* every patch is recorded and undone when the tracer closes, in reverse
  order.  ``get_policy`` hands out one shared registry instance, so a
  ``reclaim_plan`` wrapper left behind would wrap itself on the next run;
  :meth:`Tracer.patch` refuses to wrap a wrapper.

Worker processes of a sweep run :func:`traced_run_scenario`, which records
its own spans and ships them back attached to the returned result (an
attribute outside the dataclass fields, so equality, caching and
journaling never see it).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from repro.registry import create
from repro.scenario.results import ScenarioResult
from repro.simulator.cluster_sim import ClusterSimulator

_WRAPPED = "__perfbench_wrapper__"

#: Attribute carrying a worker's spans back on a ScenarioResult.
SPANS_ATTR = "_perfbench_spans"


class Span:
    """One timed call: ``rollups`` maps a hot seam to ``[calls, busy_s]``."""

    __slots__ = ("id", "name", "start", "end", "parent", "scope", "rollups", "attrs")

    def __init__(self, id, name, start, parent, scope):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.scope = scope
        self.rollups: dict[str, list] = {}
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "scope": self.scope,
            "rollups": self.rollups,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(d["id"], d["name"], d["start"], d["parent"], d["scope"])
        span.end = d["end"]
        span.rollups = {k: list(v) for k, v in d["rollups"].items()}
        span.attrs = dict(d["attrs"])
        return span


class Tracer:
    """Span recorder plus the patch ledger that must be empty after a run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, scope: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if scope is None and parent is not None:
            scope = parent.scope
        span = Span(len(self.spans), name, time.perf_counter(), parent and parent.id, scope)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def spanned(self, name: str, fn):
        """``fn`` wrapped so that every call is one span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def rollup(self, name: str, fn):
        """``fn`` wrapped so that calls accumulate into the innermost open span."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                rollups = self._stack[-1].rollups
                acc = rollups.get(name)
                if acc is None:
                    rollups[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    # -- patches ---------------------------------------------------------------

    def patch(self, obj, attr: str, value) -> None:
        """Set ``obj.attr = value`` until the tracer closes."""
        if getattr(getattr(obj, attr, None), _WRAPPED, False):
            raise RuntimeError(f"{obj!r}.{attr} is already wrapped by a tracer")
        own = vars(obj)
        had = attr in own
        self._patches.append((obj, attr, had, own.get(attr)))
        setattr(obj, attr, value)

    def unpatch_all(self) -> None:
        while self._patches:
            obj, attr, had, old = self._patches.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    @property
    def active_patches(self) -> int:
        return len(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch_all()

    # -- shipping --------------------------------------------------------------

    def export(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]

    def adopt(self, exported: list[dict], parent: Span | None, scope: str) -> None:
        """Graft spans recorded in another process under ``parent``."""
        offset = len(self.spans)
        for d in exported:
            span = Span.from_dict(d)
            span.id += offset
            span.parent = (parent and parent.id) if span.parent is None else span.parent + offset
            span.scope = scope
            self.spans.append(span)


# -- per-layer instrumentation ----------------------------------------------------


def instrument_simulator(tr: Tracer, sim) -> None:
    """Wrap one built ``ClusterSimulator``'s components on their instances."""
    tr.patch(sim._scorer, "score", tr.rollup("scorer", sim._scorer.score))
    tr.patch(sim._admission, "feasible", tr.rollup("admission", sim._admission.feasible))
    policy = sim._policy
    if policy is not None:
        build_plan = tr.rollup("policy.plan", policy.reclaim_plan)

        def reclaim_plan(*args, **kwargs):
            return tr.rollup("policy.solve", build_plan(*args, **kwargs))

        setattr(reclaim_plan, _WRAPPED, True)
        tr.patch(policy, "reclaim_plan", reclaim_plan)
    else:
        tr.patch(sim, "_plan_victims", tr.rollup("preemption.plan", sim._plan_victims))
    for collector in sim._collectors:
        for hook in [name for name in dir(collector) if name.startswith("on_")]:
            tr.patch(collector, hook, tr.rollup("collectors", getattr(collector, hook)))
    tr.patch(sim, "_collect", tr.spanned("simulator.collect", sim._collect))
    if sim._injector is not None:
        tr.patch(sim._injector, "schedule", tr.spanned("failures.schedule", sim._injector.schedule))


def annotate_run(span, result, events: int) -> None:
    """Record a replay's outcome counts on its ``simulator.run`` span."""
    if span is None:
        return
    span.attrs.update(
        events=events,
        placed=result.n_placed,
        rejected=result.n_rejected_deflatable + result.n_rejected_on_demand,
        preempted=result.n_preempted,
    )
    failures = result.collected.get("failure-injection")
    if failures is not None:
        span.attrs.update(
            revocations=failures["revocations"],
            evacuations=failures["evacuated"],
            arrivals=failures["server_arrivals"],
            requeues=failures["recovered"] + failures["requeue_lost"],
        )


def traced_run_scenario(scenario):
    """``run_scenario`` with spans; the sweep's worker function when traced.

    Takes the same steps as ``ClusterSimEngine.run`` (build, then run) so
    the traced worker replays exactly what an untraced one does.
    """
    engine = create("engine", scenario.engine)
    with Tracer() as tr:
        with tr.span("runtime.task", scope=scenario.name):
            tr.patch(
                ClusterSimulator,
                "restore",
                tr.spanned("snapshot.restore", ClusterSimulator.restore),
            )
            with tr.span("engine.build"):
                sim = engine.build(scenario)
            instrument_simulator(tr, sim)
            with tr.span("simulator.run") as run_span:
                result = ScenarioResult(scenario=scenario, sim=sim.run())
            at = scenario.checkpoint.at if scenario.checkpoint is not None else -1.0
            events = int((sim.vm_start >= at).sum() + (sim.vm_end >= at).sum())
            annotate_run(run_span, result.sim, events)
    object.__setattr__(result, SPANS_ATTR, tr.export())
    return result
