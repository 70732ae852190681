"""Pluggable components of the trace-driven cluster simulator.

:class:`~repro.simulator.cluster_sim.ClusterSimulator` used to inline three
separable decisions in its event loop: *can this VM be admitted at all*
(feasibility), *which feasible server should take it* (scoring — the cosine
ranking was duplicated at two call sites), and *what gets recorded along the
way* (metrics).  Each is now a named component resolved through the unified
registry, so new admission rules, placement heuristics, and measurement
hooks attach to the simulator without editing the event loop:

* ``admission`` — :class:`AdmissionController`; filters candidate servers
  down to those allowed to take the VM;
* ``scorer`` — :class:`PlacementScorer`; scores normalized availability
  vectors against the VM's normalized demand (argmax wins);
* ``metrics`` — :class:`MetricsCollector`; observer hooks called on admit /
  reject / preempt / end / rebalance, with a ``finalize`` payload attached
  to the run's :class:`~repro.simulator.cluster_sim.ClusterSimResult`.

Components receive the simulator itself and read its documented array state
(``committed``, ``server_cap``, ``defl_cap``, ``defl_floor``, ``vm_caps``,
``vm_floor``); they must not mutate it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.placement import _checked_norm, _cosine_kernel
from repro.core.resources import NUM_RESOURCES
from repro.errors import SimulationError
from repro.registry import register

#: Feasibility slack shared with the simulator's float comparisons.
_EPS = 1e-9

#: Distinct demand shapes :class:`CosineScorer` keeps precomputed.
_DEMAND_CACHE_SIZE = 256


# -- admission control -------------------------------------------------------------


class AdmissionController(abc.ABC):
    """Decides which candidate servers may admit an arriving VM."""

    name: str = "abstract"

    @abc.abstractmethod
    def feasible(self, sim, vm: int, candidates: np.ndarray) -> np.ndarray:
        """Subset of ``candidates`` (server indices) that can take VM ``vm``.

        Returning an empty array rejects the VM at admission control.
        """


@register("admission", "deflation-aware")
class DeflationAwareAdmission(AdmissionController):
    """The paper's rule: admit if deflating residents can make room.

    A server is feasible when ``committed + demand - capacity`` fits inside
    its reclaimable pool; an arriving deflatable VM's own pool counts too
    ("a VM can start its execution in a deflated mode", Section 5.1.1).
    """

    name = "deflation-aware"

    def feasible(self, sim, vm, candidates):
        demand = sim.vm_caps[vm]
        extra_pool = (
            (sim.vm_caps[vm] - sim.vm_floor[vm]) if sim.vm_deflatable[vm] else 0.0
        )
        if candidates.shape[0] == sim.committed.shape[0]:
            # Whole cluster: row i is server i, so the per-server gathers
            # (four fancy-indexed copies per arrival) can be skipped.
            reclaimable = sim.defl_cap - sim.defl_floor + extra_pool
            overflow = sim.committed + demand - sim.server_cap
        else:
            reclaimable = (
                sim.defl_cap[candidates] - sim.defl_floor[candidates] + extra_pool
            )
            overflow = sim.committed[candidates] + demand - sim.server_cap[candidates]
        return candidates[(overflow <= reclaimable + _EPS).all(axis=1)]


@register("admission", "rigid")
class RigidAdmission(AdmissionController):
    """Baseline: admit only into genuinely free capacity (no deflation).

    Turns the simulator into a classic no-overcommitment packer — useful for
    ablations isolating how much of the win comes from deflation-aware
    admission rather than from deflation at runtime.
    """

    name = "rigid"

    def feasible(self, sim, vm, candidates):
        demand = sim.vm_caps[vm]
        fits = (
            sim.committed[candidates] + demand <= sim.server_cap[candidates] + _EPS
        ).all(axis=1)
        return candidates[fits]


# -- placement scoring -------------------------------------------------------------


class PlacementScorer(abc.ABC):
    """Scores candidate servers; the simulator picks the argmax."""

    name: str = "abstract"

    @abc.abstractmethod
    def score(self, demand_norm: np.ndarray, avail_norm: np.ndarray) -> np.ndarray:
        """Score each availability row against the demand.

        ``demand_norm`` has shape ``(dims,)`` and ``avail_norm`` has shape
        ``(n_candidates, dims)``; both are expressed as capacity fractions so
        scorers compare shapes, not raw units.  Higher is better; ties break
        toward the lower server index (``np.argmax`` semantics).  Both may
        be views of the simulator's cached state: read them, never write.
        """


@register("scorer", "cosine")
class CosineScorer(PlacementScorer):
    """The paper's Tetris-style cosine fitness (Section 5.2).

    This is the ranking previously inlined at both the deflation and the
    preemption call sites of the event loop; the vectors are padded to
    ``NUM_RESOURCES`` dimensions to reuse the shared scoring kernel.
    """

    name = "cosine"

    def __init__(self) -> None:
        # Reused padding buffer: scoring runs once per arrival, and the
        # per-call np.zeros + np.concatenate used to dominate its cost.  The
        # padded layout itself is kept — BLAS results are bit-sensitive to
        # the operand width, and the golden tests pin the padded scores.
        self._avail_buf = np.zeros((0, NUM_RESOURCES))
        #: Padded demand vector and its norm per distinct demand row (a
        #: trace has a handful of VM shapes; Azure's has nine).  Cleared
        #: when full, so a trace of continuous shapes stays bounded.
        self._demands: dict[bytes, tuple[np.ndarray, float]] = {}

    def score(self, demand_norm, avail_norm):
        demand_norm = np.asarray(demand_norm, dtype=np.float64)
        dims = demand_norm.shape[0]
        key = demand_norm.tobytes()
        cached = self._demands.get(key)
        if cached is None:
            if len(self._demands) >= _DEMAND_CACHE_SIZE:
                self._demands.clear()
            demand_full = np.zeros(NUM_RESOURCES)
            demand_full[:dims] = demand_norm
            cached = self._demands[key] = (demand_full, _checked_norm(demand_full))
        rows = avail_norm.shape[0]
        if self._avail_buf.shape[0] < rows:
            self._avail_buf = np.zeros((rows, NUM_RESOURCES))
        mat = self._avail_buf[:rows]
        mat[:, :dims] = avail_norm
        mat[:, dims:] = 0.0
        return _cosine_kernel(cached[0], mat, cached[1])


@register("scorer", "most-available")
class MostAvailableScorer(PlacementScorer):
    """Worst-fit baseline: prefer the server with the most total availability."""

    name = "most-available"

    def score(self, demand_norm, avail_norm):
        return avail_norm.sum(axis=1)


@register("scorer", "least-available")
class LeastAvailableScorer(PlacementScorer):
    """Best-fit baseline: pack tightly by preferring the least availability."""

    name = "least-available"

    def score(self, demand_norm, avail_norm):
        return -avail_norm.sum(axis=1)


# -- metrics collection ------------------------------------------------------------


class MetricsCollector:
    """Observer hooks over the simulation event loop.

    Subclasses override only the hooks they need; ``finalize`` returns the
    payload stored under the collector's name in
    ``ClusterSimResult.collected``.  Hooks are called *after* the
    simulator's own bookkeeping for the event, so the ``sim`` argument
    already reflects the event's effect (e.g. ``on_admit`` sees the VM in
    ``sim.residents[server]``).  Collectors read the simulator's
    documented array state but must never mutate it, and must not assume a
    particular engine: under the ``sharded`` engine each shard drives its
    own collector instance over shard-local indices, and the per-shard
    ``finalize`` payloads are folded together by :meth:`merge_shards`.
    """

    name: str = "abstract"
    #: Merge-discipline declaration (enforced statically by repro-lint):
    #: a concrete collector either overrides :meth:`merge_shards` or sets
    #: ``mergeable = False`` to state — in code, not prose — that its
    #: payload has no exact per-shard fold.  The sharded engine rejects
    #: ``mergeable = False`` collectors eagerly.
    mergeable: bool = True
    #: Snapshot-discipline declaration (enforced statically by repro-lint,
    #: ``collector-snapshot-discipline``): a concrete collector either
    #: overrides :meth:`snapshot` *and* :meth:`restore` or sets
    #: ``snapshottable = False`` to state that its run cannot be
    #: checkpointed.  ``ClusterSimulator.snapshot()`` rejects
    #: ``snapshottable = False`` collectors eagerly.
    snapshottable: bool = True

    def on_admit(self, t: float, vm: int, server: int, sim) -> None:
        """VM ``vm`` was admitted onto ``server`` at interval ``t``.

        Fires for trace arrivals and for failure-driven placements
        (evacuations off revoked servers, requeued restarts).
        """

    def on_reject(self, t: float, vm: int, sim) -> None:
        """Arriving VM ``vm`` was rejected at admission control.

        Only trace arrivals can be rejected; a failed evacuation or
        restart surfaces as :meth:`on_preempt` of the victim instead.
        """

    def on_preempt(self, t: float, vm: int, server: int, sim) -> None:
        """VM ``vm`` was terminated early on ``server``.

        Covers baseline preemptions (an on-demand arrival evicting
        deflatable residents), failure kills, lost evacuees, and dip-driven
        evictions under the preemption baseline.
        """

    def on_end(self, t: float, vm: int, server: int, sim) -> None:
        """VM ``vm`` reached its natural end of life on ``server``."""

    def on_rebalance(self, t: float, server: int, sim) -> None:
        """``server``'s deflatable allocations were recomputed.

        Fires after every admission and departure on a server hosting
        deflatable VMs — including the zero-pressure fast path, where the
        allocations are provably unchanged but observers still run.
        """

    def on_revocation(self, t: float, server: int, sim) -> None:
        """Transient ``server`` was revoked at interval ``t`` (failure injection).

        The server's capacity is already zeroed and it will never return;
        resident handling (evacuation or kill) follows this call, so the
        residents are still attached when the hook observes them.  Never
        fires on failure-free scenarios.
        """

    def on_capacity_dip(self, t: float, server: int, scale: float, sim) -> None:
        """``server``'s capacity was scaled to ``scale`` (failure injection).

        ``scale`` is the remaining capacity fraction in ``(0, 1)`` when a
        dip starts, and exactly ``1.0`` when it ends and full capacity is
        restored.  ``sim.server_cap[server]`` already reflects the new
        capacity; the squeeze/reinflate rebalance follows this call.
        Never fires on failure-free scenarios.
        """

    def on_server_arrival(self, t: float, server: int, sim) -> None:
        """A new ``server`` joined the cluster at interval ``t`` (elastic pools).

        The simulator's per-server arrays already include the arrival
        (``sim.server_cap[server]`` is its nominal shape) and it is a
        normal placement candidate from this instant.  Never fires on
        failure-free scenarios.
        """

    def on_evacuation_deadline(self, t: float, server: int, sim) -> None:
        """A draining ``server``'s warning window closed (failure injection).

        Fires after the stragglers that budgeted evacuation could not move
        were killed and the server's capacity was zeroed for good.  Only
        warned revocations (``warning_intervals``) produce deadlines; the
        preceding warning fired :meth:`on_revocation`.
        """

    def finalize(self, sim) -> object:
        """Payload stored under this collector's name in ``collected``."""
        return None

    def merge_shards(self, payloads: list, shards: list) -> object:
        """Fold per-shard ``finalize`` payloads into the flat-run payload.

        The ``sharded`` engine gives every shard its own collector
        instance; this hook must combine their payloads into exactly what
        one instance observing the flat run would have produced —
        remapping shard-local VM/server indices through ``shards`` (one
        map per payload, with ``vm_global``, ``server_offset`` and
        ``n_servers`` attributes) and restoring the global event order
        where the payload is order-sensitive.

        The default raises: a collector without an exact merge (e.g.
        ``timeline``, whose payload samples the *cluster-wide* committed
        series with no per-entry ordering key) is rejected by the sharded
        engine up front rather than silently mis-merged.
        """
        raise SimulationError(
            f"metrics collector {self.name!r} does not support sharded "
            "merging; run this scenario on the 'cluster-sim' engine"
        )

    def snapshot(self) -> object:
        """Image of the collector's mutable state, for a mid-run checkpoint.

        Called by :meth:`ClusterSimulator.snapshot` at an event boundary.
        The returned object must be a *copy* (never alias live state — the
        simulator keeps running after the snapshot) and must round-trip
        through :meth:`restore` on a fresh instance such that the restored
        collector's ``finalize`` is bit-identical to an uninterrupted run.

        The default raises: a collector holding mutable state without an
        exact snapshot (declared via ``snapshottable = False``) is rejected
        at snapshot time rather than silently resumed with reset state.
        """
        raise SimulationError(
            f"metrics collector {self.name!r} does not support snapshots; "
            "run this scenario without checkpoints"
        )

    def restore(self, state: object) -> None:
        """Reinstate a :meth:`snapshot` payload on a fresh instance."""
        raise SimulationError(
            f"metrics collector {self.name!r} does not support snapshots; "
            "run this scenario without checkpoints"
        )


@register("metrics", "event-counts")
class EventCountCollector(MetricsCollector):
    """Counts every event type the loop emits."""

    name = "event-counts"

    def __init__(self) -> None:
        self.counts = {
            "admit": 0,
            "reject": 0,
            "preempt": 0,
            "end": 0,
            "rebalance": 0,
        }

    def on_admit(self, t, vm, server, sim):
        self.counts["admit"] += 1

    def on_reject(self, t, vm, sim):
        self.counts["reject"] += 1

    def on_preempt(self, t, vm, server, sim):
        self.counts["preempt"] += 1

    def on_end(self, t, vm, server, sim):
        self.counts["end"] += 1

    def on_rebalance(self, t, server, sim):
        self.counts["rebalance"] += 1

    def finalize(self, sim):
        return dict(self.counts)

    def merge_shards(self, payloads, shards):
        """Integer counts over disjoint event partitions: sum per key."""
        merged = dict.fromkeys(self.counts, 0)
        for payload in payloads:
            for key, value in payload.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def snapshot(self):
        return dict(self.counts)

    def restore(self, state):
        self.counts = dict(state)


@register("metrics", "timeline")
class CommittedTimelineCollector(MetricsCollector):
    """Records the cluster's committed-CPU time series at every change.

    Payload: list of ``(interval, committed_cores)`` points, suitable for
    plotting utilization over the replay.

    Deliberately does **not** implement ``merge_shards``: each point
    samples the cluster-*wide* committed sum, and the entries carry no
    per-event ordering key, so per-shard series cannot be interleaved back
    into the flat run's exact point sequence.  ``mergeable = False``
    declares that (the collector-merge-discipline lint rule insists every
    collector choose); scenarios using it must run on the ``cluster-sim``
    engine — the sharded engine rejects it eagerly.
    """

    name = "timeline"
    mergeable = False

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []

    def _record(self, t: float, sim) -> None:
        # The optimized simulator maintains the committed-cores total
        # incrementally; read it instead of re-summing the per-server column
        # on every event (this collector fires on each admit/end, so the
        # O(n_servers) sum was the last per-event scan).  Core counts are
        # integers, so the running float64 total is exact and bit-identical
        # to the column sum — the golden suite pins that, because the
        # reference simulator lacks the scalar and takes the fallback.
        committed = getattr(sim, "_committed_cores", None)
        if committed is None:
            committed = float(sim.committed[:, 0].sum())
        self.points.append((t, float(committed)))

    def on_admit(self, t, vm, server, sim):
        self._record(t, sim)

    def on_preempt(self, t, vm, server, sim):
        self._record(t, sim)

    def on_end(self, t, vm, server, sim):
        self._record(t, sim)

    def finalize(self, sim):
        return list(self.points)

    def snapshot(self):
        # Unlike merging (no per-entry ordering key across shards), a
        # checkpoint is a clean temporal cut: the recorded prefix plus the
        # resumed suffix is exactly the uninterrupted series.
        return list(self.points)

    def restore(self, state):
        self.points = list(state)


@register("metrics", "failure-log")
class FailureLogCollector(MetricsCollector):
    """Records every injected infrastructure event, in event order.

    Payload: list of ``(interval, event, server, scale)`` tuples where
    ``event`` is ``"revoke"`` (for a warned revocation this is the warning
    instant), ``"dip"``, ``"arrive"``, or ``"deadline"`` (``scale`` is the
    remaining capacity fraction: a dip ending or an arrival reports
    ``1.0``, a revocation or deadline ``0.0``).  Only meaningful on
    scenarios with a ``failures`` spec — without injection the payload is
    an empty list.
    """

    name = "failure-log"

    def __init__(self) -> None:
        self.events: list[tuple[float, str, int, float]] = []

    def on_revocation(self, t, server, sim):
        self.events.append((t, "revoke", server, 0.0))

    def on_capacity_dip(self, t, server, scale, sim):
        self.events.append((t, "dip", server, float(scale)))

    def on_server_arrival(self, t, server, sim):
        self.events.append((t, "arrive", server, 1.0))

    def on_evacuation_deadline(self, t, server, sim):
        self.events.append((t, "deadline", server, 0.0))

    def finalize(self, sim):
        return list(self.events)

    def merge_shards(self, payloads, shards):
        """Remap servers to global indices, restore the global event order.

        Failure events sort by ``(t, kind, server)`` in the simulator's
        event stream; the kind is recoverable from the entry itself (the
        entry type plus the dip-end/dip-start split on ``scale == 1.0``),
        so the flat run's exact ordering can be reconstructed.  Server
        remapping goes through :meth:`ShardMap.to_global_server` because
        arrived servers live past the shard's contiguous base range.
        """
        # Deferred: the simulator module imports this one.
        from repro.simulator.cluster_sim import (
            _ARRIVAL,
            _DEADLINE,
            _DIP_END,
            _DIP_START,
            _REVOKE,
        )

        kinds = {"arrive": _ARRIVAL, "revoke": _REVOKE, "deadline": _DEADLINE}
        entries = []
        for payload, shard in zip(payloads, shards):
            for t, event, server, scale in payload:
                entries.append((t, event, shard.to_global_server(server), scale))

        def sort_key(entry):
            t, event, _server, scale = entry
            kind = kinds.get(event, _DIP_END if scale == 1.0 else _DIP_START)
            return (t, kind, entry[2])

        entries.sort(key=sort_key)
        return entries

    def snapshot(self):
        return list(self.events)

    def restore(self, state):
        self.events = list(state)


@register("metrics", "rejection-log")
class RejectionLogCollector(MetricsCollector):
    """Records each rejection as ``(interval, vm_index, deflatable)``."""

    name = "rejection-log"

    def __init__(self) -> None:
        self.rejections: list[tuple[float, int, bool]] = []

    def on_reject(self, t, vm, sim):
        self.rejections.append((t, vm, bool(sim.vm_deflatable[vm])))

    def finalize(self, sim):
        return list(self.rejections)

    def merge_shards(self, payloads, shards):
        """Remap VMs to global indices, restore the global event order.

        Rejections only happen at arrival (START) events, which sort by
        ``(t, vm)`` within one interval, so the merged order is exact.
        """
        entries = []
        for payload, shard in zip(payloads, shards):
            for t, vm, deflatable in payload:
                entries.append((t, int(shard.vm_global[vm]), deflatable))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return entries

    def snapshot(self):
        return list(self.rejections)

    def restore(self, state):
        self.rejections = list(state)
