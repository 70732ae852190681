"""Trace-driven cluster simulation (Section 7.4 of the paper).

Replays an Azure-style VM trace against a cluster of identical servers under
a deflation policy (or the preemption baseline), measuring:

* **failure probability** (Figure 20) — the probability that a deflatable
  VM is either refused at admission because no server can reclaim enough
  resources, or (baseline) preempted during its lifetime;
* **throughput loss** (Figure 21) — lost work as a fraction of demanded
  work, where a VM loses work whenever its CPU usage exceeds its deflated
  allocation (the area above the allocation in Figure 4);
* **revenue** (Figure 22) — deflatable-VM revenue under the static /
  priority / allocation pricing models, normalized per server so shrinking
  the cluster (raising overcommitment) shows up as a revenue-density gain.

Following the paper's setup (Section 7.1.2): interactive VMs are deflatable,
batch/unknown VMs are on-demand; priorities come from the 95th-percentile
CPU usage (4 levels); bin-packing and deflation consider CPU cores and
memory; the same trace is replayed while the server count shrinks to raise
overcommitment.

Every replay — one-shot, streamed, resumed from a snapshot, failure-
injected, or one shard of the sharded engine — runs through one event
stepper (:meth:`ClusterSimulator._advance`): the sorted VM start/end arrays
merged with a small heap holding the failure schedule of an attached
:class:`~repro.failures.injector.FailureInjector` (see
:meth:`ClusterSimulator.attach_failures`) and its dynamic pushes.  Without
an injector the heap is simply empty.

Hot-path design (profiled on 20k-VM traces; every change is bit-identical
to :mod:`repro.simulator.reference`, the pinned pre-optimization snapshot —
see ``tests/simulator/test_golden_equivalence.py``.  One deliberate
exception: when partitioning is enabled with more pools than servers, the
``_assign_partitions`` trim-loop bug fix drops the *smallest-demand* pools
instead of the lowest-index ones, so that regime intentionally diverges
from the reference):

* events are sorted once as a structured NumPy array instead of a Python
  tuple list with a lambda key;
* the cluster's committed CPU is maintained as an incrementally updated
  scalar, so peak tracking no longer scans ``committed[:, 0]`` per start
  event (exact, since core counts are integers);
* candidate-server index arrays are precomputed per pool instead of being
  rebuilt with ``np.arange``/``np.nonzero`` on every event;
* ``_rebalance`` skips the per-dimension policy solves entirely when a
  server has no pressure and nothing reclaimed (the dominant case below
  full subscription), and caches the per-server resident list between
  membership changes;
* per-VM allocation histories live in growable flat arrays (one bulk append
  per rebalance) rather than per-VM tuple lists, and ``_collect`` is
  vectorized: never-deflated VMs take closed-form fast paths, and all
  pricing models are evaluated over the whole VM population with array ops
  (order-preserving ``cumsum`` reductions keep float accumulation
  bit-identical to the original per-VM loop);
* ``_rebalance`` solves through per-server :meth:`DeflationPolicy.
  reclaim_plan` objects cached alongside the resident list, so the
  priority policy's breakpoint sort is paid once per membership change,
  not once per solve;
* the rebalance runs on Python floats, not NumPy arrays: its pools hold a
  few dozen VMs, where per-call NumPy dispatch cost more than the
  arithmetic.  The plans take per-dimension lists gathered from plain-float
  mirrors of the per-VM arrays (``_refresh_vm_lists``) and return reclaim
  lists; the per-dimension totals are summed sequentially (the order of
  the reference's ``sum(axis=0)``) and the fraction-change test runs per
  VM, as the reference's does;
* placement scores a per-server cache of normalized availability rows
  (``_avail_norm``) instead of rebuilding availability for every
  candidate on every arrival.  Only the simulator's mutators write server
  state, and each marks its server dirty; ``_refresh_avail`` recomputes
  just those rows with Python floats in the reference formula's
  operation order, and the cosine scorer caches each demand shape's
  padded vector and norm.

Events are processed strictly one at a time.  Coalescing a timestamp's
departures into one rebalance per server is *not* exact: ``_rebalance``
records a new allocation fraction only when it moves by more than 1e-9, so
the history depends on the intermediate rebalances a batch would skip.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.deflation import DeflationPolicy, get_policy
from repro.core.vm import VMClass, priority_from_p95
from repro.errors import SimulationError
from repro.pricing.models import PRICING_MODELS, PricingModel
from repro.registry import create, validate
from repro.simulator.components import (
    AdmissionController,
    DeflationAwareAdmission,
    MetricsCollector,
    PlacementScorer,
)
from repro.traces.schema import VMTraceRecord, VMTraceSet

#: Resource dimensions used for bin-packing and deflation (paper: "We
#: consider each VM's CPU core count and memory size").
_DIMS = 2  # 0 = cpu cores, 1 = memory MB

#: Event kinds, ordered by processing priority within one interval; the
#: stepper's ``(t, kind, key)`` order.  Server ARRIVALs come first (new
#: capacity is usable by anything else at that interval), then VM ENDs
#: before VM STARTs.  Dip *ends* sort before dip *starts* so back-to-back
#: dips (one ending exactly when the next begins) hand over cleanly instead
#: of the ending dip cancelling the just-started one.  Evacuation ticks
#: (EVAC) and drain DEADLINEs come last, after the interval's departures
#: freed capacity and its requeues landed.  The failure injector, the
#: sharded engine's merger and the ``failure-log`` collector's
#: ``merge_shards`` all import these codes from here.
_ARRIVAL, _END, _START, _REVOKE, _DIP_END, _DIP_START, _REQUEUE, _EVAC, _DEADLINE = range(9)


@dataclass(frozen=True)
class ClusterSimConfig:
    """One simulation run's knobs."""

    n_servers: int
    cores_per_server: float = 48.0
    memory_per_server_mb: float = 128 * 1024
    policy: str = "proportional"  # or "deterministic", "priority", "preemption"
    partitioned: bool = False
    #: Number of priority pools when partitioned (matches PRIORITY_LEVELS).
    n_partitions: int = 4
    #: Minimum allocation fraction for every deflatable VM (QoS floor,
    #: Eq. 2): no VM is deflated below this share of its capacity.
    min_fraction: float = 0.05
    #: Registered admission controller deciding server feasibility.
    admission: str = "deflation-aware"
    #: Registered placement scorer ranking feasible servers.
    scorer: str = "cosine"
    #: Registered metrics collectors observing the event loop; their
    #: ``finalize`` payloads land in ``ClusterSimResult.collected``.
    collectors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise SimulationError("need >= 1 server")
        if not (0.0 <= self.min_fraction < 1.0):
            raise SimulationError("min_fraction must be in [0, 1)")
        if self.policy != "preemption":
            get_policy(self.policy)  # validate eagerly
        elif self.admission != "deflation-aware":
            # The preemption baseline carries its own fixed admission rule
            # (fit-into-free-capacity, else preempt); silently ignoring a
            # configured controller would fake an ablation.
            raise SimulationError(
                "the preemption baseline does not use a pluggable admission "
                f"controller; admission={self.admission!r} would have no effect"
            )
        validate("admission", self.admission)
        validate("scorer", self.scorer)
        object.__setattr__(self, "collectors", tuple(self.collectors))
        for name in self.collectors:
            validate("metrics", name)


@dataclass
class VMOutcome:
    """Per-VM bookkeeping for the metrics.

    The piecewise-constant allocation history formerly stored here as a
    tuple list now lives in the simulator's flat history arrays; fetch it
    with :meth:`ClusterSimulator.allocation_history`.
    """

    vm_index: int
    deflatable: bool
    priority: float
    cores: float
    placed: bool = False
    rejected: bool = False
    preempted: bool = False
    reclaim_failure: bool = False
    end_interval: float = 0.0  # actual end (may be early if preempted)


@dataclass
class ClusterSimResult:
    """Aggregate metrics of one run."""

    config: ClusterSimConfig
    n_vms: int
    n_deflatable: int
    n_placed: int
    n_rejected_deflatable: int
    n_rejected_on_demand: int
    n_preempted: int
    n_reclaim_failures: int
    peak_committed_cores: float
    total_capacity_cores: float
    throughput_loss: float
    mean_deflation: float
    revenue: dict[str, float]
    revenue_per_server: dict[str, float]
    #: ``finalize`` payloads of the configured metrics collectors, by name.
    collected: dict[str, object] = field(default_factory=dict)

    @property
    def overcommitment(self) -> float:
        """Peak committed CPU over capacity, minus one."""
        if self.total_capacity_cores <= 0:
            return 0.0
        return self.peak_committed_cores / self.total_capacity_cores - 1.0

    @property
    def failure_probability(self) -> float:
        """Fraction of deflatable VMs that failed (Figure 20's metric)."""
        if self.n_deflatable == 0:
            return 0.0
        failures = (
            self.n_rejected_deflatable + self.n_preempted + self.n_reclaim_failures
        )
        return failures / self.n_deflatable


class VMMetricTerms(NamedTuple):
    """Per-VM metric terms over the deflatable placed population.

    All arrays are aligned with ``sel`` (the ascending VM indices of
    deflatable placed VMs).  Produced by
    :meth:`ClusterSimulator._metric_terms`, reduced by
    :func:`reduce_vm_terms`; the sharded engine concatenates shard-local
    terms (with ``sel`` mapped to global indices), reorders them by global
    VM index, and runs the *same* reduction, which is what keeps its merged
    metrics bit-identical to a flat run.
    """

    sel: np.ndarray  # global VM indices (ascending)
    demanded: np.ndarray  # demanded work, core-intervals
    lost: np.ndarray  # lost work, core-intervals
    deflation: np.ndarray  # deflation integral, core-intervals
    alloc_integral: np.ndarray  # sum of per-interval allocation fractions
    cores: np.ndarray  # CPU capacity
    lifetimes: np.ndarray  # lifetime, intervals
    priorities: np.ndarray  # admission-time priority snapshot


def reduce_vm_terms(terms: VMMetricTerms) -> dict:
    """Aggregate per-VM terms exactly as the original metrics pass did.

    Returns ``demanded_work`` / ``lost_work`` / ``deflation_sum`` /
    ``deflation_weight`` and the ``revenue`` dict over every registered
    pricing model.  All reductions are order-preserving sequential sums
    (``cumsum``) over the ``sel`` order, so callers feeding the same terms
    in the same order get bit-identical floats — the contract both
    :meth:`ClusterSimulator._collect` and the sharded engine's merger rely
    on.
    """
    sel = terms.sel
    cores_sel = terms.cores
    lifetime_sel = terms.lifetimes
    prio_sel = terms.priorities

    def seq_sum(values: np.ndarray) -> float:
        return float(np.cumsum(values)[-1]) if values.size else 0.0

    demanded_work = seq_sum(terms.demanded)
    lost_work = seq_sum(terms.lost)
    deflation_sum = seq_sum(terms.deflation)
    deflation_weight = seq_sum(lifetime_sel * cores_sel)

    # All pricing models over the whole population at once.  Per-VM rate
    # and revenue terms keep the scalar path's operation order
    # ((cores * lifetime) * rate), so the sums are bit-identical.  A
    # model that overrides the public revenue() hook (minimum billing
    # increments, per-VM fees, ...) must not be silently bypassed by the
    # rate-based vectorization — it falls back to the per-VM calls.
    mean_alloc = np.divide(
        terms.alloc_integral,
        lifetime_sel,
        out=np.ones(sel.size),
        where=lifetime_sel != 0.0,
    )
    alloc_frac = np.minimum(mean_alloc, 1.0)
    base_terms = cores_sel * lifetime_sel
    revenue = {}
    for name, model in PRICING_MODELS.items():
        if type(model).revenue is PricingModel.revenue:
            revenue[name] = seq_sum(base_terms * model.rate_batch(prio_sel, alloc_frac))
        else:
            total = 0.0
            for k in range(sel.size):
                total += model.revenue(
                    capacity_units=float(cores_sel[k]),
                    duration=float(lifetime_sel[k]),
                    priority=float(prio_sel[k]),
                    allocation_fraction=float(alloc_frac[k]),
                )
            revenue[name] = total

    return {
        "demanded_work": demanded_work,
        "lost_work": lost_work,
        "deflation_sum": deflation_sum,
        "deflation_weight": deflation_weight,
        "revenue": revenue,
    }


def vm_class_arrays(traces: VMTraceSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-VM ``(caps, priority, deflatable)`` arrays for one trace set.

    The paper's class mapping (Section 7.1.2): interactive VMs are
    deflatable with priorities from the 95th-percentile CPU usage;
    batch/unknown VMs are on-demand at priority 1.  The single source of
    truth shared by :meth:`ClusterSimulator._prepare_vms` and the sharded
    engine's splitter — the two must agree exactly for cross-engine
    bit-equivalence, so neither may reimplement it.
    """
    interactive = VMClass.INTERACTIVE
    vm_caps = np.zeros((len(traces), _DIMS))
    vm_caps[:, 0] = [rec.cores for rec in traces]
    vm_caps[:, 1] = [rec.memory_mb for rec in traces]
    vm_deflatable = np.array([rec.vm_class is interactive for rec in traces], dtype=bool)
    vm_prio = np.array(
        [
            priority_from_p95(rec.p95_cpu) if rec.vm_class is interactive else 1.0
            for rec in traces
        ],
        dtype=np.float64,
    )
    return vm_caps, vm_prio, vm_deflatable


def partition_layout(
    vm_prio: np.ndarray,
    vm_deflatable: np.ndarray,
    vm_caps: np.ndarray,
    n_servers: int,
) -> tuple[list[float], np.ndarray]:
    """Priority-pool server layout for partitioned mode (Section 5.2.1).

    Returns ``(levels, counts)``: the sorted distinct deflatable priority
    levels present in the trace (rounded to 6 decimals) and the server
    count of every pool — one pool per level plus a trailing on-demand
    pool — sized by each class's committed-capacity share of the trace.
    Pools are laid out contiguously, so pool ``k`` owns global server
    indices ``[counts[:k].sum(), counts[:k].sum() + counts[k])``.

    Shared by :meth:`ClusterSimulator._assign_partitions` and the sharded
    engine's splitter (:mod:`repro.simulator.sharded`), which relies on the
    contiguous layout as its shard boundary — the two must agree exactly
    for cross-engine bit-equivalence.
    """
    levels = sorted(set(np.round(vm_prio[vm_deflatable], 6)))
    # Demand share per pool (deflatable levels + on-demand pool).
    shares = []
    for lvl in levels:
        mask = vm_deflatable & (np.abs(vm_prio - lvl) < 1e-6)
        shares.append(vm_caps[mask, 0].sum())
    shares.append(vm_caps[~vm_deflatable, 0].sum())
    shares = np.asarray(shares, dtype=np.float64)
    shares = shares / shares.sum() if shares.sum() > 0 else np.ones_like(shares) / len(shares)
    counts = np.maximum(1, np.round(shares * n_servers).astype(int))
    # Trim to exactly n_servers without violating the one-server minimum:
    # shrink the largest pool that still has more than one server.  Only
    # when there are more pools than servers is the minimum infeasible —
    # then drop whole pools, smallest demand share first, so the busiest
    # priority levels keep their servers.
    while counts.sum() > n_servers:
        above_min = counts > 1
        if np.any(above_min):
            candidates = np.where(above_min, counts, -1)
            counts[np.argmax(candidates)] -= 1
        else:
            alive = np.nonzero(counts > 0)[0]
            drop = alive[np.argmin(shares[alive])]
            counts[drop] = 0
    while counts.sum() < n_servers:
        counts[np.argmax(shares)] += 1
    return levels, counts


def vm_pool_assignment(
    vm_prio: np.ndarray, vm_deflatable: np.ndarray, levels: list[float]
) -> np.ndarray:
    """Pool index of every VM under a :func:`partition_layout` of ``levels``.

    Deflatable VMs route to their priority level's pool (unknown levels
    default to pool 0, preserving the original per-event lookup's
    behaviour); on-demand VMs route to the trailing pool ``len(levels)``.
    Shared by :meth:`ClusterSimulator._refresh_derived` and the sharded
    splitter.
    """
    lvls = np.round(vm_prio, 6)
    pool = np.full(vm_prio.size, len(levels), dtype=np.int64)
    pool[vm_deflatable] = 0
    for k, lvl in enumerate(levels):
        pool[vm_deflatable & (lvls == lvl)] = k
    return pool


class ClusterSimulator:
    """Array-backed replay of one trace against one configuration.

    Admission feasibility, server scoring, and metrics collection are
    pluggable components resolved by name from the unified registry (kinds
    ``admission``, ``scorer``, ``metrics``); the event loop itself stays
    fixed.
    """

    #: Subclasses may allow empty trace sets (the sharded engine replays a
    #: VM-less pool so its servers still see failure events and count
    #: toward capacity); the public simulator keeps rejecting them.
    _allow_empty = False

    def __init__(self, traces: VMTraceSet, config: ClusterSimConfig) -> None:
        if len(traces) == 0 and not self._allow_empty:
            raise SimulationError("empty trace set")
        self.traces = traces
        self.config = config
        #: Optional failure injector (see :meth:`attach_failures`); when
        #: None the event stream's failure heap stays empty.
        self._injector = None
        #: Liveness mask over servers, created lazily on the first
        #: revocation (None = everything alive, the failure-free fast path).
        self._server_alive: np.ndarray | None = None
        #: When not None, :meth:`_preempt` appends each victim here — the
        #: injector uses it to attribute preemption cascades triggered by
        #: failure-driven placements.
        self._preempt_log: list[int] | None = None
        #: The event stream (:meth:`_open_stream`): sorted VM event
        #: arrays, their cursor, the failure heap, the running peak and
        #: the ``run_until`` boundary.  None until :meth:`run` or
        #: :meth:`run_until` opens it.
        self._stream: dict | None = None
        #: Per-VM metric terms finalized by :meth:`compact_history` before
        #: their history rows were dropped (streaming bounded-memory mode);
        #: consulted by :meth:`_metric_terms` instead of recomputing.
        self._final_terms: dict[str, np.ndarray] | None = None
        self._policy: DeflationPolicy | None = (
            None if config.policy == "preemption" else get_policy(config.policy)
        )
        self._admission: AdmissionController = create("admission", config.admission)
        self._scorer: PlacementScorer = create("scorer", config.scorer)
        self._collectors: tuple[MetricsCollector, ...] = tuple(
            create("metrics", name) for name in config.collectors
        )
        # Exact type check: a subclass may override feasible(), and the
        # no-deflation admission shortcut is only provably equivalent for
        # the stock rule.
        self._stock_admission = type(self._admission) is DeflationAwareAdmission
        self._prepare_vms()
        self._prepare_servers()

    # -- setup ---------------------------------------------------------------------

    def _prepare_vms(self) -> None:
        n = len(self.traces)
        self.vm_caps, self.vm_prio, self.vm_deflatable = vm_class_arrays(self.traces)
        #: Hosting server per VM (-1 = not placed).
        self.vm_server = np.full(n, -1, dtype=np.int64)
        # Outcome flags mirrored as arrays so _collect can count and slice
        # the population without a Python loop over VMOutcome objects.
        self.vm_placed = np.zeros(n, dtype=bool)
        self.vm_rejected = np.zeros(n, dtype=bool)
        self.vm_preempted = np.zeros(n, dtype=bool)
        self.vm_reclaim_failure = np.zeros(n, dtype=bool)
        self.vm_start = np.array([rec.start_interval for rec in self.traces], dtype=np.int64)
        self.vm_lifetime = np.array([rec.cpu_util.size for rec in self.traces], dtype=np.int64)
        self.vm_end = self.vm_start + self.vm_lifetime
        self.outcomes: list[VMOutcome] = [
            VMOutcome(
                vm_index=i,
                deflatable=deflatable,
                priority=priority,
                cores=cores,
                end_interval=float(end),
            )
            for i, (deflatable, priority, cores, end) in enumerate(
                zip(
                    self.vm_deflatable.tolist(),
                    self.vm_prio.tolist(),
                    self.vm_caps[:, 0].tolist(),
                    self.vm_end.tolist(),
                )
            )
        ]
        # Policy floors: priority/deterministic deflate only to pi*M; every
        # policy additionally respects the configured QoS minimum fraction.
        base_floor = self.vm_caps * self.config.min_fraction
        if self.config.policy in ("priority", "deterministic"):
            self.vm_floor = np.maximum(base_floor, self.vm_caps * self.vm_prio[:, None])
        else:
            self.vm_floor = base_floor
        self.vm_floor[~self.vm_deflatable] = 0.0
        # Growable flat allocation-history log: (vm, interval, frac) triples
        # in event order, bulk-appended per rebalance.  ``_last_frac`` holds
        # each VM's most recently recorded fraction (the old per-VM
        # ``hist[-1][1]`` guard).
        self._hist_vm = np.empty(max(4 * n, 64), dtype=np.int64)
        self._hist_t = np.empty(self._hist_vm.size, dtype=np.float64)
        self._hist_f = np.empty(self._hist_vm.size, dtype=np.float64)
        self._hist_n = 0
        self._hist_sorted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._last_frac = np.ones(n)

    def _prepare_servers(self) -> None:
        cfg = self.config
        s = cfg.n_servers
        self.server_cap = np.tile(
            np.array([cfg.cores_per_server, cfg.memory_per_server_mb]), (s, 1)
        )
        self.committed = np.zeros((s, _DIMS))
        self.reclaimed = np.zeros((s, _DIMS))  # from deflatable VMs
        self.defl_cap = np.zeros((s, _DIMS))  # sum of deflatable capacities
        self.defl_floor = np.zeros((s, _DIMS))  # sum of policy floors
        # Resident sets are insertion-ordered dicts keyed by VM index: O(1)
        # removal (the old lists paid an O(n) ``list.remove`` per departure)
        # while preserving the arrival order that deterministic policies use
        # for tie-breaking.
        self.residents: list[dict[int, None]] = [{} for _ in range(s)]
        self.resident_deflatable: list[dict[int, None]] = [{} for _ in range(s)]
        #: Provisioned fleet size at construction; server arrivals (elastic
        #: transient pools) grow the live arrays past it but never this.
        self._n_initial_servers = s
        #: Servers currently draining toward an evacuation deadline; while
        #: non-zero, placement filters candidates through the liveness mask
        #: (a draining server keeps its capacity, so capacity checks alone
        #: cannot exclude it).
        self._draining_servers = 0
        #: Incrementally maintained ``committed[:, 0].sum()`` (exact: core
        #: counts are integers, so adds/subtracts never lose bits).
        self._committed_cores = 0.0
        #: Per-server ``[residents, CPU plan, memory plan]`` caches over the
        #: deflatable residents (see ``_rebalance``); invalidated on
        #: membership changes.
        self._srv_cache: list[list | None] = [None] * s
        #: Per-server cached eviction order (ascending priority) for the
        #: preemption baseline; same invalidation discipline.
        self._srv_victims: list[list[int] | None] = [None] * s
        #: Constant per-event operands, hoisted out of the loop.
        self._cap_eps = self.server_cap + 1e-9
        #: Per-server normalized availability rows (``availability /
        #: server_cap``) the scorer ranks, built on the first scoring and
        #: then refreshed only where ``_avail_dirty`` says the state changed
        #: (see :meth:`_refresh_avail`).  None = rebuild every row.
        self._avail_norm: np.ndarray | None = None
        self._avail_dirty: set[int] = set()
        #: Candidate index arrays, precomputed once (read-only).
        self._all_servers = np.arange(s)
        # Partition assignment: deflatable pools 0..n_partitions-1 by
        # priority level, plus one on-demand pool.  Server shares follow the
        # paper's advice to size pools by the workload mix (we use committed
        # capacity shares of each class in the trace).
        self.server_pool = np.full(s, -1, dtype=np.int64)
        if cfg.partitioned:
            self._assign_partitions()
        self._refresh_derived()

    def _assign_partitions(self) -> None:
        cfg = self.config
        levels, counts = partition_layout(
            self.vm_prio, self.vm_deflatable, self.vm_caps, cfg.n_servers
        )
        pools = np.repeat(np.arange(len(counts)), counts)
        self.server_pool = pools[: cfg.n_servers]
        self._pool_of_level = {lvl: k for k, lvl in enumerate(levels)}
        self._on_demand_pool = len(levels)
        # Precompute pool membership so _candidate_servers stops rebuilding
        # np.nonzero masks per event.
        self._pool_members = [
            np.nonzero(self.server_pool == k)[0] for k in range(len(counts))
        ]

    def _refresh_derived(self) -> None:
        """(Re)build caches derived from the per-VM arrays.

        Called at construction *and* when the event stream opens: the blessed
        ``engine.build()`` flow mutates ``vm_prio`` / ``vm_floor`` /
        ``vm_caps`` on the built simulator before replaying (e.g. the
        priority-level ablation), and these snapshots must reflect that
        surgery exactly like the reference's live per-event reads did.
        """
        self._refresh_vm_lists()
        #: Normalized demand rows for the scorer (see _best_server).
        self._demand_norm = self.vm_caps / self.server_cap[0]
        self._vm_caps_eps = self.vm_caps - 1e-9
        if self.config.partitioned:
            self._vm_pool = vm_pool_assignment(
                self.vm_prio, self.vm_deflatable, list(self._pool_of_level)
            )

    def _refresh_vm_lists(self) -> None:
        """Plain-float mirrors of the per-VM arrays for the scalar hot paths.

        The preemption victim scan and the rebalance cache gather a few
        values per resident; NumPy scalar indexing and dispatch dominated
        both, so they read these lists instead.
        """
        self._vm_caps_lists = (self.vm_caps[:, 0].tolist(), self.vm_caps[:, 1].tolist())
        self._vm_prio_list = self.vm_prio.tolist()
        if self._policy is not None:
            self._vm_floor_lists = (self.vm_floor[:, 0].tolist(), self.vm_floor[:, 1].tolist())
            #: Allocation-fraction denominators (CPU capacity, kept off zero).
            self._vm_frac_denom = np.maximum(self.vm_caps[:, 0], 1e-12).tolist()

    # -- failure injection -----------------------------------------------------------

    def attach_failures(self, injector) -> None:
        """Attach a :class:`~repro.failures.injector.FailureInjector`.

        When the event stream opens, the injector expands its
        revocation/capacity-dip/arrival schedule into the stream's failure
        heap; the stepper merges it with the VM events and hands each
        failure event (and each requeue, evacuation tick or deadline the
        injector pushes) back to the injector's handlers.  The engine calls
        this for scenarios carrying a ``failures`` spec; direct simulator
        users may call it before :meth:`run`.
        """
        self._injector = injector

    def _mark_revoked(self, server: int) -> None:
        """Take a server out of service permanently (failure injection).

        Zeroing the capacity makes the server infeasible for every normal
        placement test; the liveness mask additionally guards the one case
        capacity alone cannot — deflation-aware admission of a VM whose
        own reclaimable pool covers its entire demand (a zero floor), which
        would otherwise "fit" on a dead server and poison the scorer's
        capacity-normalized ranking with divisions by zero.
        """
        if self._server_alive is None:
            self._server_alive = np.ones(len(self.residents), dtype=bool)
        self._server_alive[server] = False
        self._set_capacity(server, 0.0)

    def _set_capacity(self, server: int, row) -> None:
        """Set one server's capacity row (revocation, capacity dips).

        The one writer of ``server_cap`` after construction: it keeps the
        ``_cap_eps`` invariant (capacity + 1e-9) and the placement cache
        coherent.
        """
        self.server_cap[server] = row
        self._cap_eps[server] = self.server_cap[server] + 1e-9
        self._avail_dirty.add(server)

    def _mark_draining(self, server: int) -> None:
        """Stop placements onto a server pending revocation (warning window).

        The server keeps its capacity — residents run and rebalance as
        usual until the evacuation deadline — so exclusion works through
        the liveness mask plus the ``_draining_servers`` placement filter,
        not through zeroed capacity.
        """
        if self._server_alive is None:
            self._server_alive = np.ones(len(self.residents), dtype=bool)
        self._server_alive[server] = False
        self._draining_servers += 1

    def _end_draining(self, server: int) -> None:
        """The drain resolved (deadline reached); the server stays dead."""
        self._draining_servers -= 1

    def _attach_server(self, index: int) -> None:
        """Attach one arriving server at nominal shape (failure injection).

        Grows every per-server array and cache by one row.  Arrivals must
        be contiguous — ``index`` is the current server count — so global
        and shard-local replays agree on numbering.  In partitioned mode
        the arrival joins pool ``arrival-ordinal mod n_pools``, a static
        rule the sharded engine's slicer replicates.
        """
        n = len(self.residents)
        if index != n:
            raise SimulationError(
                f"server arrivals must be contiguous: expected index {n}, got {index}"
            )
        cfg = self.config
        row = np.array([[cfg.cores_per_server, cfg.memory_per_server_mb]])
        self.server_cap = np.vstack([self.server_cap, row])
        self._cap_eps = np.vstack([self._cap_eps, row + 1e-9])
        zero = np.zeros((1, _DIMS))
        self.committed = np.vstack([self.committed, zero])
        self.reclaimed = np.vstack([self.reclaimed, zero])
        self.defl_cap = np.vstack([self.defl_cap, zero])
        self.defl_floor = np.vstack([self.defl_floor, zero])
        self.residents.append({})
        self.resident_deflatable.append({})
        self._srv_cache.append(None)
        self._srv_victims.append(None)
        if self._avail_norm is not None:
            self._avail_norm = np.vstack([self._avail_norm, zero])
            self._avail_dirty.add(index)
        self._all_servers = np.arange(n + 1)
        if self._server_alive is not None:
            self._server_alive = np.append(self._server_alive, True)
        if cfg.partitioned:
            pool = (index - self._n_initial_servers) % len(self._pool_members)
            self.server_pool = np.append(self.server_pool, pool)
            self._pool_members[pool] = np.append(self._pool_members[pool], index)
        else:
            self.server_pool = np.append(self.server_pool, -1)

    # -- the event stepper -----------------------------------------------------------

    def _build_events(self) -> np.ndarray:
        """Structured ``(t, kind, vm)`` VM event array, globally sorted.

        Ends (``_END``) before starts (``_START``) at the same interval,
        ties broken by VM index — the stepper's ``(t, kind, key)`` order,
        in the kind codes the failure heap uses.
        """
        n = len(self.traces)
        events = np.empty(
            2 * n, dtype=[("t", np.float64), ("kind", np.int8), ("vm", np.int64)]
        )
        events["t"][:n] = self.vm_end
        events["kind"][:n] = _END
        events["vm"][:n] = np.arange(n)
        events["t"][n:] = self.vm_start
        events["kind"][n:] = _START
        events["vm"][n:] = np.arange(n)
        events.sort(order=("t", "kind", "vm"))
        return events

    def _ensure_stream(self) -> None:
        """Open the event stream at t=0 (idempotent).

        Derived caches refresh once, then an attached injector expands its
        failure schedule into the stream's heap.
        """
        if self._stream is not None:
            return
        self._refresh_derived()  # pick up any post-build surgery
        heap = [] if self._injector is None else self._injector.begin(self)
        self._open_stream(cursor=0, peak=0.0, heap=heap, at=0.0)

    def _open_stream(self, cursor: int, peak: float, heap: list, at: float) -> None:
        """Stage the sorted VM events behind ``cursor`` next to ``heap``.

        Shared by a cold start and a snapshot restore, which rebuilds the
        VM arrays from the (restored) trace and stores only the cursor.
        """
        events = self._build_events()
        heapq.heapify(heap)
        self._stream = {
            "t": events["t"].tolist(),
            "kind": events["kind"].tolist(),
            "vm": events["vm"].tolist(),
            "cursor": cursor,
            "heap": heap,
            "peak": peak,
            "at": at,
        }

    def _advance(self, until: float) -> None:
        """The event loop: process every stream event with ``t < until``.

        VM departures and arrivals come off the sorted arrays at the
        cursor; failure events and the injector's dynamic pushes (requeues,
        evacuation ticks, deadlines) come off the heap.  The two merge on
        the ``(t, kind, key)`` key.  VM kinds never occur in the heap, so a
        VM event goes first exactly when its ``(t, kind)`` sorts before the
        heap top's, and only failure handlers push, so the heap top stays
        fixed while VM events run.  Pushes never land before the event
        being processed, so stopping at ``until`` processes exactly the
        events an uninterrupted run processes before that boundary.

        Committed cores only grow on a START or a requeue; the running
        peak is checked after those and after every heap event.
        """
        stream = self._stream
        t_list, kind_list, vm_list = stream["t"], stream["kind"], stream["vm"]
        heap = stream["heap"]
        i, n = stream["cursor"], len(t_list)
        peak = stream["peak"]
        handle_start, handle_end = self._handle_start, self._handle_end
        after = self._after_event
        while True:
            ht, hk = (heap[0][0], heap[0][1]) if heap else (math.inf, _ARRIVAL)
            while i < n:
                t, kind = t_list[i], kind_list[i]
                if t >= until or t > ht or (t == ht and kind > hk):
                    break
                vm = vm_list[i]
                if kind == _END:
                    handle_end(t, vm)
                else:
                    handle_start(t, vm)
                    if self._committed_cores > peak:
                        peak = self._committed_cores
                after(t, kind, vm)
                i += 1
            if not heap or ht >= until:
                break
            t, kind, key, aux = heapq.heappop(heap)
            self._injector.handle(self, t, kind, key, aux, heap)
            if self._committed_cores > peak:
                peak = self._committed_cores
            after(t, kind, key)
        stream["cursor"] = i
        stream["peak"] = peak

    def _after_event(self, t: float, kind: int, key: int) -> None:
        """Seam called after every processed event (a no-op here).

        ``key`` is the VM index for ``_END``/``_START``/``_REQUEUE`` and
        the server index for every other kind.  The sharded engine's shard
        simulator records its merge log here.
        """

    def run(self) -> ClusterSimResult:
        """Replay to the end (finishing an open stream) and collect.

        The same steps as ``run_until(inf)``, then :meth:`_collect`.
        """
        self._ensure_stream()
        self._advance(math.inf)
        self._stream["at"] = math.inf
        return self._collect(self._stream["peak"])

    # -- checkpoint/resume ---------------------------------------------------------

    def run_until(self, t: float) -> None:
        """Advance the replay through every event strictly before ``t``.

        Opens the event stream on first use; subsequent calls must not
        move backwards.  After any number of ``run_until`` steps,
        :meth:`run` finishes the remainder and collects — bit-identical to
        one uninterrupted :meth:`run`, since both drive the same stepper.
        :meth:`snapshot` freezes the state at the current boundary.
        """
        t = float(t)
        self._ensure_stream()
        if t < self._stream["at"]:
            raise SimulationError(
                f"run_until({t}) would move backwards (stream is at "
                f"{self._stream['at']}); snapshots, not rewinds, go back in time"
            )
        self._advance(t)
        self._stream["at"] = t

    def snapshot(self):
        """Freeze the current :meth:`run_until` boundary as a `SimSnapshot`."""
        from repro.simulator.snapshot import capture

        return capture(self)

    def restore(self, snap) -> None:
        """Reinstate a :meth:`snapshot` into this freshly built simulator."""
        from repro.simulator.snapshot import restore_into

        restore_into(self, snap)

    def _terms_for_vm(self, i: int) -> tuple[float, float, float, float]:
        """One VM's ``(demanded, lost, deflation, alloc_integral)`` terms.

        The same arithmetic :meth:`_metric_terms` applies, including its
        never-deflated fast path, so finalizing a VM early (streaming
        compaction) yields bit-identical floats to computing it at collect
        time.
        """
        rec = self.traces.records[i]
        cores = float(self.vm_caps[i, 0])
        demanded = float(rec.cpu_util.sum()) * cores
        times, _ = self._history_of(i)
        if not self.vm_preempted[i] and times.size <= 1:
            return demanded, 0.0, 0.0, float(rec.lifetime_intervals)
        alloc = self._allocation_series(rec, self.outcomes[i])
        lost = float(np.maximum(rec.cpu_util - alloc, 0.0).sum()) * cores
        deflation = float((1.0 - alloc).sum()) * cores
        return demanded, lost, deflation, float(alloc.sum())

    def compact_history(self, before: float) -> int:
        """Finalize VMs that ended before ``before`` and drop their history.

        The bounded-memory half of streaming: a long trace advances with
        :meth:`run_until` and periodically compacts, keeping the history
        log proportional to the *live* population instead of the whole
        trace.  Per-VM metric terms are pure once a VM's events are behind
        the stream boundary (requeued restarts always fire before the VM's
        own end), so they are computed now, cached in ``_final_terms``, and
        the rows dropped; :meth:`_metric_terms` serves them back verbatim.
        Returns the number of history rows dropped.
        """
        stream = self._stream
        if stream is None:
            raise SimulationError("compact_history requires an open stream (run_until)")
        before = float(before)
        if before > stream["at"]:
            raise SimulationError(
                f"compact_history({before}) is ahead of the stream boundary "
                f"{stream['at']}: only fully processed prefixes can be finalized"
            )
        n = len(self.traces)
        if self._final_terms is None:
            self._final_terms = {
                "mask": np.zeros(n, dtype=bool),
                "demanded": np.zeros(n),
                "lost": np.zeros(n),
                "deflation": np.zeros(n),
                "alloc_integral": np.zeros(n),
            }
        final = self._final_terms
        newly = np.nonzero(
            self.vm_deflatable & self.vm_placed & (self.vm_end < before) & ~final["mask"]
        )[0]
        pending = self._injector._requeue_pending if self._injector is not None else None
        for i in newly.tolist():
            if pending and i in pending:
                continue  # a restart is still in flight; finalize later
            d, lost, defl, alloc = self._terms_for_vm(i)
            final["mask"][i] = True
            final["demanded"][i] = d
            final["lost"][i] = lost
            final["deflation"][i] = defl
            final["alloc_integral"][i] = alloc
        nh = self._hist_n
        keep = ~final["mask"][self._hist_vm[:nh]]
        kept = int(keep.sum())
        dropped = nh - kept
        if dropped:
            for name in ("_hist_vm", "_hist_t", "_hist_f"):
                arr = getattr(self, name)
                arr[:kept] = arr[:nh][keep]
            self._hist_n = kept
            self._hist_sorted = None
        return dropped

    # -- event handlers -----------------------------------------------------------

    def _candidate_servers(self, vm: int) -> np.ndarray:
        """Cached candidate index array for this VM's pool (do not mutate)."""
        if not self.config.partitioned:
            return self._all_servers
        return self._pool_members[self._vm_pool[vm]]

    def _handle_start(self, t: float, vm: int) -> None:
        if not self._place(t, vm):
            self._reject(t, vm, self.outcomes[vm])

    def _place(self, t: float, vm: int) -> bool:
        """Admit ``vm`` onto the best feasible server; False if none can.

        This is the placement path shared by trace arrivals, evacuations
        off revoked servers, and requeued restarts: feasibility filtering
        (admission component), no-deflation preference, scoring, admission
        bookkeeping, and the post-admit rebalance.  Rejection bookkeeping
        stays with the callers — an arrival that fails is *rejected*, an
        evacuee that fails is *lost*.
        """
        demand = self.vm_caps[vm]
        candidates = self._candidate_servers(vm)
        if self._draining_servers:
            # Draining servers keep full capacity until their deadline, so
            # only the liveness mask can exclude them (this also drops
            # already-revoked servers, which zeroed capacity would have
            # excluded anyway).  Gated on the counter: failure-free runs
            # and drain-free failure runs never pay the gather.
            candidates = candidates[self._server_alive[candidates]]
        if candidates.size == 0:
            return False

        if self._policy is None:
            return self._place_preemption(t, vm, candidates)

        # Prefer servers that can host the VM without deflating anyone —
        # "when there is surplus capacity in the cluster, the cloud manager
        # allocates these resources to lower priority VMs (without deflating
        # them)" (Section 5).  Only under genuine pressure do we fall back
        # to deflation-requiring servers.  Under the stock deflation-aware
        # rule a no-deflation server is always feasible (its overflow is
        # <= 0 and reclaimable pools are never negative), so when any exist
        # the admission controller does not need to run at all.
        whole_cluster = candidates is self._all_servers
        if self._stock_admission:
            if whole_cluster:  # gather-free: candidates are rows 0..s-1
                no_deflation = (self.committed + demand <= self._cap_eps).all(axis=1)
            else:
                no_deflation = (
                    self.committed[candidates] + demand <= self._cap_eps[candidates]
                ).all(axis=1)
            if no_deflation.all():
                pool_idx = candidates
            elif no_deflation.any():
                pool_idx = candidates[no_deflation]
            else:
                pool_idx = self._admission.feasible(self, vm, candidates)
                if self._server_alive is not None and pool_idx.size:
                    pool_idx = pool_idx[self._server_alive[pool_idx]]
                if pool_idx.size == 0:
                    return False
        else:
            feas_idx = self._admission.feasible(self, vm, candidates)
            if self._server_alive is not None and feas_idx.size:
                feas_idx = feas_idx[self._server_alive[feas_idx]]
            if feas_idx.size == 0:
                return False
            no_deflation = (
                self.committed[feas_idx] + demand <= self._cap_eps[feas_idx]
            ).all(axis=1)
            pool_idx = feas_idx[no_deflation] if no_deflation.any() else feas_idx

        if pool_idx.size == 1:
            # argmax over one candidate is that candidate; skip the scoring.
            server = int(pool_idx[0])
        else:
            server = self._best_server(vm, pool_idx)

        self._admit(t, vm, server)
        self._rebalance(t, server)
        return True

    def _best_server(self, vm: int, pool_idx: np.ndarray) -> int:
        """Rank candidate servers with the configured scorer; argmax wins.

        Both vectors are normalized into capacity fractions so scorers
        compare shapes, not raw units (memory MB would dwarf CPU cores).
        The rows come from the availability cache; scorers must not mutate
        them.
        """
        avail = self._refresh_avail()
        if pool_idx is not self._all_servers:
            avail = avail[pool_idx]
        scores = self._scorer.score(self._demand_norm[vm], avail)
        return int(pool_idx[scores.argmax()])

    def _refresh_avail(self) -> np.ndarray:
        """Recompute the dirty rows of the availability cache; return it.

        A deflation policy's row is the paper's availability (Section 5.2),
        free + deflatable headroom / overcommitment, over capacity; the
        preemption baseline's is its free capacity over capacity.  Rows
        are recomputed with Python floats in the operation order of the
        vectorized formula they replace (``x if x >= 0.0 else 0.0`` is
        ``np.maximum(x, 0.0)``, signed zeros included), so every row is
        bit-identical to a from-scratch NumPy recompute.  Zero-capacity
        (revoked) rows are never scored and are written as zeros.
        """
        avail = self._avail_norm
        dirty = self._avail_dirty
        if avail is None:
            dirty = range(len(self.residents))
            avail = self._avail_norm = np.zeros((len(dirty), _DIMS))
        elif not dirty:
            return avail
        com, cap = self.committed.item, self.server_cap.item
        if self._policy is None:
            for j in dirty:
                for r in range(_DIMS):
                    c = cap(j, r)
                    if c == 0.0:
                        avail[j, r] = 0.0
                        continue
                    free = c - com(j, r)
                    avail[j, r] = (free if free >= 0.0 else 0.0) / c
        else:
            recl, dcap, dfloor = self.reclaimed.item, self.defl_cap.item, self.defl_floor.item
            for j in dirty:
                for r in range(_DIMS):
                    c = cap(j, r)
                    if c == 0.0:
                        avail[j, r] = 0.0
                        continue
                    cm, rc = com(j, r), recl(j, r)
                    free = c - (cm - rc)
                    headroom = (dcap(j, r) - rc) - dfloor(j, r)
                    oc = cm / c
                    avail[j, r] = (
                        (free if free >= 0.0 else 0.0)
                        + (headroom if headroom >= 0.0 else 0.0) / (oc if oc >= 1.0 else 1.0)
                    ) / c
        self._avail_dirty.clear()
        return avail

    def _admit(self, t: float, vm: int, server: int) -> None:
        out = self.outcomes[vm]
        out.placed = True
        self.vm_placed[vm] = True
        self.committed[server] += self.vm_caps[vm]
        self._committed_cores += float(self.vm_caps[vm, 0])
        self._avail_dirty.add(server)
        self.residents[server][vm] = None
        self.vm_server[vm] = server
        if self.vm_deflatable[vm]:
            self.resident_deflatable[server][vm] = None
            self.defl_cap[server] += self.vm_caps[vm]
            self.defl_floor[server] += self.vm_floor[vm]
            self._srv_cache[server] = None
            self._srv_victims[server] = None
            self._append_history_one(vm, t, 1.0)
            self._last_frac[vm] = 1.0
        for c in self._collectors:
            c.on_admit(t, vm, server, self)

    def _reject(self, t: float, vm: int, out: VMOutcome) -> None:
        out.rejected = True
        self.vm_rejected[vm] = True
        for c in self._collectors:
            c.on_reject(t, vm, self)

    def _detach(self, vm: int, server: int) -> None:
        """Remove a VM from a server's bookkeeping (no outcome changes).

        Shared by normal departures, preemptions, and failure-injected
        evacuations/kills; the caller decides what the removal *means*.
        """
        self.committed[server] -= self.vm_caps[vm]
        self._committed_cores -= float(self.vm_caps[vm, 0])
        self._avail_dirty.add(server)
        del self.residents[server][vm]
        if self.vm_deflatable[vm]:
            del self.resident_deflatable[server][vm]
            self.defl_cap[server] -= self.vm_caps[vm]
            self.defl_floor[server] -= self.vm_floor[vm]
            self._srv_cache[server] = None
            self._srv_victims[server] = None

    def _reattach(self, vm: int, server: int) -> None:
        """Exact inverse of :meth:`_detach` (no collectors, no history).

        Used by the failure injector when a budgeted drain migration finds
        no destination: the VM never left the (still-running) source, so
        its bookkeeping is restored verbatim and the evacuation retries at
        the next tick.
        """
        self.committed[server] += self.vm_caps[vm]
        self._committed_cores += float(self.vm_caps[vm, 0])
        self._avail_dirty.add(server)
        self.residents[server][vm] = None
        if self.vm_deflatable[vm]:
            self.resident_deflatable[server][vm] = None
            self.defl_cap[server] += self.vm_caps[vm]
            self.defl_floor[server] += self.vm_floor[vm]
            self._srv_cache[server] = None
            self._srv_victims[server] = None

    def _handle_end(self, t: float, vm: int) -> None:
        out = self.outcomes[vm]
        if not out.placed or out.preempted:
            return
        server = int(self.vm_server[vm])
        self._detach(vm, server)
        for c in self._collectors:
            c.on_end(t, vm, server, self)
        if self._policy is not None:
            self._rebalance(t, server)

    def _rebalance(self, t: float, server: int) -> None:
        """Recompute deflatable allocations on one server under its pressure."""
        assert self._policy is not None
        defl = self.resident_deflatable[server]
        if not defl:
            return
        committed, cap, reclaimed = self.committed.item, self.server_cap.item, self.reclaimed
        r0 = committed(server, 0) - cap(server, 0)
        r1 = committed(server, 1) - cap(server, 1)
        # Fast path: no pressure and nothing reclaimed.  The policy solves
        # would return all-zero reclaims with every resident at its last
        # recorded full allocation (the ``reclaimed == 0`` invariant implies
        # every resident's last recorded fraction is 1.0), so the whole
        # per-dimension evaluation is a no-op; only observers run.
        if (
            r0 <= 0.0
            and r1 <= 0.0
            and reclaimed.item(server, 0) == 0.0
            and reclaimed.item(server, 1) == 0.0
        ):
            for c in self._collectors:
                c.on_rebalance(t, server, self)
            return
        self._avail_dirty.add(server)  # ``reclaimed`` is rewritten below
        cache = self._srv_cache[server]
        if cache is None:
            # [resident list, CPU plan, memory plan].  Plans are built
            # lazily on a dimension's first solve: a plan hoists
            # membership-dependent work (the priority policy's breakpoint
            # sort) out of the rebalance storm, and its lifetime is exactly
            # the cache's — any membership change drops both.  Results are
            # bit-identical to the one-shot trusted entry
            # (tests/core/test_deflation_trusted.py).
            cache = self._srv_cache[server] = [list(defl), None, None]
        idx = cache[0]
        cpu_reclaim = None
        unsatisfied = False
        for r, req in enumerate((r0, r1)):
            if req <= 0.0:
                # The policy short-circuits required <= 0 into an all-zero,
                # satisfied reclaim; skip the solve (typically the memory
                # dimension).
                reclaimed[server, r] = 0.0
                continue
            solve = cache[r + 1]
            if solve is None:
                caps, floors = self._vm_caps_lists[r], self._vm_floor_lists[r]
                prio = self._vm_prio_list
                solve = cache[r + 1] = self._policy.reclaim_plan(
                    [caps[v] for v in idx], [floors[v] for v in idx], [prio[v] for v in idx]
                )
            reclaim, satisfied = solve(req)
            # Sequential from 0.0: the order of the reference's ``sum(axis=0)``.
            total = 0.0
            for x in reclaim:
                total += x
            reclaimed[server, r] = total
            if r == 0:
                cpu_reclaim = reclaim
            if not satisfied:
                unsatisfied = True
        if unsatisfied:
            # Should not happen (feasibility was checked at admission), but a
            # departure race could in principle expose it; count it.
            self.vm_reclaim_failure[idx] = True
            for j in idx:
                self.outcomes[j].reclaim_failure = True
        # Record CPU allocation fraction changes (one bulk history append).
        if cpu_reclaim is None:
            fracs = [1.0] * len(idx)
        else:
            denom = self._vm_frac_denom
            fracs = [1.0 - x / denom[v] for x, v in zip(cpu_reclaim, idx)]
        last = self._last_frac
        sel, fsel = [], []
        for v, f in zip(idx, fracs):
            if abs(f - last.item(v)) > 1e-9:
                last[v] = f
                sel.append(v)
                fsel.append(f)
        if sel:
            self._append_history_bulk(sel, t, fsel)
        for c in self._collectors:
            c.on_rebalance(t, server, self)

    # -- preemption baseline ---------------------------------------------------------

    def _place_preemption(self, t: float, vm: int, candidates: np.ndarray) -> bool:
        demand = self.vm_caps[vm]
        if candidates is self._all_servers:
            free = self.server_cap - self.committed
        else:
            free = self.server_cap[candidates] - self.committed[candidates]
        fits = (free >= self._vm_caps_eps[vm]).all(axis=1)
        fit_idx = candidates[fits]
        if fit_idx.size > 0:
            self._admit(t, vm, self._best_server(vm, fit_idx))
            return True
        if self.vm_deflatable[vm]:
            # Low-priority arrivals are not allowed to preempt others.
            return False
        # On-demand under pressure: preempt deflatable VMs, lowest priority
        # first, on the server needing the fewest preemptions.  Plans longer
        # than the best one found so far can never win (strictly-fewer
        # tie-breaking), so later servers abandon their scans early.
        d0, d1 = float(demand[0]), float(demand[1])
        best_server, best_victims = -1, None
        limit = None
        for s in candidates.tolist():
            victims = self._plan_victims(s, d0, d1, limit)
            if victims is None:
                continue
            if best_victims is None or len(victims) < len(best_victims):
                best_server, best_victims = s, victims
                limit = len(best_victims)
        if best_victims is None:
            return False
        for victim in best_victims:
            self._preempt(t, victim)
        self._admit(t, vm, best_server)
        return True

    def _plan_victims(
        self, server: int, d0: float, d1: float, limit: int | None
    ) -> list[int] | None:
        """Scalar-math preemption planner.

        ``limit`` prunes plans that already match the caller's best length —
        they lose the strictly-fewer comparison regardless of how they end.
        """
        need0 = d0 - (self.server_cap[server, 0] - self.committed[server, 0])
        need1 = d1 - (self.server_cap[server, 1] - self.committed[server, 1])
        if need0 <= 1e-9 and need1 <= 1e-9:
            return []
        # Evicting every deflatable resident frees defl_cap, so servers far
        # short of the need can skip the victim scan.  The margin is kept
        # three orders looser than the scan's 1e-9 tolerance so float noise
        # between the incremental defl_cap sum and the scan's running sum
        # can never prune a server the scan would accept; gray-zone servers
        # fall through and the scan decides exactly.
        if self.defl_cap[server, 0] < need0 - 1e-6 or self.defl_cap[server, 1] < need1 - 1e-6:
            return None
        order = self._srv_victims[server]
        if order is None:
            prio = self._vm_prio_list
            order = sorted(self.resident_deflatable[server], key=lambda v: (prio[v], v))
            self._srv_victims[server] = order
        cores, mem = self._vm_caps_lists
        victims: list[int] = []
        freed0 = freed1 = 0.0
        for v in order:
            if freed0 >= need0 - 1e-9 and freed1 >= need1 - 1e-9:
                break
            victims.append(v)
            if limit is not None and len(victims) >= limit:
                return None
            freed0 += cores[v]
            freed1 += mem[v]
        if freed0 >= need0 - 1e-9 and freed1 >= need1 - 1e-9:
            return victims
        return None

    def _preempt(self, t: float, vm: int) -> None:
        if self._preempt_log is not None:
            self._preempt_log.append(vm)
        out = self.outcomes[vm]
        out.preempted = True
        self.vm_preempted[vm] = True
        out.end_interval = t
        server = int(self.vm_server[vm])
        self._detach(vm, server)
        self._append_history_one(vm, t, 0.0)
        self._last_frac[vm] = 0.0
        for c in self._collectors:
            c.on_preempt(t, vm, server, self)

    # -- allocation-history log --------------------------------------------------------

    def _hist_reserve(self, extra: int) -> None:
        need = self._hist_n + extra
        if need <= self._hist_vm.size:
            return
        size = max(need, 2 * self._hist_vm.size)
        for name in ("_hist_vm", "_hist_t", "_hist_f"):
            old = getattr(self, name)
            grown = np.empty(size, dtype=old.dtype)
            grown[: self._hist_n] = old[: self._hist_n]
            setattr(self, name, grown)

    def _append_history_one(self, vm: int, t: float, frac: float) -> None:
        self._hist_reserve(1)
        i = self._hist_n
        self._hist_vm[i] = vm
        self._hist_t[i] = t
        self._hist_f[i] = frac
        self._hist_n = i + 1
        self._hist_sorted = None

    def _append_history_bulk(self, vms: list[int], t: float, fracs: list[float]) -> None:
        k = len(vms)
        self._hist_reserve(k)
        i = self._hist_n
        self._hist_vm[i : i + k] = vms
        self._hist_t[i : i + k] = t
        self._hist_f[i : i + k] = fracs
        self._hist_n = i + k
        self._hist_sorted = None

    def _history_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The log grouped by VM (stable, so per-VM order stays event order)."""
        if self._hist_sorted is None:
            n = self._hist_n
            order = np.argsort(self._hist_vm[:n], kind="stable")
            self._hist_sorted = (
                self._hist_vm[:n][order],
                self._hist_t[:n][order],
                self._hist_f[:n][order],
            )
        return self._hist_sorted

    def _history_of(self, vm: int) -> tuple[np.ndarray, np.ndarray]:
        """(intervals, fractions) recorded for one VM, in event order."""
        svm, st, sf = self._history_arrays()
        lo = int(np.searchsorted(svm, vm, side="left"))
        hi = int(np.searchsorted(svm, vm, side="right"))
        return st[lo:hi], sf[lo:hi]

    def allocation_history(self, vm: int) -> list[tuple[float, float]]:
        """Piecewise-constant ``(interval, frac)`` history of one VM."""
        times, fracs = self._history_of(vm)
        return list(zip(times.tolist(), fracs.tolist()))

    # -- metrics -----------------------------------------------------------------------

    def _allocation_series(self, rec: VMTraceRecord, out: VMOutcome) -> np.ndarray:
        """Per-interval CPU allocation fraction over the VM's lifetime."""
        n = rec.lifetime_intervals
        if out.preempted:
            n = max(0, min(n, int(math.ceil(out.end_interval - rec.start_interval))))
        alloc = np.ones(rec.lifetime_intervals)
        times, fracs = self._history_of(out.vm_index)
        if times.size == 0:
            return alloc
        times = times - rec.start_interval
        grid = np.arange(rec.lifetime_intervals, dtype=np.float64)
        pos = np.searchsorted(times, grid, side="right") - 1
        alloc = np.where(pos >= 0, fracs[np.clip(pos, 0, len(fracs) - 1)], 1.0)
        if out.preempted:
            alloc[n:] = 0.0
        return alloc

    def _metric_terms(self) -> "VMMetricTerms":
        """Per-VM metric terms over the deflatable placed population.

        The terms are pure per-VM quantities (no cross-VM accumulation), so
        they can be computed shard-locally and re-reduced in global VM order
        by the sharded engine; :func:`reduce_vm_terms` performs the exact
        reductions :meth:`_collect` applies to them.
        """
        records = self.traces.records
        sel = np.nonzero(self.vm_deflatable & self.vm_placed)[0]

        # Per-VM metric terms, later reduced with cumsum (sequential, so the
        # float accumulation order matches the original per-VM `+=` loop).
        demanded_t = np.zeros(sel.size)
        lost_t = np.zeros(sel.size)
        deflation_t = np.zeros(sel.size)
        alloc_integral = np.zeros(sel.size)
        cores_sel = self.vm_caps[sel, 0] if sel.size else np.zeros(0)
        lifetime_sel = self.vm_lifetime[sel].astype(np.float64)

        # A VM whose history is just its admission entry (fraction 1.0) was
        # never deflated nor preempted: its allocation series is identically
        # 1.0, so lost work and deflation are exactly 0.0 and the allocation
        # integral is exactly its lifetime — no series reconstruction needed.
        if sel.size:
            svm, _, _ = self._history_arrays()
            hist_len = np.searchsorted(svm, sel, side="right") - np.searchsorted(
                svm, sel, side="left"
            )
            trivial = ~self.vm_preempted[sel] & (hist_len <= 1)
        else:
            trivial = np.zeros(0, dtype=bool)

        final = self._final_terms
        for k, i in enumerate(sel.tolist()):
            if final is not None and final["mask"][i]:
                # Finalized during streaming compaction (its history rows
                # are gone); serve the cached terms back verbatim.
                demanded_t[k] = final["demanded"][i]
                lost_t[k] = final["lost"][i]
                deflation_t[k] = final["deflation"][i]
                alloc_integral[k] = final["alloc_integral"][i]
                continue
            rec = records[i]
            cores = float(cores_sel[k])
            u_sum = float(rec.cpu_util.sum())
            demanded_t[k] = u_sum * cores
            if trivial[k]:
                alloc_integral[k] = float(rec.lifetime_intervals)
                continue
            alloc = self._allocation_series(rec, self.outcomes[i])
            lost_t[k] = float(np.maximum(rec.cpu_util - alloc, 0.0).sum()) * cores
            deflation_t[k] = float((1.0 - alloc).sum()) * cores
            alloc_integral[k] = float(alloc.sum())

        # Bill at the admission-time priority snapshot (VMOutcome.priority),
        # exactly as the reference does — post-build surgery on vm_prio
        # affects deflation decisions, not the agreed price.
        prio_sel = np.array(
            [self.outcomes[i].priority for i in sel.tolist()], dtype=np.float64
        )
        return VMMetricTerms(
            sel=sel,
            demanded=demanded_t,
            lost=lost_t,
            deflation=deflation_t,
            alloc_integral=alloc_integral,
            cores=cores_sel,
            lifetimes=lifetime_sel,
            priorities=prio_sel,
        )

    def _collect(self, peak_committed: float) -> ClusterSimResult:
        terms = self._metric_terms()
        agg = reduce_vm_terms(terms)
        demanded_work = agg["demanded_work"]
        lost_work = agg["lost_work"]
        deflation_sum = agg["deflation_sum"]
        deflation_weight = agg["deflation_weight"]
        revenue = agg["revenue"]

        collected = {c.name: c.finalize(self) for c in self._collectors}
        total_capacity = float(self.server_cap[:, 0].sum())
        if self._injector is not None:
            # The injector's aggregate revocation/dip metrics ride along
            # with the collector payloads (plain scalars, cache-friendly).
            collected["failure-injection"] = self._injector.summary()
            # Revoked/dipped servers have mutated server_cap rows; report
            # the nominal provisioned capacity, not what survived.
            total_capacity = self._injector.nominal_total_cores()

        result = ClusterSimResult(
            config=self.config,
            n_vms=len(self.traces),
            n_deflatable=int(self.vm_deflatable.sum()),
            n_placed=int(self.vm_placed.sum()),
            n_rejected_deflatable=int((self.vm_rejected & self.vm_deflatable).sum()),
            n_rejected_on_demand=int((self.vm_rejected & ~self.vm_deflatable).sum()),
            n_preempted=int(self.vm_preempted.sum()),
            n_reclaim_failures=int(
                (self.vm_reclaim_failure & ~self.vm_rejected).sum()
            ),
            peak_committed_cores=peak_committed,
            total_capacity_cores=total_capacity,
            throughput_loss=(lost_work / demanded_work) if demanded_work > 0 else 0.0,
            mean_deflation=(deflation_sum / deflation_weight) if deflation_weight else 0.0,
            revenue=revenue,
            revenue_per_server={
                name: rev / self.config.n_servers for name, rev in revenue.items()
            },
            collected=collected,
        )
        return result


def servers_for_overcommitment(
    traces: VMTraceSet,
    overcommitment: float,
    cores_per_server: float = 48.0,
) -> int:
    """Server count placing the cluster at a target peak overcommitment.

    The paper's methodology: find the minimum cluster that fits the peak
    committed load (overcommitment 0), then shrink it.  Peak committed load
    is computed directly from the trace (all VMs placed).
    """
    if overcommitment < 0:
        raise SimulationError("overcommitment must be >= 0")
    # Per interval: + cores at each start, - cores at each end, accumulated
    # in trace order (start before end per VM) by one bincount.
    steps = np.array(
        [(rec.start_interval, rec.start_interval + rec.cpu_util.size) for rec in traces],
        dtype=np.int64,
    ).reshape(-1)
    cores = np.array([rec.cores for rec in traces], dtype=np.float64)
    signed = np.column_stack((cores, -cores)).reshape(-1)
    load = np.bincount(steps, weights=signed, minlength=1)
    peak = float(np.cumsum(load).max())
    n = math.ceil(peak / (cores_per_server * (1.0 + overcommitment)))
    return max(1, n)
