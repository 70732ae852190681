"""Trace schemas shared by the feasibility analysis and the cluster simulator.

Two shapes of data, mirroring the paper's two datasets:

* :class:`VMTraceRecord` / :class:`VMTraceSet` — Azure-style VM traces: per-VM
  CPU-utilization time series at 5-minute granularity plus metadata (size,
  workload class, lifetime).
* :class:`ContainerTraceRecord` / :class:`ContainerTraceSet` — Alibaba-style
  container traces: memory occupancy, memory-bandwidth, disk and network
  utilization series.

Utilizations are fractions of the *allocated* resource in ``[0, 1]``.
Every series is validated on construction: it must be 1-D, non-empty and
finite (a NaN or infinite entry raises :class:`~repro.errors.TraceError`),
and lie in ``[0, 1]`` up to a ``1e-9`` tolerance; the stored copy is
clipped to ``[0, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.vm import VMClass
from repro.errors import TraceError

#: Trace interval length in seconds (the Azure dataset reports 5-minute
#: maxima; all our series use the same granularity).
INTERVAL_SECONDS = 300

#: Intervals per day at 5-minute granularity.
INTERVALS_PER_DAY = 24 * 60 * 60 // INTERVAL_SECONDS


def _check_utilization(series: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise TraceError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise TraceError(f"{name} must be non-empty")
    # The ufunc reductions propagate NaN, so one range test also rejects it.
    lo = float(np.minimum.reduce(arr))
    hi = float(np.maximum.reduce(arr))
    if not (lo >= -1e-9 and hi <= 1 + 1e-9):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise TraceError(f"{name} must be finite")
        raise TraceError(f"{name} must lie in [0, 1]")
    if lo < 0.0 or hi > 1.0:
        return arr.clip(0.0, 1.0)
    return arr.copy()  # clipping in-range values (-0.0 included) changes no bit


def percentile95(values: np.ndarray) -> float:
    """``float(np.percentile(values, 95))`` of a finite 1-D float64 array, bit for bit.

    NumPy's default ("linear") method without its per-call dispatch: the
    virtual index ``(n - 1) * 0.95``, a partition over the same index set
    NumPy partitions over (so ties between ``-0.0`` and ``0.0`` resolve the
    same way), and the two branches of NumPy's ``_lerp`` in Python floats.
    """
    n = values.size
    virtual = (n - 1) * 0.95
    below = above = -1  # at or past the last index NumPy takes the maximum
    if virtual < n - 1:
        below = math.floor(virtual)
        above = below + 1
    part = values.copy()
    part.partition(sorted({0, -1, below, above}))
    a = float(part[below])
    b = float(part[above])
    gamma = virtual - below
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


@dataclass
class VMTraceRecord:
    """One VM's lifetime in an Azure-style trace."""

    vm_id: str
    vm_class: VMClass
    cores: int
    memory_mb: float
    start_interval: int
    cpu_util: np.ndarray  # fraction of allocated CPU, one entry per interval

    def __post_init__(self) -> None:
        self.cpu_util = _check_utilization(self.cpu_util, "cpu_util")
        if self.cores < 1 or self.memory_mb <= 0:
            raise TraceError("VM must have >= 1 core and > 0 memory")
        # The simulator and servers_for_overcommitment index intervals with
        # it; a fractional start would be truncated silently.
        if not isinstance(self.start_interval, (int, np.integer)):
            raise TraceError(f"start_interval must be an integer, got {self.start_interval!r}")
        if self.start_interval < 0:
            raise TraceError("start_interval must be >= 0")

    @property
    def lifetime_intervals(self) -> int:
        return int(self.cpu_util.size)

    @property
    def end_interval(self) -> int:
        """Exclusive end interval."""
        return self.start_interval + self.cpu_util.size

    @property
    def p95_cpu(self) -> float:
        """95th-percentile CPU utilization — the paper's deflatability proxy.

        Cached after the first access: sweeps replay one trace set against
        many cluster configurations, and recomputing the percentile per
        simulator construction dominated setup time at 20k VMs.
        """
        cached = self.__dict__.get("_p95_cpu")
        if cached is None:
            cached = percentile95(self.cpu_util)
            self.__dict__["_p95_cpu"] = cached
        return cached

    @property
    def mean_cpu(self) -> float:
        return float(self.cpu_util.mean())

    def size_class(self) -> str:
        """Figure 7's memory-size buckets."""
        if self.memory_mb <= 2 * 1024:
            return "small(<=2GB)"
        if self.memory_mb <= 8 * 1024:
            return "medium(<=8GB)"
        return "large(>8GB)"

    def peak_class(self) -> str:
        """Figure 8's 95th-percentile CPU buckets."""
        p = self.p95_cpu
        if p < 0.33:
            return "p95<33%"
        if p < 0.66:
            return "33%<=p95<66%"
        if p < 0.80:
            return "66%<=p95<80%"
        return "p95>=80%"


@dataclass
class VMTraceSet:
    """A collection of VM traces with bulk accessors."""

    records: list[VMTraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx: int) -> VMTraceRecord:
        return self.records[idx]

    def by_class(self, vm_class: VMClass) -> "VMTraceSet":
        return VMTraceSet([r for r in self.records if r.vm_class == vm_class])

    def by_size_class(self, label: str) -> "VMTraceSet":
        return VMTraceSet([r for r in self.records if r.size_class() == label])

    def by_peak_class(self, label: str) -> "VMTraceSet":
        return VMTraceSet([r for r in self.records if r.peak_class() == label])

    def horizon(self) -> int:
        """Last (exclusive) interval across all records."""
        return max((r.start_interval + r.cpu_util.size for r in self.records), default=0)

    def total_core_intervals(self) -> float:
        return float(sum(r.cores * r.lifetime_intervals for r in self.records))


@dataclass
class ContainerTraceRecord:
    """One container's lifetime in an Alibaba-style trace.

    All series share one length.  ``mem_bw_util`` is the memory-bus bandwidth
    utilization — the paper's proxy showing that high occupancy does not mean
    high memory activity (Figure 10).
    """

    container_id: str
    mem_util: np.ndarray
    mem_bw_util: np.ndarray
    disk_util: np.ndarray
    net_util: np.ndarray

    def __post_init__(self) -> None:
        self.mem_util = _check_utilization(self.mem_util, "mem_util")
        self.mem_bw_util = _check_utilization(self.mem_bw_util, "mem_bw_util")
        self.disk_util = _check_utilization(self.disk_util, "disk_util")
        self.net_util = _check_utilization(self.net_util, "net_util")
        n = self.mem_util.size
        for name in ("mem_bw_util", "disk_util", "net_util"):
            if getattr(self, name).size != n:
                raise TraceError("all container series must share one length")

    @property
    def lifetime_intervals(self) -> int:
        return int(self.mem_util.size)


@dataclass
class ContainerTraceSet:
    records: list[ContainerTraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx: int) -> ContainerTraceRecord:
        return self.records[idx]

    def series_matrix(self, name: str) -> np.ndarray:
        """Stack one series across containers (requires equal lengths)."""
        if not self.records:
            raise TraceError("empty trace set")
        arrays = [getattr(r, name) for r in self.records]
        lengths = {a.size for a in arrays}
        if len(lengths) != 1:
            raise TraceError("series lengths differ; cannot stack")
        return np.vstack(arrays)
