"""Azure-style VM trace synthesizer.

The real dataset (Cortez et al., SOSP'17) is not redistributable here, so we
generate statistically matched traces: per-VM CPU-utilization series at
5-minute granularity with workload-class-conditioned behaviour.

Calibration targets, taken from the paper's Section 3.2.1:

* interactive VMs "tend to have lower overall utilization and hence more
  slack"; their underallocation impact grows from ~1% to ~15% as deflation
  goes 10% -> 50%;
* delay-insensitive (batch) VMs see ~1% to ~30% over the same range;
* the *median* VM spends <=20% of its time above a 50%-deflated allocation
  (Figure 5);
* VM size has no direct correlation with deflatability (Figure 7) — the
  generators therefore never condition utilization on size;
* VMs with higher 95th-percentile utilization are hit harder (Figure 8) —
  emerges automatically from per-VM heterogeneity.

Class-conditioned generators:

* **interactive** — a low baseline plus a diurnal sinusoid (web traffic) and
  Gaussian noise, with rare short bursts;
* **delay-insensitive** — an on/off Markov phase process: busy phases of high
  utilization (batch jobs running) alternating with idle phases;
* **unknown** — a mixture of the two.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.vm import VMClass
from repro.errors import TraceError
from repro.registry import register
from repro.traces.schema import INTERVALS_PER_DAY, VMTraceRecord, VMTraceSet

#: Azure-like size menu: (cores, memory_mb).  Mixes burstable-sized small VMs
#: with the larger D/E-series shapes so Figure 7's three buckets are populated.
SIZE_MENU: tuple[tuple[int, float], ...] = (
    (1, 1024.0),
    (1, 2048.0),
    (2, 4096.0),
    (2, 8192.0),
    (4, 8192.0),
    (4, 16384.0),
    (8, 32768.0),
    (16, 65536.0),
    (24, 65536.0),
)

#: Sampling weights for the size menu (small sizes dominate real clouds).
SIZE_WEIGHTS: tuple[float, ...] = (0.18, 0.16, 0.16, 0.12, 0.12, 0.10, 0.08, 0.05, 0.03)


def _choice_cdf(weights) -> list[float]:
    """The CDF that ``rng.choice(k, p=weights / sum(weights))`` searches.

    ``Generator.choice`` with ``p`` draws one ``rng.random()`` double ``u``
    and returns ``searchsorted(cdf, u, side="right")``; ``bisect_right``
    over this list returns the same index from the same single draw.
    """
    p = np.asarray(weights, dtype=np.float64)
    p = p / p.sum()
    cdf = np.cumsum(p)
    return (cdf / cdf[-1]).tolist()


_SIZE_CDF = _choice_cdf(SIZE_WEIGHTS)


@dataclass(frozen=True)
class AzureTraceConfig:
    """Knobs for the synthesizer.

    ``class_mix`` follows the paper's observation that interactive VMs are
    roughly half the population ("this translates to roughly 50% of the VMs
    being deflatable").
    """

    n_vms: int = 1000
    horizon_intervals: int = 2 * INTERVALS_PER_DAY
    seed: int = 42
    class_mix: dict = field(
        default_factory=lambda: {
            VMClass.INTERACTIVE: 0.50,
            VMClass.DELAY_INSENSITIVE: 0.30,
            VMClass.UNKNOWN: 0.20,
        }
    )
    #: Mean VM lifetime in intervals (lognormal); Azure VMs are long-lived
    #: relative to the trace window.
    mean_lifetime_intervals: float = 0.35 * INTERVALS_PER_DAY
    #: Cluster arrivals are diurnal: more VMs start during business hours.
    #: Sinusoidal arrival intensity with this peak-to-trough ratio.  The
    #: peaky concurrency this produces matches the paper's observation that
    #: "the average VM deflation is not equal to the cluster overcommitment
    #: but is significantly lower" (clusters are provisioned for peak).
    diurnal_arrival_ratio: float = 5.0

    def __post_init__(self) -> None:
        if self.n_vms < 1:
            raise TraceError("n_vms must be >= 1")
        if self.horizon_intervals < 2:
            raise TraceError("horizon must be >= 2 intervals")
        for vm_class, weight in self.class_mix.items():
            if not (math.isfinite(weight) and weight >= 0):
                raise TraceError(
                    f"class_mix weight of {vm_class} must be finite and >= 0, got {weight}"
                )
        total = sum(self.class_mix.values())
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise TraceError(f"class_mix must sum to 1, got {total}")


def _uniforms(rng: np.random.Generator, *bounds: tuple[float, float]) -> list[float]:
    """One ``rng.uniform(lo, hi)`` per ``(lo, hi)``, from a single ``rng.random(k)``.

    ``Generator.uniform`` returns ``lo + (hi - lo) * u`` for one ``random()``
    double ``u``; a vector draw yields the same doubles in the same order.
    """
    draws = rng.random(len(bounds)).tolist()
    return [lo + (hi - lo) * u for (lo, hi), u in zip(bounds, draws)]


def _interactive_series(rng: np.random.Generator, n: int, start: int) -> np.ndarray:
    """Diurnal interactive utilization (fraction of allocated CPU)."""
    baseline, amplitude, phase, sharpness = _uniforms(
        rng, (0.04, 0.28), (0.18, 0.55), (0, INTERVALS_PER_DAY), (1.0, 3.0)
    )
    t = np.arange(start, start + n)
    diurnal = 0.5 * (1.0 + np.sin(2 * np.pi * (t - phase) / INTERVALS_PER_DAY))
    series = baseline + amplitude * diurnal**sharpness
    series += rng.normal(0.0, 0.04, size=n)
    # Rare traffic bursts: a few short windows of elevated load.
    n_bursts = rng.poisson(n / (2.5 * INTERVALS_PER_DAY) + 0.2)
    for _ in range(n_bursts):
        pos = rng.integers(0, n)
        width = int(rng.integers(1, 8))
        series[pos : pos + width] += 0.2 + (0.55 - 0.2) * rng.random()  # rng.uniform(0.2, 0.55)
    return series.clip(0.0, 1.0)


def _batch_series(rng: np.random.Generator, n: int, start: int) -> np.ndarray:
    """On/off batch utilization: busy phases of sustained high usage."""
    # duty: fraction of time busy; mean_busy_len: 30 min .. 4 h.
    busy_level, idle_level, duty, mean_busy_len = _uniforms(
        rng, (0.55, 0.92), (0.02, 0.15), (0.20, 0.60), (6, 4 * 12)
    )
    mean_idle_len = mean_busy_len * (1.0 - duty) / max(duty, 1e-3)
    series = np.empty(n)
    pos = 0
    busy = bool(rng.random() < duty)
    while pos < n:
        length = max(1, int(rng.exponential(mean_busy_len if busy else mean_idle_len)))
        level = busy_level if busy else idle_level
        end = min(n, pos + length)
        # Generator.normal draws loc + scale * z: the level plus N(0, 0.05) noise.
        series[pos:end] = rng.normal(level, 0.05, size=end - pos)
        pos = end
        busy = not busy
    return series.clip(0.0, 1.0)


def _unknown_series(rng: np.random.Generator, n: int, start: int) -> np.ndarray:
    if rng.random() < 0.5:
        return _interactive_series(rng, n, start)
    return _batch_series(rng, n, start)


_GENERATORS = {
    VMClass.INTERACTIVE: _interactive_series,
    VMClass.DELAY_INSENSITIVE: _batch_series,
    VMClass.UNKNOWN: _unknown_series,
}


def _diurnal_start(rng: np.random.Generator, cfg: AzureTraceConfig) -> int:
    """Sample a start interval under sinusoidal (diurnal) arrival intensity.

    Rejection sampling against ``1 + (ratio-1) * (0.5 + 0.5 sin)``; a ratio
    of 1 degenerates to uniform starts.
    """
    hi = max(cfg.diurnal_arrival_ratio, 1.0)
    limit = max(1, cfg.horizon_intervals - 2)
    while True:
        t = int(rng.integers(0, limit))
        intensity = 1.0 + (hi - 1.0) * 0.5 * (
            1.0 + math.sin(2 * math.pi * t / INTERVALS_PER_DAY)
        )
        if rng.random() < intensity / hi:
            return t


def synthesize_azure_trace(config: AzureTraceConfig | None = None) -> VMTraceSet:
    """Generate an Azure-style VM trace set (deterministic per seed)."""
    cfg = config if config is not None else AzureTraceConfig()
    rng = np.random.default_rng(cfg.seed)

    classes = list(cfg.class_mix)
    class_cdf = _choice_cdf([cfg.class_mix[c] for c in classes])
    # Lifetime: lognormal with the configured mean, at least 2 intervals,
    # clipped to what remains of the horizon after the start.
    mu = math.log(cfg.mean_lifetime_intervals) - 0.5

    records: list[VMTraceRecord] = []
    for i in range(cfg.n_vms):
        # Class and size as rng.choice(k, p=...) draws them (see _choice_cdf).
        vm_class = classes[bisect_right(class_cdf, rng.random())]
        cores, memory_mb = SIZE_MENU[bisect_right(_SIZE_CDF, rng.random())]
        lifetime = max(2, int(rng.lognormal(mean=mu, sigma=1.0)))
        start = _diurnal_start(rng, cfg)
        lifetime = min(lifetime, cfg.horizon_intervals - start)

        series = _GENERATORS[vm_class](rng, lifetime, start)
        records.append(
            VMTraceRecord(
                vm_id=f"azure-vm-{i}",
                vm_class=vm_class,
                cores=cores,
                memory_mb=memory_mb,
                start_interval=start,
                cpu_util=series,
            )
        )
    return VMTraceSet(records)


@register("workload", "azure")
def azure_workload(**params) -> VMTraceSet:
    """Registry adapter: build an Azure-style trace from plain kwargs.

    Accepts the :class:`AzureTraceConfig` fields as keyword arguments, so a
    declarative scenario can say ``{"source": "azure", "n_vms": 500,
    "seed": 31}`` without constructing config objects.
    """
    return synthesize_azure_trace(AzureTraceConfig(**params))
