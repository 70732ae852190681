"""Tests for the Azure-style trace synthesizer, including the calibration
bands the feasibility figures depend on."""

import bisect

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.errors import TraceError
from repro.feasibility.analysis import deflation_sweep
from repro.traces.azure import (
    SIZE_MENU,
    SIZE_WEIGHTS,
    AzureTraceConfig,
    _choice_cdf,
    _uniforms,
    synthesize_azure_trace,
)
from repro.traces.schema import INTERVALS_PER_DAY


@pytest.fixture(scope="module")
def trace():
    return synthesize_azure_trace(AzureTraceConfig(n_vms=500, seed=99))


class TestStructure:
    def test_population_size(self, trace):
        assert len(trace) == 500

    def test_deterministic_per_seed(self):
        a = synthesize_azure_trace(AzureTraceConfig(n_vms=50, seed=1))
        b = synthesize_azure_trace(AzureTraceConfig(n_vms=50, seed=1))
        for ra, rb in zip(a, b):
            assert ra.vm_class == rb.vm_class
            np.testing.assert_array_equal(ra.cpu_util, rb.cpu_util)

    def test_different_seeds_differ(self):
        a = synthesize_azure_trace(AzureTraceConfig(n_vms=50, seed=1))
        b = synthesize_azure_trace(AzureTraceConfig(n_vms=50, seed=2))
        assert any(
            not np.array_equal(ra.cpu_util, rb.cpu_util) for ra, rb in zip(a, b)
        )

    def test_utilization_in_unit_interval(self, trace):
        for rec in trace:
            assert rec.cpu_util.min() >= 0.0
            assert rec.cpu_util.max() <= 1.0

    def test_lifetimes_within_horizon(self, trace):
        horizon = AzureTraceConfig().horizon_intervals
        for rec in trace:
            assert 0 <= rec.start_interval < rec.end_interval <= horizon

    def test_sizes_from_menu(self, trace):
        menu = set(SIZE_MENU)
        for rec in trace:
            assert (rec.cores, rec.memory_mb) in menu

    def test_class_mix_roughly_matches_config(self, trace):
        frac_interactive = sum(
            1 for r in trace if r.vm_class == VMClass.INTERACTIVE
        ) / len(trace)
        assert 0.40 < frac_interactive < 0.60  # configured 0.50

    def test_all_size_classes_populated(self, trace):
        labels = {r.size_class() for r in trace}
        assert labels == {"small(<=2GB)", "medium(<=8GB)", "large(>8GB)"}


class TestCalibration:
    """The headline statistics from Section 3.2.1 must hold (in band)."""

    def test_interactive_low_impact_at_10pct(self, trace):
        series = [r.cpu_util for r in trace.by_class(VMClass.INTERACTIVE)]
        mean_impact = deflation_sweep(series, (0.1,)).means()[0]
        assert mean_impact < 0.05  # paper: ~1%

    def test_interactive_impact_band_at_50pct(self, trace):
        series = [r.cpu_util for r in trace.by_class(VMClass.INTERACTIVE)]
        mean_impact = deflation_sweep(series, (0.5,)).means()[0]
        assert 0.05 < mean_impact < 0.30  # paper: ~15%

    def test_batch_more_impacted_than_interactive(self, trace):
        inter = [r.cpu_util for r in trace.by_class(VMClass.INTERACTIVE)]
        batch = [r.cpu_util for r in trace.by_class(VMClass.DELAY_INSENSITIVE)]
        for lvl in (0.2, 0.4, 0.5):
            mi = deflation_sweep(inter, (lvl,)).means()[0]
            mb = deflation_sweep(batch, (lvl,)).means()[0]
            assert mb > mi

    def test_median_vm_mostly_below_50pct_allocation(self, trace):
        """Fig 5's headline: at 50% deflation the median VM spends most of
        its time below the deflated allocation."""
        series = [r.cpu_util for r in trace]
        median = deflation_sweep(series, (0.5,)).medians()[0]
        assert median <= 0.30

    def test_size_has_no_strong_correlation(self, trace):
        """Fig 7: deflatability is similar across size buckets."""
        means = []
        for label in ("small(<=2GB)", "medium(<=8GB)", "large(>8GB)"):
            series = [r.cpu_util for r in trace.by_size_class(label)]
            means.append(deflation_sweep(series, (0.5,)).means()[0])
        assert max(means) - min(means) < 0.20

    def test_peak_class_orders_impact(self, trace):
        """Fig 8: higher p95 usage means more impact under deflation."""
        labels = ("p95<33%", "33%<=p95<66%", "66%<=p95<80%", "p95>=80%")
        means = []
        for label in labels:
            series = [r.cpu_util for r in trace.by_peak_class(label)]
            if series:
                means.append(deflation_sweep(series, (0.4,)).means()[0])
        assert means == sorted(means)


class TestValidation:
    def test_bad_counts(self):
        with pytest.raises(TraceError):
            AzureTraceConfig(n_vms=0)
        with pytest.raises(TraceError):
            AzureTraceConfig(horizon_intervals=1)

    def test_class_mix_must_sum_to_one(self):
        with pytest.raises(TraceError):
            AzureTraceConfig(class_mix={VMClass.INTERACTIVE: 0.5})

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_class_mix_weights_must_be_finite_and_non_negative(self, bad):
        # {I: 1.5, D: -0.5, U: 0.0} sums to 1 but is no distribution.
        mix = {VMClass.INTERACTIVE: 1.0 - bad, VMClass.DELAY_INSENSITIVE: bad, VMClass.UNKNOWN: 0.0}
        with pytest.raises(TraceError, match="finite and >= 0"):
            AzureTraceConfig(class_mix=mix)

    def test_zero_class_weight_is_never_drawn(self):
        mix = {VMClass.INTERACTIVE: 0.7, VMClass.DELAY_INSENSITIVE: 0.0, VMClass.UNKNOWN: 0.3}
        tr = synthesize_azure_trace(AzureTraceConfig(n_vms=300, seed=4, class_mix=mix))
        assert {r.vm_class for r in tr} == {VMClass.INTERACTIVE, VMClass.UNKNOWN}

    def test_diurnal_arrivals_cluster(self):
        cfg = AzureTraceConfig(n_vms=2000, seed=5, diurnal_arrival_ratio=8.0,
                               horizon_intervals=2 * INTERVALS_PER_DAY)
        tr = synthesize_azure_trace(cfg)
        phases = np.array([r.start_interval % INTERVALS_PER_DAY for r in tr])
        # Peak half of the sine (centered on the intensity maximum) should
        # hold clearly more than half the arrivals.
        peak_mask = np.sin(2 * np.pi * phases / INTERVALS_PER_DAY) > 0
        assert peak_mask.mean() > 0.6


class TestDrawEquivalence:
    """The synthesizer's scalar draws match the Generator calls they replace."""

    @pytest.mark.parametrize("trial", range(12))
    def test_choice_cdf_draws_like_generator_choice(self, trial):
        if trial == 0:
            weights = np.array(SIZE_WEIGHTS)
        else:
            spec = np.random.default_rng(trial)
            n = int(spec.integers(1, 10))
            weights = spec.random(n) * (spec.random(n) > 0.3)  # some zero weights
            weights[0] += weights.sum() == 0
        k = weights.size
        p = weights / weights.sum()
        cdf = _choice_cdf(weights)
        ours, numpy_rng = np.random.default_rng(100 + trial), np.random.default_rng(100 + trial)
        got = [bisect.bisect_right(cdf, ours.random()) for _ in range(3000)]
        want = [int(numpy_rng.choice(k, p=p)) for _ in range(3000)]
        assert got == want
        assert ours.bit_generator.state == numpy_rng.bit_generator.state

    def test_uniforms_match_scalar_uniform_calls(self):
        bounds = [(0.04, 0.28), (0.18, 0.55), (0, INTERVALS_PER_DAY), (6, 4 * 12)]
        ours, numpy_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            got = _uniforms(ours, *bounds)
            want = [numpy_rng.uniform(lo, hi) for lo, hi in bounds]
            assert [v.hex() for v in got] == [v.hex() for v in want]
        assert ours.bit_generator.state == numpy_rng.bit_generator.state
