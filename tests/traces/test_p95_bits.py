"""``percentile95`` equals ``float(np.percentile(x, 95))`` byte for byte.

``VMTraceRecord.p95_cpu`` feeds the simulator's priority levels, so the
helper must reproduce NumPy's default ("linear") percentile exactly,
signed zeros included.  Covered: every length 1-600 with continuous
values, heavy ties, all-equal series, zeros mixed with ``-0.0`` and exact
1.0 values, which between them reach both interpolation branches
(``gamma >= 0.5`` and ``gamma < 0.5``) and the at-the-maximum case.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.traces.schema import VMTraceRecord, percentile95

LENGTHS = range(1, 601)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _series(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    ties = np.array([-0.0, 0.0, 0.25, 0.5, 1.0])
    return {
        "continuous": rng.random(n),
        "ties": rng.choice(ties, n),
        "signed-zeros": rng.choice(np.array([-0.0, 0.0]), n),
        "zeros-and-ones": rng.choice(np.array([-0.0, 0.0, 1.0]), n),
        "all-equal": np.full(n, rng.choice(ties)),
        "all-negative-zero": np.full(n, -0.0),
        "sorted": np.sort(rng.random(n)),
    }


def _gamma(n: int) -> float | None:
    """NumPy's interpolation weight at length ``n``; None at the maximum."""
    virtual = (n - 1) * 0.95
    return None if virtual >= n - 1 else virtual - math.floor(virtual)


def test_lengths_reach_every_branch():
    gammas = [_gamma(n) for n in LENGTHS]
    assert any(g is None for g in gammas)
    assert any(g is not None and g >= 0.5 for g in gammas)
    assert any(g is not None and g < 0.5 for g in gammas)
    assert any(g == 0.0 for g in gammas)


@pytest.mark.parametrize("chunk", range(6))
def test_percentile95_matches_numpy_bytewise(chunk):
    rng = np.random.default_rng(9500 + chunk)
    bad = []
    for n in LENGTHS[chunk * 100 : (chunk + 1) * 100]:
        for kind, x in _series(rng, n).items():
            want = float(np.percentile(x, 95))
            got = percentile95(x)
            if _bits(got) != _bits(want):
                bad.append((n, kind, got, want))
    assert not bad, bad[:5]


def test_percentile95_leaves_its_input_alone():
    x = np.random.default_rng(1).random(57)
    before = x.copy()
    percentile95(x)
    assert x.tobytes() == before.tobytes()


def test_record_p95_uses_the_exact_helper():
    x = np.random.default_rng(2).random(101)
    rec = VMTraceRecord("v", VMClass.INTERACTIVE, 2, 1024.0, 0, x)
    assert _bits(rec.p95_cpu) == _bits(float(np.percentile(x, 95)))
