"""``_np_sum`` must add a float list exactly as NumPy sums a float64 vector.

The float-list water-fill reproduces the NumPy solver's bits only while
``_np_sum`` follows NumPy's pairwise summation order.  A NumPy release that
changes that order fails here, loudly, instead of silently shifting the
last bits of every deflation solve.
"""

from __future__ import annotations

import numpy as np

from repro.core.deflation import _np_sum

SEED = 20261017


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _vectors(rng: np.random.Generator, n: int):
    """Mixed signs, magnitudes 1e-3..1e6, and signed zeros, at length n."""
    mags = 10.0 ** rng.uniform(-3.0, 6.0, n)
    yield mags
    yield mags * rng.choice((-1.0, 1.0), n)
    mixed = mags * rng.choice((-1.0, 1.0), n)
    mixed[rng.random(n) < 0.25] = 0.0
    mixed[rng.random(n) < 0.25] = -0.0
    yield mixed
    yield np.full(n, -0.0)
    yield np.zeros(n)


def test_matches_add_reduce_for_every_length_up_to_300():
    rng = np.random.default_rng(SEED)
    for n in range(301):
        for k, values in enumerate(_vectors(rng, n)):
            want = np.add.reduce(values)
            got = _np_sum(values.tolist())
            assert type(got) is float
            assert _bits(got) == _bits(want), f"seed={SEED} n={n} vector={k}: {got!r} != {want!r}"
