"""Exact bits of the Azure-style trace synthesizer, pinned by digest.

``synthesis_digests.json`` holds one sha256 per synthesized trace, over
every record's id, class, cores, memory, start interval, the bytes of its
``cpu_util`` series and the float64 bytes of its ``p95_cpu``.  It was
recorded with numpy 2.4.6 from the synthesizer that drew classes and sizes
with ``Generator.choice(p=...)``, validated series with ``np.any``/
``np.clip`` and took ``p95_cpu`` with ``np.percentile``; the current
synthesizer must reproduce it exactly.  Covered: seeds {0, 3, 7, 208} x
sizes {1, 50, 3000} with the default config, plus non-default configs (a
class mix with a zero weight, uniform arrivals, two- and three-interval
horizons).

Re-record the fixture (``PYTHONPATH=src python tests/traces/test_synthesis_digests.py``)
only for a deliberate change of the synthesized traces, and log it in
docs/performance.md ("Deliberate numerical changes").
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

FIXTURE = Path(__file__).with_name("synthesis_digests.json")

I, D, U = VMClass.INTERACTIVE, VMClass.DELAY_INSENSITIVE, VMClass.UNKNOWN

#: name -> AzureTraceConfig kwargs.
CONFIGS: dict[str, dict] = {
    f"seed{seed}-n{n}": {"seed": seed, "n_vms": n}
    for seed in (0, 3, 7, 208)
    for n in (1, 50, 3000)
}
CONFIGS.update({
    "zero-weight-middle": {"seed": 11, "n_vms": 400, "class_mix": {I: 0.7, D: 0.0, U: 0.3}},
    "zero-weight-first": {"seed": 12, "n_vms": 400, "class_mix": {I: 0.0, D: 0.5, U: 0.5}},
    "interactive-only": {"seed": 13, "n_vms": 200, "class_mix": {I: 1.0}},
    "uniform-arrivals": {"seed": 14, "n_vms": 400, "diurnal_arrival_ratio": 1.0},
    "horizon-2": {"seed": 15, "n_vms": 300, "horizon_intervals": 2},
    "horizon-3": {"seed": 16, "n_vms": 300, "horizon_intervals": 3},
})


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for rec in traces:
        h.update(rec.vm_id.encode())
        h.update(rec.vm_class.value.encode())
        h.update(struct.pack("<qdq", rec.cores, rec.memory_mb, rec.start_interval))
        h.update(rec.cpu_util.tobytes())
        h.update(struct.pack("<d", rec.p95_cpu))
    return h.hexdigest()


def digest(name: str) -> str:
    return trace_digest(synthesize_azure_trace(AzureTraceConfig(**CONFIGS[name])))


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_config(pinned):
    assert set(pinned["traces"]) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_synthesis_reproduces_pinned_bits(pinned, name):
    assert digest(name) == pinned["traces"][name], f"{name}: {CONFIGS[name]}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({
        "numpy": np.__version__,
        "traces": {name: digest(name) for name in sorted(CONFIGS)},
    }, indent=1) + "\n")
