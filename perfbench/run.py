"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay-deflation --seed 3 --seconds 30 --trace 0

Run from the root of a checkout: the simulator is imported from ``src/``.
The run repeats cold passes of the workload (``workloads.py``) until
``--seconds`` have passed, at least three of them, and reports medians.
Between passes it times a fixed calibration kernel (``calibrate.py``) and
rescales its host-time figures to a nominal host speed, so that a shared
host's drift over minutes does not read as a change of the program.
With ``--trace 1`` it alternates untraced and traced passes instead,
reports the per-layer ledger of the traced ones plus the tracing overhead
(traced minus untraced ``wall_s``), and writes every span to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

Output checks run after the timed passes.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(scenarios run plus checks made, and how many of them failed) and
``metrics``.  The lines before it repeat the metrics with their units,
the error rate, and the host, CPU count, Python version, start method
and seed of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewest untraced passes a timed run reports a median over.
MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_pass(ledger, workload: str, first, p, label: str) -> None:
    """Checks of one pass, made as soon as it ends.

    Every pass but the first then drops its outputs, so that memory, and
    with it ``peak_rss_mb``, does not grow with the number of passes.
    """
    from perfbench import workloads

    if workload in workloads.REPLAY_CASES:
        for result in p.outputs:
            ledger.check(result.n_placed > 0, f"{label}: a replay placed no VM")
    else:
        for phase in ("cold", "warm", "forked"):
            for result in p.extra[phase]:
                ledger.check(result.ok, f"{label}: {phase} scenario {result.scenario.name} failed")
    if p is not first:
        ledger.check(p.outputs == first.outputs, f"{label} differs from the first pass")
        p.outputs, p.extra = [], {}


def run_checks(ledger, workload: str, seed: int, first) -> None:
    """Checks made once per run, on the first pass's outputs."""
    from perfbench import checks, workloads

    if workload in workloads.REPLAY_CASES:
        checks.check_against_reference(ledger, seed, workloads.REPLAY_CASES[workload])
        checks.check_against_golden(ledger, workload, seed, workloads.REPLAY_VMS, first.outputs)
        return

    extra = first.extra
    ledger.check(
        [r.sim for r in extra["warm"]] == [r.sim for r in extra["cold"]],
        "warm-cache results differ from cold results",
    )
    n = len(extra["cold"])
    cold_stats, warm_stats = extra["cache"]
    ledger.check(cold_stats["misses"] == n and cold_stats["hits"] == 0, f"cold cache {cold_stats}")
    ledger.check(warm_stats["hits"] == n and warm_stats["misses"] == 0, f"warm cache {warm_stats}")
    ledger.check(cold_stats["corrupt"] == warm_stats["corrupt"] == 0, "corrupt cache entries")
    branch = {v.name: v for v in extra["variants"]}[workloads.COLD_CHECK_BRANCH]
    forked = {r.scenario.name: r for r in extra["forked"]}[branch.name]
    cold = workloads.sweep.run_scenario(branch)
    ledger.check(cold.sim == forked.sim, f"{branch.name}: fork != cold run")


def write_spans(path: Path, manifest: dict, tracers) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"manifest": manifest}) + "\n")
        for i, tr in enumerate(tracers):
            for span in tr.spans:
                fh.write(json.dumps({"pass": i, **span.to_dict()}) + "\n")


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` in this process, so that sweep
    workers and calibration processes are stopped and waited for on the
    way out.  Forked children keep the default action."""
    parent = os.getpid()

    def handler(signum, frame):
        if os.getpid() != parent:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv=None) -> int:
    args = parse_args(argv)
    exit_on_sigterm()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {src / 'repro'}", file=sys.stderr)
        return 2
    # Replace the script directory so sibling module names cannot shadow imports.
    sys.path[:1] = [str(src), str(ROOT)]

    from perfbench import calibrate, metrics, workloads
    from perfbench.checks import Ledger
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
            file=sys.stderr,
        )
        return 2

    ledger = Ledger()
    untraced, traced, tracers, layers = [], [], [], []
    with calibrate.Calibrator(workloads.parallelism(args.workload)) as calibrator:
        t0 = time.perf_counter()
        calibration = [calibrator.sample()]
        while True:
            p = workloads.run_pass(args.workload, args.seed, tag=str(len(untraced)))
            calibration.append(calibrator.sample())
            untraced.append(p)
            check_pass(ledger, args.workload, untraced[0], p, f"pass {len(untraced) - 1}")
            if args.trace:
                with Tracer() as tr:
                    p = workloads.run_pass(args.workload, args.seed, tr, tag="traced")
                ledger.check(tr.active_patches == 0, "a tracer patch outlived its pass")
                traced.append(p)
                tracers.append(tr)
                layers.append(metrics.layer_metrics(tr, p.extra.get("cache", ())))
                check_pass(ledger, args.workload, untraced[0], p, f"traced pass {len(traced) - 1}")
            enough = len(untraced) >= (1 if args.trace else MIN_PASSES)
            if enough and time.perf_counter() - t0 >= args.seconds:
                break
    run_checks(ledger, args.workload, args.seed, untraced[0])
    # Each untraced pass is rescaled by the kernel calls around it.
    scales = [calibrate.host_scale(a + b) for a, b in zip(calibration, calibration[1:])]
    kernel_s = [c for gap in calibration for c in gap]

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "workers": workloads.worker_count(),
        "python": platform.python_version(),
        "start_method": workloads.START_METHOD,
        "calibration_kernel_mean_s": statistics.mean(kernel_s),
    }
    if args.trace:
        values = {
            name: statistics.median(layer[name] for layer in layers)
            for name, _ in metrics.PER_LAYER
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(
            p.wall_s for p in traced
        ) - statistics.median(p.wall_s for p in untraced)
        units = dict(metrics.PER_LAYER)
        spans_path = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, manifest, tracers)
        print("self time per layer (first traced pass):")
        own = metrics.self_times(tracers[0].spans)
        for name, secs in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<24} {secs:10.4f} s")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = metrics.end_to_end(untraced, scales)
        units = dict(metrics.END_TO_END)

    print("manifest: " + json.dumps(manifest))
    print("pass wall_s (host): " + " ".join(f"{p.wall_s:.3f}" for p in untraced))
    print("pass host_scale: " + " ".join(f"{s:.3f}" for s in scales))
    for name, value in values.items():
        print(f"{name:<28} {value:14.6f} {units[name]}")
    print(f"{'error_rate':<28} {ledger.error_rate:14.6f} ratio")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
