"""Record full-size replay statistics into ``golden.json``.

    python3 perfbench/record_golden.py 0 1 2

Replays both replay workloads at full size for each seed given and stores
the statistics the runner compares against (``checks.result_stats``).
Seeds already recorded are overwritten; others are kept.  Re-record only
for a deliberate numerical change, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, workloads

    table = checks.load_golden()
    if table.get("n_vms") != workloads.REPLAY_VMS:
        table = {"n_vms": workloads.REPLAY_VMS, "seeds": {}}
    for seed in (int(s) for s in argv):
        entry = table["seeds"].setdefault(str(seed), {})
        for workload in workloads.REPLAY_CASES:
            p = workloads.run_pass(workload, seed)
            entry[workload] = [checks.result_stats(r) for r in p.outputs]
            print(f"seed {seed} {workload}: recorded {len(p.outputs)} cases", flush=True)
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    checks.GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
