"""Record the default-seed reference outcomes the benchmark compares against.

Run from the repository root after a change that is meant to alter
verdicts, and commit the rewritten ``perfbench/reference.json``:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import outcomes
import worker
import workloads as W


def main() -> int:
    worker._import_package()
    work = os.path.join(worker.ROOT, ".bench_work", "record")
    shutil.rmtree(work, ignore_errors=True)
    ref = {}
    for workload in W.WORKLOADS:
        for step in (W.STEPS[workload], W.SMOKE_STEP):
            ops = W.generate(workload, W.DEFAULT_SEED, worker.ROOT, work, step)
            _, _, records = worker._one_pass(workload, ops)
            ref[outcomes.key(workload, step)] = outcomes.entry(ops, records)
            print(f"{outcomes.key(workload, step)}: fail_ratio {ref[outcomes.key(workload, step)]['fail_ratio']:.4f}")
    with open(outcomes.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
