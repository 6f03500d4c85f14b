"""Run one workload in this process and write its measurements as JSON.

Started by ``run.py`` in a fresh interpreter, so the peak resident memory
read at the end belongs to this workload alone.  Usage:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work-dir DIR --out FILE [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from outcomes import compare, drift, load_reference  # noqa: E402
from refloop import loop_s  # noqa: E402

#: Passes a run makes even when they outlast ``--seconds``; a traced run
#: makes this many untraced and this many traced passes.
MIN_PASSES = {0: 3, 1: 2}


def _import_package():
    import minkruled

    expected = os.path.join(ROOT, "src", "minkruled")
    if os.path.dirname(os.path.abspath(minkruled.__file__)) != expected:
        raise SystemExit(f"minkruled was imported from {minkruled.__file__}, not from {expected}")
    import minkruled.cli  # noqa: F401
    import minkruled.pipeline  # noqa: F401


def _one_pass(workload, ops, tracer=None):
    """Run every op once.

    Returns each op's latency, the reference loop's time beside it (the
    mean of the loops run just before and just after it) and its record.
    """
    lat, ref, records = [], [], []
    before = loop_s()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        raw = W.call_op(workload, op)
        lat.append(time.perf_counter() - t0)
        after = loop_s()
        ref.append(0.5 * (before + after))
        before = after
        records.append(W.outcome(workload, op, raw))
    return lat, ref, records


def _passes(workload, ops, seconds, min_passes, tracer=None):
    """Whole passes for about ``seconds``: a pass starts only if it should fit.

    Returns per-pass lists of op latencies, of reference-loop times and of
    records.
    """
    lats, refs, runs = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(lats) >= min_passes and elapsed + (elapsed / len(lats)) > seconds:
            break
        if tracer is not None:
            tracer.pass_id = len(lats)
        lat, ref, records = _one_pass(workload, ops, tracer)
        lats.append(lat)
        refs.append(ref)
        runs.append(records)
    return lats, refs, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    _import_package()
    step = W.SMOKE_STEP if args.smoke else W.STEPS[args.workload]
    min_passes = 1 if args.smoke else MIN_PASSES[args.trace]
    ops = W.generate(args.workload, args.seed, ROOT, args.work_dir, step)

    # warm lazy imports and first-call paths on a coarse copy of the inputs
    warm_dir = os.path.join(args.work_dir, "warm")
    warm = W.generate(args.workload, args.seed, ROOT, warm_dir, W.SMOKE_STEP)
    _one_pass(args.workload, warm)

    seconds = args.seconds / 2 if args.trace else args.seconds
    lats, refs, runs = _passes(args.workload, ops, seconds, min_passes)

    import numpy
    import scipy

    result = {
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "steps": {w: (W.SMOKE_STEP if args.smoke else s) for w, s in W.STEPS.items()},
        },
        "configs": W.config_files(ops),
        "workload": args.workload,
        "seed": args.seed,
        "step": step,
        "ops_per_pass": len(ops),
        "verdicts_per_pass": sum(op.n_verdicts for op in ops),
        "samples_per_pass": sum(op.n_samples * op.n_verdicts for op in ops),
        "passes": len(lats),
        "latencies_s": lats,
        "ref_loop_s": refs,
    }

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t_lats, t_refs, t_runs = _passes(args.workload, ops, seconds, min_passes, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.work_dir, "spans.jsonl"))
        result["layers"] = tracer.layer_metrics(t_lats, t_refs)
        result["traced_latencies_s"] = t_lats
        result["traced_ref_loop_s"] = t_refs
        result["absent"] = tracer.absent
        runs += t_runs

    # correctness: every pass agrees with the first, the written files are
    # well formed, and on the default seed the first pass matches the
    # reference recorded for this workload and step
    first = runs[0]
    problems = []
    for p, records in enumerate(runs[1:], start=1):
        for op, a, b in zip(ops, first, records):
            if a != b:
                problems.append(f"pass {p} {op.name}: differs from pass 0")
    for op, rec in zip(ops, first):
        problems += [f"{op.name}: {c}" for c in W.structural_checks(args.workload, op, rec)]
    reference = load_reference(args.workload, step) if args.seed == W.DEFAULT_SEED else None
    if reference is not None:
        problems += compare(reference, ops, first)
        result["report_drift"] = drift(reference, ops, first)
    result["reference_checked"] = reference is not None
    result["outcomes"] = [rec["outcomes"] for rec in first]
    result["problems"] = problems
    result["attempted"] = len(runs) * len(ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh, allow_nan=False)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
