#!/usr/bin/env python3
"""Per-stage wall times and minor page faults of every shipped config, written to BENCH_stages.json.

For each shipped config and step, times the six stages of a run by calling
their public functions directly: build_directrix, integrate_system,
build_surface, recompute_report, write_samples_csv and export_mesh (a fixed
33-ruling mesh).  Also times sweep_grid on the default seed grid of each
sweep base the benchmark uses, SWEEP_RUNS times per repeat, and prints each
sweep's median beside its quartiles: ``sweep_ms`` cycles the bases, so each
sweep builds its directrix, and ``sweep_warm_ms`` sweeps one base twice and
times the second sweep, which reuses the directrix of the first.  Every
writer and sweep writes a path with no file on it (the old file is removed
outside the timer), so the times hold no cost of replacing a file; that cost
shows in ``sweep_replace_ms``, the cylinder's warm sweep written onto the
summary the first sweep left.  Each time
is a median over its runs in ms, scaled to the machine's uncontended speed
by the benchmark's reference loop (perfbench/refloop.py) run beside it, as
perfbench scales its timings.  Beside each stage's ms it records the median
of the minor page faults the stage took (the ru_minflt growth of
getrusage(RUSAGE_SELF) across the call), the pages the kernel mapped and
zeroed for it.

--save DIR keeps every run's CSV, report, OBJ and sweep summary; --compare
DIR prints, against an earlier --save, the largest absolute drift per CSV
column, per sweep summary column and per OBJ vertex coordinate of this run's
files, and for the sweep verdict and detail the number of rows that differ.
For the OBJs it also prints the largest number of lines, vertex or face,
that differ byte for byte.  For the report JSONs it prints the number of
reports whose verdict or failures differ and the largest drift of any error
statistic or defect.  With --compare the script exits 1 when any of these
numbers is not 0, so byte-identical outputs can be checked by exit status.
"""

import argparse
import csv
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from minkruled import RunConfig, build_surface, export_mesh, integrate_system, recompute_report, sweep_grid
from minkruled.pipeline import build_directrix, write_report_json, write_samples_csv

ROOT = Path(__file__).resolve().parent.parent
STAGES = (
    "build_directrix",
    "integrate_system",
    "build_surface",
    "recompute_report",
    "write_samples_csv",
    "export_mesh",
)
#: The sweep bases of perfbench's seed_sweep workload.
SWEEP_BASES = ("cylinder", "developable", "general_roundtrip")
MESH_V_RANGE = (-0.75, 0.75)
MESH_V_SAMPLES = 33
#: Runs of each sweep per repeat.  A sweep whose first seed is slow enough
#: forks a second process, which runs only as fast as the other load on the
#: CPUs it gets, so a sweep's time spreads far more than a stage's.
SWEEP_RUNS = 3
#: The sweep rows and their printed labels; ``sweep_replace_ms`` is timed on the cylinder only.
SWEEP_ROWS = {"sweep_ms": "sweep", "sweep_warm_ms": "warm sweep", "sweep_replace_ms": "replacing sweep"}
#: Sweep summary columns compared as text, by the number of rows that differ.
TEXT_COLUMNS = ("verdict", "detail")


def _refloop():
    spec = importlib.util.spec_from_file_location("refloop", ROOT / "perfbench" / "refloop.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _machine() -> str:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return (
        f"{platform.machine()} {model}, {os.cpu_count()} CPUs, python {platform.python_version()},"
        f" numpy {np.__version__}"
    )


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Timer:
    """Stage times scaled by the reference loop run before and after each one, and each stage's minor faults.

    A sweep's faults are not kept: those of a forked child count apart.
    """

    def __init__(self, refloop):
        self.refloop = refloop
        self.times: dict[tuple, list[float]] = {}
        self.faults: dict[tuple, list[int]] = {}
        self.before = refloop.loop_s()

    def __call__(self, key, fn, *args, **kwargs):
        f0 = _minflt()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        faults = _minflt() - f0
        after = self.refloop.loop_s()
        self.times.setdefault(key, []).append(dt * self.refloop.REF_S / (0.5 * (self.before + after)))
        if key[0] == "stages_ms":
            self.faults.setdefault(("stages_minflt",) + key[1:], []).append(faults)
        self.before = after
        return result

    def medians(self) -> dict:
        """Median ms under the ``*_ms`` keys and median minor faults under ``stages_minflt``, nested by key."""
        out: dict = {}
        ms = {key: [1e3 * x for x in xs] for key, xs in self.times.items()}
        for key, xs in {**ms, **self.faults}.items():
            node = out
            for part in key[:-1]:
                node = node.setdefault(part, {})
            node[key[-1]] = round(statistics.median(xs), 4)
        return out


def _fresh(path) -> str:
    """``path`` with no file on it, so that a write onto it replaces nothing."""
    Path(path).unlink(missing_ok=True)
    return str(path)


def run_stages(timer, name: str, step: float, out_dir: Path) -> None:
    cfg = RunConfig.from_file(ROOT / "configs" / f"{name}.json").with_overrides(step=step)
    key = ("stages_ms", name, f"{step:g}")
    stem = out_dir / f"{name}_{step:g}"
    curve = timer(key + ("build_directrix",), build_directrix, cfg)
    track = timer(key + ("integrate_system",), integrate_system, cfg.system, cfg.params, curve)
    surface = timer(key + ("build_surface",), build_surface, track, curve)
    report = timer(key + ("recompute_report",), recompute_report, surface, cfg.params, cfg.system, cfg.tolerances)
    timer(key + ("write_samples_csv",), write_samples_csv, _fresh(f"{stem}.csv"), track, report)
    timer(key + ("export_mesh",), export_mesh, surface, MESH_V_RANGE, MESH_V_SAMPLES, _fresh(f"{stem}.obj"))
    write_report_json(_fresh(f"{stem}.json"), report)


def run_sweep(timer, name: str, step: float, out_dir: Path, row: str = "sweep_ms") -> None:
    """Time one sweep of ``name`` under ``row`` of ``SWEEP_ROWS``.

    ``sweep_warm_ms`` and ``sweep_replace_ms`` run the same sweep untimed
    first; all but ``sweep_replace_ms`` then remove its summary.
    """
    cfg = RunConfig.from_file(ROOT / "configs" / f"{name}.json").with_overrides(step=step)
    args = (cfg, None, None, out_dir)
    summary_name = f"sweep_{name}_{step:g}.csv"
    if row != "sweep_ms":
        sweep_grid(*args, summary_name=summary_name)
    if row != "sweep_replace_ms":
        _fresh(out_dir / summary_name)
    timer((row, name, f"{step:g}"), sweep_grid, *args, summary_name=summary_name)


def _csv_columns(path: Path) -> dict[str, list[str]]:
    """Each column of a CSV as its cells."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {c: [r[j] for r in rows] for j, c in enumerate(header)}


def _floats(cells: list[str]) -> np.ndarray:
    """Cells as floats; an empty cell is NaN."""
    return np.array([float(x) if x else np.nan for x in cells])


def _obj_vertices(path: Path) -> np.ndarray:
    with open(path) as fh:
        return np.array([[float(x) for x in ln.split()[1:]] for ln in fh if ln.startswith("v ")]).reshape(-1, 3)


def _lines_differ(a: Path, b: Path) -> float:
    """The number of lines of two files that differ byte for byte; inf when the line counts differ."""
    x, y = a.read_bytes().split(b"\n"), b.read_bytes().split(b"\n")
    return float(sum(p != q for p, q in zip(x, y))) if len(x) == len(y) else float("inf")


def _drift(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b|; inf when the shapes or the empty cells differ."""
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf")
    both = ~np.isnan(a)
    return float(np.max(np.abs(a[both] - b[both]), initial=0.0))


def _report_values(path: Path) -> tuple[tuple, dict[str, float]]:
    """A report JSON's (verdict, failures), and its error statistics and defects by name (null as NaN)."""
    report = json.loads(path.read_text())
    values = {f"defects.{k}": v for k, v in report["defects"].items()}
    values.update((f"errors.{q}.{k}", v) for q, st in report["errors"].items() for k, v in st.items())
    return (report["verdict"], report["failures"]), {k: np.nan if v is None else v for k, v in values.items()}


def _pairs(out_dir: Path, old_dir: Path, pattern: str) -> list[tuple[str, Path | None, Path | None]]:
    """Each file name matching ``pattern`` in either directory, with its path in each (None where it is missing)."""
    names = sorted({p.name for d in (out_dir, old_dir) for p in d.glob(pattern)})
    return [(name, *((d / name) if (d / name).exists() else None for d in (out_dir, old_dir))) for name in names]


def compare(out_dir: Path, old_dir: Path) -> bool:
    """Print the largest drift per CSV column, OBJ coordinate and report against ``old_dir``; whether all are 0.

    Sample CSVs and sweep summaries (``sweep_*.csv``) are labelled ``csv`` and
    ``sweep``; for the sweep's text columns the value is the number of rows
    that differ.  OBJs are labelled ``obj``: ``x1`` to ``x3`` drift by
    vertex coordinate, ``lines`` counts the lines that differ byte for
    byte.  Reports are labelled ``report``: ``verdict`` counts the
    reports whose verdict or failures differ, ``values`` is the largest
    drift of any error statistic or defect.  Both directories' files are
    compared: a file or CSV column on one side only drifts by inf in every
    row of its kind, and a report on one side only also counts as a
    differing verdict.
    """
    worst: dict[str, tuple[float, str]] = {}

    def note(label, value, where):
        if label not in worst or value > worst[label][0]:
            worst[label] = (value, where)

    for name, new, old in _pairs(out_dir, old_dir, "*.csv"):
        kind = "sweep" if name.startswith("sweep_") else "csv"
        new_cols, old_cols = (_csv_columns(p) if p else {} for p in (new, old))
        for c in dict.fromkeys([*new_cols, *old_cols]):
            col, old_col = new_cols.get(c), old_cols.get(c)
            if col is None or old_col is None:
                value = float("inf")
            elif c in TEXT_COLUMNS:  # the number of rows that differ
                value = float(sum(a != b for a, b in zip(col, old_col))) if len(col) == len(old_col) else float("inf")
            else:
                value = _drift(_floats(col), _floats(old_col))
            note(f"{kind} {c}", value, name)
    for name, new, old in _pairs(out_dir, old_dir, "*.obj"):
        a, b = (_obj_vertices(p) if p else None for p in (new, old))
        for j in range(3):
            same_shape = a is not None and b is not None and a.shape == b.shape
            note(f"obj x{j + 1}", _drift(a[:, j], b[:, j]) if same_shape else float("inf"), name)
        note("obj lines", _lines_differ(new, old) if new and old else float("inf"), name)
    differ = []
    for name, new, old in _pairs(out_dir, old_dir, "*.json"):
        if not (new and old):
            differ.append(name)
            note("report values", float("inf"), name)
            continue
        (outcome, a), (old_outcome, b) = _report_values(new), _report_values(old)
        if outcome != old_outcome:
            differ.append(name)
        names = sorted(a.keys() | b.keys())  # a name on one side only drifts by inf
        note("report values", _drift(*(np.array([r.get(k, np.inf) for k in names]) for r in (a, b))), name)
    note("report verdict", float(len(differ)), ", ".join(differ))
    print(f"\nlargest absolute drift against {old_dir}")
    for label, (value, where) in worst.items():
        print(f"  {label:<20} {value:10.3g}" + (f"  ({where})" if value else ""))
    return not any(value for value, _ in worst.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", default="1e-3,1e-4", help="comma-separated directrix steps")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_stages.json"))
    parser.add_argument("--save", metavar="DIR", help="keep every run's CSV, report and OBJ in DIR")
    parser.add_argument("--compare", metavar="DIR", help="print the drift of this run's files against DIR")
    args = parser.parse_args()
    steps = [float(s) for s in args.steps.split(",")]
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(args.save or scratch)
        out_dir.mkdir(parents=True, exist_ok=True)
        timer = Timer(_refloop())
        for _ in range(args.repeats):
            for step in steps:
                for name in configs:
                    run_stages(timer, name, step, out_dir)
                for _ in range(SWEEP_RUNS):
                    for name in SWEEP_BASES:
                        run_sweep(timer, name, step, out_dir)
                    for name in SWEEP_BASES:
                        run_sweep(timer, name, step, out_dir, "sweep_warm_ms")
                    run_sweep(timer, "cylinder", step, out_dir, "sweep_replace_ms")
        doc = {"commit": _commit(), "machine": _machine(), "repeats": args.repeats, **timer.medians()}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for step in steps:
            totals = {st: sum(doc["stages_ms"][n][f"{step:g}"][st] for n in configs) for st in STAGES}
            print(f"step {step:g}, sum over {len(configs)} configs (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in totals.items()))
            faults = {st: sum(doc["stages_minflt"][n][f"{step:g}"][st] for n in configs) for st in STAGES}
            print("  minor faults: " + ", ".join(f"{k} {v:g}" for k, v in faults.items()))
            for key, label in SWEEP_ROWS.items():
                for name in doc[key]:
                    q1, _, q3 = statistics.quantiles(timer.times[(key, name, f"{step:g}")], n=4)
                    median = doc[key][name][f"{step:g}"]
                    print(f"  {label} {name} (ms): median {median:.1f}, quartiles {1e3 * q1:.1f}-{1e3 * q3:.1f}")
        print(f"wrote {args.out}")
        if args.compare and not compare(out_dir, Path(args.compare)):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
