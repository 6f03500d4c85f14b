#!/usr/bin/env python3
"""Per-stage wall times of every shipped config, written to BENCH_stages.json.

For each shipped config and step, times the six stages of a run by calling
their public functions directly: build_directrix, integrate_system,
build_surface, recompute_report, write_samples_csv and export_mesh (a fixed
33-ruling mesh).  Also times sweep_grid on the default seed grid of each
sweep base the benchmark uses, SWEEP_RUNS times per repeat, and prints each
sweep's median beside its quartiles.  Each time is a median over its runs in
ms, scaled to the machine's uncontended speed by the benchmark's reference
loop (perfbench/refloop.py) run beside it, as perfbench scales its timings.

--save DIR keeps every run's CSV, report, OBJ and sweep summary; --compare
DIR prints, against an earlier --save, the largest absolute drift per CSV
column, per sweep summary column and per OBJ vertex coordinate of this run's
files, and for the sweep verdict and detail the number of rows that differ.
For the OBJs it also prints the largest number of lines, vertex or face,
that differ byte for byte.  For the report JSONs it prints the number of
reports whose verdict or failures differ and the largest drift of any error
statistic or defect.
"""

import argparse
import csv
import importlib.util
import json
import os
import platform
import statistics
import subprocess
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


class Timer:
    """Stage times scaled by the reference loop run before and after each one."""

    def __init__(self, refloop):
        self.refloop = refloop
        self.times: dict[tuple, list[float]] = {}
        self.before = refloop.loop_s()

    def __call__(self, key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        after = self.refloop.loop_s()
        self.times.setdefault(key, []).append(dt * self.refloop.REF_S / (0.5 * (self.before + after)))
        self.before = after
        return result

    def medians_ms(self) -> dict:
        out: dict = {}
        for key, xs in self.times.items():
            node = out
            for part in key[:-1]:
                node = node.setdefault(part, {})
            node[key[-1]] = round(1e3 * statistics.median(xs), 4)
        return out


def run_stages(timer, name: str, step: float, out_dir: Path) -> None:
    cfg = RunConfig.from_file(ROOT / "configs" / f"{name}.json").with_overrides(step=step)
    key = ("stages_ms", name, f"{step:g}")
    stem = out_dir / f"{name}_{step:g}"
    curve = timer(key + ("build_directrix",), build_directrix, cfg)
    track = timer(key + ("integrate_system",), integrate_system, cfg.system, cfg.params, curve)
    surface = timer(key + ("build_surface",), build_surface, track, curve)
    report = timer(key + ("recompute_report",), recompute_report, surface, cfg.params, cfg.system, cfg.tolerances)
    timer(key + ("write_samples_csv",), write_samples_csv, f"{stem}.csv", track, report)
    timer(key + ("export_mesh",), export_mesh, surface, MESH_V_RANGE, MESH_V_SAMPLES, f"{stem}.obj")
    write_report_json(f"{stem}.json", report)


def run_sweep(timer, name: str, step: float, out_dir: Path) -> None:
    cfg = RunConfig.from_file(ROOT / "configs" / f"{name}.json").with_overrides(step=step)
    timer(("sweep_ms", name, f"{step:g}"), sweep_grid, cfg, None, None, out_dir, summary_name=f"sweep_{name}_{step:g}.csv")


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


def compare(out_dir: Path, old_dir: Path) -> None:
    """Print the largest drift per CSV column, OBJ coordinate and report against ``old_dir``.

    Sample CSVs and sweep summaries (``sweep_*.csv``) are labelled ``csv`` and
    ``sweep``; for the sweep's text columns the value is the number of rows
    that differ.  OBJs are labelled ``obj``: ``x1`` to ``x3`` drift by
    vertex coordinate, ``lines`` counts the lines that differ byte for
    byte.  Reports are labelled ``report``: ``verdict`` counts the
    reports whose verdict or failures differ, ``values`` is the largest
    drift of any error statistic or defect.
    """
    worst: dict[str, tuple[float, str]] = {}

    def note(label, value, where):
        if label not in worst or value > worst[label][0]:
            worst[label] = (value, where)

    for new in sorted(out_dir.glob("*.csv")):
        kind = "sweep" if new.name.startswith("sweep_") else "csv"
        old_cols = _csv_columns(old_dir / new.name)
        for c, col in _csv_columns(new).items():
            old = old_cols[c]
            if c in TEXT_COLUMNS:  # the number of rows that differ
                value = float(sum(a != b for a, b in zip(col, old))) if len(col) == len(old) else float("inf")
            else:
                value = _drift(_floats(col), _floats(old))
            note(f"{kind} {c}", value, new.name)
    for new in sorted(out_dir.glob("*.obj")):
        a, b = _obj_vertices(new), _obj_vertices(old_dir / new.name)
        for j in range(3):
            note(f"obj x{j + 1}", _drift(a[:, j], b[:, j]) if a.shape == b.shape else float("inf"), new.name)
        note("obj lines", _lines_differ(new, old_dir / new.name), new.name)
    differ = []
    for new in sorted(out_dir.glob("*.json")):
        (outcome, a), (old_outcome, b) = _report_values(new), _report_values(old_dir / new.name)
        if outcome != old_outcome:
            differ.append(new.name)
        names = sorted(a.keys() | b.keys())  # a name on one side only drifts by inf
        note("report values", _drift(*(np.array([r.get(k, np.inf) for k in names]) for r in (a, b))), new.name)
    note("report verdict", float(len(differ)), ", ".join(differ))
    print(f"\nlargest absolute drift against {old_dir}")
    for label, (value, where) in worst.items():
        print(f"  {label:<20} {value:10.3g}" + (f"  ({where})" if value else ""))


def main():
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
        doc = {"commit": _commit(), "machine": _machine(), "repeats": args.repeats, **timer.medians_ms()}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for step in steps:
            totals = {st: sum(doc["stages_ms"][n][f"{step:g}"][st] for n in configs) for st in STAGES}
            print(f"step {step:g}, sum over {len(configs)} configs (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in totals.items()))
            for name in SWEEP_BASES:
                q1, _, q3 = statistics.quantiles(timer.times[("sweep_ms", name, f"{step:g}")], n=4)
                print(f"  sweep {name} (ms): median {doc['sweep_ms'][name][f'{step:g}']:.1f}, quartiles {1e3 * q1:.1f}-{1e3 * q3:.1f}")
        print(f"wrote {args.out}")
        if args.compare:
            compare(out_dir, Path(args.compare))


if __name__ == "__main__":
    main()
