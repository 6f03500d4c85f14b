"""Seeded workload generators and the operations the benchmark times.

Every generated input is a schema-v1 ``RunConfig`` document built from a
shipped config; the program only ever sees those documents.  The workload
seed shapes the documents and nothing else, and the same seed always gives
the same documents.

Operations call the package through module attributes
(``minkruled.pipeline.run_config``, ``minkruled.cli.main``), never through
names imported into this module, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
WORKLOADS = ("fine_verify", "seed_sweep", "write_outputs")

#: Directrix step per workload; the smoke test swaps in SMOKE_STEP.
STEPS = {"fine_verify": 1e-4, "seed_sweep": 1e-3, "write_outputs": 1e-3}
SMOKE_STEP = 1e-2

SHIPPED = (
    "asymptotic_line",
    "cylinder",
    "developable",
    "general_roundtrip",
    "geodesic",
    "line_of_curvature",
    "striction_line",
)
SWEEP_BASES = ("general_roundtrip", "developable", "cylinder")
#: The package's documented default phi0 grid.  phi0 = 3 pi / 2 ends
#: ``cylinder`` rows in ``error`` and ``developable`` rows in ``fail``, so
#: every seed exercises both; two seeded draws complete the six columns.
DEFAULT_PHI0 = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
MESH_V_SAMPLES = 33
SHAPES = ("constant", "sinusoid", "polynomial", "samples")
SPLINE_KNOTS = 11
#: Largest relative departure of a generated curvature from the shipped value.
SHAPE_SPAN = 0.2

#: theta0 strata for the sweep grid, one draw each.  A cylinder row at
#: phi0 = 3 pi / 2 ends in ``error`` at s = theta0 when theta0 < 1; one theta0 per
#: stratum keeps the share of rows that end early, and with it the run
#: time, the same from seed to seed.
THETA0_STRATA = ((0.2, 0.35), (0.35, 0.6), (0.6, 0.9), (0.9, 1.3))


@dataclass
class Op:
    """One timed operation: a config run, a sweep call or a CLI call."""

    name: str
    doc: dict
    n_samples: int
    theta0: list = field(default_factory=list)
    phi0: list = field(default_factory=list)
    config_path: str | None = None
    out_dir: str | None = None
    cfg: object = None  # the parsed RunConfig

    @property
    def n_verdicts(self) -> int:
        return len(self.theta0) * len(self.phi0) if self.theta0 else 1


def _shipped(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", f"{name}.json")) as fh:
        return json.load(fh)


def _shape_spec(rng: random.Random, shape: str, value: float, s_range) -> dict:
    """A curvature function within SHAPE_SPAN of ``value`` on ``s_range``."""
    s0, s1 = s_range
    span = s1 - s0
    if shape == "constant":
        return {"type": "constant", "value": value}
    if shape == "sinusoid":
        return {
            "type": "sinusoid",
            "amplitude": rng.uniform(0.05, SHAPE_SPAN) * value,
            "frequency": rng.uniform(math.pi, 4.0 * math.pi),
            "phase": rng.uniform(0.0, 2.0 * math.pi),
            "offset": value,
        }
    if shape == "polynomial":
        # value * (1 + b1 x + b2 x^2) with x = (s - s0) / span in [0, 1]
        b1 = rng.uniform(-0.12, 0.12)
        b2 = rng.uniform(-0.08, 0.08)
        c2 = value * b2 / span**2
        c1 = value * b1 / span - 2.0 * c2 * s0
        c0 = value * (1.0 - b1 * s0 / span) + c2 * s0 * s0
        return {"type": "polynomial", "coefficients": [c0, c1, c2]}
    knots = [s0 + span * j / (SPLINE_KNOTS - 1) for j in range(SPLINE_KNOTS)]
    values = [value * (1.0 + rng.uniform(-0.1, 0.1)) for _ in knots]
    return {"type": "samples", "s": knots, "values": values}


def _within_span(fn, value: float, s_range) -> bool:
    s0, s1 = s_range
    for j in range(401):
        v = float(fn(s0 + (s1 - s0) * j / 400))
        if abs(v - value) > SHAPE_SPAN * abs(value):
            return False
    return True


def _shaped_doc(rng: random.Random, base: dict, shape: str, step: float) -> dict:
    """``base`` with its curvatures reshaped and its step set."""
    from minkruled.config import curvature_fn_from_spec

    doc = json.loads(json.dumps(base))
    d = doc["directrix"]
    d["step"] = step
    s_range = tuple(d["s_range"])
    # the asymptotic mode needs constant torsion, and a zero torsion has no
    # 20% band to vary in
    keys = ["k1"]
    if doc["system"] != "asymptotic_line" and d["k2"]["value"] != 0.0:
        keys.append("k2")
    for key in keys:
        value = d[key]["value"]
        while True:
            spec = _shape_spec(rng, shape, value, s_range)
            if _within_span(curvature_fn_from_spec(spec, key), value, s_range):
                break
        d[key] = spec
    return doc


def _n_samples(doc: dict) -> int:
    d = doc["directrix"]
    return int(round((d["s_range"][1] - d["s_range"][0]) / d["step"])) + 1


def _shapes_for(rng: random.Random) -> list[str]:
    """One shape per entry of SHIPPED, a seeded permutation within cost classes.

    A spline or polynomial curvature costs ~1.6x a constant or sinusoid per
    step.  Drawing shapes independently would move a pass's time by ~10%
    from seed to seed, so the four long ODE configs always get the four
    shapes between them, and the other three (one long closed-form config,
    two half-length ones) always get a polynomial, a spline and one of the
    two cheap shapes.
    """
    long_ode = list(SHAPES)
    rng.shuffle(long_ode)
    rest = [rng.choice(("constant", "sinusoid")), "polynomial", "samples"]
    rng.shuffle(rest)
    by_name = dict(zip(("asymptotic_line", "cylinder", "developable", "geodesic"), long_ode))
    by_name.update(zip(("line_of_curvature", "general_roundtrip", "striction_line"), rest))
    return [by_name[name] for name in SHIPPED]


def generate(workload: str, seed: int, root: str, work_dir: str, step: float | None = None) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``.

    Each distinct config document is written once under ``work_dir/configs``
    (the CLI and the set-up probe read them); outputs go to per-config
    directories under ``work_dir/out``.
    """
    from minkruled.config import RunConfig

    rng = random.Random(f"{workload}/{seed}")
    step = STEPS[workload] if step is None else step
    ops: list[Op] = []
    if workload in ("fine_verify", "write_outputs"):
        for name, shape in zip(SHIPPED, _shapes_for(rng)):
            doc = _shaped_doc(rng, _shipped(root, name), shape, step)
            if workload == "write_outputs":
                half = rng.uniform(0.3, 1.0)
                lo = -half * rng.uniform(0.5, 1.0)
                doc["outputs"] = {
                    "csv_path": f"{name}.csv",
                    "report_path": f"{name}.report.json",
                    "mesh": {"v_range": [lo, half], "v_samples": MESH_V_SAMPLES, "path": f"{name}.obj"},
                }
            ops.append(Op(name=f"{name}:{shape}", doc=doc, n_samples=_n_samples(doc)))
    elif workload == "seed_sweep":
        for name in SWEEP_BASES:
            doc = _shipped(root, name)
            doc["directrix"]["step"] = step
            doc.pop("outputs", None)
            # on the 0.01 grid, so theta = theta0 - s reaches the guard at a
            # grid point of every step this benchmark uses
            thetas = [round(rng.uniform(lo, hi), 2) for lo, hi in THETA0_STRATA]
            phis = list(DEFAULT_PHI0) + [rng.uniform(0.0, math.pi), rng.uniform(math.pi, 2.0 * math.pi)]
            # one sweep_grid call per theta0 row of the base's 4 x 6 grid
            for i, theta0 in enumerate(thetas):
                ops.append(Op(name=f"{name}:row{i}", doc=doc, n_samples=_n_samples(doc), theta0=[theta0], phi0=phis))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    os.makedirs(os.path.join(work_dir, "configs"), exist_ok=True)
    for op in ops:
        base = op.name.split(":")[0]
        op.config_path = os.path.join(work_dir, "configs", f"{base}.json")
        op.out_dir = os.path.join(work_dir, "out", base)
        # parsing here makes a bad generated document fail at generation
        op.cfg = RunConfig.from_dict(op.doc)
    for path, doc in {op.config_path: op.doc for op in ops}.items():
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
    return ops


def config_files(ops: list[Op]) -> list[str]:
    """The distinct config documents of a pass."""
    return list(dict.fromkeys(op.config_path for op in ops))


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------


def call_op(workload: str, op: Op):
    """The timed part of an op: one call into the package.

    Returns the call's result, or the exception it raised; any exception is
    an outcome to record, not a benchmark failure.
    """
    import minkruled.cli
    import minkruled.pipeline

    try:
        if workload == "fine_verify":
            return minkruled.pipeline.run_config(op.cfg, write_outputs=False)
        if workload == "seed_sweep":
            return minkruled.pipeline.sweep_grid(
                op.cfg, op.theta0, op.phi0, op.out_dir, summary_name=f"{op.name.replace(':', '_')}.csv"
            )
        argv = ["synthesize", "--config", op.config_path, "--out-dir", op.out_dir]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = minkruled.cli.main(argv)
        return code, buf.getvalue()
    except Exception as exc:
        return exc


def _error_outcome(exc: BaseException) -> dict:
    from minkruled.errors import GeometryError

    kind = "error" if isinstance(exc, GeometryError) else "exception"
    s = getattr(exc, "s", None)
    return {"verdict": kind, "error": type(exc).__name__, "s": None if s is None else float(s)}


def _report_outcome(report: dict) -> dict:
    return {"verdict": report["verdict"], "failures": list(report["failures"])}


def _stats(report: dict) -> dict:
    """Error statistics and defects of a report, as plain floats."""
    out = {}
    for name, st in report["errors"].items():
        for key in ("max_abs", "mean_abs", "endpoint_max_abs"):
            if st[key] is not None:
                out[f"{name}.{key}"] = st[key]
    for name, value in report["defects"].items():
        out[f"defect.{name}"] = value
    return out


def outcome(workload: str, op: Op, raw) -> dict:
    """The record of one op: ``outcomes`` (one per verdict) and ``stats``.

    Records of identical inputs must compare equal, which is how passes are
    checked against each other.
    """
    if isinstance(raw, Exception):
        return {"outcomes": [_error_outcome(raw)], "stats": {}}

    if workload == "fine_verify":
        report = raw.report.to_dict()
        return {"outcomes": [_report_outcome(report)], "stats": _stats(report), "n_samples": report["n_samples"]}

    if workload == "seed_sweep":
        rows, summary = raw
        outcomes, stats = [], {}
        for j, r in enumerate(rows):
            if r.verdict == "error":
                cls = r.detail.split(":", 1)[0]
                outcomes.append({"verdict": "error", "error": cls, "s": r.failure_s})
            else:
                failures = r.detail[len("failed: "):].split(",") if r.detail else []
                outcomes.append({"verdict": r.verdict, "failures": failures})
                if r.max_rel_error is not None:
                    stats[f"row{j}.max_rel_error"] = r.max_rel_error
                if r.worst_defect is not None:
                    stats[f"row{j}.worst_defect"] = r.worst_defect
        return {"outcomes": outcomes, "stats": stats, "summary": summary}

    code, text = raw
    report_path = os.path.join(op.out_dir, op.doc["outputs"]["report_path"])
    if code != 0 and "error: " in text:
        cls = text.split("error: ", 1)[1].split(":", 1)[0].strip()
        return {"outcomes": [{"verdict": "error", "error": cls, "s": None}], "stats": {}, "exit": code}
    with open(report_path) as fh:
        report = json.load(fh)
    return {"outcomes": [_report_outcome(report)], "stats": _stats(report), "exit": code, "stdout": text}


def structural_checks(workload: str, op: Op, rec: dict) -> list[str]:
    """Problems with an op's record and the files it left; empty when sound."""
    problems = [
        f"unexpected {o['error']} (not a GeometryError)" for o in rec["outcomes"] if o["verdict"] == "exception"
    ]
    if len(rec["outcomes"]) != op.n_verdicts:
        problems.append(f"{len(rec['outcomes'])} verdicts for {op.n_verdicts} inputs")
    if problems or rec["outcomes"][0]["verdict"] == "error":
        return problems
    if workload == "fine_verify":
        if rec["n_samples"] != op.n_samples:
            problems.append(f"report has {rec['n_samples']} samples, expected {op.n_samples}")
    elif workload == "seed_sweep":
        with open(rec["summary"]) as fh:
            lines = fh.read().splitlines()
        if [ln.split(",")[2] for ln in lines[1:]] != [o["verdict"] for o in rec["outcomes"]]:
            problems.append("summary CSV disagrees with the returned rows")
    else:
        problems += _check_written(op, rec)
    return problems


def _check_written(op: Op, rec: dict) -> list[str]:
    """Exit code, printed verdict and the shape of the CSV and OBJ files."""
    outputs = op.doc["outputs"]
    verdict = rec["outcomes"][0]["verdict"]
    n = op.n_samples
    v = outputs["mesh"]["v_samples"]
    problems = []
    if rec["exit"] != (0 if verdict == "pass" else 1):
        problems.append(f"exit {rec['exit']} with verdict {verdict}")
    if f"verdict: {verdict}" not in rec["stdout"]:
        problems.append("printed verdict differs from the report file")
    with open(os.path.join(op.out_dir, outputs["csv_path"])) as fh:
        n_rows = sum(1 for _ in fh) - 1
    if n_rows != n:
        problems.append(f"CSV has {n_rows} rows, expected {n}")
    n_v = n_f = 0
    with open(os.path.join(op.out_dir, outputs["mesh"]["path"])) as fh:
        for line in fh:
            if line.startswith("v "):
                n_v += 1
            elif line.startswith("f "):
                n_f += 1
    if (n_v, n_f) != (n * v, (n - 1) * (v - 1)):
        problems.append(f"OBJ has {n_v} vertices and {n_f} faces")
    return problems
