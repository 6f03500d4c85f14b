"""End-to-end runs: directrix, synthesis, surface, verification, file outputs.

All emitted files are deterministic for identical configs: floats are
written with 17 significant digits, JSON keys are sorted, and nothing
records timestamps.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

from .config import RunConfig
from .errors import GeometryError
from .frenet import FrenetCurve, integrate_frenet
from .mesh import export_mesh
from .surface import AngleTrack, RuledSurfaceGrid
from .synthesis import DEFAULT_PHI0_GRID, DEFAULT_THETA0_GRID, build_surface, integrate_system
from .verify import InvariantReport, recompute_report


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    return f"{x:.17g}"


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    curve: FrenetCurve
    track: AngleTrack
    surface: RuledSurfaceGrid
    report: InvariantReport
    written: dict[str, str]

    @property
    def exit_code(self) -> int:
        return 0 if self.report.passed else 1


def build_directrix(cfg: RunConfig) -> FrenetCurve:
    d = cfg.directrix
    return integrate_frenet(
        d.k1, d.k2, s_range=d.s_range, step=d.step, initial_frame=d.initial_frame
    )


def run_config(cfg: RunConfig, out_dir=".", *, write_outputs: bool = True) -> RunResult:
    """Run the full pipeline for one config.

    Output paths from the config resolve against ``out_dir``.  The verdict
    decides the exit code; pipeline errors (singular seeds, divergence)
    propagate as exceptions carrying the failure location.
    """
    curve, track, surface = synthesize_surface(cfg)
    report = recompute_report(surface, cfg.params, cfg.system, cfg.tolerances)

    written: dict[str, str] = {}
    if write_outputs:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        o = cfg.outputs
        if o.csv_path is not None:
            written["csv"] = write_samples_csv(os.path.join(out_dir, o.csv_path), track, report)
        if o.report_path is not None:
            written["report"] = write_report_json(os.path.join(out_dir, o.report_path), report)
        if o.mesh is not None:
            written["mesh"] = write_mesh(cfg, surface, out_dir)
    return RunResult(config=cfg, curve=curve, track=track, surface=surface, report=report, written=written)


def synthesize_surface(cfg: RunConfig) -> tuple[FrenetCurve, AngleTrack, RuledSurfaceGrid]:
    """Directrix, angle track and ruling field of one config, unverified."""
    curve = build_directrix(cfg)
    track = integrate_system(cfg.system, cfg.params, curve)
    return curve, track, build_surface(track, curve)


def write_mesh(cfg: RunConfig, surface: RuledSurfaceGrid, out_dir=".") -> str:
    """Write the config's OBJ mesh of ``surface``; its path resolves against ``out_dir``.

    The header comment records the system and the normalized params.
    """
    mesh = cfg.outputs.mesh
    params = " ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in sorted(cfg.to_dict()["params"].items()))
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, mesh.path)
    return export_mesh(surface, mesh.v_range, mesh.v_samples, path, comment=f"system={cfg.system.value} params={params}")


def write_report_json(path, report: InvariantReport) -> str:
    path = os.fspath(path)
    with open(path, "w", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


_CSV_COLUMNS = ("s", "theta", "phi", "d", "v0", "K", "mu", "n", "qprime_norm", "cylindrical")


def write_samples_csv(path, track: AngleTrack, report: InvariantReport) -> str:
    """Per-sample table: s, angles, recomputed invariants, cylindrical flag."""
    path = os.fspath(path)
    inv = report.recomputed
    n = track.n_samples
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for i in range(n):
            head = [_fmt(track.s[i]), _fmt(track.theta[i]), _fmt(track.phi[i])]
            if inv is None:
                writer.writerow(head + ["", "", "", "", "", "", 1])
            else:
                writer.writerow(
                    head
                    + [
                        _fmt(inv.d[i]),
                        _fmt(inv.v0[i]),
                        _fmt(inv.K[i]),
                        _fmt(inv.mu[i]),
                        _fmt(inv.n[i]),
                        _fmt(inv.qprime_norm[i]),
                        int(inv.cylindrical[i]),
                    ]
                )
    return path


# ---------------------------------------------------------------------------
# seed sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    theta0: float
    phi0: float
    verdict: str  # pass / fail / error
    max_rel_error: float | None
    worst_defect: float | None
    failure_s: float | None
    detail: str


def sweep_grid(
    base: RunConfig,
    theta0_list=None,
    phi0_list=None,
    out_dir=".",
    *,
    summary_name: str = "sweep_summary.csv",
    write_summary: bool = True,
) -> tuple[list[SweepRow], str | None]:
    """Synthesize and verify once per seed on the grid; one CSV row per seed.

    The directrix is built once and shared by every seed.  Errors are
    recorded per row and never abort the sweep.  Per-seed file outputs are
    suppressed (only the summary is written).
    """
    theta0_list = list(DEFAULT_THETA0_GRID if theta0_list is None else theta0_list)
    phi0_list = list(DEFAULT_PHI0_GRID if phi0_list is None else phi0_list)
    if not theta0_list or not phi0_list:
        raise ValueError("seed lists must be nonempty")

    # the directrix does not depend on the seed: build it once; if it cannot
    # be built, every row carries that error
    try:
        curve, directrix_error = build_directrix(base), None
    except GeometryError as exc:
        curve, directrix_error = None, exc

    rows: list[SweepRow] = []
    for theta0 in theta0_list:
        for phi0 in phi0_list:
            cfg = base.with_seed(float(theta0), float(phi0))
            error = directrix_error
            if error is None:
                try:
                    track = integrate_system(cfg.system, cfg.params, curve)
                    report = recompute_report(build_surface(track, curve), cfg.params, cfg.system, cfg.tolerances)
                except GeometryError as exc:
                    error = exc
            if error is not None:
                rows.append(
                    SweepRow(
                        theta0=float(theta0),
                        phi0=float(phi0),
                        verdict="error",
                        max_rel_error=None,
                        worst_defect=None,
                        failure_s=getattr(error, "s", None),
                        detail=f"{type(error).__name__}: {error}",
                    )
                )
                continue
            rels = [st.max_rel for st in report.errors.values() if math.isfinite(st.max_rel)]
            defects = [v for k, v in report.defects.items() if not k.endswith("_endpoints")]
            rows.append(
                SweepRow(
                    theta0=float(theta0),
                    phi0=float(phi0),
                    verdict=report.verdict,
                    max_rel_error=max(rels) if rels else None,
                    worst_defect=max(defects) if defects else None,
                    failure_s=None,
                    detail="" if report.passed else "failed: " + ",".join(report.failures),
                )
            )

    summary_path = None
    if write_summary:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        summary_path = os.path.join(out_dir, summary_name)
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theta0", "phi0", "verdict", "max_rel_error", "worst_defect", "failure_s", "detail"])
            for row in rows:
                writer.writerow(
                    [
                        _fmt(row.theta0),
                        _fmt(row.phi0),
                        row.verdict,
                        _fmt(row.max_rel_error) if row.max_rel_error is not None else "",
                        _fmt(row.worst_defect) if row.worst_defect is not None else "",
                        _fmt(row.failure_s) if row.failure_s is not None else "",
                        row.detail,
                    ]
                )
    return rows, summary_path
