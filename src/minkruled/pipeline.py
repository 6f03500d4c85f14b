"""End-to-end runs: directrix, synthesis, surface, verification, file outputs.

All emitted files are deterministic for identical configs: floats are
written with 17 significant digits, JSON keys are sorted, and nothing
records timestamps.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass

from .config import RunConfig
from .errors import ConfigError, GeometryError
from .frenet import FrenetCurve, integrate_frenet
from .mesh import export_mesh
from .surface import AngleTrack, RuledSurfaceGrid
from .synthesis import DEFAULT_PHI0_GRID, DEFAULT_THETA0_GRID, KINDS, build_surface, integrate_system
from .verify import InvariantReport, recompute_report


def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


@dataclass(frozen=True)
class RunResult:
    """One synthesized and verified config; the angle track is ``surface.track``."""

    config: RunConfig
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
    propagate as exceptions carrying the failure location.  ``out_dir`` is
    created before synthesis, so an unusable one fails before any work.
    The mesh is written first: a ``v_range`` it rejects leaves no output.
    """
    if write_outputs:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
    result = run_seed(cfg, build_directrix(cfg))
    if write_outputs:
        o, written = cfg.outputs, result.written
        if o.mesh is not None:
            written["mesh"] = write_mesh(cfg, result.surface, out_dir)
        if o.csv_path is not None:
            written["csv"] = write_samples_csv(os.path.join(out_dir, o.csv_path), result.surface.track, result.report)
        if o.report_path is not None:
            written["report"] = write_report_json(os.path.join(out_dir, o.report_path), result.report)
    return result


def run_seed(cfg: RunConfig, curve: FrenetCurve) -> RunResult:
    """Synthesize and verify one config on its directrix ``curve``; writes nothing.

    The one per-seed path of ``run_config`` and ``sweep_grid``.
    """
    surface = synthesize_surface(cfg, curve)
    report = recompute_report(surface, cfg.params, cfg.system, cfg.tolerances)
    return RunResult(config=cfg, surface=surface, report=report, written={})


def synthesize_surface(cfg: RunConfig, curve: FrenetCurve) -> RuledSurfaceGrid:
    """The ruling field of one config on its directrix ``curve``, with its angle track; unverified."""
    return build_surface(integrate_system(cfg.system, cfg.params, curve), curve)


def write_mesh(cfg: RunConfig, surface: RuledSurfaceGrid, out_dir=".") -> str:
    """Write the config's OBJ mesh of ``surface``; its path resolves against ``out_dir``.

    ``out_dir`` must exist.  The header comment records the system and the
    normalized params.  A ``v_range`` that overflows a vertex is a ConfigError.
    """
    mesh = cfg.outputs.mesh
    params = " ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in sorted(cfg.to_dict()["params"].items()))
    path = os.path.join(out_dir, mesh.path)
    comment = f"system={cfg.system.value} params={params}"
    try:
        return export_mesh(surface, mesh.v_range, mesh.v_samples, path, comment=comment)
    except ValueError as exc:
        raise ConfigError("outputs.mesh.v_range", str(exc)) from None


def write_report_json(path, report: InvariantReport) -> str:
    path = os.fspath(path)
    with open(path, "w", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


_CSV_COLUMNS = ("s", "theta", "phi", "d", "v0", "K", "mu", "n", "qprime_norm", "cylindrical")

#: Rows formatted per write of the sample CSV.
_CSV_BLOCK = 4096


def write_samples_csv(path, track: AngleTrack, report: InvariantReport) -> str:
    """Per-sample table: s, angles, recomputed invariants, cylindrical flag.

    Without recomputed invariants the six invariant cells are empty and the
    flag is 1.  When the kind prescribes ``d = 0`` the ``mu`` and ``n`` cells
    are empty: both are functions of ``d``, so the recomputed values would be
    its roundoff.  Rows are formatted ``_CSV_BLOCK`` at a time, one ``%`` per
    block.
    """
    path = os.fspath(path)
    inv = report.recomputed
    if inv is None:
        row, cols = "%.17g,%.17g,%.17g,,,,,,,1\n", (track.s, track.theta, track.phi)
    else:
        blank = ("mu", "n") if "d" in KINDS[report.kind].vanishing else ()
        values = (track.s, track.theta, track.phi, inv.d, inv.v0, inv.K, inv.mu, inv.n, inv.qprime_norm, inv.cylindrical)
        row = ",".join("" if c in blank else "%d" if c == "cylindrical" else "%.17g" for c in _CSV_COLUMNS) + "\n"
        cols = [v for c, v in zip(_CSV_COLUMNS, values) if c not in blank]
    n = track.n_samples
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            cells = [None] * ((hi - lo) * len(cols))
            for c, col in enumerate(cols):
                cells[c :: len(cols)] = col[lo:hi].tolist()
            fh.write((row * (hi - lo)) % tuple(cells))
    return path


# ---------------------------------------------------------------------------
# seed sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One seed of a sweep; the fields are the summary CSV's columns, in order."""

    theta0: float
    phi0: float
    verdict: str  # pass / fail / error
    max_rel_error: float | None
    worst_defect: float | None
    failure_s: float | None
    detail: str

    @classmethod
    def of(cls, theta0: float, phi0: float, outcome: InvariantReport | GeometryError) -> "SweepRow":
        """The row of a seed from its report, or from the error that stopped it."""
        if isinstance(outcome, GeometryError):
            detail = f"{type(outcome).__name__}: {outcome}"
            return cls(theta0, phi0, "error", None, None, getattr(outcome, "s", None), detail)
        rels = [st.max_rel for st in outcome.errors.values() if math.isfinite(st.max_rel)]
        defects = [v for k, v in outcome.defects.items() if not k.endswith("_endpoints")]
        detail = "" if outcome.passed else "failed: " + ",".join(outcome.failures)
        return cls(theta0, phi0, outcome.verdict, max(rels, default=None), max(defects, default=None), None, detail)


def sweep_grid(
    base: RunConfig,
    theta0_list=None,
    phi0_list=None,
    out_dir=".",
    *,
    summary_name: str = "sweep_summary.csv",
) -> tuple[list[SweepRow], str]:
    """Synthesize and verify once per seed on the grid; one CSV row per seed.

    The directrix is built once and shared by every seed.  Errors are
    recorded per row and never abort the sweep.  Per-seed file outputs are
    suppressed (only the summary is written); ``out_dir`` is created before
    the first seed runs.
    """
    theta0_list = list(DEFAULT_THETA0_GRID if theta0_list is None else theta0_list)
    phi0_list = list(DEFAULT_PHI0_GRID if phi0_list is None else phi0_list)
    if not theta0_list or not phi0_list:
        raise ValueError("seed lists must be nonempty")
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    # the directrix does not depend on the seed: build it once; if it cannot
    # be built, every row carries that error
    try:
        curve, outcome = build_directrix(base), None
    except GeometryError as exc:
        curve, outcome = None, exc
    rows: list[SweepRow] = []
    for theta0 in map(float, theta0_list):
        for phi0 in map(float, phi0_list):
            if curve is not None:
                try:
                    outcome = run_seed(base.with_seed(theta0, phi0), curve).report
                except GeometryError as exc:
                    outcome = exc
            rows.append(SweepRow.of(theta0, phi0, outcome))

    summary_path = os.path.join(out_dir, summary_name)
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f.name for f in dataclasses.fields(SweepRow)])
        writer.writerows([x if isinstance(x, str) else _fmt(x) for x in dataclasses.astuple(row)] for row in rows)
    return rows, summary_path
