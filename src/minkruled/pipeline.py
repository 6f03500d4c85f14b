"""End-to-end runs: directrix, synthesis, surface, verification, file outputs.

All emitted files are deterministic for identical configs: floats are
written with 17 significant digits, JSON keys are sorted, and nothing
records timestamps.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import json
import math
import os
from dataclasses import dataclass

from . import text
from .config import RunConfig
from .errors import ConfigError, FarPositionError, GeometryError
from .fork import map_items
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
    """The config's directrix.

    A ConfigError naming the seed position if the positions pass
    |x| = h / eps, where ``integrate_frenet`` stops with FarPositionError.
    """
    d = cfg.directrix
    try:
        return integrate_frenet(d.k1, d.k2, s_range=d.s_range, step=d.step, initial_frame=d.initial_frame)
    except FarPositionError as exc:
        raise ConfigError(
            "directrix.initial_frame.position",
            f"puts the directrix beyond |x| = {exc.limit:.6g}, where the float spacing can exceed the step",
        ) from None


def run_config(cfg: RunConfig, out_dir=".", *, write_outputs: bool = True) -> RunResult:
    """Run the full pipeline for one config.

    Output paths from the config resolve against ``out_dir``.  The verdict
    decides the exit code; pipeline errors (singular seeds, divergence)
    propagate as exceptions carrying the failure location.  ``out_dir`` is
    created before synthesis, so an unusable one fails before any work.
    The outputs are written all or none (see ``write_all``).
    """
    if write_outputs:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
    result = run_seed(cfg, build_directrix(cfg))
    if write_outputs:
        o, surface, report = cfg.outputs, result.surface, result.report
        writers = {}
        if o.mesh is not None:
            writers["mesh"] = (o.mesh.path, lambda path: write_mesh(cfg, surface, path))
        if o.csv_path is not None:
            writers["csv"] = (o.csv_path, lambda path: write_samples_csv(path, surface.track, report))
        if o.report_path is not None:
            writers["report"] = (o.report_path, lambda path: write_report_json(path, report))
        result.written.update(write_all(out_dir, writers))
    return result


def write_all(out_dir: str, writers: dict) -> dict[str, str]:
    """Write every output or none; ``writers`` maps a key to (path in ``out_dir``, function writing a path).

    Each output is written under a temporary name beside its path, and all
    are renamed onto their paths after the last one is written.  On any
    error the temporaries are removed; an OSError names the output's path.
    """
    paths = {key: os.path.join(out_dir, rel) for key, (rel, _) in writers.items()}
    temps = []
    try:
        for key, (_, write) in writers.items():
            path = paths[key]
            temps.append(f"{path}.{key}.tmp")
            try:
                if os.path.isdir(path):  # a rename onto it would fail after others are in place
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                write(temps[-1])
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for key, temp in zip(writers, temps):
            os.replace(temp, paths[key])
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
    return paths


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


def write_mesh(cfg: RunConfig, surface: RuledSurfaceGrid, path) -> str:
    """Write the config's OBJ mesh of ``surface`` to ``path``.

    The header comment records the system and the normalized params.  A
    ``v_range`` that overflows a vertex is a ConfigError, raised before the
    file is opened.
    """
    mesh = cfg.outputs.mesh
    params = " ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in sorted(cfg.to_dict()["params"].items()))
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
    its roundoff.  Rows are formatted ``_CSV_BLOCK`` at a time by
    ``text.lines``.
    """
    path = os.fspath(path)
    inv = report.recomputed
    values = {"s": track.s, "theta": track.theta, "phi": track.phi}
    if inv is None:
        values["cylindrical"] = b"1"
    else:
        blank = ("mu", "n") if "d" in KINDS[report.kind].vanishing else ()
        values.update((c, getattr(inv, c)) for c in _CSV_COLUMNS[3:] if c not in blank)
    # a fixed or empty cell goes into the separator before the next value
    cols, seps = [], [b""]
    for c in _CSV_COLUMNS:
        v = values.get(c, b"")
        if isinstance(v, bytes):
            seps[-1] += v
        else:
            cols.append(v)
            seps.append(b"")
        seps[-1] += b"\n" if c == _CSV_COLUMNS[-1] else b","
    n = track.n_samples
    with open(path, "wb") as fh:
        fh.write(",".join(_CSV_COLUMNS).encode() + b"\n")
        for lo in range(0, n, _CSV_BLOCK):
            fh.write(text.lines([col[lo : lo + _CSV_BLOCK] for col in cols], seps))
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

    The seeds run through ``fork.map_items``: a sweep whose first seed shows
    that half of the others would take longer than a child's fixed cost
    shares them with a forked child, which hands its rows back pickled in a
    temporary file in ``out_dir``.  The rows and the summary are the same
    either way.
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
        curve, error = build_directrix(base), None
    except GeometryError as exc:
        curve, error = None, exc

    def row(seed) -> SweepRow:
        theta0, phi0 = seed
        outcome = error
        if curve is not None:
            try:
                outcome = run_seed(base.with_seed(theta0, phi0), curve).report
            except GeometryError as exc:
                # returned at once: a local holding it would keep the failed
                # seed's frames, and their arrays, alive until a collection
                return SweepRow.of(theta0, phi0, exc)
        return SweepRow.of(theta0, phi0, outcome)

    seeds = [(theta0, phi0) for theta0 in map(float, theta0_list) for phi0 in map(float, phi0_list)]
    rows = map_items(row, seeds, tmp_dir=out_dir)

    summary_path = os.path.join(out_dir, summary_name)
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f.name for f in dataclasses.fields(SweepRow)])
        writer.writerows([x if isinstance(x, str) else _fmt(x) for x in dataclasses.astuple(row)] for row in rows)
    return rows, summary_path
