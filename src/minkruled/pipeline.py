"""End-to-end runs: directrix, synthesis, surface, verification, file outputs.

All emitted files are deterministic for identical configs: the CSV and
OBJ write floats with 17 significant digits, the report JSON with
``json``'s shortest round-trip repr and sorted keys, and nothing records
timestamps.
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
from .config import RunConfig, to_json
from .errors import ConfigError, FarPositionError, GeometryError
from .fork import map_items
from .frenet import FrenetCurve, integrate_frenet
from .mesh import export_mesh
from .surface import RuledSurfaceGrid
from .synthesis import (
    DEFAULT_PHI0_GRID,
    DEFAULT_THETA0_GRID,
    KINDS,
    AngleOperands,
    AngleTrack,
    angle_operands,
    build_surface,
    integrate_system,
)
from .verify import InvariantReport, recompute_report


#: The sweep summary's file name in its output directory, unless a caller names another.
DEFAULT_SUMMARY_NAME = "sweep_summary.csv"


def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


@dataclass(frozen=True)
class RunResult:
    """One synthesized and verified config: the angle track, the surface built from it, and its report."""

    config: RunConfig
    track: AngleTrack
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
        o, track, surface, report = cfg.outputs, result.track, result.surface, result.report
        writers = {}
        if o.mesh is not None:
            writers["mesh"] = (o.mesh.path, lambda path: write_mesh(cfg, surface, path))
        if o.csv_path is not None:
            writers["csv"] = (o.csv_path, lambda path: write_samples_csv(path, track, report))
        if o.report_path is not None:
            writers["report"] = (o.report_path, lambda path: write_report_json(path, report))
        result.written.update(write_all(out_dir, writers))
    return result


def write_all(out_dir: str, writers: dict) -> dict[str, str]:
    """Write every output or none; ``writers`` maps a key to (path in ``out_dir``, function writing a path).

    The package's one placement policy: ``run_config`` and ``sweep_grid``
    hand it every file they emit, and no other function decides how an
    output replaces an older one.  Each output is written under a
    temporary name beside its path, and all are renamed onto their paths
    (``os.replace``, over any file there) after the last one is written.
    On any error the temporaries are removed and the files at the paths
    are left as they were; an OSError names the output's path.  Returns
    each key's path.
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


def run_seed(cfg: RunConfig, curve: FrenetCurve, operands: AngleOperands | None = None) -> RunResult:
    """Synthesize and verify one config on its directrix ``curve``; writes nothing.

    The one per-seed path of ``run_config`` and ``sweep_grid``; ``operands``
    are passed to ``integrate_system``.
    """
    track, surface = synthesize_surface(cfg, curve, operands)
    report = recompute_report(surface, cfg.params, cfg.system, cfg.tolerances)
    return RunResult(config=cfg, track=track, surface=surface, report=report, written={})


def synthesize_surface(
    cfg: RunConfig, curve: FrenetCurve, operands: AngleOperands | None = None
) -> tuple[AngleTrack, RuledSurfaceGrid]:
    """The angle track of one config on its directrix ``curve`` and the ruling field built from it; unverified."""
    track = integrate_system(cfg.system, cfg.params, curve, operands)
    return track, build_surface(track, curve)


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

def write_samples_csv(path, track: AngleTrack, report: InvariantReport) -> str:
    """Per-sample table: s, angles, recomputed invariants, cylindrical flag.

    Without recomputed invariants the six invariant cells are empty and the
    flag is 1.  When the kind prescribes ``d = 0`` the ``mu`` and ``n`` cells
    are empty: both are functions of ``d``, so the recomputed values would be
    its roundoff.  Rows are formatted ``text.BLOCK`` at a time by one
    ``text.LineWriter`` made per file.
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
    widths = [1 if col.dtype.kind == "b" else text.FLOAT_WIDTH for col in cols]  # the flag, or a float
    block = text.BLOCK
    lines = text.LineWriter(seps, widths, min(n, block))
    with open(path, "wb") as fh:
        fh.write(",".join(_CSV_COLUMNS).encode() + b"\n")
        for lo in range(0, n, block):
            fh.write(lines.fill([col[lo : lo + block] for col in cols]))
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
            return cls(theta0, phi0, "error", None, None, outcome.s, detail)
        rels = [st.max_rel for st in outcome.errors.values() if math.isfinite(st.max_rel)]
        defects = [v for k, v in outcome.defects.items() if not k.endswith("_endpoints")]
        detail = "" if outcome.passed else "failed: " + ",".join(outcome.failures)
        return cls(theta0, phi0, outcome.verdict, max(rels, default=None), max(defects, default=None), None, detail)


#: The directrix the last sweep built, as (its normalized spec, the curve),
#: or None; see ``sweep_directrix``.
_swept_directrix: tuple[str, FrenetCurve] | None = None


def sweep_directrix(base: RunConfig) -> FrenetCurve:
    """``build_directrix(base)``, or the curve the last call built if its directrix spec was equal.

    One curve is kept, keyed by the whole normalized directrix spec
    (``config.to_json`` of k1, k2, s_range, step and initial_frame).  A
    spec that differs drops it before its own build, and a build that fails
    keeps nothing, so the next call tries again.  Each call returns the
    curve it compared or built, never one another thread put in its place.
    ``run_config`` neither reads nor fills it.
    """
    global _swept_directrix
    key, kept = json.dumps(to_json(base.directrix)), _swept_directrix
    if kept is None or kept[0] != key:
        kept = _swept_directrix = None
        kept = _swept_directrix = (key, build_directrix(base))
    return kept[1]


def sweep_grid(
    base: RunConfig,
    theta0_list=None,
    phi0_list=None,
    out_dir=".",
    *,
    summary_name: str = DEFAULT_SUMMARY_NAME,
) -> tuple[list[SweepRow], str]:
    """Synthesize and verify once per seed on the grid; one CSV row per seed.

    The seed-independent work is done once per sweep: the directrix, which
    the next sweep of an equal directrix spec reuses (``sweep_directrix``;
    one curve stays alive after the sweep, 17 doubles per sample), and the
    angle operands (``synthesis.angle_operands``), which every seed's
    ``integrate_system`` reads and which die when the sweep returns.
    Errors are recorded per row and never abort the sweep.  Per-seed file
    outputs are suppressed; ``out_dir`` is created before the first seed
    runs.  The summary is the one output, written by ``write_all`` as
    ``run_config``'s are: all or none, so a write that fails leaves an
    earlier summary at its path byte for byte and no temporary beside it.

    The seeds run through ``fork.map_items``: a sweep whose first seed shows
    that half of the others would take longer than a child's fixed cost
    shares them with a forked child, which hands its rows back pickled in an
    unnamed temporary file.  The rows and the summary are the same either
    way.
    """
    theta0_list = list(DEFAULT_THETA0_GRID if theta0_list is None else theta0_list)
    phi0_list = list(DEFAULT_PHI0_GRID if phi0_list is None else phi0_list)
    if not theta0_list or not phi0_list:
        raise ValueError("seed lists must be nonempty")
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    seeds = [(theta0, phi0) for theta0 in map(float, theta0_list) for phi0 in map(float, phi0_list)]

    # a directrix that cannot be built puts its error in every row; operands
    # that cannot be built leave each seed to meet their error on its own path
    try:
        curve, error = sweep_directrix(base), None
    except GeometryError as exc:
        curve, error = None, exc
    operands = None
    if curve is not None:
        with contextlib.suppress(GeometryError):
            operands = angle_operands(base.system, base.params, curve)

    def row(seed) -> SweepRow:
        theta0, phi0 = seed
        outcome = error
        if curve is not None:
            try:
                outcome = run_seed(base.with_seed(theta0, phi0), curve, operands).report
            except GeometryError as exc:
                # returned at once: a local holding it would keep the failed
                # seed's frames, and their arrays, alive until a collection
                return SweepRow.of(theta0, phi0, exc)
        return SweepRow.of(theta0, phi0, outcome)

    rows = map_items(row, seeds)
    written = write_all(out_dir, {"summary": (summary_name, lambda path: write_sweep_summary(path, rows))})
    return rows, written["summary"]


def write_sweep_summary(path: str, rows: list[SweepRow]) -> None:
    """The sweep summary CSV: a header of ``SweepRow``'s fields, then one row per seed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f.name for f in dataclasses.fields(SweepRow)])
        writer.writerows([x if isinstance(x, str) else _fmt(x) for x in dataclasses.astuple(row)] for row in rows)
