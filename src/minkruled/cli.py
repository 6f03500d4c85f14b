"""Command-line interface.

Subcommands:
    synthesize   run the pipeline and write the configured outputs
    verify       run the pipeline, print the verdict, write nothing
    sweep        run once per (theta0, phi0) seed and write a summary CSV
    export-mesh  run synthesis only and write the configured OBJ mesh

Exit codes: 0 every verdict passed, 1 verification failed or the pipeline
aborted (the message carries the arc length of the failure), 2 invalid
configuration (the message names the field; a config file that cannot be
read or parsed is named '<document>') or an output that cannot be written
(the message names the path).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .config import RunConfig
from .errors import ConfigError, GeometryError
from .pipeline import build_directrix, run_config, sweep_grid, synthesize_surface, write_all, write_mesh


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out-dir", default=".", help="directory output paths resolve against")
    p.add_argument("--step", type=float, default=None, help="override directrix.step")
    p.add_argument("--tol-rel", type=float, default=None, help="override tolerances.rel")
    p.add_argument("--tol-abs", type=float, default=None, help="override tolerances.abs")


def _parse_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="minkruled",
        description="Synthesize timelike ruled surfaces in Minkowski 3-space and verify their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("synthesize", "run the pipeline and write outputs"),
        ("verify", "run the pipeline and report the verdict"),
        ("export-mesh", "write the OBJ mesh for a config"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("sweep", help="run the seed grid and write a summary CSV")
    _add_common(p)
    p.add_argument(
        "--theta0", type=_parse_list, default=None, help="comma-separated theta0 seeds (default grid: 0.25,0.5,1.0)"
    )
    p.add_argument(
        "--phi0", type=_parse_list, default=None, help="comma-separated phi0 seeds (default grid: 0,pi/2,pi,3pi/2)"
    )
    p.add_argument("--summary-name", default="sweep_summary.csv")
    return parser


def _print_report(report) -> None:
    print(f"verdict: {report.verdict}")
    for name, st in sorted(report.errors.items()):
        print(f"  {name}: margin={st.margin:.3e} max_abs={st.max_abs:.3e} endpoints={st.endpoint_max_abs:.3e}")
    for name, value in sorted(report.defects.items()):
        print(f"  defect {name}: {value:.3e}")
    if report.failures:
        print("  failed checks: " + ", ".join(report.failures))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config).with_overrides(step=args.step, tol_rel=args.tol_rel, tol_abs=args.tol_abs)
        if args.command == "synthesize":
            result = run_config(cfg, args.out_dir, write_outputs=True)
            _print_report(result.report)
            for kind, path in sorted(result.written.items()):
                print(f"wrote {kind}: {path}")
            return result.exit_code
        if args.command == "verify":
            result = run_config(cfg, args.out_dir, write_outputs=False)
            _print_report(result.report)
            return result.exit_code
        if args.command == "export-mesh":
            if cfg.outputs.mesh is None:
                raise ConfigError("outputs.mesh", "required by export-mesh")
            os.makedirs(args.out_dir, exist_ok=True)
            _, surface = synthesize_surface(cfg, build_directrix(cfg))
            mesh = (cfg.outputs.mesh.path, lambda path: write_mesh(cfg, surface, path))
            print(f"wrote mesh: {write_all(args.out_dir, {'mesh': mesh})['mesh']}")
            return 0
        # sweep
        rows, summary = sweep_grid(cfg, args.theta0, args.phi0, args.out_dir, summary_name=args.summary_name)
        n_pass = sum(1 for r in rows if r.verdict == "pass")
        for r in rows:
            loc = f" at s={r.failure_s:.6g}" if r.failure_s is not None else ""
            print(f"seed (theta0={r.theta0:g}, phi0={r.phi0:g}): {r.verdict}{loc} {r.detail}".rstrip())
        print(f"{n_pass}/{len(rows)} seeds passed; summary: {summary}")
        return 0 if n_pass == len(rows) else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a config that cannot be read is a ConfigError, so this is an output
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
