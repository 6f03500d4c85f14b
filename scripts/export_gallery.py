#!/usr/bin/env python3
"""Render every shipped config to an OBJ mesh and print its verification verdict.

Useful for eyeballing the synthesized families in any mesh viewer.  Remember
the viewer measures Euclidean distances; the geometry is Lorentzian.
"""

import argparse
from pathlib import Path

from minkruled import RunConfig, export_mesh
from minkruled.pipeline import run_config

DEFAULT_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config-dir", default=str(DEFAULT_CONFIG_DIR))
    parser.add_argument("--out-dir", default="gallery")
    parser.add_argument("--v-extent", type=float, default=0.75, help="ruling window half-width")
    parser.add_argument("--v-samples", type=int, default=15)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(Path(args.config_dir).glob("*.json")):
        cfg = RunConfig.from_file(path)
        result = run_config(cfg, out_dir, write_outputs=False)
        mesh_path = out_dir / f"{path.stem}.obj"
        export_mesh(
            result.surface,
            (-args.v_extent, args.v_extent),
            args.v_samples,
            mesh_path,
            comment=f"system={cfg.system.value} from {path.name}",
        )
        print(f"{path.name:28s} verdict={result.report.verdict:4s} -> {mesh_path}")


if __name__ == "__main__":
    main()
