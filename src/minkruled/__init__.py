"""Timelike ruled surfaces in Minkowski 3-space: synthesis from prescribed
invariants by integrating determining angle systems, and independent
verification by finite-difference recomputation from raw samples."""

__version__ = "0.1.0"

from .config import RunConfig
from .errors import ConfigError, GeometryError
from .frenet import (
    Constant,
    CurvatureFn,
    FrenetCurve,
    Polynomial,
    Samples,
    Sinusoid,
    frame_defect,
    integrate_frenet,
)
from .lorentz import (
    lorentz_cross,
    lorentz_inner,
    lorentz_norm,
    mixed_product,
)
from .mesh import export_mesh
from .pipeline import RunResult, run_config, sweep_grid
from .surface import (
    RuledSurfaceGrid,
    SurfaceInvariants,
    curvature_relations,
    dv0_from_n_mu,
    invariants_numeric,
)
from .synthesis import (
    AngleTrack,
    SynthesisParams,
    SystemKind,
    build_surface,
    integrate_system,
    line_of_curvature_phi,
    ruling_from_angles,
)
from .verify import (
    InvariantReport,
    Tolerances,
    recompute_report,
    surface_defects,
)

__all__ = [
    "AngleTrack",
    "ConfigError",
    "Constant",
    "CurvatureFn",
    "FrenetCurve",
    "GeometryError",
    "InvariantReport",
    "Polynomial",
    "RuledSurfaceGrid",
    "RunConfig",
    "RunResult",
    "Samples",
    "Sinusoid",
    "SurfaceInvariants",
    "SynthesisParams",
    "SystemKind",
    "Tolerances",
    "build_surface",
    "curvature_relations",
    "dv0_from_n_mu",
    "export_mesh",
    "frame_defect",
    "integrate_frenet",
    "integrate_system",
    "invariants_numeric",
    "line_of_curvature_phi",
    "lorentz_cross",
    "lorentz_inner",
    "lorentz_norm",
    "mixed_product",
    "recompute_report",
    "ruling_from_angles",
    "run_config",
    "surface_defects",
    "sweep_grid",
]
