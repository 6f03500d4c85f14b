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
    helix_ratio,
    integrate_frenet,
)
from .lorentz import (
    CausalClass,
    causal_character,
    lorentz_cross,
    lorentz_inner,
    lorentz_norm,
    lvec,
    mixed_product,
)
from .mesh import export_mesh
from .pipeline import RunResult, run_config, sweep_grid
from .surface import (
    AngleTrack,
    RuledSurfaceGrid,
    SurfaceInvariants,
    angles_from_ruling,
    curvature_relations,
    dv0_from_n_mu,
    dv0_to_n_mu,
    invariants_analytic,
    invariants_numeric,
    q_prime_analytic,
    ruling_from_angles,
    striction_curve,
)
from .synthesis import (
    SynthesisParams,
    SystemKind,
    build_surface,
    geodesic_theta,
    helix_relation_defect,
    integrate_system,
    line_of_curvature_phi,
    locus_theta,
    phi_from_theta_mu,
    system_rhs,
)
from .verify import (
    InvariantReport,
    SpecialCase,
    Tolerances,
    recompute_report,
    special_case_defects,
)

__all__ = [
    "AngleTrack",
    "CausalClass",
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
    "SpecialCase",
    "SurfaceInvariants",
    "SynthesisParams",
    "SystemKind",
    "Tolerances",
    "angles_from_ruling",
    "build_surface",
    "causal_character",
    "curvature_relations",
    "dv0_from_n_mu",
    "dv0_to_n_mu",
    "export_mesh",
    "frame_defect",
    "geodesic_theta",
    "helix_ratio",
    "helix_relation_defect",
    "integrate_frenet",
    "integrate_system",
    "invariants_analytic",
    "invariants_numeric",
    "line_of_curvature_phi",
    "locus_theta",
    "lorentz_cross",
    "lorentz_inner",
    "lorentz_norm",
    "lvec",
    "mixed_product",
    "phi_from_theta_mu",
    "q_prime_analytic",
    "recompute_report",
    "ruling_from_angles",
    "run_config",
    "special_case_defects",
    "striction_curve",
    "sweep_grid",
    "system_rhs",
]
