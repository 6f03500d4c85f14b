"""Independent verification: recompute prescribed invariants from raw samples.

Nothing in this module reads an angle track.  Every check starts from the
(k_i, q_i) samples of a surface and finite differences, so a synthesis bug
cannot certify itself.  Headline errors cover interior samples; endpoint
samples use one-sided stencils with a larger error constant and are reported
separately.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, SingularPointError
from .lorentz import lorentz_cross, lorentz_inner, lorentz_norm, mixed_product
from .surface import (
    RuledSurfaceGrid,
    SurfaceInvariants,
    finite_difference,
    invariants_numeric,
)
from .synthesis import KINDS, SynthesisParams, SystemKind, helix_relation_defect

#: Default pass tolerances at grid step 1e-3.  Finite-difference recovery is
#: O(h^2), so rescale these when running at other steps.
DEFAULT_REL_TOL = 1e-4
DEFAULT_ABS_TOL = 1e-6

DEFAULT_DEFECT_TOLS = {
    "qprime_norm": 1e-6,
    "distribution_parameter": 1e-6,
    "strictional_distance": 1e-6,
    "geodesic": 1e-6,
    "asymptotic_line": 1e-6,
    "line_of_curvature": 1e-5,
    "helix": 1e-10,
}

#: The defect name under which a prescribed-zero invariant is reported.
VANISHING_DEFECTS = {"d": "distribution_parameter", "v0": "strictional_distance"}


@dataclass(frozen=True)
class Tolerances:
    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL
    defects: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        bounds = {"rel": self.rel, "abs": self.abs, **{f"defects.{k}": v for k, v in self.defects.items()}}
        for name, value in bounds.items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"tolerances.{name}", "must be a finite number >= 0")

    def defect_tol(self, name: str) -> float:
        if name in self.defects:
            return float(self.defects[name])
        return float(DEFAULT_DEFECT_TOLS.get(name, self.abs))

    def to_dict(self) -> dict:
        return {"rel": self.rel, "abs": self.abs, "defects": dict(self.defects)}


@dataclass(frozen=True)
class ErrorStats:
    """Interior error statistics of one invariant, endpoints apart.

    ``margin`` is the largest ratio of the error to its pass bound
    abs + rel * |expected|: at most 1 when every interior sample
    passes, and finite where ``max_rel`` is not (an invariant prescribed to
    be zero).
    """

    max_abs: float
    max_rel: float
    mean_abs: float
    endpoint_max_abs: float
    margin: float

    def to_dict(self) -> dict:
        # non-finite values (e.g. relative error of a zero prescription) are
        # not representable in strict JSON; serialize them as null
        def clean(x: float):
            return x if math.isfinite(x) else None

        return {
            "max_abs": clean(self.max_abs),
            "max_rel": clean(self.max_rel),
            "mean_abs": clean(self.mean_abs),
            "endpoint_max_abs": clean(self.endpoint_max_abs),
            "margin": clean(self.margin),
        }


@dataclass(frozen=True)
class InvariantReport:
    """Comparison of recomputed invariants against a prescription."""

    kind: SystemKind
    n_samples: int
    n_cylindrical: int
    recomputed: SurfaceInvariants | None
    errors: dict[str, ErrorStats]
    defects: dict[str, float]
    tolerances: Tolerances
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "verdict": self.verdict,
            "n_samples": self.n_samples,
            "n_cylindrical": self.n_cylindrical,
            "errors": {name: st.to_dict() for name, st in sorted(self.errors.items())},
            "defects": dict(sorted(self.defects.items())),
            "tolerances": self.tolerances.to_dict(),
            "failures": list(self.failures),
        }


def _stats(actual: np.ndarray, expected: np.ndarray, mask: np.ndarray, tol: Tolerances) -> tuple[ErrorStats, bool]:
    """Errors over interior samples selected by mask; endpoints separately.

    The pass decision uses the combined rule |err| <= abs + rel * |expected|
    per sample, so quantities prescribed to be (numerically) zero are judged
    on the absolute branch instead of a meaningless relative error.
    """
    err = np.abs(actual - expected)
    interior = mask.copy()
    interior[0] = interior[-1] = False
    ends = mask & ~interior
    bound = tol.abs + tol.rel * np.abs(expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = err / np.abs(expected)
        ratio = np.where(err == 0.0, 0.0, err / bound)
    if not np.any(interior):
        stats = ErrorStats(
            math.nan, math.nan, math.nan, float(np.max(err[ends])) if np.any(ends) else math.nan, math.nan
        )
        return stats, False
    ok = bool(np.all(err[interior] <= bound[interior]))
    stats = ErrorStats(
        max_abs=float(np.max(err[interior])),
        max_rel=float(np.max(rel[interior])),
        mean_abs=float(np.mean(err[interior])),
        endpoint_max_abs=float(np.max(err[ends])) if np.any(ends) else math.nan,
        margin=float(np.max(ratio[interior])),
    )
    return stats, ok


def recompute_report(
    surface: RuledSurfaceGrid,
    params: SynthesisParams,
    kind: SystemKind,
    tolerances: Tolerances | None = None,
) -> InvariantReport:
    """Recompute invariants from raw samples and compare with the prescription.

    A failed comparison yields a fail verdict, never an exception; only a
    fully cylindrical surface submitted to a non-cylinder kind propagates
    AllCylindricalError.  The Chasles angle recomputed from (d, v0) is
    compared against the complement of a prescribed mu (the two angle
    conventions are complementary; the report uses absolute radians there).
    """
    tol = tolerances if tolerances is not None else Tolerances()
    h = surface.step
    failures: list[str] = []
    defects: dict[str, float] = {}

    if kind is SystemKind.CYLINDER:
        qp = finite_difference(surface.q, h)
        norms = lorentz_norm(qp)
        interior = float(np.max(norms[1:-1]))
        defects["qprime_norm"] = interior
        defects["qprime_norm_endpoints"] = float(max(norms[0], norms[-1]))
        if interior > tol.defect_tol("qprime_norm"):
            failures.append("qprime_norm")
        return InvariantReport(
            kind=kind,
            n_samples=surface.n_samples,
            n_cylindrical=surface.n_samples,
            recomputed=None,
            errors={},
            defects=defects,
            tolerances=tol,
            failures=tuple(failures),
        )

    inv = invariants_numeric(surface, h)
    usable = ~inv.cylindrical
    spec = KINDS[kind]
    prescribed = spec.prescribe(params, surface.s, surface.directrix.k2)

    errors: dict[str, ErrorStats] = {}
    for name, expected in prescribed.items():
        if name not in spec.vanishing:
            errors[name], ok = _stats(getattr(inv, name), expected, usable, tol)
            if not ok:
                failures.append(name)

    interior = usable.copy()
    interior[0] = interior[-1] = False
    for name in spec.vanishing:
        defect = VANISHING_DEFECTS[name]
        defects[defect] = float(np.max(np.abs(getattr(inv, name)[interior])))
        if defects[defect] > tol.defect_tol(defect):
            failures.append(defect)

    return InvariantReport(
        kind=kind,
        n_samples=surface.n_samples,
        n_cylindrical=int(np.sum(inv.cylindrical)),
        recomputed=inv,
        errors=errors,
        defects=defects,
        tolerances=tol,
        failures=tuple(failures),
    )


class SpecialCase(enum.Enum):
    GEODESIC = "geodesic"
    ASYMPTOTIC_LINE = "asymptotic_line"
    LINE_OF_CURVATURE = "line_of_curvature"
    HELIX = "helix"


def _normals_along_directrix(surface: RuledSurfaceGrid) -> np.ndarray:
    """Unit normals at v = 0 for every sample, from raw finite differences."""
    h = surface.step
    r_s = finite_difference(surface.directrix.k, h)
    c = lorentz_cross(r_s, surface.q)
    nrm = lorentz_norm(c)
    if float(np.min(nrm)) < 1e-9:
        i = int(np.argmin(nrm))
        raise SingularPointError(f"singular surface point along the directrix at sample {i}")
    return c / nrm[:, None]


def special_case_defects(
    surface: RuledSurfaceGrid,
    case: SpecialCase,
    *,
    theta: float | None = None,
    mu: float | None = None,
) -> dict[str, float]:
    """Dimensionless defect of a special-case characterization.

    GEODESIC          max(1 - |<m, N>|)          (normal parallel to N)
    ASYMPTOTIC_LINE   max |<m, N>|               (normal orthogonal to N)
    LINE_OF_CURVATURE max |<k' x m, m'>| / (|k'||m||m'| + eps)
                                                 (normals sweep a developable)
    HELIX             max |k1/k2 - sinh(theta) cot(mu)|   (needs theta, mu)

    The normalization of the line-of-curvature determinant by the three
    norms (plus a tiny eps) makes its tolerance scale-free.  Maxima run
    over interior samples, where "interior" excludes every sample whose
    stencil closure touched a one-sided difference: one layer per end for
    the single-derivative defects, two layers for the line-of-curvature
    defect (m' differentiates the already differenced normals).  The
    ``<name>_endpoints`` entry carries the max over the excluded boundary
    layer, whose error order is lower.
    """
    if case is SpecialCase.HELIX:
        if theta is None or mu is None:
            raise ValueError("helix defect needs constant theta and mu")
        return {"helix": helix_relation_defect(theta, mu, surface.directrix)}

    m = _normals_along_directrix(surface)
    N = surface.directrix.N
    if case is SpecialCase.GEODESIC:
        vals = 1.0 - np.abs(lorentz_inner(m, N))
        layer = 1
    elif case is SpecialCase.ASYMPTOTIC_LINE:
        vals = np.abs(lorentz_inner(m, N))
        layer = 1
    else:
        h = surface.step
        kp = finite_difference(surface.directrix.k, h)
        mp = finite_difference(m, h)
        det = np.abs(mixed_product(kp, m, mp))
        scale = lorentz_norm(kp) * lorentz_norm(m) * lorentz_norm(mp) + 1e-12
        vals = det / scale
        layer = 2
    if vals.shape[0] <= 2 * layer:
        raise ValueError("too few samples for an interior defect")
    name = case.value
    return {
        name: float(np.max(vals[layer:-layer])),
        f"{name}_endpoints": float(max(np.max(vals[:layer]), np.max(vals[-layer:]))),
    }
