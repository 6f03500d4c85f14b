"""Independent verification: recompute prescribed invariants from raw samples.

A surface holds no angle track, so a synthesis bug cannot certify itself.
The invariants are recomputed from the (k_i, q_i) samples of a surface and
finite differences.  Two checks read more of the directrix than its
positions: the ``geodesic`` and ``asymptotic_line`` defects read its
integrated normal ``N``, and the asymptotic prescription n = -1/k2 reads
its stored torsion ``k2``.  Headline errors cover interior samples; endpoint
samples use one-sided stencils with a larger error constant and are reported
separately.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import ConfigError, SingularPointError
from .lorentz import lorentz_cross, lorentz_inner, lorentz_norm, mixed_product
from .surface import RuledSurfaceGrid, SurfaceInvariants, finite_difference, invariants_numeric
from .synthesis import KINDS, SynthesisParams, SystemKind

#: Default pass tolerances at grid step 1e-3.  Finite-difference recovery is
#: O(h^2), so rescale these when running at other steps.
DEFAULT_REL_TOL = 1e-4
DEFAULT_ABS_TOL = 1e-6

#: The tolerance of every defect some kind checks (``KindSpec.vanishing``
#: through ``VANISHING_DEFECTS``, and ``KindSpec.defects``).
DEFAULT_DEFECT_TOLS = {
    "qprime_norm": 1e-6,
    "distribution_parameter": 1e-6,
    "strictional_distance": 1e-6,
}

#: The defect name under which a prescribed-zero invariant is reported.
VANISHING_DEFECTS = {"d": "distribution_parameter", "v0": "strictional_distance"}


@dataclass(frozen=True)
class Tolerances:
    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL
    defects: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for name in self.defects:
            if name not in DEFAULT_DEFECT_TOLS:
                raise ConfigError(f"tolerances.defects.{name}", "unknown key")
        bounds = {"rel": self.rel, "abs": self.abs, **{f"defects.{k}": v for k, v in self.defects.items()}}
        for name, value in bounds.items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"tolerances.{name}", "must be a finite number >= 0")

    def defect_tol(self, name: str) -> float:
        return float(self.defects.get(name, DEFAULT_DEFECT_TOLS[name]))

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
        return _json_floats({f.name: getattr(self, f.name) for f in dataclasses.fields(self)})


def _json_floats(values: dict[str, float]) -> dict:
    """``values`` with each non-finite one (an infinite relative error, a NaN defect) as None, JSON's null."""
    return {name: x if math.isfinite(x) else None for name, x in values.items()}


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
            "defects": _json_floats(dict(sorted(self.defects.items()))),
            "tolerances": self.tolerances.to_dict(),
            "failures": list(self.failures),
        }


def _stats(actual: np.ndarray, expected: np.ndarray, mask: np.ndarray, tol: Tolerances) -> tuple[ErrorStats, bool]:
    """Errors over interior samples selected by mask; endpoints separately.

    The pass decision uses the combined rule |err| <= abs + rel * |expected|
    per sample, so quantities prescribed to be (numerically) zero are judged
    on the absolute branch instead of a meaningless relative error.
    """
    interior = mask.copy()
    interior[0] = interior[-1] = False
    ends = mask & ~interior
    # a prescription near the float limit may overflow the errors to inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        err = np.abs(actual - expected)
        bound = tol.abs + tol.rel * np.abs(expected)
        endpoint_max_abs = float(np.max(err[ends])) if np.any(ends) else math.nan
        if not np.any(interior):
            return ErrorStats(math.nan, math.nan, math.nan, endpoint_max_abs, math.nan), False
        err, bound = err[interior], bound[interior]
        stats = ErrorStats(
            max_abs=float(np.max(err)),
            max_rel=float(np.max(err / np.abs(expected[interior]))),
            mean_abs=float(np.mean(err)),
            endpoint_max_abs=endpoint_max_abs,
            margin=float(np.max(np.where(err == 0.0, 0.0, err / bound))),
        )
    return stats, bool(np.all(err <= bound))


def recompute_report(
    surface: RuledSurfaceGrid,
    params: SynthesisParams,
    kind: SystemKind,
    tolerances: Tolerances | None = None,
) -> InvariantReport:
    """Recompute invariants from raw samples and compare with the prescription.

    Only a kind that prescribes invariants (all but the cylinder) has them
    recomputed.  A failed comparison yields a fail verdict, never an
    exception; only a fully cylindrical surface submitted to such a kind
    propagates AllCylindricalError, and a prescription the kind rejects (see
    ``KindSpec.prescribe``) raises ParamDomainError.  The Chasles angle
    recomputed from (d, v0) is compared against the complement of a
    prescribed mu, taken modulo pi into (-pi/2, pi/2) (the two angle
    conventions are complementary; the report uses absolute radians there).
    """
    tol = tolerances if tolerances is not None else Tolerances()
    errors: dict[str, ErrorStats] = {}
    defects: dict[str, float] = {}
    failures: list[str] = []

    spec = KINDS[kind]
    prescribed = spec.prescribe(params, surface.s, surface.directrix.k2)
    inv, n_cylindrical = None, surface.n_samples
    if prescribed:
        inv = invariants_numeric(surface)
        n_cylindrical = int(np.sum(inv.cylindrical))
        usable = ~inv.cylindrical
        for name, expected in prescribed.items():
            if name not in spec.vanishing:
                errors[name], ok = _stats(getattr(inv, name), expected, usable, tol)
                if not ok:
                    failures.append(name)
        for name in spec.vanishing:  # interior samples only
            defects[VANISHING_DEFECTS[name]] = float(np.max(np.abs(getattr(inv, name)[1:-1][usable[1:-1]])))
    for name in spec.defects:
        defects.update(surface_defects(surface, name))

    for name in (*(VANISHING_DEFECTS[v] for v in spec.vanishing), *spec.defects):
        if not defects[name] <= tol.defect_tol(name):  # a NaN defect fails too
            failures.append(name)

    return InvariantReport(
        kind=kind,
        n_samples=surface.n_samples,
        n_cylindrical=n_cylindrical,
        recomputed=inv,
        errors=errors,
        defects=defects,
        tolerances=tol,
        failures=tuple(failures),
    )


def _normals_along_directrix(surface: RuledSurfaceGrid) -> np.ndarray:
    """Unit normals at v = 0 for every sample, from raw finite differences."""
    h = surface.step
    r_s = finite_difference(surface.directrix.k, h)
    c = lorentz_cross(r_s, surface.q)
    nrm = lorentz_norm(c)
    singular = np.flatnonzero(nrm < 1e-9)
    if singular.size:
        s = float(surface.s[singular[0]])
        raise SingularPointError(f"singular surface point along the directrix at s = {s:.6g}", s=s)
    return c / nrm[:, None]


def _developability(surface: RuledSurfaceGrid) -> np.ndarray:
    kp = finite_difference(surface.directrix.k, surface.step)
    m = _normals_along_directrix(surface)
    mp = finite_difference(m, surface.step)
    return np.abs(mixed_product(kp, m, mp)) / (lorentz_norm(kp) * lorentz_norm(m) * lorentz_norm(mp) + 1e-12)


#: name -> (per-sample values from raw samples, boundary layer per end), the
#: defects a kind may list in ``KindSpec.defects``:
#:   qprime_norm        |q'|                  (rulings parallel: a cylinder)
#:   geodesic           1 - |<m, N>|          (normal m parallel to N)
#:   asymptotic_line    |<m, N>|              (normal orthogonal to N)
#:   line_of_curvature  |<k' x m, m'>| / (|k'||m||m'| + eps), scale-free
#:                                            (normals sweep a developable)
#: The layer holds the samples whose stencil closure touched a one-sided
#: difference: two for line_of_curvature, whose m' differences differenced
#: normals.
SURFACE_DEFECTS: dict[str, tuple[Callable[[RuledSurfaceGrid], np.ndarray], int]] = {
    "qprime_norm": (lambda surf: lorentz_norm(finite_difference(surf.q, surf.step)), 1),
    "geodesic": (lambda surf: 1.0 - np.abs(lorentz_inner(_normals_along_directrix(surf), surf.directrix.N)), 1),
    "asymptotic_line": (lambda surf: np.abs(lorentz_inner(_normals_along_directrix(surf), surf.directrix.N)), 1),
    "line_of_curvature": (_developability, 2),
}


def surface_defects(surface: RuledSurfaceGrid, name: str) -> dict[str, float]:
    """The defect ``name`` of ``SURFACE_DEFECTS``: its max over interior samples.

    Interior excludes the boundary layer at each end (ValueError, naming
    the samples needed, if nothing is left); the ``<name>_endpoints`` entry
    carries the max over that layer, whose error order is lower.
    """
    values, layer = SURFACE_DEFECTS[name]
    if surface.n_samples <= 2 * layer:
        raise ValueError(f"the {name} defect needs at least {2 * layer + 1} samples; the grid has {surface.n_samples}")
    vals = values(surface)
    return {
        name: float(np.max(vals[layer:-layer])),
        f"{name}_endpoints": float(max(np.max(vals[:layer]), np.max(vals[-layer:]))),
    }
