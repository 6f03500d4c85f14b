"""Run configuration: a single versioned JSON document.

Schema v1 (see README for the full reference):

    {
      "version": 1,
      "directrix": {"k1": <fn>, "k2": <fn>, "s_range": [a, b], "step": h,
                    "initial_frame": {...}?},
      "system": "<kind>",
      "params": {"theta0": ..., "phi0": ..., "d": <fn|number>, ...},
      "outputs": {"csv_path": ..., "report_path": ..., "mesh": {...}}?,
      "tolerances": {"rel": ..., "abs": ..., "defects": {...}}?
    }

where <fn> is {"type": "constant"|"polynomial"|"sinusoid"|"samples", ...}.
Validation errors always name the offending field.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .frenet import Constant, CurvatureFn, Polynomial, Samples, Sinusoid, grid_size
from .synthesis import KINDS, SynthesisParams, SystemKind
from .verify import Tolerances

SCHEMA_VERSION = 1

_FN_TYPES = ("constant", "polynomial", "sinusoid", "samples")


def curvature_fn_from_spec(spec, where: str) -> CurvatureFn:
    """Build a CurvatureFn from its JSON spec (a number is a constant)."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Constant(_float(spec, where))
    if not isinstance(spec, dict):
        raise ConfigError(where, "expected a number or a function object")
    kind = spec.get("type")
    if kind == "constant":
        return Constant(_number(spec, "value", where))
    if kind == "polynomial":
        coeffs = spec.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"{where}.coefficients", "expected a nonempty list of numbers")
        return Polynomial(tuple(_floats(coeffs, f"{where}.coefficients")))
    if kind == "sinusoid":
        return Sinusoid(
            amplitude=_number(spec, "amplitude", where),
            frequency=_number(spec, "frequency", where),
            phase=_number(spec, "phase", where, 0.0),
            offset=_number(spec, "offset", where, 0.0),
        )
    if kind == "samples":
        s = spec.get("s")
        values = spec.get("values")
        if not isinstance(s, list) or not isinstance(values, list) or len(s) != len(values) or len(s) < 2:
            raise ConfigError(where, "samples need matching 's' and 'values' lists (length >= 2)")
        s = np.asarray(_floats(s, f"{where}.s"))
        if not np.all(np.diff(s) > 0):
            raise ConfigError(f"{where}.s", "must be strictly increasing")
        return Samples(s, np.asarray(_floats(values, f"{where}.values")))
    raise ConfigError(f"{where}.type", f"unknown function type {kind!r}; expected one of {_FN_TYPES}")


def _curvature_fn_to_spec(fn: CurvatureFn | float | None):
    if fn is None:
        return None
    if isinstance(fn, CurvatureFn):
        return fn.to_spec()
    return float(fn)


def _float(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(where, f"expected a number, got {type(val).__name__}")
    val = float(val)
    if not math.isfinite(val):
        raise ConfigError(where, "must be finite")
    return val


def _floats(values: list, where: str) -> list[float]:
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    """obj[key] as a finite float; ``default`` when absent, if one is given."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}.{key}", "missing required number")
        return default
    return _float(obj[key], f"{where}.{key}")


def _path(obj: dict, key: str, where: str) -> str | None:
    val = obj.get(key)
    if val is not None and not (isinstance(val, str) and val):
        raise ConfigError(f"{where}.{key}", "expected a nonempty string path")
    return val


@dataclass(frozen=True)
class DirectrixSpec:
    k1: CurvatureFn
    k2: CurvatureFn
    s_range: tuple[float, float] = (0.0, 1.0)
    step: float = 1e-3
    initial_frame: np.ndarray | None = None

    def __post_init__(self):
        try:
            grid_size(self.s_range, self.step)
        except ValueError as exc:
            raise ConfigError("directrix.step", str(exc)) from None

    def to_dict(self) -> dict:
        out = {
            "k1": self.k1.to_spec(),
            "k2": self.k2.to_spec(),
            "s_range": [self.s_range[0], self.s_range[1]],
            "step": self.step,
        }
        if self.initial_frame is not None:
            rows = self.initial_frame
            out["initial_frame"] = {
                "position": [float(x) for x in rows[0]],
                "T": [float(x) for x in rows[1]],
                "N": [float(x) for x in rows[2]],
                "B": [float(x) for x in rows[3]],
            }
        return out


@dataclass(frozen=True)
class MeshSpec:
    v_range: tuple[float, float]
    v_samples: int
    path: str

    def to_dict(self) -> dict:
        return {
            "v_range": [self.v_range[0], self.v_range[1]],
            "v_samples": self.v_samples,
            "path": self.path,
        }


@dataclass(frozen=True)
class OutputSpec:
    csv_path: str | None = None
    report_path: str | None = None
    mesh: MeshSpec | None = None

    def to_dict(self) -> dict:
        out: dict = {}
        if self.csv_path is not None:
            out["csv_path"] = self.csv_path
        if self.report_path is not None:
            out["report_path"] = self.report_path
        if self.mesh is not None:
            out["mesh"] = self.mesh.to_dict()
        return out


@dataclass(frozen=True)
class RunConfig:
    directrix: DirectrixSpec
    system: SystemKind
    params: SynthesisParams
    outputs: OutputSpec = field(default_factory=OutputSpec)
    tolerances: Tolerances = field(default_factory=Tolerances)

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(os.fspath(path)) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("<document>", f"not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("<document>", "top level must be an object")
        known = {"version", "directrix", "system", "params", "outputs", "tolerances"}
        for key in doc:
            if key not in known:
                raise ConfigError(key, "unknown top-level key")
        if doc.get("version") != SCHEMA_VERSION:
            raise ConfigError("version", f"expected {SCHEMA_VERSION}, got {doc.get('version')!r}")

        d = doc.get("directrix")
        if not isinstance(d, dict):
            raise ConfigError("directrix", "missing required object")
        for key in d:
            if key not in {"k1", "k2", "s_range", "step", "initial_frame"}:
                raise ConfigError(f"directrix.{key}", "unknown key")
        if "k1" not in d:
            raise ConfigError("directrix.k1", "missing required function")
        if "k2" not in d:
            raise ConfigError("directrix.k2", "missing required function")
        k1 = curvature_fn_from_spec(d["k1"], "directrix.k1")
        k2 = curvature_fn_from_spec(d["k2"], "directrix.k2")
        s_range = d.get("s_range", [0.0, 1.0])
        if not isinstance(s_range, list) or len(s_range) != 2:
            raise ConfigError("directrix.s_range", "expected an increasing pair [s0, s1]")
        s_range = _floats(s_range, "directrix.s_range")
        if not s_range[1] > s_range[0]:
            raise ConfigError("directrix.s_range", "expected an increasing pair [s0, s1]")
        frame = None
        if "initial_frame" in d:
            fr = d["initial_frame"]
            if not isinstance(fr, dict):
                raise ConfigError("directrix.initial_frame", "expected an object")
            rows = []
            for key in ("position", "T", "N", "B"):
                row = fr.get(key)
                if not isinstance(row, list) or len(row) != 3:
                    raise ConfigError(f"directrix.initial_frame.{key}", "expected a 3-vector")
                rows.append(_floats(row, f"directrix.initial_frame.{key}"))
            frame = np.asarray(rows, dtype=float)
        step = _number(d, "step", "directrix", 1e-3)
        directrix = DirectrixSpec(k1=k1, k2=k2, s_range=tuple(s_range), step=step, initial_frame=frame)

        system_name = doc.get("system")
        try:
            system = SystemKind(system_name)
        except ValueError:
            names = sorted(k.value for k in SystemKind)
            raise ConfigError("system", f"unknown system {system_name!r}; expected one of {names}") from None

        p = doc.get("params")
        if not isinstance(p, dict):
            raise ConfigError("params", "missing required object")
        known_params = {"theta0", "phi0", "d", "v0", "n", "mu", "C", "step"}
        for key in p:
            if key not in known_params:
                raise ConfigError(f"params.{key}", "unknown key")
        spec = KINDS[system]
        for name in spec.params:
            if name not in p:
                raise ConfigError(f"params.{name}", f"required by system '{system.value}'")
        if spec.seeded and "theta0" not in p:
            raise ConfigError("params.theta0", f"required by system '{system.value}'")

        def fn_or_none(key):
            if key not in p:
                return None
            val = p[key]
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                return _number(p, key, "params")
            return curvature_fn_from_spec(val, f"params.{key}")

        params = SynthesisParams(
            theta0=_number(p, "theta0", "params", float("nan")),
            phi0=_number(p, "phi0", "params", 0.0),
            d=fn_or_none("d"),
            v0=fn_or_none("v0"),
            n=fn_or_none("n"),
            mu=_number(p, "mu", "params") if "mu" in p else None,
            C=_number(p, "C", "params") if "C" in p else None,
            step=_number(p, "step", "params") if "step" in p else None,
        )

        outputs = OutputSpec()
        if "outputs" in doc:
            o = doc["outputs"]
            if not isinstance(o, dict):
                raise ConfigError("outputs", "expected an object")
            for key in o:
                if key not in {"csv_path", "report_path", "mesh"}:
                    raise ConfigError(f"outputs.{key}", "unknown key")
            mesh = None
            if "mesh" in o:
                mo = o["mesh"]
                if not isinstance(mo, dict):
                    raise ConfigError("outputs.mesh", "expected an object")
                vr = mo.get("v_range")
                if not isinstance(vr, list) or len(vr) != 2:
                    raise ConfigError("outputs.mesh.v_range", "expected a pair [v_min, v_max]")
                vr = _floats(vr, "outputs.mesh.v_range")
                ns = mo.get("v_samples")
                if not isinstance(ns, int) or isinstance(ns, bool) or ns < 2:
                    raise ConfigError("outputs.mesh.v_samples", "expected an integer >= 2")
                path = _path(mo, "path", "outputs.mesh")
                if path is None:
                    raise ConfigError("outputs.mesh.path", "expected a nonempty string path")
                mesh = MeshSpec(v_range=tuple(vr), v_samples=ns, path=path)
            outputs = OutputSpec(
                csv_path=_path(o, "csv_path", "outputs"),
                report_path=_path(o, "report_path", "outputs"),
                mesh=mesh,
            )

        tolerances = Tolerances()
        if "tolerances" in doc:
            t = doc["tolerances"]
            if not isinstance(t, dict):
                raise ConfigError("tolerances", "expected an object")
            for key in t:
                if key not in {"rel", "abs", "defects"}:
                    raise ConfigError(f"tolerances.{key}", "unknown key")
            defects = t.get("defects", {})
            if not isinstance(defects, dict):
                raise ConfigError("tolerances.defects", "expected an object")
            tolerances = Tolerances(
                rel=_number(t, "rel", "tolerances", Tolerances.rel),
                abs=_number(t, "abs", "tolerances", Tolerances.abs),
                defects={str(k): _float(v, f"tolerances.defects.{k}") for k, v in defects.items()},
            )

        return cls(directrix=directrix, system=system, params=params, outputs=outputs, tolerances=tolerances)

    # ------------------------------------------------------------------
    # serialization (normalized form)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        p = self.params
        params: dict = {}
        if math.isfinite(p.theta0):
            params["theta0"] = p.theta0
        params["phi0"] = p.phi0
        for key in ("d", "v0", "n"):
            spec = _curvature_fn_to_spec(getattr(p, key))
            if spec is not None:
                params[key] = spec
        if p.mu is not None:
            params["mu"] = p.mu
        if p.C is not None:
            params["C"] = p.C
        if p.step is not None:
            params["step"] = p.step
        return {
            "version": SCHEMA_VERSION,
            "directrix": self.directrix.to_dict(),
            "system": self.system.value,
            "params": params,
            "outputs": self.outputs.to_dict(),
            "tolerances": self.tolerances.to_dict(),
        }

    def with_overrides(self, *, step: float | None = None, tol_rel: float | None = None, tol_abs: float | None = None) -> "RunConfig":
        """This config with the given step and tolerances; None keeps a value.

        The new values are validated like the config fields they replace.
        """
        tol = {"rel": tol_rel, "abs": tol_abs}
        return replace(
            self,
            directrix=self.directrix if step is None else replace(self.directrix, step=step),
            tolerances=replace(self.tolerances, **{k: v for k, v in tol.items() if v is not None}),
        )

    def with_seed(self, theta0: float, phi0: float) -> "RunConfig":
        return replace(self, params=replace(self.params, theta0=theta0, phi0=phi0))
