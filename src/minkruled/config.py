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
Unknown keys are rejected at every level; validation errors always name the
offending field.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .frenet import DEFAULT_S_RANGE, DEFAULT_STEP, Constant, CurvatureFn, Polynomial, Samples, Sinusoid, grid_size
from .synthesis import SynthesisParams, SystemKind, is_unset, missing_param
from .verify import DEFAULT_DEFECT_TOLS, Tolerances

SCHEMA_VERSION = 1

#: Largest mesh lattice, (grid samples) x v_samples points, accepted at parse
#: time; the OBJ writer builds one line of text per point.
MAX_MESH_POINTS = 2_000_000

_FRAME_ROWS = ("position", "T", "N", "B")


def _section(obj, where: str, schema: dict, required=()) -> dict:
    """The entries of the JSON object ``obj``, each read by its coercer in ``schema``.

    ``where`` is the dotted path of ``obj`` ("" for the document).  Keys not
    in ``schema`` and missing ``required`` keys are errors.  Absent optional
    keys are left out, so the dataclass defaults apply.
    """
    if not isinstance(obj, dict):
        raise ConfigError(where or "<document>", "expected an object")
    prefix = f"{where}." if where else ""
    for key in obj:
        if key not in schema:
            raise ConfigError(prefix + key, "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(prefix + key, "missing required key")
    return {key: coerce(obj[key], prefix + key) for key, coerce in schema.items() if key in obj}


def _object(build, schema: dict, required=()):
    """Coercer reading a JSON object through ``schema`` into ``build(**entries)``."""
    return lambda obj, where: build(**_section(obj, where, schema, required))


def _float(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(where, f"expected a number, got {type(val).__name__}")
    try:
        val = float(val)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(where, "must be finite")
    return val


def _floats(n: int | None = None, increasing: bool = False):
    """Coercer for a list of exactly ``n`` numbers (at least one if ``n`` is None), as a tuple."""
    shape = f"a list of {n} numbers" if n else "a nonempty list of numbers"

    def coerce(val, where: str) -> tuple[float, ...]:
        if not isinstance(val, list) or (len(val) != n if n else not val):
            raise ConfigError(where, f"expected {shape}")
        out = tuple(_float(v, f"{where}[{i}]") for i, v in enumerate(val))
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError(where, "must be strictly increasing")
        return out

    return coerce


def _path(val, where: str) -> str:
    if not (isinstance(val, str) and val):
        raise ConfigError(where, "expected a nonempty string path")
    return val


def _optional_path(val, where: str) -> str | None:
    """A path, where ``null`` means absent."""
    return None if val is None else _path(val, where)


def _count(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val < 2:
        raise ConfigError(where, "expected an integer >= 2")
    return val


def _version(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val != SCHEMA_VERSION:
        raise ConfigError(where, f"expected {SCHEMA_VERSION}, got {val!r}")
    return SCHEMA_VERSION


def _system(val, where: str) -> SystemKind:
    try:
        return SystemKind(val)
    except ValueError:
        names = sorted(k.value for k in SystemKind)
        raise ConfigError(where, f"unknown system {val!r}; expected one of {names}") from None


def _frame(val, where: str) -> np.ndarray:
    rows = _section(val, where, dict.fromkeys(_FRAME_ROWS, _floats(3)), _FRAME_ROWS)
    return np.asarray([rows[key] for key in _FRAME_ROWS], dtype=float)


#: function type -> (constructor, key table, required keys)
_FUNCTIONS = {
    "constant": (Constant, {"value": _float}, ("value",)),
    "polynomial": (Polynomial, {"coefficients": _floats()}, ("coefficients",)),
    "sinusoid": (
        Sinusoid,
        {"amplitude": _float, "frequency": _float, "phase": _float, "offset": _float},
        ("amplitude", "frequency"),
    ),
    "samples": (Samples, {"s": _floats(increasing=True), "values": _floats()}, ("s", "values")),
}


def curvature_fn_from_spec(spec, where: str) -> CurvatureFn:
    """Build a CurvatureFn from its JSON spec (a number is a constant)."""
    fn = _number_or_fn(spec, where)
    return Constant(fn) if isinstance(fn, float) else fn


def _number_or_fn(spec, where: str) -> float | CurvatureFn:
    """A number as a float; anything else read as a function object.

    A constructor's ValueError (an unusable ``samples`` table) names ``where``.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return _float(spec, where)
    if not isinstance(spec, dict):
        raise ConfigError(where, "expected a number or a function object")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _FUNCTIONS:
        raise ConfigError(f"{where}.type", f"unknown function type {kind!r}; expected one of {tuple(_FUNCTIONS)}")
    build, schema, required = _FUNCTIONS[kind]
    entries = _section({k: v for k, v in spec.items() if k != "type"}, where, schema, required)
    try:
        return build(**entries)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None


@dataclass(frozen=True)
class DirectrixSpec:
    k1: CurvatureFn
    k2: CurvatureFn
    s_range: tuple[float, float] = DEFAULT_S_RANGE
    step: float = DEFAULT_STEP
    initial_frame: np.ndarray | None = None


@dataclass(frozen=True)
class MeshSpec:
    v_range: tuple[float, float]
    v_samples: int
    path: str


@dataclass(frozen=True)
class OutputSpec:
    csv_path: str | None = None
    report_path: str | None = None
    mesh: MeshSpec | None = None


_MESH = {"v_range": _floats(2), "v_samples": _count, "path": _path}

_DOCUMENT = {
    "version": _version,
    "directrix": _object(
        DirectrixSpec,
        {
            "k1": curvature_fn_from_spec,
            "k2": curvature_fn_from_spec,
            "s_range": _floats(2, increasing=True),
            "step": _float,
            "initial_frame": _frame,
        },
        ("k1", "k2"),
    ),
    "system": _system,
    "params": _object(
        SynthesisParams,
        {
            "theta0": _float,
            "phi0": _float,
            "d": _number_or_fn,
            "v0": _number_or_fn,
            "n": _number_or_fn,
            "mu": _float,
            "C": _float,
        },
    ),
    "outputs": _object(
        OutputSpec,
        {"csv_path": _optional_path, "report_path": _optional_path, "mesh": _object(MeshSpec, _MESH, tuple(_MESH))},
    ),
    "tolerances": _object(
        Tolerances,
        {"rel": _float, "abs": _float, "defects": _object(dict, dict.fromkeys(DEFAULT_DEFECT_TOLS, _float))},
    ),
}


def to_json(value):
    """The normalized JSON form of a config value; unset entries (``is_unset``) are dropped."""
    if isinstance(value, CurvatureFn):
        return value.to_spec()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):  # the initial frame
        return {key: [float(x) for x in row] for key, row in zip(_FRAME_ROWS, value)}
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items() if not is_unset(v)}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    directrix: DirectrixSpec
    system: SystemKind
    params: SynthesisParams
    outputs: OutputSpec = field(default_factory=OutputSpec)
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        # the grid checks run here rather than in the reader, so that a --step
        # override is checked too
        try:
            samples = grid_size(self.directrix.s_range, self.directrix.step) + 1
        except ValueError as exc:
            raise ConfigError("directrix.step", str(exc)) from None
        if samples < 3:  # the finite differences of the oracle need three
            raise ConfigError("directrix.step", f"the grid has {samples} samples; at least 3 are needed")
        mesh = self.outputs.mesh
        if mesh is not None and samples * mesh.v_samples > MAX_MESH_POINTS:
            raise ConfigError("outputs.mesh.v_samples", f"the mesh would have more than {MAX_MESH_POINTS} points")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = os.fspath(path)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError("<document>", f"cannot read {path!r}: {exc.strerror or exc}") from None
        except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too many digits, too deep
            raise ConfigError("<document>", f"not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        entries = _section(doc, "", _DOCUMENT, ("version", "directrix", "system", "params"))
        del entries["version"]
        cfg = cls(**entries)
        name = missing_param(cfg.system, cfg.params)
        if name is not None:
            raise ConfigError(f"params.{name}", f"required by system '{cfg.system.value}'")
        return cfg

    def to_dict(self) -> dict:
        """The normalized form: ``from_dict(cfg.to_dict())`` gives the same config."""
        return {"version": SCHEMA_VERSION, **to_json(self)}

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
