"""Per-layer tracing from outside the package.

While a ``Tracer`` is installed, the names that ``minkruled.pipeline`` and
``minkruled.cli`` look up at call time are replaced by timing wrappers, so
every call into a layer leaves a span: name, start, end, parent span and the
operation it belongs to.  Spans stay in memory until the run ends.  A name
the package no longer has is reported absent instead of failing the run.
Uninstalling restores every original.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from refloop import REF_S

#: (module, attribute, span name).  Modules are imported lazily by name.
TARGETS = (
    ("minkruled.pipeline", "run_config", "pipeline.run_config"),
    ("minkruled.pipeline", "sweep_grid", "pipeline.sweep_grid"),
    ("minkruled.pipeline", "build_directrix", "pipeline.build_directrix"),
    ("minkruled.pipeline", "integrate_frenet", "frenet.integrate_frenet"),
    ("minkruled.pipeline", "integrate_system", "synthesis.integrate_system"),
    ("minkruled.pipeline", "build_surface", "synthesis.build_surface"),
    ("minkruled.pipeline", "recompute_report", "verify.recompute_report"),
    ("minkruled.pipeline", "write_samples_csv", "pipeline.write_samples_csv"),
    ("minkruled.pipeline", "write_report_json", "pipeline.write_report_json"),
    ("minkruled.pipeline", "export_mesh", "mesh.export_mesh"),
    ("minkruled.cli", "main", "cli.main"),
    ("minkruled.cli", "run_config", "pipeline.run_config"),
    ("minkruled.cli", "sweep_grid", "pipeline.sweep_grid"),
    ("minkruled.cli", "build_directrix", "pipeline.build_directrix"),
    ("minkruled.cli", "integrate_system", "synthesis.integrate_system"),
    ("minkruled.cli", "build_surface", "synthesis.build_surface"),
    ("minkruled.cli", "export_mesh", "mesh.export_mesh"),
    ("minkruled.config", "RunConfig.from_file", "config.from_file"),
)

#: Spans that only call other layers; their self time is orchestration.
ORCHESTRATION = ("pipeline.run_config", "pipeline.sweep_grid", "pipeline.build_directrix", "cli.main")

_NAME, _START, _END, _PARENT, _OP, _PASS, _INFO = range(7)


def _directrix_key(args, kwargs) -> str:
    def spec(fn):
        return fn.to_spec() if hasattr(fn, "to_spec") else float(fn)

    frame = kwargs.get("initial_frame")
    return json.dumps(
        [
            [spec(a) for a in args[:2]],
            list(kwargs.get("s_range", ())),
            kwargs.get("step"),
            None if frame is None else [list(map(float, row)) for row in frame],
        ],
        sort_keys=True,
    )


def _info(span_name: str, args, kwargs, result) -> dict:
    """Work counts of one call: steps, samples or bytes written."""
    if span_name == "frenet.integrate_frenet":
        return {"steps": result.n_samples - 1, "key": _directrix_key(args, kwargs)}
    if span_name == "synthesis.integrate_system":
        return {"steps": result.n_samples - 1}
    if span_name == "verify.recompute_report":
        return {"samples": result.n_samples}
    if span_name in ("pipeline.write_samples_csv", "pipeline.write_report_json", "mesh.export_mesh"):
        return {"bytes": os.path.getsize(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op_id = 0
        self.pass_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, self.pass_id, None]
            spans.append(span)
            stack.append(idx)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_END] = time.perf_counter()
                span[_INFO] = {"error": True}
                raise
            finally:
                stack.pop()
            span[_END] = time.perf_counter()
            span[_INFO] = _info(span_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                self.absent.append(f"{module_name}.{attr}")
                continue
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(span_name, raw.__func__))
            else:
                patched = self._wrap(span_name, raw)
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "pass")
        with open(path, "w") as fh:
            for span in self.spans:
                rec = dict(zip(keys, span))
                if span[_INFO]:
                    rec.update({k: v for k, v in span[_INFO].items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")

    # ------------------------------------------------------------------
    # derived per-layer numbers
    # ------------------------------------------------------------------

    def layer_metrics(self, lats: list[list[float]], refs: list[list[float]]) -> dict[str, float]:
        """Per-pass busy and self time, counts and rates for each layer.

        ``lats`` and ``refs`` are the traced ops' latencies and reference
        loop times, per pass and op.  Span times are scaled like every other
        timing (see ``refloop``).  The coverage ratio is the share of the op
        time spent in the layers that do the work rather than orchestrate it.
        """
        n_passes = len(lats)
        scale = [[REF_S / r for r in per_pass] for per_pass in refs]
        traced_wall_s = sum(x * k for lat, ks in zip(lats, scale) for x, k in zip(lat, ks))
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        work = defaultdict(float)  # busy time of calls that report work
        amount = defaultdict(int)  # steps, samples or bytes of those calls
        child = defaultdict(float)
        keys_per_pass = defaultdict(set)
        def duration(span):
            return (span[_END] - span[_START]) * scale[span[_PASS]][span[_OP]]

        for span in self.spans:
            if span[_PARENT] is not None:
                child[span[_PARENT]] += duration(span)
        for idx, span in enumerate(self.spans):
            name, dt, info = span[_NAME], duration(span), span[_INFO] or {}
            busy[name] += dt
            self_s[name] += dt - child[idx]
            calls[name] += 1
            if info.get("error"):
                errors[name] += 1
            for unit in ("steps", "samples", "bytes"):
                if unit in info:
                    work[name] += dt
                    amount[name] += info[unit]
            if "key" in info:
                keys_per_pass[span[_PASS]].add(info["key"])

        def per_pass(x):
            return x / max(n_passes, 1)

        def rate(name, scale):
            return scale * work[name] / amount[name] if amount[name] else 0.0

        def mb_per_s(name):
            return amount[name] / work[name] / 1e6 if work[name] else 0.0

        fr = "frenet.integrate_frenet"
        sy = "synthesis.integrate_system"
        unique = sum(len(keys) for keys in keys_per_pass.values())
        work_self = sum(v for k, v in self_s.items() if k not in ORCHESTRATION)
        return {
            f"{fr}.busy_s": per_pass(busy[fr]),
            f"{fr}.calls": per_pass(calls[fr]),
            f"{fr}.us_per_step": rate(fr, 1e6),
            "frenet.directrix_unique_ratio": unique / calls[fr] if calls[fr] else 0.0,
            f"{sy}.busy_s": per_pass(busy[sy]),
            f"{sy}.calls": per_pass(calls[sy]),
            f"{sy}.us_per_step": rate(sy, 1e6),
            f"{sy}.errors": per_pass(errors[sy]),
            "synthesis.build_surface.busy_s": per_pass(busy["synthesis.build_surface"]),
            "verify.recompute_report.busy_s": per_pass(busy["verify.recompute_report"]),
            "verify.recompute_report.us_per_sample": rate("verify.recompute_report", 1e6),
            "pipeline.write_samples_csv.busy_s": per_pass(busy["pipeline.write_samples_csv"]),
            "pipeline.write_samples_csv.bytes": per_pass(amount["pipeline.write_samples_csv"]),
            "pipeline.write_samples_csv.mb_per_s": mb_per_s("pipeline.write_samples_csv"),
            "pipeline.write_report_json.busy_s": per_pass(busy["pipeline.write_report_json"]),
            "mesh.export_mesh.busy_s": per_pass(busy["mesh.export_mesh"]),
            "mesh.export_mesh.bytes": per_pass(amount["mesh.export_mesh"]),
            "mesh.export_mesh.mb_per_s": mb_per_s("mesh.export_mesh"),
            "pipeline.run_config.self_s": per_pass(self_s["pipeline.run_config"]),
            "pipeline.sweep_grid.self_s": per_pass(self_s["pipeline.sweep_grid"]),
            "config.from_file.busy_s": per_pass(busy["config.from_file"]),
            "cli.main.self_s": per_pass(self_s["cli.main"]),
            "trace.coverage": work_self / traced_wall_s if traced_wall_s else 0.0,
        }
