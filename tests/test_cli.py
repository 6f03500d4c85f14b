import contextlib
import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import select
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minkruled.fork
import minkruled.mesh
import minkruled.pipeline
import minkruled.text
from minkruled import (
    Constant,
    CurvatureFn,
    FrenetCurve,
    RuledSurfaceGrid,
    RunConfig,
    SystemKind,
    export_mesh,
    integrate_frenet,
)
from minkruled.cli import build_parser, main
from minkruled.config import MAX_MESH_POINTS
from minkruled.errors import ConfigError, FarPositionError, GeometryError
from minkruled.frenet import default_initial_frame
from minkruled.pipeline import (
    SweepRow,
    build_directrix,
    run_config,
    run_seed,
    sweep_grid,
    synthesize_surface,
    write_samples_csv,
)
from minkruled.synthesis import DEFAULT_PHI0_GRID, DEFAULT_THETA0_GRID
from minkruled.verify import SURFACE_DEFECTS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def hyperbolic_curve(n_samples):
    """Exact closed-form curve for k1 = 1, k2 = 0 on [0, 1] at n samples."""
    s = np.linspace(0.0, 1.0, n_samples)
    zero = np.zeros_like(s)
    return FrenetCurve(
        s=s,
        k=np.stack([np.sinh(s), np.cosh(s) - 1.0, zero], axis=1),
        T=np.stack([np.cosh(s), np.sinh(s), zero], axis=1),
        N=np.stack([np.sinh(s), np.cosh(s), zero], axis=1),
        B=np.stack([zero, zero, zero + 1.0], axis=1),
        k1=zero + 1.0,
        k2=zero,
        k1_mid=zero[1:] + 1.0,
        k2_mid=zero[1:],
    )


def reference_obj(surface, v_range, v_samples, comment):
    """OBJ text of a line-by-line writer: one f-string per vertex and per face."""
    v_min, v_max = float(v_range[0]), float(v_range[1])
    vs = v_min + (v_max - v_min) * np.arange(v_samples) / (v_samples - 1)
    lines = [f"# {comment}", "# coordinates: (x1, x2, x3), x1 timelike; viewer distances are Euclidean"]
    k, q = surface.directrix.k, surface.q
    for i in range(surface.n_samples):
        for v in vs:
            p = k[i] + v * q[i]
            lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for i in range(surface.n_samples - 1):
        base = i * v_samples
        for j in range(v_samples - 1):
            a = base + j + 1
            b = base + v_samples + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    return "\n".join(lines) + "\n"


def reference_csv(track, report):
    """Sample CSV text of a row-by-row ``csv.writer`` over 17-digit cells."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["s", "theta", "phi", "d", "v0", "K", "mu", "n", "qprime_norm", "cylindrical"])
    inv = report.recomputed
    for i in range(track.n_samples):
        head = [f"{float(x):.17g}" for x in (track.s[i], track.theta[i], track.phi[i])]
        if inv is None:
            writer.writerow(head + ["", "", "", "", "", "", 1])
        else:
            cells = {c: f"{float(getattr(inv, c)[i]):.17g}" for c in ("d", "v0", "K", "mu", "n", "qprime_norm")}
            if report.kind is SystemKind.DEVELOPABLE:
                cells["mu"] = cells["n"] = ""
            writer.writerow(head + list(cells.values()) + [int(inv.cylindrical[i])])
    return out.getvalue()


def raise_(exc):
    raise exc


def load_doc(name):
    return json.loads((CONFIG_DIR / name).read_text())


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def leaf_paths(node, prefix=()):
    """Key paths of every scalar entry of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix]
    return [path for key, child in items for path in leaf_paths(child, prefix + (key,))]


def objects(node):
    """Every JSON object of a document, the document itself first."""
    if isinstance(node, list):
        return [obj for child in node for obj in objects(child)]
    if not isinstance(node, dict):
        return []
    return [node] + [obj for child in node.values() for obj in objects(child)]


SINUSOID = {"type": "sinusoid", "amplitude": 0.05, "frequency": 2.0}
FRAME = {"position": [0, 0, 0], "T": [1, 0, 0], "N": [0, 1, 0], "B": [0, 0, 1]}

#: (entry path, value put there, field the error must name) on general_roundtrip.json
BAD_ENTRIES = [
    pytest.param(("params", "theta0"), "one", "params.theta0", id="params.theta0"),
    pytest.param(("tolerances", "rel"), "x", "tolerances.rel", id="tolerances.rel"),
    pytest.param(("tolerances", "abs"), "x", "tolerances.abs", id="tolerances.abs"),
    pytest.param(("tolerances", "defects", "qprime_norm"), "x", "tolerances.defects.qprime_norm", id="tolerances.defects"),
    pytest.param(("tolerances", "rel"), -1e-4, "tolerances.rel", id="negative-rel"),
    pytest.param(("tolerances", "abs"), math.inf, "tolerances.abs", id="infinite-abs"),
    pytest.param(("tolerances", "defects", "qprime_norm"), -1.0, "tolerances.defects.qprime_norm", id="negative-defect"),
    pytest.param(
        ("directrix", "k1"), {"type": "polynomial", "coefficients": [1.0, "x"]}, "directrix.k1.coefficients[1]",
        id="polynomial-coefficient",
    ),
    pytest.param(("directrix", "k2"), {**SINUSOID, "phase": "x"}, "directrix.k2.phase", id="sinusoid-phase"),
    pytest.param(("directrix", "k2"), {**SINUSOID, "offset": None}, "directrix.k2.offset", id="sinusoid-offset"),
    pytest.param(
        ("directrix", "k2"), {"type": "samples", "s": [0.0, 0.5, 0.25], "values": [0.1, 0.1, 0.1]}, "directrix.k2.s",
        id="unsorted-samples",
    ),
    pytest.param(
        ("directrix", "k1"), {"type": "samples", "s": [0, 0.25, 0.5], "values": [1.0, -1e308, 1e308]}, "directrix.k1",
        id="samples-overflow",
    ),
    pytest.param(
        ("directrix", "k2"), {"type": "samples", "s": [0.0, 0.5], "values": [0.1]}, "directrix.k2", id="samples-mismatch"
    ),
    pytest.param(
        ("directrix", "initial_frame"), {**FRAME, "T": [1, 0, "x"]}, "directrix.initial_frame.T[2]", id="initial-frame"
    ),
    pytest.param(("directrix", "step"), "x", "directrix.step", id="directrix.step"),
    pytest.param(("directrix", "step"), 3e-4, "directrix.step", id="step-not-dividing"),
    pytest.param(("directrix", "step"), 1e-9, "directrix.step", id="step-over-grid-limit"),
    pytest.param(("directrix", "s_range"), [0.0, 0.001], "directrix.step", id="two-sample-grid"),
    pytest.param(("directrix", "step"), 10**400, "directrix.step", id="huge-integer-step"),
    pytest.param(("tolerances", "defects", "qprime_norm"), 10**400, "tolerances.defects.qprime_norm", id="huge-integer-defect"),
    pytest.param(("outputs", "mesh", "v_range"), [-0.5, "x"], "outputs.mesh.v_range[1]", id="mesh.v_range"),
    pytest.param(("outputs", "mesh", "v_samples"), 10**9, "outputs.mesh.v_samples", id="mesh-over-point-limit"),
    pytest.param(("outputs", "csv_path"), 3, "outputs.csv_path", id="csv_path"),
    pytest.param(("outputs", "report_path"), ["r.json"], "outputs.report_path", id="report_path"),
    pytest.param(("version",), True, "version", id="version-true"),
    pytest.param(("version",), 1.0, "version", id="version-float"),
]

#: (object of general_roundtrip.json, stray key put in it, field the error must name)
UNKNOWN_KEYS = [
    pytest.param((), "paramz", "paramz", id="top-level"),
    pytest.param(("directrix", "k1"), "vlaue", "directrix.k1.vlaue", id="constant"),
    pytest.param(("directrix", "k2"), "phse", "directrix.k2.phse", id="sinusoid"),
    pytest.param(("directrix", "initial_frame"), "origin", "directrix.initial_frame.origin", id="initial-frame"),
    pytest.param(("outputs", "mesh"), "v_sample", "outputs.mesh.v_sample", id="mesh"),
    pytest.param(("tolerances", "defects"), "helx", "tolerances.defects.helx", id="defect-name"),
    pytest.param(("params",), "step", "params.step", id="params-step"),
] + [
    # special-case characterizations no kind checks take no tolerance
    pytest.param(("tolerances", "defects"), name, f"tolerances.defects.{name}", id=f"unchecked-{name}")
    for name in ("geodesic", "asymptotic_line", "line_of_curvature", "helix")
]


class TestConfigValidation:
    def test_parses_all_shipped_configs(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            RunConfig.from_file(path)

    def test_round_trip_is_identity_on_normalized_form(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = RunConfig.from_file(path)
            normalized = cfg.to_dict()
            assert RunConfig.from_dict(normalized).to_dict() == normalized

    def test_missing_required_param_names_field(self, tmp_path):
        doc = load_doc("developable.json")
        del doc["params"]["v0"]
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(write_doc(tmp_path, doc))
        assert err.value.field == "params.v0"

    def test_missing_seed_names_field(self, tmp_path):
        doc = load_doc("asymptotic_line.json")
        del doc["params"]["theta0"]
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(write_doc(tmp_path, doc))
        assert err.value.field == "params.theta0"

    def test_bad_version_rejected(self, tmp_path):
        doc = load_doc("cylinder.json")
        doc["version"] = 2
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(write_doc(tmp_path, doc))
        assert err.value.field == "version"

    @pytest.mark.parametrize("path, key, field", UNKNOWN_KEYS)
    def test_unknown_key_rejected(self, tmp_path, path, key, field):
        doc = load_doc("general_roundtrip.json")
        doc["directrix"].update(k2=dict(SINUSOID), initial_frame=dict(FRAME))
        doc["tolerances"] = {"defects": {"qprime_norm": 1e-10}}
        RunConfig.from_dict(doc)
        node = doc
        for name in path:
            node = node[name]
        node[key] = 1.0
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(write_doc(tmp_path, doc))
        assert err.value.field == field

    def test_null_output_paths_mean_absent(self):
        doc = load_doc("general_roundtrip.json")
        doc["outputs"].update(csv_path=None, report_path=None)
        outputs = RunConfig.from_dict(doc).outputs
        assert outputs.csv_path is None and outputs.report_path is None

    def test_mesh_lattice_is_bounded(self):
        doc = load_doc("general_roundtrip.json")  # 501 samples
        limit = MAX_MESH_POINTS // 501
        doc["outputs"]["mesh"]["v_samples"] = limit
        cfg = RunConfig.from_dict(doc)
        doc["outputs"]["mesh"]["v_samples"] = limit + 1
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(doc)
        assert err.value.field == "outputs.mesh.v_samples"
        with pytest.raises(ConfigError) as err:
            cfg.with_overrides(step=5e-4)
        assert err.value.field == "outputs.mesh.v_samples"

    def test_unknown_system_rejected(self, tmp_path):
        doc = load_doc("cylinder.json")
        doc["system"] = "moebius"
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(write_doc(tmp_path, doc))
        assert err.value.field == "system"

    @pytest.mark.parametrize("path, value, field", BAD_ENTRIES)
    def test_non_numeric_param_rejected(self, tmp_path, capsys, path, value, field):
        doc = load_doc("general_roundtrip.json")
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        config = write_doc(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(config)
        assert err.value.field == field
        assert main(["synthesize", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        stderr = capsys.readouterr().err
        assert f"'{field}'" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)


def count_forks(monkeypatch, cpus, cost=0.0):
    """Let this process run on ``cpus`` with a child costing ``cost`` seconds; returns the list of forks attempted from now on.

    At the default cost of 0 every sweep of two or more seeds that may fork
    does.
    """
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    monkeypatch.setattr(minkruled.fork, "_FORK_COST_S", cost)
    return forks


def one_second_seeds(monkeypatch):
    """Make every item of ``fork.map_items``, the first seed of a sweep too, take exactly one second on its clock."""
    monkeypatch.setattr(minkruled.fork, "time", types.SimpleNamespace(perf_counter=itertools.count().__next__))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def obj_matches_reference(tmp_path, surf, v_range, v_samples):
    """Write through ``export_mesh`` and compare with the line-by-line reference; the OBJ is the only file written."""
    path = export_mesh(surf, v_range, v_samples, tmp_path / "m.obj", comment="c")
    assert Path(path).read_bytes() == reference_obj(surf, v_range, v_samples, "c").encode()
    assert os.listdir(tmp_path) == ["m.obj"]


def one_process_sweep(cfg, out_dir, **grid):
    """The rows and the summary bytes of ``sweep_grid`` forced to one CPU."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        mp.setattr(os, "fork", lambda: raise_(AssertionError("forked")))
        rows, summary = sweep_grid(cfg, out_dir=out_dir, **grid)
    return rows, Path(summary).read_bytes()


def sweep_matches_reference(monkeypatch, tmp_path, cfg, cpus=frozenset({0, 1}), cost=0.0, **grid):
    """Sweep through ``sweep_grid`` on ``cpus`` with a child costing ``cost`` and compare with the one-process rows and summary.

    Also checks that no child is left unreaped and that the summary is the
    only file written; returns the number of forks attempted.
    """
    rows, summary = one_process_sweep(cfg, tmp_path / "one", **grid)
    forks = count_forks(monkeypatch, cpus, cost)
    got, path = sweep_grid(cfg, out_dir=tmp_path / "two", **grid)
    assert got == rows
    assert Path(path).read_bytes() == summary
    assert_no_child_left()
    assert os.listdir(tmp_path / "two") == ["sweep_summary.csv"]
    return len(forks)


class TestExportMesh:
    def smallest_surface(self):
        curve = hyperbolic_curve(2)
        q = np.tile(np.array([1.0, 0.0, 0.0]), (2, 1))
        return RuledSurfaceGrid(directrix=curve, q=q)

    def turning_surface(self, n_rulings):
        """Rulings ``(cosh a, 0, sinh a)`` with ``a`` going from 0.3 to -1.1 along the hyperbolic directrix."""
        a = np.linspace(0.3, -1.1, n_rulings)
        return RuledSurfaceGrid(
            directrix=hyperbolic_curve(n_rulings), q=np.stack([np.cosh(a), 0.0 * a, np.sinh(a)], axis=1)
        )

    def test_smallest_lattice(self, tmp_path):
        surf = self.smallest_surface()
        path = export_mesh(surf, (0.0, 1.0), 2, tmp_path / "m.obj")
        lines = Path(path).read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert sum(1 for ln in lines if ln.startswith("f ")) == 1
        assert lines[0].startswith("#")

    @settings(max_examples=20)
    @given(n_s=st.integers(min_value=2, max_value=7), n_v=st.integers(min_value=2, max_value=7))
    def test_lattice_counts(self, tmp_path_factory, n_s, n_v):
        curve = hyperbolic_curve(n_s)
        q = np.tile(np.array([1.0, 0.0, 0.0]), (curve.n_samples, 1))
        surf = RuledSurfaceGrid(directrix=curve, q=q)
        path = export_mesh(surf, (-1.0, 1.0), n_v, tmp_path_factory.mktemp("obj") / "m.obj")
        text = Path(path).read_text().splitlines()
        assert sum(1 for ln in text if ln.startswith("v ")) == n_s * n_v
        assert sum(1 for ln in text if ln.startswith("f ")) == (n_s - 1) * (n_v - 1)

    def test_byte_identical_reruns(self, tmp_path):
        surf = self.smallest_surface()
        p1 = export_mesh(surf, (0.0, 1.0), 3, tmp_path / "a.obj")
        p2 = export_mesh(surf, (0.0, 1.0), 3, tmp_path / "b.obj")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_v_samples_lower_bound(self, tmp_path):
        with pytest.raises(ValueError):
            export_mesh(self.smallest_surface(), (0.0, 1.0), 1, tmp_path / "m.obj")

    def test_blocks_match_reference_on_a_ragged_lattice(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        _, surf = synthesize_surface(cfg, build_directrix(cfg))
        block = minkruled.mesh._BLOCK

        def ragged(rows, cols):
            # more than two blocks of whole rows, each short of _BLOCK cells, the last holding fewer rows
            per = block // cols
            return rows > 2 * per and rows % per and block % cols

        v_samples = next(v for v in itertools.count(2) if ragged(surf.n_samples, v) and ragged(surf.n_samples - 1, v - 1))
        obj_matches_reference(tmp_path, surf, (-0.5, 0.5), v_samples)

    @pytest.mark.parametrize("digits", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "where, v_samples, block", [("inside", 33, None), ("first", 3, 6), ("last", 3, 4)], ids=["inside", "first", "last"]
    )
    def test_index_digit_counts_change_inside_and_on_the_edge_of_a_face_block(
        self, tmp_path, monkeypatch, digits, where, v_samples, block
    ):
        # vertex index 10**digits gets one more digit than the index before it
        if block is not None:
            monkeypatch.setattr(minkruled.mesh, "_BLOCK", block)
        new = 10**digits
        n_rulings = new // v_samples + 3
        # the first and last 1-based index each face block formats: rulings lo..hi of whole-ruling blocks
        per = minkruled.mesh._BLOCK // (v_samples - 1)
        spans = [(lo * v_samples + 1, min(lo + per + 1, n_rulings) * v_samples) for lo in range(0, n_rulings - 1, per)]
        assert spans[-1][1] == n_rulings * v_samples and spans[-1][1] > new
        first = {a for a, _ in spans}
        last = {b for _, b in spans}
        if where == "inside":
            assert any(a < new - 1 and new < b for a, b in spans) and new not in first and new - 1 not in last
        else:
            assert new in first if where == "first" else new - 1 in last
        obj_matches_reference(tmp_path, self.turning_surface(n_rulings), (-1.0, 2.0), v_samples)

    def test_blocks_match_reference_on_a_wide_two_row_lattice(self, tmp_path):
        surf = self.turning_surface(2)
        block = minkruled.mesh._BLOCK
        # vertices filling one block exactly, one more, and two and a half blocks
        for v_samples in (block // 2, block // 2 + 1, block + 5):
            out = tmp_path / str(v_samples)
            out.mkdir()
            obj_matches_reference(out, surf, (-1.0, 2.0), v_samples)

    def test_memory_stays_a_few_blocks_whatever_the_lattice_size(self, tmp_path):
        peaks = []
        for blocks in (8, 32):
            surf = self.turning_surface(blocks * minkruled.mesh._BLOCK // 33)
            tracemalloc.start()
            try:
                export_mesh(surf, (-1.0, 2.0), 33, tmp_path / f"{blocks}.obj")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1.5 * min(peaks), peaks

    def test_v_range_near_the_float_limit(self, tmp_path):
        surf = self.turning_surface(2)  # the largest |q| component is cosh(1.1) = 1.67
        for v_range in ((-1e307, 1e307), (1e308, 1e308)):
            out = tmp_path / str(v_range[0])
            out.mkdir()
            obj_matches_reference(out, surf, v_range, 5)
        for v_range in ((0.0, 1e308), (-1e308, 1e308), (1.5e308, 1.5e308)):
            with pytest.raises(ValueError, match="v_range"):
                export_mesh(surf, v_range, 33, tmp_path / "m.obj")
            assert not (tmp_path / "m.obj").exists()

    def test_two_v_samples_and_negative_range_match_reference(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "asymptotic_line.json")
        _, surf = synthesize_surface(cfg, build_directrix(cfg))
        obj_matches_reference(tmp_path, surf, (-1.5, -0.25), 2)


SHIPPED = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_outputs_match_the_line_by_line_writers(tmp_path, name):
    """Every shipped config at its default step: the CSV and a 33-ruling OBJ byte for byte.

    This covers the exactly-zero coordinates of the cylinder and the
    roundoff-sized cells formatted in exponent notation.
    """
    result = run_config(RunConfig.from_file(CONFIG_DIR / name), write_outputs=False)
    csv_path = write_samples_csv(tmp_path / "c.csv", result.track, result.report)
    assert Path(csv_path).read_bytes() == reference_csv(result.track, result.report).encode()
    mesh = result.config.outputs.mesh
    v_range, v_samples = (mesh.v_range, mesh.v_samples) if mesh is not None else ((-0.5, 0.5), 33)
    (tmp_path / "obj").mkdir()
    obj_matches_reference(tmp_path / "obj", result.surface, v_range, v_samples)


@pytest.fixture
def signal_pipe():
    """A pipe whose read end becomes readable once either process writes to it."""
    r, w = os.pipe()
    yield r, w
    os.close(r)
    os.close(w)


class TestForkedPart:
    """The sweep runs on ``fork.map_items``; every path gives the one-process output."""

    @pytest.mark.parametrize("cost, forks", [(5.4, 1), (5.5, 0)], ids=["forks", "alone"])
    def test_first_seed_decides_the_fork(self, monkeypatch, tmp_path, cost, forks):
        # 12 seeds of 1 s each: the 11 after the first save 5.5 s on two processes
        one_second_seeds(monkeypatch)
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        assert sweep_matches_reference(monkeypatch, tmp_path, cfg, cost=cost) == forks

    @pytest.mark.parametrize("cost", [0.0, math.inf], ids=["forking", "alone"])
    def test_identical_sweeps_take_the_same_path(self, monkeypatch, tmp_path, cost):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        forks = count_forks(monkeypatch, {0, 1}, cost)
        rows = [sweep_grid(cfg, out_dir=tmp_path)[0] for _ in range(3)]
        assert rows[0] == rows[1] == rows[2]
        assert len(forks) == (3 if cost == 0.0 else 0)
        assert_no_child_left()

    def test_failed_child_is_replaced_by_the_parent(self, monkeypatch, tmp_path):
        parent, work, calls = os.getpid(), minkruled.pipeline.run_seed, []

        def failing_in_child(*args):
            if os.getpid() != parent:
                raise OSError("child fails")
            calls.append(1)
            return work(*args)

        monkeypatch.setattr(minkruled.pipeline, "run_seed", failing_in_child)
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        assert sweep_matches_reference(monkeypatch, tmp_path, cfg) == 1
        # the parent did the child's part: the 12 seeds once for the reference and once more
        assert len(calls) == 24

    @pytest.mark.parametrize("case", ["threads", "one-cpu", "no-temp-file", "fork-fails"])
    def test_one_process_paths_match_reference(self, monkeypatch, tmp_path, case):
        if case == "threads":
            monkeypatch.setattr(threading, "active_count", lambda: 2)
        if case == "no-temp-file":
            monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kw: raise_(PermissionError(errno.EACCES, "no")))
        fork_error = OSError(errno.EAGAIN, "no") if case == "fork-fails" else AssertionError("forked")
        monkeypatch.setattr(os, "fork", lambda: raise_(fork_error))
        cpus = {0} if case == "one-cpu" else {0, 1}
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        assert sweep_matches_reference(monkeypatch, tmp_path, cfg, cpus) == (case == "fork-fails")

    @pytest.mark.parametrize("name", SHIPPED + ["error-rows"])
    def test_sweep_matches_one_process(self, monkeypatch, tmp_path, name):
        grid = {}
        if name == "error-rows":  # theta0 = 0 is singular
            cfg, grid = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json"), {"theta0_list": [0.0, 0.5, 1.0]}
        else:
            cfg = RunConfig.from_file(CONFIG_DIR / name)
        assert sweep_matches_reference(monkeypatch, tmp_path, cfg, **grid) == 1
        if name == "error-rows":
            rows, _ = one_process_sweep(cfg, tmp_path / "rows", **grid)
            assert [r.verdict for r in rows] == ["error"] * 4 + ["pass"] * 8

    def test_queue_of_more_than_a_pipe_buffer_of_seeds_does_not_block(self, monkeypatch, tmp_path):
        # 1,109 seeds after the first on a 3-sample grid: the queue holds runs of 2 indices
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        cfg = dataclasses.replace(cfg, directrix=dataclasses.replace(cfg.directrix, s_range=(0.0, 2e-3), step=1e-3))
        assert build_directrix(cfg).n_samples == 3
        grid = {"theta0_list": np.linspace(0.2, 1.2, 37).tolist(), "phi0_list": np.linspace(0.0, 6.0, 30).tolist()}
        writes, write = [], os.write
        monkeypatch.setattr(os, "write", lambda fd, data: writes.append(len(data)) or write(fd, data))
        assert sweep_matches_reference(monkeypatch, tmp_path, cfg, **grid) == 1
        assert writes == [4 * 555] and writes[0] <= select.PIPE_BUF

    @pytest.mark.parametrize("index", [0, 1, 11], ids=["first-seed", "second-seed", "last-seed"])
    def test_other_errors_in_a_seed_propagate_with_their_class(self, monkeypatch, tmp_path, index):
        class SeedBug(Exception):
            pass

        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        bad = (DEFAULT_THETA0_GRID[index // 4], DEFAULT_PHI0_GRID[index % 4])
        run_seed = minkruled.pipeline.run_seed

        def buggy(seed_cfg, *args):
            if (seed_cfg.params.theta0, seed_cfg.params.phi0) == bad:
                raise SeedBug("not a geometry error")
            return run_seed(seed_cfg, *args)

        monkeypatch.setattr(minkruled.pipeline, "run_seed", buggy)
        forks = count_forks(monkeypatch, {0, 1})
        with pytest.raises(SeedBug):
            sweep_grid(cfg, out_dir=tmp_path)
        assert len(forks) == (index > 0)  # the first seed runs before the fork is decided
        assert_no_child_left()
        assert os.listdir(tmp_path) == []

    def test_sweep_without_a_directrix_never_forks(self, monkeypatch, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        cfg = dataclasses.replace(cfg, directrix=dataclasses.replace(cfg.directrix, k1=Constant(1e308)))
        # each row only formats the directrix error, far faster than a fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: raise_(AssertionError("forked")))
        rows, _ = sweep_grid(cfg, out_dir=tmp_path)
        assert len(rows) == 12 and all(r.verdict == "error" and "StepTooLarge" in r.detail for r in rows)


class TestMapItems:
    """``fork.map_items`` on its own: the queue shared by the two processes."""

    def test_every_index_runs_once_across_both_processes(self, monkeypatch, tmp_path, signal_pipe):
        parent, (r, w), ran_here = os.getpid(), signal_pipe, []
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where the child's file is made

        def fn(x):
            if os.getpid() != parent:
                os.write(w, b"1")
            elif x > 0:  # each process takes at least one queued index
                assert select.select([r], [], [], 30.0)[0]
                ran_here.append(x)
            return os.getpid(), x

        forks = count_forks(monkeypatch, {0, 1})
        items = list(range(40))
        results = minkruled.fork.map_items(fn, items)
        assert [x for _, x in results] == items
        in_child = [x for pid, x in results if pid != parent]
        assert len(forks) == 1 and in_child and ran_here
        assert sorted(ran_here + in_child) == items[1:]
        assert_no_child_left()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("how", ["exit", "exception"])
    def test_indices_a_dead_child_took_are_rerun(self, monkeypatch, signal_pipe, how):
        parent, (r, w), ran_here = os.getpid(), signal_pipe, []

        def fn(x):
            if os.getpid() != parent:
                os.write(w, x.to_bytes(4, "little"))  # the child took x and dies
                if how == "exit":
                    os._exit(3)
                raise ValueError("child fails")
            if x > 0:  # the child takes at least one queued index
                assert select.select([r], [], [], 30.0)[0]
            ran_here.append(x)
            return x * x

        count_forks(monkeypatch, {0, 1})
        items = list(range(12))
        assert minkruled.fork.map_items(fn, items) == [x * x for x in items]
        lost = int.from_bytes(os.read(r, 4), "little")
        assert sorted(ran_here) == items and ran_here[-1] == lost  # rerun once, after the queue ran dry
        assert_no_child_left()

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 CPUs")
    def test_child_runs_off_the_cpu_of_its_parent(self, monkeypatch, signal_pipe):
        parent, (r, w), cpus, affinity = os.getpid(), signal_pipe, os.sched_getaffinity(0), os.sched_getaffinity
        monkeypatch.setattr(minkruled.fork, "_last_cpu", lambda: min(cpus))

        def fn(x):
            if os.getpid() != parent:
                os.write(w, b"1")
            elif x > 0:  # the child takes at least one queued index
                assert select.select([r], [], [], 30.0)[0]
            return os.getpid(), affinity(0)

        count_forks(monkeypatch, cpus)
        results = minkruled.fork.map_items(fn, range(8))
        assert {frozenset(cpu_set) for pid, cpu_set in results if pid != parent} == {frozenset(cpus - {min(cpus)})}
        assert all(cpu_set == cpus for pid, cpu_set in results if pid == parent)

    def test_no_items_and_one_item_never_fork(self, monkeypatch):
        forks = count_forks(monkeypatch, {0, 1})
        assert minkruled.fork.map_items(str, []) == []
        assert minkruled.fork.map_items(str, (7,)) == ["7"]
        assert forks == []


def test_forked_children_never_flush_inherited_stdio(tmp_path):
    # stdout is a pipe, so the line sits in the parent's buffer across the
    # sweep's fork; a child that flushed it on exit would print it again.
    # The OBJ writer formats in this process and never forks.
    config = str(CONFIG_DIR / "general_roundtrip.json")
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(Path(minkruled.__file__).parent.parent)!r})\n"
        "from minkruled import RunConfig, export_mesh, sweep_grid\n"
        "from minkruled.pipeline import build_directrix, synthesize_surface\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import minkruled.fork\n"
        "minkruled.fork._FORK_COST_S = 0.0\n"
        "print('printed once')\n"
        f"cfg = RunConfig.from_file({config!r})\n"
        f"sweep_grid(cfg, out_dir={str(tmp_path)!r})\n"
        f"export_mesh(synthesize_surface(cfg, build_directrix(cfg))[1], (-0.5, 0.5), 33, {str(tmp_path / 'm.obj')!r})\n"
        "sys.stderr.write(f'forks={len(forks)}')\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "forks=1"
    assert proc.stdout == "printed once\n"


class TestPipeline:
    def test_outputs_written_and_deterministic(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        r1 = run_config(cfg, tmp_path / "run1")
        r2 = run_config(cfg, tmp_path / "run2")
        assert r1.report.passed
        for key in ("csv", "report", "mesh"):
            b1 = Path(r1.written[key]).read_bytes()
            b2 = Path(r2.written[key]).read_bytes()
            assert b1 == b2, f"{key} output not deterministic"

    def test_report_json_contents(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "cylinder.json")
        result = run_config(cfg, tmp_path)
        doc = json.loads(Path(result.written["report"]).read_text())
        assert doc["verdict"] == "pass"
        assert doc["kind"] == "cylinder"
        assert doc["defects"]["qprime_norm"] < 1e-6

    def test_nan_defect_is_written_as_null(self, monkeypatch, tmp_path):
        monkeypatch.setitem(SURFACE_DEFECTS, "qprime_norm", (lambda surf: np.full(surf.n_samples, np.nan), 1))
        result = run_config(RunConfig.from_file(CONFIG_DIR / "cylinder.json"), tmp_path)
        doc = json.loads(Path(result.written["report"]).read_text())
        assert (doc["verdict"], doc["failures"]) == ("fail", ["qprime_norm"])
        assert doc["defects"] == {"qprime_norm": None, "qprime_norm_endpoints": None}
        assert result.exit_code == 1

    def test_csv_has_full_precision(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        result = run_config(cfg, tmp_path)
        lines = Path(result.written["csv"]).read_text().splitlines()
        assert lines[0] == "s,theta,phi,d,v0,K,mu,n,qprime_norm,cylindrical"
        assert len(lines) == 502  # header + 501 samples
        theta0 = float(lines[1].split(",")[1])
        assert theta0 == 1.0

    def test_csv_without_recomputed_invariants_matches_reference(self, tmp_path):
        result = run_config(RunConfig.from_file(CONFIG_DIR / "cylinder.json"), write_outputs=False)
        assert result.report.recomputed is None
        path = write_samples_csv(tmp_path / "c.csv", result.track, result.report)
        assert Path(path).read_bytes() == reference_csv(result.track, result.report).encode()

    def test_csv_with_cylindrical_samples_matches_reference(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json").with_overrides(step=1e-4)
        result = run_config(cfg, write_outputs=False)
        inv = result.report.recomputed
        cylindrical = np.zeros(result.track.n_samples, dtype=bool)
        cylindrical[[0, 7, -1]] = True
        d = np.where(cylindrical, np.nan, inv.d)
        report = dataclasses.replace(result.report, recomputed=dataclasses.replace(inv, cylindrical=cylindrical, d=d))
        path = write_samples_csv(tmp_path / "c.csv", result.track, report)
        text = reference_csv(result.track, report)
        assert {line[-1] for line in text.splitlines()[1:]} == {"0", "1"}
        assert result.track.n_samples > minkruled.pipeline._CSV_BLOCK
        assert Path(path).read_bytes() == text.encode()

    def test_csv_leaves_n_and_mu_empty_where_d_vanishes(self, tmp_path):
        result = run_config(RunConfig.from_file(CONFIG_DIR / "developable.json"), tmp_path)
        text = Path(result.written["csv"]).read_text()
        assert text == reference_csv(result.track, result.report)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == result.track.n_samples
        assert all(r["mu"] == r["n"] == "" and r["d"] and r["K"] for r in rows)


def test_far_seed_curve_is_a_typed_error_without_warnings():
    """A library caller that integrates a far seed itself gets the typed error, before any seed runs."""
    cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
    frame = np.eye(4, 3, k=-1)
    frame[0] = [1e308, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FarPositionError) as info:
            run_seed(cfg, integrate_frenet(1.0, 0.1, s_range=(0, 0.5), step=1e-3, initial_frame=frame))
    assert info.value.s == 0.0


def test_build_directrix_names_the_seed_position_of_a_far_curve():
    cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
    directrix = dataclasses.replace(cfg.directrix, initial_frame=np.array([[0.0, 1e13, 0.0], *np.eye(3)]))
    with pytest.raises(ConfigError) as info:
        build_directrix(dataclasses.replace(cfg, directrix=directrix))
    limit = cfg.directrix.step / np.finfo(float).eps
    assert info.value.field == "directrix.initial_frame.position"
    assert str(info.value).endswith(f"puts the directrix beyond |x| = {limit:.6g}, where the float spacing can exceed the step")


def count_directrix_evaluations(monkeypatch, cfg) -> dict:
    """Count the ``_at`` calls of ``cfg``'s directrix k1 and k2 from now on, by name."""
    names = {id(cfg.directrix.k1): "k1", id(cfg.directrix.k2): "k2"}
    assert len(names) == 2
    calls = dict.fromkeys(names.values(), 0)
    for cls in CurvatureFn.__subclasses__():

        def counted(self, s, at=cls._at):
            if id(self) in names:
                calls[names[id(self)]] += 1
            return at(self, s)

        monkeypatch.setattr(cls, "_at", counted)
    return calls


def count_directrix_builds(monkeypatch) -> list:
    """The directrix builds of ``pipeline`` from now on, one entry each."""
    calls, integrate = [], minkruled.pipeline.integrate_frenet
    monkeypatch.setattr(minkruled.pipeline, "integrate_frenet", lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
    return calls


def step_too_large_config() -> RunConfig:
    """The cylinder config on a directrix whose frame drifts past its tolerance: StepTooLargeError."""
    cfg = RunConfig.from_file(CONFIG_DIR / "cylinder.json")
    return dataclasses.replace(cfg, directrix=dataclasses.replace(cfg.directrix, k1=Constant(5.0), step=0.25))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_directrix_curvatures_are_evaluated_at_samples_and_midpoints_only(monkeypatch, tmp_path, name):
    cfg = RunConfig.from_file(CONFIG_DIR / name)
    calls = count_directrix_evaluations(monkeypatch, cfg)
    run_config(cfg, write_outputs=False)
    assert calls == {"k1": 2, "k2": 2}  # once on the grid, once at the step midpoints
    calls.update(k1=0, k2=0)
    rows, _ = sweep_grid(cfg, out_dir=tmp_path)
    assert len(rows) == 12
    assert calls == {"k1": 2, "k2": 2}  # one directrix shared by every seed
    sweep_grid(cfg, out_dir=tmp_path)
    assert calls == {"k1": 2, "k2": 2}  # and by the next sweep of the same directrix


class TestSweep:
    def test_default_grid_all_pass(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        rows, summary = sweep_grid(cfg, out_dir=tmp_path)
        assert len(rows) == 12
        assert all(r.verdict == "pass" for r in rows)
        text = Path(summary).read_text().splitlines()
        assert len(text) == 13

    def test_singular_seed_isolated(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        rows, _ = sweep_grid(cfg, theta0_list=[0.0, 1.0], phi0_list=[0.2], out_dir=tmp_path)
        assert rows[0].verdict == "error"
        assert "ThetaSingularity" in rows[0].detail
        assert rows[0].failure_s == pytest.approx(0.0)
        assert rows[1].verdict == "pass"

    def test_numpy_seed_arrays_match_lists(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        seeds = dict(theta0_list=[0.0, 0.5, 1.0], phi0_list=[0.2, 1.0], out_dir=tmp_path)
        rows, _ = sweep_grid(cfg, **seeds)
        arrays = {k: np.array(v) if k.endswith("_list") else v for k, v in seeds.items()}
        assert sweep_grid(cfg, **arrays)[0] == rows

    def test_numpy_seed_arrays_match_lists_on_two_processes(self, monkeypatch, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        grid = {"theta0_list": np.array(DEFAULT_THETA0_GRID), "phi0_list": np.array(DEFAULT_PHI0_GRID)}
        rows, summary = one_process_sweep(cfg, tmp_path / "lists")
        forks = count_forks(monkeypatch, {0, 1})
        got, path = sweep_grid(cfg, out_dir=tmp_path / "arrays", **grid)
        assert len(forks) == 1 and got == rows and Path(path).read_bytes() == summary

    def test_nonpositive_curvature_locates_every_row(self, tmp_path, capsys):
        doc = load_doc("general_roundtrip.json")
        doc["directrix"]["k1"] = {"type": "polynomial", "coefficients": [0.25, -1.0]}  # k1 <= 0 from s = 0.25
        code = main(["sweep", "--config", write_doc(tmp_path, doc), "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out.splitlines()
        error = " at s=0.5 NonPositiveCurvatureError: k1(s=0.5) = -0.25 is not positive"
        assert code == 1 and len(out) == 13 and all(line.endswith(error) for line in out[:12])
        with open(tmp_path / "out" / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 and {row["failure_s"] for row in rows} == {"0.5"}

    def test_failed_summary_write_keeps_the_earlier_summary(self, monkeypatch, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        _, summary = sweep_grid(cfg, out_dir=tmp_path)
        earlier = Path(summary).read_bytes()
        fmt, cells = minkruled.pipeline._fmt, itertools.count(1)

        def failing(x):  # each row formats five float cells; the third row's first one raises
            if next(cells) > 10:
                raise RuntimeError("planted")
            return fmt(x)

        monkeypatch.setattr(minkruled.pipeline, "_fmt", failing)
        with pytest.raises(RuntimeError, match="planted"):
            sweep_grid(cfg, theta0_list=[0.5, 1.0, 1.5], phi0_list=[0.2], out_dir=tmp_path)
        assert Path(summary).read_bytes() == earlier
        assert os.listdir(tmp_path) == ["sweep_summary.csv"]

    def test_empty_seed_list_rejected(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        with pytest.raises(ValueError):
            sweep_grid(cfg, theta0_list=[], out_dir=tmp_path)

    def test_directrix_built_once_per_sweep(self, monkeypatch, tmp_path):
        calls = count_directrix_builds(monkeypatch)
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        rows, summary = one_process_sweep(cfg, tmp_path / "first")
        assert len(rows) == 12 and len(calls) == 1
        # the next sweep of an equal spec, in other objects and with other tolerances, builds none
        again = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json").with_overrides(tol_rel=1e-3)
        assert one_process_sweep(again, tmp_path / "second") == (rows, summary)
        assert len(calls) == 1

    @pytest.mark.parametrize("change", ["step", "k1", "initial_frame"])
    def test_changed_directrix_is_rebuilt(self, monkeypatch, tmp_path, change):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        if change == "step":
            changed = cfg.with_overrides(step=5e-4)
        else:
            value = Constant(1.1)
            if change == "initial_frame":
                value = default_initial_frame()
                value[0] = (0.5, 0.0, 0.0)  # the position only
            changed = dataclasses.replace(cfg, directrix=dataclasses.replace(cfg.directrix, **{change: value}))
        calls = count_directrix_builds(monkeypatch)
        sweep_grid(cfg, out_dir=tmp_path)
        kept = weakref.ref(minkruled.pipeline._swept_directrix[1])
        rows, _ = sweep_grid(changed, out_dir=tmp_path)
        assert len(calls) == 2
        assert kept() is None  # the first curve was dropped, not kept beside the second
        assert rows == [
            SweepRow.of(r.theta0, r.phi0, run_config(changed.with_seed(r.theta0, r.phi0), write_outputs=False).report)
            for r in rows
        ]

    def test_directrix_that_failed_is_built_again_by_the_next_sweep(self, monkeypatch, tmp_path):
        cfg = step_too_large_config()
        calls = count_directrix_builds(monkeypatch)
        for _ in range(2):
            rows, _ = sweep_grid(cfg, out_dir=tmp_path)
            assert all(r.verdict == "error" and r.detail.startswith("StepTooLargeError") for r in rows)
        assert len(calls) == 2 and minkruled.pipeline._swept_directrix is None

    def test_run_config_keeps_no_directrix(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        result = run_config(cfg, write_outputs=False)
        curve = weakref.ref(result.surface.directrix)
        del result
        assert curve() is None
        assert minkruled.pipeline._swept_directrix is None
        # nor does it read the sweep's curve
        sweep_grid(cfg, out_dir=tmp_path)
        swept = minkruled.pipeline._swept_directrix[1]
        assert run_config(cfg, write_outputs=False).surface.directrix is not swept

    @pytest.mark.parametrize("name", SHIPPED + ["step-too-large"])
    def test_rows_match_per_seed_runs(self, tmp_path, name):
        cfg = step_too_large_config() if name == "step-too-large" else RunConfig.from_file(CONFIG_DIR / name)
        rows, summary = sweep_grid(cfg, out_dir=tmp_path)
        expected = []
        for row in rows:
            try:
                report = run_config(cfg.with_seed(row.theta0, row.phi0), write_outputs=False).report
            except GeometryError as exc:
                expected.append(("error", None, None, getattr(exc, "s", None), f"{type(exc).__name__}: {exc}"))
                continue
            rels = [st.max_rel for st in report.errors.values() if math.isfinite(st.max_rel)]
            defects = [v for k, v in report.defects.items() if not k.endswith("_endpoints")]
            detail = "" if report.passed else "failed: " + ",".join(report.failures)
            expected.append((report.verdict, max(rels, default=None), max(defects, default=None), None, detail))
        got = [(r.verdict, r.max_rel_error, r.worst_defect, r.failure_s, r.detail) for r in rows]
        assert got == expected
        if name in ("cylinder.json", "step-too-large"):
            assert any(r.verdict == "error" for r in rows)

        def cell(x):
            return "" if x is None else f"{x:.17g}"

        with open(summary, newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == ["theta0", "phi0", "verdict", "max_rel_error", "worst_defect", "failure_s", "detail"]
        assert lines == [
            [cell(r.theta0), cell(r.phi0), verdict, cell(rel), cell(defect), cell(s), detail]
            for r, (verdict, rel, defect, s, detail) in zip(rows, expected)
        ]


def test_import_graph_loads_no_scipy():
    # a fresh interpreter: numpy is the only runtime dependency
    doc = load_doc("general_roundtrip.json")
    doc["directrix"]["k1"] = {"type": "samples", "s": [0.0, 0.25, 0.5], "values": [1.0, 1.1, 0.9]}
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(minkruled.__file__).parent.parent)!r})\n"
        "import minkruled, minkruled.cli\n"
        f"minkruled.RunConfig.from_dict(json.loads({json.dumps(doc)!r}))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCliEntry:
    def test_synthesize_and_verify_exit_zero(self, tmp_path):
        code = main(["synthesize", "--config", str(CONFIG_DIR / "cylinder.json"), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "cylinder.report.json").exists()
        assert main(["verify", "--config", str(CONFIG_DIR / "cylinder.json")]) == 0

    def test_calls_in_one_process_parse_independently(self, tmp_path, capsys):
        # main builds its parser once per process, so no flag of one call may reach the next
        build_parser.cache_clear()
        roundtrip, cylinder = str(CONFIG_DIR / "general_roundtrip.json"), str(CONFIG_DIR / "cylinder.json")
        try:
            assert main(["verify", "--config", roundtrip, "--tol-rel", "1e-12", "--tol-abs", "1e-13"]) == 1
            assert main(["verify", "--config", roundtrip]) == 0
            sweep = ["--step", "0.01", "--theta0", "1.5", "--phi0", "0.5", "--summary-name", "s.csv"]
            assert main(["sweep", "--config", cylinder, "--out-dir", str(tmp_path / "a"), *sweep]) == 0
            assert main(["synthesize", "--config", cylinder, "--out-dir", str(tmp_path / "b")]) == 0
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--theta0", "1.5"])  # no --config
            assert exc.value.code == 2
            assert "--config" in capsys.readouterr().err
            assert main(["export-mesh", "--config", roundtrip, "--out-dir", str(tmp_path / "c")]) == 0
        finally:
            built = build_parser.cache_info().misses
            build_parser.cache_clear()
        assert built == 1
        assert os.listdir(tmp_path / "a") == ["s.csv"]
        # the config's own step, not the sweep's
        assert len((tmp_path / "b" / "cylinder.csv").read_text().splitlines()) == 1002
        assert os.listdir(tmp_path / "c") == ["general_roundtrip.obj"]

    @pytest.mark.parametrize(
        "drop, flags, field",
        [
            pytest.param("v0", [], "params.v0", id="missing-v0"),
            pytest.param(None, ["--step", "0.0003"], "directrix.step", id="step-not-dividing"),
            pytest.param(None, ["--step", "-1"], "directrix.step", id="negative-step"),
            pytest.param(None, ["--step", "1e-9"], "directrix.step", id="step-over-grid-limit"),
            pytest.param(None, ["--step", "5e-324"], "directrix.step", id="subnormal-step"),
            pytest.param(None, ["--step", "1"], "directrix.step", id="two-sample-step"),
            pytest.param(None, ["--tol-rel", "-1"], "tolerances.rel", id="negative-tol-rel"),
        ],
    )
    def test_corrupt_config_exits_two(self, tmp_path, capsys, drop, flags, field):
        doc = load_doc("developable.json")
        if drop is not None:
            del doc["params"][drop]
        code = main(["verify", "--config", write_doc(tmp_path, doc)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @settings(max_examples=200, derandomize=True)
    @given(data=st.data())
    def test_mutated_shipped_config_exits_cleanly(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(p.name for p in CONFIG_DIR.glob("*.json"))))
        doc = load_doc(name)
        if data.draw(st.booleans()):
            data.draw(st.sampled_from(objects(doc)))["stray"] = 1
            codes = (2,)
        else:
            path = data.draw(st.sampled_from(leaf_paths(doc)))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = data.draw(st.sampled_from(["x", None, True, [], {}, -1, 10**400, 1e308, 1e-3]))
            codes = (0, 1, 2)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["verify", "--config", write_doc(tmp_path_factory.mktemp("mutant"), doc)])
        assert code in codes
        assert "Traceback" not in out.getvalue()

    @pytest.mark.parametrize(
        "command, config, out_dir, named",
        [
            pytest.param("verify", "missing.json", "out", None, id="missing-config"),
            pytest.param("verify", "dir", "out", None, id="config-is-directory"),
            pytest.param("verify", "latin1.json", "out", None, id="config-not-utf8"),
            pytest.param("verify", "deep.json", "out", None, id="config-nested-too-deep"),
            pytest.param("verify", "digits.json", "out", None, id="config-integer-too-long"),
            pytest.param("synthesize", "config.json", "file", "file", id="synthesize-out-dir-is-file"),
            pytest.param("sweep", "config.json", "file", "file", id="sweep-out-dir-is-file"),
            pytest.param("synthesize", "nested.json", "out", "out/sub/dir/c.csv", id="csv-path-in-missing-dir"),
        ],
    )
    def test_unreadable_or_unwritable_path_exits_two(self, tmp_path, capsys, command, config, out_dir, named):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        (tmp_path / "latin1.json").write_bytes('{"system": "\u00e9"}'.encode("latin-1"))
        (tmp_path / "deep.json").write_text("[" * 100_000)
        (tmp_path / "digits.json").write_text('{"version": 1' + "0" * 5000 + "}")
        doc = load_doc("general_roundtrip.json")
        write_doc(tmp_path, doc)
        doc["outputs"]["csv_path"] = "sub/dir/c.csv"
        write_doc(tmp_path, doc, "nested.json")
        code = main([command, "--config", str(tmp_path / config), "--out-dir", str(tmp_path / out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("'<document>'" if named is None else str(tmp_path / named)) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synthesize", "sweep", "export-mesh"])
    def test_unusable_out_dir_fails_before_synthesis(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        integrate = minkruled.pipeline.integrate_system
        monkeypatch.setattr(minkruled.pipeline, "integrate_system", lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
        (tmp_path / "file").write_text("")
        config = str(CONFIG_DIR / "general_roundtrip.json")
        assert main([command, "--config", config, "--out-dir", str(tmp_path / "file")]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "file") in err and "Traceback" not in err
        assert calls == []

    def test_nan_defect_exits_one_without_a_traceback(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(SURFACE_DEFECTS, "qprime_norm", (lambda surf: np.full(surf.n_samples, np.nan), 1))
        assert main(["synthesize", "--config", str(CONFIG_DIR / "cylinder.json"), "--out-dir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert "verdict: fail" in out and "failed checks: qprime_norm" in out and err == ""
        assert '"qprime_norm": null' in (tmp_path / "cylinder.report.json").read_text()

    def test_singular_seed_exits_one(self, tmp_path, capsys):
        doc = load_doc("general_roundtrip.json")
        doc["params"]["theta0"] = 1e-9
        code = main(["verify", "--config", write_doc(tmp_path, doc)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ThetaSingularity" in err and "s = 0" in err
        assert err.count("at s =") == 1

    @pytest.mark.parametrize(
        "k1, error",
        [
            pytest.param(1e308, "StepTooLargeError: frame defect nan", id="constant"),
            pytest.param(
                {"type": "polynomial", "coefficients": [1e308] * 4}, "IntegrationDivergedError: k1(s=0.47",
                id="polynomial",
            ),
        ],
    )
    def test_overflowing_curvature_exits_one(self, tmp_path, capsys, k1, error):
        doc = load_doc("general_roundtrip.json")
        doc["directrix"]["k1"] = k1
        config = write_doc(tmp_path, doc)
        assert main(["verify", "--config", config]) == 1
        assert main(["sweep", "--config", config, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err
        with open(tmp_path / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 and all(r["verdict"] == "error" and error in r["detail"] for r in rows)

    @pytest.mark.parametrize(
        "name, param",
        [("general_roundtrip.json", "d"), ("developable.json", "v0"), ("geodesic.json", "n")],
    )
    def test_parameter_near_float_limit_fails_without_warning(self, tmp_path, capsys, name, param):
        # d^2 + v0^2 and 1 / n^2 overflow; the run still ends in a verdict or an error
        doc = load_doc(name)
        doc["params"][param] = 1e308
        assert main(["verify", "--config", write_doc(tmp_path, doc)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_mu_near_float_limit_counts_modulo_pi(self, tmp_path, capsys):
        doc = load_doc("geodesic.json")
        doc["params"]["mu"] = 1e308
        assert main(["verify", "--config", write_doc(tmp_path, doc)]) == 0
        assert "failed checks" not in capsys.readouterr().out

    def test_function_valued_negative_n_exits_one(self, tmp_path, capsys):
        doc = load_doc("geodesic.json")
        doc["params"]["n"] = {"type": "polynomial", "coefficients": [-1.0]}
        assert main(["verify", "--config", write_doc(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "ParamDomainError: curvature_angle requires n > 0" in err and "Traceback" not in err

    def test_verify_prints_finite_margins(self, capsys):
        # geodesic.json prescribes v0 and mu to be zero, where a relative
        # error is meaningless; the margin to the pass bound is not
        assert main(["verify", "--config", str(CONFIG_DIR / "geodesic.json")]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out
        margins = [float(tok.split("=", 1)[1]) for tok in out.split() if tok.startswith("margin=")]
        assert len(margins) == 4
        assert all(0.0 <= m <= 1.0 for m in margins)

    def test_strict_tolerance_fails_verification(self, tmp_path):
        code = main(
            ["verify", "--config", str(CONFIG_DIR / "general_roundtrip.json"), "--tol-rel", "1e-12", "--tol-abs", "1e-13"]
        )
        assert code == 1

    def test_step_override(self, tmp_path):
        code = main(
            [
                "synthesize",
                "--config",
                str(CONFIG_DIR / "general_roundtrip.json"),
                "--out-dir",
                str(tmp_path),
                "--step",
                "0.002",
            ]
        )
        assert code == 0
        lines = (tmp_path / "general_roundtrip.csv").read_text().splitlines()
        assert len(lines) == 252  # header + 251 samples at the coarser step

    def test_export_mesh_command(self, tmp_path):
        code = main(
            ["export-mesh", "--config", str(CONFIG_DIR / "general_roundtrip.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        text = (tmp_path / "general_roundtrip.obj").read_text()
        assert text.startswith("# system=general_dv0")

    def test_export_mesh_failure_keeps_the_existing_obj(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        obj = out / "general_roundtrip.obj"
        obj.write_bytes(b"an earlier mesh\n")
        seen = []

        def failing(*args):  # the writer's first fill, after the header went to a temporary beside the OBJ
            seen.append((sorted(os.listdir(out)), obj.read_bytes()))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(minkruled.text.LineWriter, "fill", failing)
        code = main(["export-mesh", "--config", str(CONFIG_DIR / "general_roundtrip.json"), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {obj}: {os.strerror(errno.ENOSPC)}" in err and "Traceback" not in err
        assert seen == [(["general_roundtrip.obj", "general_roundtrip.obj.mesh.tmp"], b"an earlier mesh\n")]
        assert obj.read_bytes() == b"an earlier mesh\n"
        assert os.listdir(out) == ["general_roundtrip.obj"]

    def test_export_mesh_matches_synthesize(self, tmp_path):
        config = str(CONFIG_DIR / "general_roundtrip.json")
        assert main(["export-mesh", "--config", config, "--out-dir", str(tmp_path / "mesh")]) == 0
        assert main(["synthesize", "--config", config, "--out-dir", str(tmp_path / "all")]) == 0
        obj = "general_roundtrip.obj"
        assert (tmp_path / "mesh" / obj).read_bytes() == (tmp_path / "all" / obj).read_bytes()

    @pytest.mark.parametrize("command", ["synthesize", "export-mesh"])
    @pytest.mark.parametrize("v_range", [[0, 1e308], [-1e308, 1e308], [1e308, 1e308]])
    def test_overflowing_v_range_exits_two(self, tmp_path, capsys, command, v_range):
        doc = load_doc("general_roundtrip.json")
        doc["outputs"]["mesh"]["v_range"] = v_range
        code = main([command, "--config", write_doc(tmp_path, doc), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'outputs.mesh.v_range'" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "general_roundtrip.obj").exists()
        assert os.listdir(tmp_path / "out") == []  # no CSV or report either

    @pytest.mark.parametrize("command", ["verify", "synthesize", "sweep"])
    @pytest.mark.parametrize("position", [[1e308, 0, 0], [0, -1e13, 0]], ids=["overflow", "coarse"])
    def test_far_seed_position_exits_two(self, tmp_path, capsys, command, position):
        doc = load_doc("general_roundtrip.json")
        doc["directrix"]["initial_frame"] = {"position": position, "T": [1, 0, 0], "N": [0, 1, 0], "B": [0, 0, 1]}
        out = tmp_path / "out"
        assert main([command, "--config", write_doc(tmp_path, doc), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()  # the error line alone: no warning, no traceback
        assert captured.err.startswith("error: config invalid at 'directrix.initial_frame.position': ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("blocked", ["missing-dir", "directory"])
    @pytest.mark.parametrize("output", ["mesh", "csv", "report"])
    def test_unwritable_output_leaves_no_output(self, tmp_path, capsys, output, blocked):
        doc = load_doc("general_roundtrip.json")
        rel = "missing/x" if blocked == "missing-dir" else "x"
        if output == "mesh":
            doc["outputs"]["mesh"]["path"] = rel
        else:
            doc["outputs"][f"{output}_path"] = rel
        out = tmp_path / "out"
        if blocked == "directory":
            (out / rel).mkdir(parents=True)
        code = main(["synthesize", "--config", write_doc(tmp_path, doc), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {out / rel}:" in err and "Traceback" not in err
        assert os.listdir(out) == ([] if blocked == "missing-dir" else ["x"])
        if blocked == "directory":
            assert os.listdir(out / "x") == []

    def test_export_mesh_requires_mesh_spec(self, tmp_path, capsys):
        code = main(["export-mesh", "--config", str(CONFIG_DIR / "cylinder.json"), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "outputs.mesh" in capsys.readouterr().err

    def test_sweep_command_with_bad_seed(self, tmp_path):
        code = main(
            [
                "sweep",
                "--config",
                str(CONFIG_DIR / "general_roundtrip.json"),
                "--out-dir",
                str(tmp_path),
                "--theta0",
                "0,1.0",
                "--phi0",
                "0.2",
            ]
        )
        assert code == 1  # the theta0 = 0 row fails
        assert (tmp_path / "sweep_summary.csv").exists()

    @pytest.mark.parametrize(
        "flag, seeds",
        [
            *(pytest.param("--theta0", text, id=text) for text in ("abc", ",", "nan", "0.5,inf")),
            pytest.param("--phi0", "nan", id="phi0-nan"),
        ],
    )
    def test_sweep_command_malformed_seeds_exit_two(self, tmp_path, capsys, flag, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(CONFIG_DIR / "general_roundtrip.json"), "--out-dir", str(tmp_path), flag, seeds])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "sweep_summary.csv").exists()

    def test_sweep_command_default_grid_exits_zero(self, tmp_path):
        code = main(
            ["sweep", "--config", str(CONFIG_DIR / "general_roundtrip.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 0  # all 12 default seeds admissible and passing
