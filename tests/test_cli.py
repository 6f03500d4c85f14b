import contextlib
import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minkruled.pipeline
from minkruled import Constant, FrenetCurve, RuledSurfaceGrid, RunConfig, export_mesh, lvec
from minkruled.cli import main
from minkruled.errors import ConfigError, GeometryError
from minkruled.pipeline import run_config, sweep_grid

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
    )


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


SINUSOID = {"type": "sinusoid", "amplitude": 0.05, "frequency": 2.0}
FRAME = {"position": [0, 0, 0], "T": [1, 0, 0], "N": [0, 1, 0], "B": [0, 0, 1]}

#: (entry path, value put there, field the error must name) on general_roundtrip.json
BAD_ENTRIES = [
    pytest.param(("params", "theta0"), "one", "params.theta0", id="params.theta0"),
    pytest.param(("tolerances", "rel"), "x", "tolerances.rel", id="tolerances.rel"),
    pytest.param(("tolerances", "abs"), "x", "tolerances.abs", id="tolerances.abs"),
    pytest.param(("tolerances", "defects", "helix"), "x", "tolerances.defects.helix", id="tolerances.defects"),
    pytest.param(("tolerances", "rel"), -1e-4, "tolerances.rel", id="negative-rel"),
    pytest.param(("tolerances", "abs"), math.inf, "tolerances.abs", id="infinite-abs"),
    pytest.param(("tolerances", "defects", "helix"), -1.0, "tolerances.defects.helix", id="negative-defect"),
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
        ("directrix", "initial_frame"), {**FRAME, "T": [1, 0, "x"]}, "directrix.initial_frame.T[2]", id="initial-frame"
    ),
    pytest.param(("directrix", "step"), "x", "directrix.step", id="directrix.step"),
    pytest.param(("directrix", "step"), 3e-4, "directrix.step", id="step-not-dividing"),
    pytest.param(("directrix", "step"), 1e-9, "directrix.step", id="step-over-grid-limit"),
    pytest.param(("outputs", "mesh", "v_range"), [-0.5, "x"], "outputs.mesh.v_range[1]", id="mesh.v_range"),
    pytest.param(("outputs", "csv_path"), 3, "outputs.csv_path", id="csv_path"),
    pytest.param(("outputs", "report_path"), ["r.json"], "outputs.report_path", id="report_path"),
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

    def test_unknown_key_rejected(self, tmp_path):
        doc = load_doc("cylinder.json")
        doc["paramz"] = {}
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(write_doc(tmp_path, doc))
        assert err.value.field == "paramz"

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


class TestExportMesh:
    def smallest_surface(self):
        curve = hyperbolic_curve(2)
        q = np.tile(lvec(1, 0, 0), (2, 1))
        return RuledSurfaceGrid(directrix=curve, q=q)

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
        q = np.tile(lvec(1, 0, 0), (curve.n_samples, 1))
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

    def test_csv_has_full_precision(self, tmp_path):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        result = run_config(cfg, tmp_path)
        lines = Path(result.written["csv"]).read_text().splitlines()
        assert lines[0] == "s,theta,phi,d,v0,K,mu,n,qprime_norm,cylindrical"
        assert len(lines) == 502  # header + 501 samples
        theta0 = float(lines[1].split(",")[1])
        assert theta0 == 1.0


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

    def test_numpy_seed_arrays_match_lists(self):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        seeds = dict(theta0_list=[0.0, 0.5, 1.0], phi0_list=[0.2, 1.0], write_summary=False)
        rows, _ = sweep_grid(cfg, **seeds)
        arrays = {k: np.array(v) if k.endswith("_list") else v for k, v in seeds.items()}
        assert sweep_grid(cfg, **arrays)[0] == rows

    def test_empty_seed_list_rejected(self):
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        with pytest.raises(ValueError):
            sweep_grid(cfg, theta0_list=[], write_summary=False)

    def test_directrix_built_once_per_sweep(self, monkeypatch):
        calls = []
        integrate = minkruled.pipeline.integrate_frenet
        monkeypatch.setattr(minkruled.pipeline, "integrate_frenet", lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        rows, _ = sweep_grid(cfg, write_summary=False)
        assert len(rows) == 12 and len(calls) == 1

    @pytest.mark.parametrize("name", ["general_roundtrip.json", "cylinder.json", "step-too-large"])
    def test_rows_match_per_seed_runs(self, tmp_path, name):
        if name == "step-too-large":  # the directrix itself fails: every row carries its error
            cfg = RunConfig.from_file(CONFIG_DIR / "cylinder.json")
            cfg = dataclasses.replace(cfg, directrix=dataclasses.replace(cfg.directrix, k1=Constant(5.0), step=0.25))
        else:
            cfg = RunConfig.from_file(CONFIG_DIR / name)
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
        if name != "general_roundtrip.json":
            assert any(r.verdict == "error" for r in rows)

        def cell(x):
            return "" if x is None else f"{x:.17g}"

        with open(summary, newline="") as fh:
            lines = list(csv.reader(fh))[1:]
        assert lines == [
            [cell(r.theta0), cell(r.phi0), verdict, cell(rel), cell(defect), cell(s), detail]
            for r, (verdict, rel, defect, s, detail) in zip(rows, expected)
        ]


class TestCliEntry:
    def test_synthesize_and_verify_exit_zero(self, tmp_path):
        code = main(["synthesize", "--config", str(CONFIG_DIR / "cylinder.json"), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "cylinder.report.json").exists()
        assert main(["verify", "--config", str(CONFIG_DIR / "cylinder.json")]) == 0

    @pytest.mark.parametrize(
        "drop, flags, field",
        [
            pytest.param("v0", [], "params.v0", id="missing-v0"),
            pytest.param(None, ["--step", "0.0003"], "directrix.step", id="step-not-dividing"),
            pytest.param(None, ["--step", "-1"], "directrix.step", id="negative-step"),
            pytest.param(None, ["--step", "1e-9"], "directrix.step", id="step-over-grid-limit"),
            pytest.param(None, ["--step", "5e-324"], "directrix.step", id="subnormal-step"),
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
        path = data.draw(st.sampled_from(leaf_paths(doc)))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(["x", None, True, [], {}, -1]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["verify", "--config", write_doc(tmp_path_factory.mktemp("mutant"), doc)])
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue()

    def test_singular_seed_exits_one(self, tmp_path, capsys):
        doc = load_doc("general_roundtrip.json")
        doc["params"]["theta0"] = 1e-9
        code = main(["verify", "--config", write_doc(tmp_path, doc)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ThetaSingularity" in err and "s = 0" in err
        assert err.count("at s =") == 1

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

    def test_export_mesh_matches_synthesize(self, tmp_path):
        config = str(CONFIG_DIR / "general_roundtrip.json")
        assert main(["export-mesh", "--config", config, "--out-dir", str(tmp_path / "mesh")]) == 0
        assert main(["synthesize", "--config", config, "--out-dir", str(tmp_path / "all")]) == 0
        obj = "general_roundtrip.obj"
        assert (tmp_path / "mesh" / obj).read_bytes() == (tmp_path / "all" / obj).read_bytes()

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

    @pytest.mark.parametrize("seeds", ["abc", ","])
    def test_sweep_command_malformed_seeds_exit_two(self, tmp_path, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(CONFIG_DIR / "general_roundtrip.json"), "--out-dir", str(tmp_path), "--theta0", seeds])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--theta0" in err and "Traceback" not in err
        assert not (tmp_path / "sweep_summary.csv").exists()

    def test_sweep_command_default_grid_exits_zero(self, tmp_path):
        code = main(
            ["sweep", "--config", str(CONFIG_DIR / "general_roundtrip.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 0  # all 12 default seeds admissible and passing
