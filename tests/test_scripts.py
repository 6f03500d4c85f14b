"""Smoke tests: the shipped scripts run end to end against the package."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG_NAMES = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_gallery_writes_every_config(tmp_path):
    proc = run_script("export_gallery.py", "--out-dir", str(tmp_path / "gallery"), "--v-samples", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.stem for p in (tmp_path / "gallery").glob("*.obj")) == CONFIG_NAMES
    lines = proc.stdout.splitlines()
    assert len(lines) == len(CONFIG_NAMES)
    assert all("verdict=pass" in line for line in lines)


def test_convergence_study_prints_four_tables(tmp_path):
    proc = run_script("convergence_study.py", "--steps", "4e-3,2e-3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    titles = ("frame integration", "prescribed-invariant recovery", "line-of-curvature defect", "manufactured angle")
    for title in titles:
        assert title in out
    rows = [line.split() for line in out.splitlines() if line.strip().startswith(("4.0e-03", "2.0e-03"))]
    assert len(rows) == 8
    # finite-difference recovery and the line-of-curvature defect are second
    # order, and the angle RK4 on the manufactured track fourth order
    _, recovery, loc, manufactured = rows[1::2]
    assert 3.5 < float(recovery[2]) < 4.5 and 3.5 < float(recovery[4]) < 4.5
    assert 3.5 < float(loc[2]) < 4.5
    assert 14.0 < float(manufactured[2]) < 18.0


def test_bench_stages_writes_every_key_and_compares(tmp_path):
    out = tmp_path / "bench.json"
    args = ["--steps", "1e-2", "--repeats", "1", "--out", str(out)]
    proc = run_script("bench_stages.py", *args, "--save", str(tmp_path / "a"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    stages = {"build_directrix", "integrate_system", "build_surface", "recompute_report", "write_samples_csv", "export_mesh"}
    assert set(doc) == {
        "commit", "machine", "repeats", "stages_ms", "stages_minflt", "sweep_ms", "sweep_warm_ms", "sweep_replace_ms"
    }
    for key in ("stages_ms", "stages_minflt"):
        assert sorted(doc[key]) == CONFIG_NAMES
        assert all(set(per_step) == {"0.01"} and set(per_step["0.01"]) == stages for per_step in doc[key].values())
    assert all(n >= 0 for per_step in doc["stages_minflt"].values() for n in per_step["0.01"].values())
    assert "  minor faults: build_directrix " in proc.stdout
    bases = {"cylinder", "developable", "general_roundtrip"}
    rows = [("sweep_ms", "sweep", bases), ("sweep_warm_ms", "warm sweep", bases)]
    for key, label, names in rows + [("sweep_replace_ms", "replacing sweep", {"cylinder"})]:
        assert doc[key].keys() == names
        assert all(f"  {label} {name} (ms): median " in proc.stdout for name in doc[key])
        assert all(set(per_step) == {"0.01"} and per_step["0.01"] > 0 for per_step in doc[key].values())
    assert list(doc) == sorted(doc)

    proc = run_script("bench_stages.py", *args, "--compare", str(tmp_path / "a"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    drift = proc.stdout.split("largest absolute drift", 1)[1].splitlines()[1:]
    labels = [line.split()[1] for line in drift]
    sample_csv = ["s", "theta", "phi", "d", "v0", "K", "mu", "n", "qprime_norm", "cylindrical"]
    sweep = ["theta0", "phi0", "verdict", "max_rel_error", "worst_defect", "failure_s", "detail"]
    assert labels == sample_csv + sweep + ["x1", "x2", "x3", "lines", "values", "verdict"]
    assert [line.split()[0] for line in drift] == ["csv"] * 10 + ["sweep"] * 7 + ["obj"] * 4 + ["report"] * 2
    assert all(float(line.split()[2]) == 0.0 for line in drift)


def test_bench_stages_compare_counts_obj_lines_that_differ(tmp_path, capsys):
    bench = load_script("bench_stages.py")
    obj = "# c\nv 1 2 3\nv 1 2 4\nv 1 3 3\nv 1 3 4\nf 1 3 4 2\n"
    changed = {
        "same": (obj, 0.0),
        # vertex text that parses to the same floats, and a changed face
        "text": (obj.replace("v 1 2 3", "v 1.0 2 3").replace("f 1 3 4 2", "f 1 2 4 3"), 2.0),
        "extra_face": (obj + "f 1 2 4 3\n", float("inf")),
    }
    for name, (new_text, lines) in changed.items():
        old, new = tmp_path / name / "old", tmp_path / name / "new"
        old.mkdir(parents=True)
        new.mkdir()
        (old / "m.obj").write_text(obj)
        (new / "m.obj").write_text(new_text)
        bench.compare(new, old)
        rows = {" ".join(ln.split()[:2]): float(ln.split()[2]) for ln in capsys.readouterr().out.splitlines()[2:]}
        assert rows["obj lines"] == lines, name
        assert rows["obj x1"] == rows["obj x2"] == rows["obj x3"] == 0.0


def test_bench_stages_compare_is_true_only_when_every_row_is_zero(tmp_path, capsys):
    bench = load_script("bench_stages.py")
    report = {"verdict": "pass", "failures": [], "defects": {"qprime_norm": 1e-9}, "errors": {}}
    changed = {
        "same": (report, True),
        "value": ({**report, "defects": {"qprime_norm": 2e-9}}, False),
        "verdict": ({**report, "verdict": "fail", "failures": ["qprime_norm"]}, False),
    }
    for name, (new_report, same) in changed.items():
        old, new = tmp_path / name / "old", tmp_path / name / "new"
        old.mkdir(parents=True)
        new.mkdir()
        (old / "r.json").write_text(json.dumps(report))
        (new / "r.json").write_text(json.dumps(new_report))
        assert bench.compare(new, old) is same, name
        capsys.readouterr()


@pytest.mark.parametrize("side", ["old", "new"])
def test_bench_stages_compare_counts_a_file_on_one_side_as_a_difference(tmp_path, capsys, side):
    bench = load_script("bench_stages.py")
    report = {"verdict": "pass", "failures": [], "defects": {"qprime_norm": 1e-9}, "errors": {}}
    files = {"r.json": json.dumps(report), "r.csv": "s,theta\n0,1\n", "m.obj": "v 1 2 3\nf 1 1 1\n"}
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(text)
    only = old if side == "old" else new  # each kind gets one file that the other side lacks
    for name, text in files.items():
        (only / f"only_{name}").write_text(text)
    assert bench.compare(new, old) is False
    rows = {" ".join(ln.split()[:2]): ln.split()[2:] for ln in capsys.readouterr().out.splitlines()[2:]}
    assert rows == {
        "csv s": ["inf", "(only_r.csv)"],
        "csv theta": ["inf", "(only_r.csv)"],
        "obj x1": ["inf", "(only_m.obj)"],
        "obj x2": ["inf", "(only_m.obj)"],
        "obj x3": ["inf", "(only_m.obj)"],
        "obj lines": ["inf", "(only_m.obj)"],
        "report values": ["inf", "(only_r.json)"],
        "report verdict": ["1", "(only_r.json)"],
    }


def test_bench_stages_compare_exits_1_when_a_saved_verdict_differs(tmp_path):
    args = ["--steps", "1e-2", "--repeats", "1", "--out", str(tmp_path / "bench.json")]
    assert run_script("bench_stages.py", *args, "--save", str(tmp_path / "a"), cwd=tmp_path).returncode == 0
    report = tmp_path / "a" / "cylinder_0.01.json"
    text = report.read_text()
    assert '"verdict": "pass"' in text
    report.write_text(text.replace('"verdict": "pass"', '"verdict": "fail"'))
    proc = run_script("bench_stages.py", *args, "--compare", str(tmp_path / "a"), cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.split("largest absolute drift", 1)[1].splitlines()[1:]
    drift = {" ".join(line.split()[:2]): line.split()[2:] for line in lines}
    assert drift["report verdict"] == ["1", "(cylinder_0.01.json)"]
    assert all(float(value[0]) == 0.0 for label, value in drift.items() if label != "report verdict")
