"""Smoke tests of the benchmark itself (coarse step, one pass per workload).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import outcomes  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(root: str, workload: str, trace: int) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(W.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result = _run(ROOT, workload, trace)
    assert code == 0 and result is not None
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


def test_compare_flags_a_changed_outcome():
    with open(outcomes.REFERENCE) as fh:
        ref = json.load(fh)[outcomes.key("seed_sweep", W.SMOKE_STEP)]
    ops = [W.Op(name=r["name"], doc={}, n_samples=0) for r in ref["ops"]]
    records = [{"outcomes": [dict(o) for o in r["outcomes"]], "stats": dict(r["stats"])} for r in ref["ops"]]
    assert outcomes.compare(ref, ops, records) == []
    assert outcomes.drift(ref, ops, records) == 0.0

    error = next(o for rec in records for o in rec["outcomes"] if o["verdict"] == "error")
    error["s"] += 0.01
    assert len(outcomes.compare(ref, ops, records)) == 1
    error["s"] -= 0.01
    was_pass = records[0]["outcomes"][0]["verdict"] == "pass"
    records[0]["outcomes"][0] = {"verdict": "fail", "failures": ["d"]} if was_pass else {"verdict": "pass", "failures": []}
    problems = outcomes.compare(ref, ops, records)
    assert any(ops[0].name in p for p in problems) and any("fail_ratio" in p for p in problems)


def test_a_changed_outcome_fails_the_run(tmp_path):
    """The whole command reports incorrect, and exits nonzero, on a changed outcome."""
    for part in ("src", "configs", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    first = ref[outcomes.key("fine_verify", W.SMOKE_STEP)]["ops"][0]["outcomes"][0]
    first["verdict"] = "pass" if first["verdict"] != "pass" else "fail"
    ref_path.write_text(json.dumps(ref))
    code, result = _run(str(tmp_path), "fine_verify", 0)
    assert code != 0
    assert result is not None and result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _run(str(tmp_path), "fine_verify", 0)
    assert code != 0 and result is None


def test_generation_is_seeded(tmp_path):
    a = W.generate("fine_verify", 7, ROOT, str(tmp_path / "a"))
    b = W.generate("fine_verify", 7, ROOT, str(tmp_path / "b"))
    c = W.generate("fine_verify", 8, ROOT, str(tmp_path / "c"))
    assert [op.doc for op in a] == [op.doc for op in b]
    assert [op.doc for op in a] != [op.doc for op in c]


def test_tracer_reports_missing_names_and_restores(monkeypatch):
    import minkruled.pipeline
    import tracing

    targets = tracing.TARGETS + (
        ("minkruled.pipeline", "no_such_stage", "pipeline.no_such_stage"),
        ("minkruled.no_such_module", "run", "none.run"),
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    original = minkruled.pipeline.run_config
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert minkruled.pipeline.run_config is not original
    finally:
        tracer.uninstall()
    assert minkruled.pipeline.run_config is original
    assert tracer.absent == ["minkruled.pipeline.no_such_stage", "minkruled.no_such_module.run"]
