"""Reference outcomes for the default seed, and comparison against them.

An op's outcome is its verdict and failure list, or the exception class and
the failure arc length ``s``; a sweep op has one outcome per seed row.  The
reference file holds, per workload and step, the outcomes and the report's
error statistics recorded by ``record_reference.py``.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def key(workload: str, step: float) -> str:
    return f"{workload}@{step:g}"


def load_reference(workload: str, step: float, path: str = REFERENCE) -> dict | None:
    with open(path) as fh:
        return json.load(fh).get(key(workload, step))


def fail_ratio(outcomes: list[list[dict]]) -> float:
    """Verdicts that are not ``pass`` over verdicts attempted."""
    flat = [o for per_op in outcomes for o in per_op]
    return sum(o["verdict"] != "pass" for o in flat) / len(flat)


def _same(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = a[k], b[k]
        if k == "s" and x is not None and y is not None:
            if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12):
                return False
        elif k == "failures":
            if sorted(x) != sorted(y):
                return False
        elif x != y:
            return False
    return True


def compare(reference: dict, ops, records) -> list[str]:
    """One problem per op whose outcome differs from the reference."""
    ref_ops = reference["ops"]
    if [r["name"] for r in ref_ops] != [op.name for op in ops]:
        return ["generated ops differ from the reference's"]
    problems = []
    for op, ref, rec in zip(ops, ref_ops, records):
        if len(ref["outcomes"]) != len(rec["outcomes"]) or not all(
            _same(a, b) for a, b in zip(ref["outcomes"], rec["outcomes"])
        ):
            problems.append(f"{op.name}: outcome {rec['outcomes']} differs from reference {ref['outcomes']}")
    ratio = fail_ratio([rec["outcomes"] for rec in records])
    if ratio != reference["fail_ratio"]:
        problems.append(f"fail_ratio {ratio} differs from reference {reference['fail_ratio']}")
    return problems


def drift(reference: dict, ops, records) -> float:
    """Largest absolute change of any shared report statistic."""
    worst = 0.0
    for ref, rec in zip(reference["ops"], records):
        for name, value in rec["stats"].items():
            if name in ref["stats"]:
                worst = max(worst, abs(value - ref["stats"][name]))
    return worst


def entry(ops, records) -> dict:
    """The reference entry for one workload and step."""
    return {
        "fail_ratio": fail_ratio([rec["outcomes"] for rec in records]),
        "ops": [
            {"name": op.name, "outcomes": rec["outcomes"], "stats": rec["stats"]} for op, rec in zip(ops, records)
        ],
    }
