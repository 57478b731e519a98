"""Smoke test of the benchmark itself:

    python3 -m pytest -q perfbench/test_smoke.py

Small runs (short group list, short product pool) of every workload report
every metric BENCHMARK.json names, and a corrupted reference is caught.
verify-full has no smaller form, so its runs take a minute or two.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL_GROUPS = ("C12", "A4", "S4", "S3xS3")


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(
        workloads, "GROUPS", {k: v for k, v in workloads.GROUPS.items() if k in SMALL_GROUPS}
    )
    monkeypatch.setattr(workloads, "POOL_SIZE", 60)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_small_run_reports_every_metric(small, workload, trace):
    result, record = run.run(workload, seed=7, seconds=1, trace=trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["seed"] == 7 and record["fail_ratio"] == 0


def test_same_seed_gives_same_inputs():
    assert workloads.subgroup_inputs(3) == workloads.subgroup_inputs(3)
    assert workloads.subgroup_inputs(3) != workloads.subgroup_inputs(4)
    peirce = workloads.load_peirce_vectors(run.ROOT)
    assert workloads.mult_inputs(3, peirce) == workloads.mult_inputs(3, peirce)


def _corrupt_product(original):
    def corrupted(table, ring, a_terms, b_terms):
        out = original(table, ring, a_terms, b_terms)
        out["H_8"] = out.get("H_8", Fraction(0)) + 5
        return out

    return corrupted


def test_corrupted_references_fail(small, monkeypatch, tmp_path):
    broken = dict(workloads.GROUPS)
    order, classes, total = broken["S4"][2:]
    broken["S4"] = broken["S4"][:2] + (order, classes + 1, total)
    monkeypatch.setattr(workloads, "GROUPS", broken)
    monkeypatch.setattr(workloads, "expected_product", _corrupt_product(workloads.expected_product))
    golden = tmp_path / "verify_report.json"
    golden.write_bytes(workloads.GOLDEN_REPORT.read_bytes().replace(b'"pass"', b'"fail"', 1))
    monkeypatch.setattr(workloads, "GOLDEN_REPORT", golden)
    for workload in workloads.WORKLOADS:
        result, record = run.run(workload, seed=7, seconds=1, trace=False)
        assert not result["correct"] and result["failed"] > 0, workload
        assert record["fail_ratio"] > 0
