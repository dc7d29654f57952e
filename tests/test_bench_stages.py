"""Smoke test of the stage harness ``bench/stages.py`` (no timing gate).

One repetition of a 20-site chain on 101 grid points runs the harness end to
end in a fresh worker process; the pairing against a base tree is checked
with a stand-in worker, so that no second process starts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "bench" / "stages.py"


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("stages", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_repetition_writes_every_stage(stages):
    report = json.loads(json.dumps(stages.compare([20], 101, 1, None)))
    assert report.keys() == {"case", "sides", "cases", "machine"}
    assert report["case"]["points"] == 101 and report["sides"] == ["change"]
    assert report["machine"].keys() == {"environment", "platform", "processor", "blas_threads"}
    assert report["machine"]["environment"]["change"].keys() >= {"python", "numpy", "blas"}
    [case] = report["cases"]
    assert case["s"] == 20 and case["stages"].keys() == set(stages.STAGES)
    assert case["kept"].keys() == {"modes", "sites"}  # the bath run's reach
    assert all(0 < count <= 20 for count in case["kept"].values())
    assert "peak_scan" in case["stages"]  # the peak-scaling run at the case's s
    assert "closed" in case["stages"]  # the case's chain and grid without the bath
    for entry in case["stages"].values():
        assert entry.keys() == {"change"}
        assert entry["change"].keys() == {"median", "q25", "q75", "runs"}
        assert len(entry["change"]["runs"]) == 1 and entry["change"]["runs"][0] >= 0.0


def test_pairs_alternate_and_count_wins(stages, monkeypatch):
    calls, base_times = [], iter([2.0, 0.5, 2.0, 1.0])  # base wins pair 1, pair 3 ties

    def worker(tree, s, points):
        calls.append(tree)
        seconds = 1.0 if tree == stages.TREE else next(base_times)
        kept = {"modes": 16, "sites": 11} if tree == stages.TREE else None
        return {"stages": dict.fromkeys(stages.STAGES, seconds), "kept": kept, "environment": {}}

    monkeypatch.setattr(stages, "run_worker", worker)
    base = Path("/parent")
    report = stages.compare([20], 101, 4, base)
    assert calls == [stages.TREE, base, base, stages.TREE] * 2
    assert report["cases"][0]["kept"] == {"modes": 16, "sites": 11}  # this tree's counts
    entry = report["cases"][0]["stages"]["run"]
    assert entry["pairs"] == 4 and entry["wins"] == 2
    assert entry["base"]["runs"] == [2.0, 0.5, 2.0, 1.0] and entry["base"]["median"] == 1.5
