"""Smoke test of the stage harness ``bench/stages.py`` (no timing gate).

One repetition of each chain at 20 sites on 101 grid points runs the harness
end to end in fresh worker processes; the pairing against a base tree is
checked with a stand-in worker, so that no second process starts. The
weak-tilt case is checked to lie above 1-norm 1/4, the one case that does.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from openchain import lindblad
from openchain.chains import build_chain_hamiltonian, diagonalize, sample_disorder
from openchain.lindblad import BathSpec, population_generator, transition_rates

HARNESS = Path(__file__).resolve().parents[1] / "bench" / "stages.py"


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("stages", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_repetition_writes_every_stage(stages):
    cases = [("transport", 20), ("weak_tilt", 20), ("localized", 20)]
    report = stages.compare(cases, 101, 1, None)
    report = json.loads(json.dumps(report))
    assert report.keys() == {"chains", "points", "sides", "cases", "machine"}
    assert report["points"] == 101 and report["sides"] == ["change"]
    # the closed workload's chain beside the transport chain: no tilt, half the step
    assert report["chains"]["localized"] == {**report["chains"]["transport"], "g": 0.0, "dt": 0.5}
    # the transport chain at a weaker tilt, whose generator has ||A dt||_1 above 1/4
    assert report["chains"]["weak_tilt"] == {**report["chains"]["transport"], "g": 0.5}
    assert report["machine"].keys() == {"environment", "platform", "processor", "blas_threads"}
    assert report["machine"]["environment"]["change"].keys() >= {"python", "numpy", "blas"}
    assert [(case["chain"], case["s"]) for case in report["cases"]] == cases
    assert ("localized", 200) in stages.CASES
    assert ("weak_tilt", 400) in stages.CASES
    for case in report["cases"]:
        assert case["stages"].keys() == set(stages.STAGES)
        # the reach that the bath run and the closed run take, read off their own calls:
        # one weight, and the closed run also reads its last site to relative accuracy,
        # so its reach holds the bath run's
        assert case["kept"].keys() == {"bath", "closed"}
        for kept in case["kept"].values():
            assert kept.keys() == {"modes", "sites"}
            assert all(0 < count <= 20 for count in kept.values())
        for count in ("modes", "sites"):
            assert case["kept"]["closed"][count] >= case["kept"]["bath"][count]
        params = stages.CHAINS[case["chain"]]
        disorder = sample_disorder(20, params["sigma"], params["seed"])
        e, v = diagonalize(build_chain_hamiltonian(disorder, params["g"]))
        weight = lindblad._moment_weight(np.arange(1, 21))
        for run, region in (("bath", ()), ("closed", [19])):
            modes, sites = lindblad._reach(v, v[0], weight, region)
            assert case["kept"][run] == {"modes": modes.sum(), "sites": sites.sum()}
    [case, _, _] = report["cases"]
    assert "peak_scan" in case["stages"]  # the peak-scaling run at the case's s
    assert "closed" in case["stages"]  # the case's chain and grid without the bath
    assert "superposed" in case["stages"]  # the switch on the case's parameters and grid
    assert "superposed_closed" in case["stages"]  # the same switch without the bath
    assert "classical_closed" in case["stages"]  # a closed branch, gate at a = 9
    # the CSV writer's cold tables and its warm cost per cell
    assert {"csv_tables", "csv_cells"} <= case["stages"].keys()
    assert stages.STAGES.index("closed") > stages.STAGES.index("run")  # after the bath stages
    assert stages.STAGES.index("superposed") == stages.STAGES.index("closed") + 1
    assert stages.STAGES.index("superposed_closed") == stages.STAGES.index("superposed") + 1
    for entry in case["stages"].values():
        assert entry.keys() == {"change"}
        assert entry["change"].keys() == {"median", "q25", "q75", "runs", "faults"}
        assert len(entry["change"]["runs"]) == 1 and entry["change"]["runs"][0] >= 0.0
        faults = entry["change"]["faults"]  # the worker's minor page faults in the stage
        assert faults.keys() == {"median", "q25", "q75", "runs"}
        assert len(faults["runs"]) == 1 and isinstance(faults["runs"][0], int) and faults["runs"][0] >= 0


def test_weak_tilt_case_is_above_a_quarter(stages):
    # its generator takes expm's degree-28 path, which the transport cases never reach
    for chain, s in [("weak_tilt", 400), ("transport", 400)]:
        case = stages.CHAINS[chain]
        disorder = sample_disorder(s, case["sigma"], case["seed"])
        e, _ = diagonalize(build_chain_hamiltonian(disorder, case["g"]))
        bath = BathSpec(case["beta"], case["zeta"])
        gen = population_generator(transition_rates(e, bath), bath)
        norm = np.linalg.norm(gen * case["dt"], 1)
        assert (norm > 0.25) == (chain == "weak_tilt"), (chain, norm)


def test_pairs_alternate_and_count_wins(stages, monkeypatch):
    calls, base_times = [], iter([2.0, 0.5, 2.0, 1.0])  # base wins pair 1, pair 3 ties

    def worker(tree, chain, s, points):
        calls.append(tree)
        seconds = 1.0 if tree == stages.TREE else next(base_times)
        kept = {"bath": {"modes": 16, "sites": 11}, "closed": {"modes": 14, "sites": 17}}
        if tree != stages.TREE:
            kept = {"bath": None, "closed": None}
        faults = 10 if tree == stages.TREE else 20
        return {"stages": dict.fromkeys(stages.STAGES, seconds),
                "faults": dict.fromkeys(stages.STAGES, faults), "kept": kept, "environment": {}}

    monkeypatch.setattr(stages, "run_worker", worker)
    base = Path("/parent")
    report = stages.compare([("transport", 20)], 101, 4, base)
    assert calls == [stages.TREE, base, base, stages.TREE] * 2
    assert report["cases"][0]["kept"]["bath"] == {"modes": 16, "sites": 11}  # this tree's counts
    entry = report["cases"][0]["stages"]["run"]
    assert entry["pairs"] == 4 and entry["wins"] == 2 and entry["fewer_faults"] == 4
    assert entry["base"]["faults"]["median"] == 20 and entry["change"]["faults"]["runs"] == [10] * 4
    assert entry["base"]["runs"] == [2.0, 0.5, 2.0, 1.0] and entry["base"]["median"] == 1.5
