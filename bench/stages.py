"""Stage timings of the chains, the superposed switch, the peak scan and the CSV writer.

Three chains make the cases, each from site 1 on T = 10001 grid points with
disorder seed 0, beta = 1 and zeta = 0.05 where a bath applies, ten runs of
each tree:

* ``transport``: the chain of the ``transport`` scenario grown in size,
  sigma = 0.5, g = 2 and dt = 1, at s = 100, 400 and 800;
* ``weak_tilt``: the same chain at g = 0.5, at s = 400, where
  ||A dt||_1 = 1.08 is above the 1/4 up to which ``lindblad.expm`` takes
  degree 12 (the shipped configs sit at 0.16);
* ``localized``: the chain of the ``closed`` benchmark workload, sigma = 0.5,
  g = 0 and dt = 0.5, at s = 200.

Each measurement runs in a fresh process that imports ``openchain`` from one
tree's ``src`` with one BLAS thread, and times these stages, in this order:

* ``csv_tables``: the CSV formatter's constant tables, cold, as the first
  ``write_csv`` of each CLI process loads them (``series._tables``);
* ``diagonalize``: ``chains.diagonalize`` of the chain;
* ``expm``: S = ``lindblad.expm(A dt)`` and its five squarings to S^32, timed as
  the first block of ``lindblad._population_blocks`` at width 32 (it adds 31
  matrix-vector steps);
* ``populations``: the whole drain of ``_population_blocks`` at the run's
  block width, the ``expm`` stage included;
* ``read_out``: the summed calls of ``lindblad.read_out`` inside one
  ``dissipative_transport_run``. The level tables they read and each
  block's V U product are formed by the run, outside these calls; a tree
  whose ``read_out`` still formed V U itself (before ``read_out`` took the
  caller's site amplitudes) counts that product in this stage, so a pair
  against such a tree compares this stage on different work;
* ``run``: that ``dissipative_transport_run``, end to end;
* ``closed``: ``dissipative_transport_run`` of the same chain and grid
  without the bath, after the bath stages, so that the heap it leaves cannot
  move their timings;
* ``superposed``: ``feynman.run_superposed_input`` with the switch at
  a = s // 2 on a clock of s + 2 sites (so each branch has s levels), its
  disorder drawn with the case's sigma and seed, and the case's tilt, bath
  and grid;
* ``superposed_closed``: the same switch without the bath;
* ``classical_closed``: ``feynman.run_classical_input`` of the upper branch
  of the same clock without the bath, with the switch at a = 9 (the cnot
  configs' entry), so that the sites past the gate, read to relative
  accuracy, span nearly the whole branch;
* ``write_csv``: ``series.write_csv`` of the run's columns with their sha256,
  the first write of the process (its tables loaded by ``csv_tables``);
* ``csv_cells``: ``write_csv`` of a 21 x 2001 table of standard normal
  doubles (the shape of the switch aggregate), warm from the write before
  it, as a CLI process writes its next table, in ns per cell;
* ``peak_scan``: ``runner.run_realization`` of a ``peak-scaling`` config at
  the same s, its own window 0 .. 1.5 s + 10 in steps of 0.05 (the clean
  chain: the case's disorder, tilt, bath and grid do not apply).

Beside each stage's time the worker records its minor page faults
(``ru_minflt``), summed over the calls for ``read_out``. Each case also
records ``kept``: the modes and sites of the reach (``lindblad._reach``)
that the bath run (``bath``) and the closed run (``closed``) take, read off
the two runs' own calls, on this tree. Both weight their rows by
``lindblad._moment_weight`` of the sites; the closed run also reads its
region, the last site, to relative accuracy, so its reach holds the bath
run's and may exceed it.
Each stage is imported by name, so a rename raises ``ImportError`` instead of
dropping the stage; the base tree, the parent commit, has every one. With
``--base PATH`` every pair runs this tree and the tree at PATH back to back,
alternating which goes first; the JSON records, per stage, each side's runs,
median and quartiles of the time and of the page faults, the pairs this tree
won on time and those it took fewer faults in (ties count for neither). The
machine is recorded beside them.

    python bench/stages.py --out BENCH.json --base ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

TRANSPORT = {"sigma": 0.5, "g": 2.0, "beta": 1.0, "zeta": 0.05, "seed": 0, "dt": 1.0}
CHAINS = {
    "transport": TRANSPORT,
    "weak_tilt": {**TRANSPORT, "g": 0.5},
    "localized": {**TRANSPORT, "g": 0.0, "dt": 0.5},
}
CASES = (("transport", 100), ("transport", 400), ("transport", 800), ("weak_tilt", 400),
         ("localized", 200))
POINTS, PAIRS = 10001, 10
STAGES = ("csv_tables", "diagonalize", "expm", "populations", "read_out", "run", "closed",
          "superposed", "superposed_closed", "classical_closed", "write_csv", "csv_cells",
          "peak_scan")
CSV_SHAPE = (21, 2001)  # columns and rows of the csv_cells table
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TREE = Path(__file__).resolve().parents[1]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(chain: str, s: int, points: int) -> dict:
    """Seconds (csv_cells: ns per cell) and minor page faults per stage of one chain of ``CHAINS``."""
    from openchain import lindblad
    from openchain.chains import build_chain_hamiltonian, diagonalize, sample_disorder
    from openchain.config import ExperimentConfig
    from openchain.feynman import run_classical_input, run_superposed_input
    from openchain.lindblad import (
        _BLOCK_BYTES,
        _BLOCK_SQUARINGS,
        BathSpec,
        _population_blocks,
        _reach,
        dissipative_transport_run,
        population_generator,
        read_out,
        transition_rates,
    )
    from openchain.runner import _numeric_environment, run_realization
    from openchain.series import _tables, write_csv

    times, faults = {}, {}

    def timed(stage, run, *args):
        before, start = minor_faults(), time.perf_counter()
        out = run(*args)
        times[stage] = time.perf_counter() - start
        faults[stage] = minor_faults() - before
        return out

    timed("csv_tables", _tables)
    case = CHAINS[chain]
    bath, dt = BathSpec(case["beta"], case["zeta"]), case["dt"]
    t_max = dt * (points - 1)
    dissipative_transport_run(np.linspace(0.0, -1.0, 20), bath, 100.0, 1.0)  # warm numpy and BLAS
    energies = build_chain_hamiltonian(sample_disorder(s, case["sigma"], case["seed"]), case["g"])

    e, v = timed("diagonalize", diagonalize, energies)
    gen, p = population_generator(transition_rates(e, bath), bath), v[0] ** 2
    block = 1 << _BLOCK_SQUARINGS
    timed("expm", next, _population_blocks(gen, p, dt, block, block))
    width = max(block, _BLOCK_BYTES // (16 * s))
    timed("populations", lambda: [None for _ in _population_blocks(gen, p, dt, width, points)])

    spent, reaches = [0.0, 0], []

    def recorded_reach(*args):  # the counts of each reach a run takes: the bath run's, the closed's
        modes, sites = _reach(*args)
        reaches.append({"modes": int(modes.sum()), "sites": int(sites.sum())})
        return modes, sites

    def timed_read_out(*args, **kwargs):
        before, begin = minor_faults(), time.perf_counter()
        out = read_out(*args, **kwargs)
        spent[0] += time.perf_counter() - begin
        spent[1] += minor_faults() - before
        return out

    lindblad.read_out, lindblad._reach = timed_read_out, recorded_reach
    try:
        columns = timed("run", dissipative_transport_run, energies, bath, t_max, dt)
        lindblad.read_out = read_out
        timed("closed", dissipative_transport_run, energies, None, t_max, dt)
    finally:
        lindblad.read_out, lindblad._reach = read_out, _reach
    times["read_out"], faults["read_out"] = spent
    kept = dict(zip(("bath", "closed"), reaches))
    clock = sample_disorder(s + 2, case["sigma"], case["seed"])
    timed("superposed", run_superposed_input, s // 2, clock, case["g"], bath, t_max, dt)
    timed("superposed_closed", run_superposed_input, s // 2, clock, case["g"], None, t_max, dt)
    timed("classical_closed", run_classical_input, 9, clock, case["g"], None, "U", t_max, dt)

    rng = np.random.default_rng(0)
    table = {f"c{j}": rng.standard_normal(CSV_SHAPE[1]) for j in range(CSV_SHAPE[0])}
    with tempfile.TemporaryDirectory() as scratch:
        timed("write_csv", write_csv, Path(scratch) / "run.csv", columns)
        timed("csv_cells", write_csv, Path(scratch) / "cells.csv", table)
    times["csv_cells"] *= 1e9 / (CSV_SHAPE[0] * CSV_SHAPE[1])

    peak = ExperimentConfig(scenario="peak-scaling", s=s, sigma=0.0, g=0.0)
    timed("peak_scan", run_realization, peak, 0)
    return {"stages": times, "faults": faults, "kept": kept, "environment": _numeric_environment()}


def run_worker(tree: Path, chain: str, s: int, points: int) -> dict:
    """``measure(chain, s, points)`` in a fresh process on ``tree``'s ``src``."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, __file__, "--worker", chain, str(s), str(points)],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode:
        raise RuntimeError(f"worker on {tree} for {chain} at s={s} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def summary(runs: list[float]) -> dict:
    q25, median, q75 = np.percentile(runs, [25, 50, 75])
    return {"median": median, "q25": q25, "q75": q75, "runs": runs}


def compare(cases: list[tuple[str, int]], points: int, pairs: int, base: Path | None) -> dict:
    """Each case (chain, s) run ``pairs`` times per tree, alternating which tree goes first."""
    trees = {"change": TREE} if base is None else {"change": TREE, "base": base}
    report, environment = [], {}
    for chain, s in cases:
        runs = {side: [] for side in trees}
        for i in range(pairs):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for side in order:
                result = run_worker(trees[side], chain, s, points)
                runs[side].append(result)
                environment[side] = result["environment"]
                if side == "change":
                    kept = result["kept"]
        stages = {}
        for stage in STAGES:
            times = {side: [r["stages"][stage] for r in runs[side]] for side in trees}
            faults = {side: [r["faults"][stage] for r in runs[side]] for side in trees}
            entry = {side: {**summary(times[side]), "faults": summary(faults[side])}
                     for side in trees}
            if base is not None:
                entry["wins"] = sum(c < b for c, b in zip(times["change"], times["base"]))
                entry["fewer_faults"] = sum(c < b for c, b in zip(faults["change"], faults["base"]))
                entry["pairs"] = pairs
            stages[stage] = entry
        report.append({"chain": chain, "s": s, "kept": kept, "stages": stages})
    return {
        "chains": CHAINS,
        "points": points,
        "sides": list(trees),
        "cases": report,
        "machine": {
            "environment": environment,
            "platform": platform.platform(),
            "processor": platform.machine(),
            "blas_threads": SINGLE_THREAD,
        },
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--base", type=Path, help="a parent tree to pair against")
    parser.add_argument("--worker", nargs=3, metavar=("CHAIN", "S", "POINTS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        chain, s, points = args.worker
        print(json.dumps(measure(chain, int(s), int(points))))
        return
    if args.out is None:
        parser.error("--out is required")
    report = compare(CASES, POINTS, PAIRS, args.base and args.base.resolve())
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
