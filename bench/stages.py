"""Stage timings of the bath and closed chains and the peak scan at large s, against a parent.

The case is the chain of the ``transport`` scenario grown in size: sigma = 0.5,
g = 2, beta = 1, zeta = 0.05, disorder seed 0, dt = 1 and T = 10001 grid
points, from site 1, at s = 100, 400 and 800, ten runs of each tree. Each
measurement runs in a fresh process that imports ``openchain`` from one
tree's ``src`` with one BLAS thread, and times these stages:

* ``diagonalize``: ``chains.diagonalize`` of the chain;
* ``expm``: S = ``lindblad.expm(A dt)`` and its five squarings to S^32, timed as
  the first block of ``lindblad._population_blocks`` at width 32 (it adds 31
  matrix-vector steps);
* ``populations``: the whole drain of ``_population_blocks`` at the run's
  block width, the ``expm`` stage included;
* ``read_out``: the summed calls of ``lindblad.read_out`` inside one
  ``dissipative_transport_run``;
* ``run``: that ``dissipative_transport_run``, end to end;
* ``write_csv``: ``series.write_csv`` of the run's columns with their sha256,
  cold, as each CLI process pays it once (the formatter's tables included);
* ``closed``: ``dissipative_transport_run`` of the same chain and grid
  without the bath;
* ``peak_scan``: ``runner.run_realization`` of a ``peak-scaling`` config at
  the same s, its own window 0 .. 1.5 s + 10 in steps of 0.05 (the clean
  chain: the case's disorder, tilt, bath and grid do not apply).

Each case also records ``kept``: the modes and sites of the bath run's
coherent term (``lindblad._reach``), counted on this tree; a parent tree from
before that cut records none. Each stage is imported by name, so a rename
raises ``ImportError`` instead of dropping the stage. With ``--base PATH`` every pair runs this tree and the
tree at PATH back to back, alternating which goes first; the JSON records,
per stage, each side's runs, median and quartiles, and the pairs this tree
won (ties count for neither). The machine is recorded beside them.

    python bench/stages.py --out BENCH.json --base ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CASE = {"sigma": 0.5, "g": 2.0, "beta": 1.0, "zeta": 0.05, "seed": 0, "dt": 1.0}
SIZES, POINTS, PAIRS = (100, 400, 800), 10001, 10
STAGES = ("diagonalize", "expm", "populations", "read_out", "run", "write_csv", "closed",
          "peak_scan")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TREE = Path(__file__).resolve().parents[1]


def measure(s: int, points: int) -> dict:
    """Seconds per stage of one bath chain of s sites on ``points`` grid points."""
    from openchain import lindblad
    from openchain.chains import build_chain_hamiltonian, diagonalize, sample_disorder
    from openchain.config import ExperimentConfig
    from openchain.lindblad import (
        _BLOCK_BYTES,
        _BLOCK_SQUARINGS,
        BathSpec,
        _population_blocks,
        dissipative_transport_run,
        population_generator,
        read_out,
        transition_rates,
    )
    from openchain.runner import _numeric_environment, run_realization
    from openchain.series import write_csv

    try:
        from openchain.lindblad import _reach
    except ImportError:  # a tree from before the reach cut
        _reach = None

    bath, dt = BathSpec(CASE["beta"], CASE["zeta"]), CASE["dt"]
    t_max = dt * (points - 1)
    dissipative_transport_run(np.linspace(0.0, -1.0, 20), bath, 100.0, 1.0)  # warm numpy and BLAS
    energies = build_chain_hamiltonian(sample_disorder(s, CASE["sigma"], CASE["seed"]), CASE["g"])
    times = {}

    start = time.perf_counter()
    e, v = diagonalize(energies)
    times["diagonalize"] = time.perf_counter() - start
    kept = None
    if _reach is not None:
        modes, sites = _reach(v, v[0], bath)
        kept = {"modes": int(modes.sum()), "sites": int(sites.sum())}

    gen, p = population_generator(transition_rates(e, bath), bath), v[0] ** 2
    block = 1 << _BLOCK_SQUARINGS
    start = time.perf_counter()
    next(_population_blocks(gen, p, dt, block, block))
    times["expm"] = time.perf_counter() - start

    width = max(block, _BLOCK_BYTES // (16 * s))
    start = time.perf_counter()
    for _ in _population_blocks(gen, p, dt, width, points):
        pass
    times["populations"] = time.perf_counter() - start

    spent = [0.0]

    def timed_read_out(*args, **kwargs):
        begin = time.perf_counter()
        out = read_out(*args, **kwargs)
        spent[0] += time.perf_counter() - begin
        return out

    lindblad.read_out = timed_read_out
    try:
        start = time.perf_counter()
        columns = dissipative_transport_run(energies, bath, t_max, dt)
        times["run"] = time.perf_counter() - start
    finally:
        lindblad.read_out = read_out
    times["read_out"] = spent[0]

    with tempfile.TemporaryDirectory() as scratch:
        start = time.perf_counter()
        write_csv(Path(scratch) / "run.csv", columns)
        times["write_csv"] = time.perf_counter() - start

    start = time.perf_counter()
    dissipative_transport_run(energies, None, t_max, dt)
    times["closed"] = time.perf_counter() - start

    peak = ExperimentConfig(scenario="peak-scaling", s=s, sigma=0.0, g=0.0)
    start = time.perf_counter()
    run_realization(peak, 0)
    times["peak_scan"] = time.perf_counter() - start
    return {"stages": times, "kept": kept, "environment": _numeric_environment()}


def run_worker(tree: Path, s: int, points: int) -> dict:
    """``measure(s, points)`` in a fresh process on ``tree``'s ``src``."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(s), str(points)],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode:
        raise RuntimeError(f"worker on {tree} at s={s} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def summary(runs: list[float]) -> dict:
    q25, median, q75 = np.percentile(runs, [25, 50, 75])
    return {"median": median, "q25": q25, "q75": q75, "runs": runs}


def compare(sizes: list[int], points: int, pairs: int, base: Path | None) -> dict:
    trees = {"change": TREE} if base is None else {"change": TREE, "base": base}
    cases, environment = [], {}
    for s in sizes:
        runs = {side: [] for side in trees}
        for i in range(pairs):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for side in order:
                result = run_worker(trees[side], s, points)
                runs[side].append(result["stages"])
                environment[side] = result["environment"]
                if side == "change":
                    kept = result["kept"]
        stages = {}
        for stage in STAGES:
            times = {side: [r[stage] for r in runs[side]] for side in trees}
            entry = {side: summary(times[side]) for side in trees}
            if base is not None:
                entry["wins"] = sum(c < b for c, b in zip(times["change"], times["base"]))
                entry["pairs"] = pairs
            stages[stage] = entry
        cases.append({"s": s, "kept": kept, "stages": stages})
    return {
        "case": {**CASE, "points": points},
        "sides": list(trees),
        "cases": cases,
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
    parser.add_argument("--worker", type=int, nargs=2, metavar=("S", "POINTS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(*args.worker)))
        return
    if args.out is None:
        parser.error("--out is required")
    report = compare(SIZES, POINTS, PAIRS, args.base and args.base.resolve())
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
