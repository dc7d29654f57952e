"""Scenario runner: seeded ensembles, parallel sweeps, CSV/JSON emission.

Reproducibility contract: the per-realization seed for realization ``r`` is
derived from the master seed by the splitting rule

    seed_r = SeedSequence(master, spawn_key=(r,)).generate_state(1)[0]

which is independent of execution order, so outputs are byte-identical across
runs and across worker counts. CSV bytes are reproducible for a given numeric
stack and BLAS thread count, both of which the manifest's ``environment``
records: the read-out's matrix products round differently on one BLAS thread
and on two. Sweeps reuse the same realization seeds for every parameter value
(common random numbers).
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

import numpy.random  # noqa: F401  (numpy loads it at the first seed; no import inside a run)

from . import __version__
from .chains import build_chain_hamiltonian, free_end_weights, sample_disorder
from .config import (
    SCENARIOS, SWEEPABLE, ConfigError, ExperimentConfig, _scan_t_max, range_violations,
)
from .feynman import run_classical_input, run_superposed_input
from .lindblad import BathSpec, arrival_peak, dissipative_transport_run
from .series import write_csv


def realization_seed(master: int, r: int) -> int:
    """Documented, order-independent seed-splitting rule."""
    ss = np.random.SeedSequence(master, spawn_key=(r,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_realization(config: ExperimentConfig, seed: int) -> dict[str, np.ndarray]:
    """One realization of a scenario -> named columns. Pure; safe to parallelize."""
    scenario = config.scenario
    if scenario == "peak-scaling":
        t_max = config.t_max if config.t_max is not None else _scan_t_max(config.s)
        t_star, p_star = arrival_peak(*free_end_weights(config.s), t_max, config.dt)
        return {"t_star": np.array([t_star]), "p_star": np.array([p_star])}

    bath = BathSpec(config.beta, config.zeta) if config.has_bath() else None
    disorder = sample_disorder(config.s, config.sigma, seed)
    if scenario == "cnot-classical":
        return run_classical_input(
            config.a, disorder, config.g, bath, config.branch, config.t_max, config.dt
        )
    if scenario == "cnot-superposed":
        return run_superposed_input(config.a, disorder, config.g, bath, config.t_max, config.dt)[0]
    if scenario in SCENARIOS:  # the four chain scenarios; a config gives only one of them a bath
        energies = build_chain_hamiltonian(disorder, config.g)
        return dissipative_transport_run(energies, bath, config.t_max, config.dt)
    raise ValueError(f"unknown scenario {scenario!r}")


def _run_jobs(
    jobs: list[tuple[ExperimentConfig, int]], workers: int
) -> list[dict[str, np.ndarray]]:
    """Every (config, seed) job, in order: one pool of at most one process per job, or serial."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run loads no pool
        configs, seeds = zip(*jobs)
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(run_realization, configs, seeds))
    return [run_realization(config, seed) for config, seed in jobs]


def _ensemble_seeds(config: ExperimentConfig) -> list[int]:
    return [realization_seed(config.seed, r) for r in range(config.ensemble_size)]


def _require_finite(name: str, columns: dict[str, np.ndarray]) -> None:
    """Reject non-finite values; only ``bell_fidelity`` columns may hold NaN."""
    for column, values in columns.items():
        bad = ~np.isfinite(values)
        if column.startswith("bell_fidelity"):
            bad &= ~np.isnan(values)
        if bad.any():
            raise FloatingPointError(
                f"{name}: column {column!r} holds {np.count_nonzero(bad)} non-finite values"
            )


def _quartiles(stack: np.ndarray) -> list[np.ndarray]:
    """``np.quantile(stack, (0.25, 0.5, 0.75), axis=0)`` bit for bit, without its numpy.ma import.

    ``stack`` is partitioned in place at numpy's own indices, so that a tie of
    -0.0 and 0.0 falls as in numpy; a column holding NaN gets NaN.
    """
    n = len(stack)
    if n == 1:
        return [stack[0]] * 3  # as numpy: a lone -0.0 stays -0.0
    picks = [(math.floor(v), v - math.floor(v)) for v in ((n - 1) * q for q in (0.25, 0.5, 0.75))]
    stack.partition(sorted({0, -1, *(i for lo, _ in picks for i in (lo, lo + 1))}), axis=0)
    nan = np.isnan(stack[-1])
    quartiles = []
    for lo, g in picks:
        a, b = stack[lo], stack[lo + 1]
        values = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
        values[nan] = np.nan
        quartiles.append(values)
    return quartiles


def aggregate_columns(results: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Pointwise mean and quartiles of every column across realizations.

    The time column (if present) must be identical in all realizations and is
    passed through unchanged.
    """
    first = results[0]
    out: dict[str, np.ndarray] = {}
    for name in first:
        if name == "t":
            if not all(np.array_equal(r["t"], first["t"]) for r in results):
                raise ValueError("realizations disagree on the time grid")
            out["t"] = first["t"]
            continue
        stack = np.stack([r[name] for r in results])
        out[f"{name}_mean"] = stack.mean(axis=0)
        for tag, values in zip(("q25", "q50", "q75"), _quartiles(stack)):
            out[f"{name}_{tag}"] = values
    return out


def _blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS; None where its library or symbol is absent."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else []:
        # a name test, not a glob: pathlib's first glob in a process takes about 4 ms
        if name.startswith("libscipy_openblas64_") and name.endswith(".so"):
            try:
                threads = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_num_threads64_
            except (OSError, AttributeError):
                return None
            return int(threads())
    return None


def _numeric_environment() -> dict:
    """Python, numpy and BLAS versions, BLAS threads and CPU count: the stack behind the bytes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its build config
        blas = {}
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def _disorder_provenance(config: ExperimentConfig, seeds: list[int]) -> list[list[float]] | None:
    if config.sigma == 0 or config.scenario == "peak-scaling":
        return None
    return [sample_disorder(config.s, config.sigma, sd).tolist() for sd in seeds]


def _write_outputs(
    config: ExperimentConfig, tables: dict[str, dict[str, np.ndarray]], started: float,
    settings: dict, seeds: list[int], disorder: list[list[float]] | None = None,
) -> dict:
    """Write each table as a CSV in ``config.output``, then the manifest beside them; return it.

    The manifest (``manifest.json``) holds everything needed to reproduce the
    run bit-exactly, plus the output digests. CSV bytes are reproducible for a
    given numeric stack and BLAS thread count, which ``environment`` records.
    The callers have passed every table through :func:`_require_finite`.
    """
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {name: write_csv(out_dir / name, cols) for name, cols in tables.items()}
    manifest = {
        "config": settings,
        "version": __version__,
        "master_seed": config.seed,
        "realization_seeds": seeds,
        "wall_clock_s": time.perf_counter() - started,
        "outputs": outputs,
        "disorder": disorder,
        "environment": _numeric_environment(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def run_scenario(config: ExperimentConfig, workers: int = 1) -> dict:
    """Run an ensemble: one CSV per realization, an aggregate CSV, a JSON manifest (returned).

    A non-finite value other than ``bell_fidelity``'s NaN raises
    ``FloatingPointError`` before any CSV is written.
    """
    started = time.perf_counter()
    seeds = _ensemble_seeds(config)
    results = _run_jobs([(config, seed) for seed in seeds], workers)
    tables = {f"{config.scenario}_r{r:03d}.csv": cols for r, cols in enumerate(results)}
    for name, cols in tables.items():
        _require_finite(name, cols)  # before aggregating: quantiles of mixed infinities warn
    aggregate = f"{config.scenario}_aggregate.csv"
    tables[aggregate] = aggregate_columns(results)
    _require_finite(aggregate, tables[aggregate])
    disorder = _disorder_provenance(config, seeds)
    return _write_outputs(config, tables, started, dataclasses.asdict(config), seeds, disorder)


def sweep(
    config: ExperimentConfig,
    vary: str,
    values: list[float],
    workers: int = 1,
) -> dict:
    """One aggregate row per parameter value.

    For ``peak-scaling`` a row holds the ensemble mean of (t_star, p_star);
    for time-series scenarios it holds the ensemble mean of each column at the
    final grid time. Realization seeds are shared across values. With
    ``workers > 1`` every (value, realization) job goes to one process pool.
    A non-finite parameter value raises ``ValueError``, and a value that puts
    the config out of range (:func:`openchain.config.range_violations`) raises
    ``ConfigError``, before any job runs; non-finite outputs are rejected, and
    the manifest returned, as in :func:`run_scenario`.
    """
    if vary not in SWEEPABLE:
        raise ValueError(f"parameter {vary!r} is not sweepable; choose from {SWEEPABLE}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if vary in ("beta", "zeta") and not config.has_bath():
        raise ValueError(f"cannot sweep {vary!r}: the config has no bath section")
    if not all(math.isfinite(value) for value in values):
        raise ValueError(f"sweep values must be finite, got {list(values)}")
    if vary == "s" and not all(float(value).is_integer() for value in values):
        raise ValueError(f"chain size s takes whole numbers, got {list(values)}")
    casts = [int(value) if vary == "s" else float(value) for value in values]
    swept = [dataclasses.replace(config, **{vary: cast}) for cast in casts]
    found = [range_violations(c) for c in swept]
    if any(found):
        rejected = [cast for cast, lines in zip(casts, found) if lines]
        rules = dict.fromkeys(line for lines in found for line in lines)  # each rule once
        raise ConfigError([f"{vary} = {rejected} is out of range:", *rules])
    started = time.perf_counter()
    seeds = _ensemble_seeds(config)
    jobs = [(c, seed) for c in swept for seed in seeds]
    results = _run_jobs(jobs, workers)
    rows: list[dict[str, float]] = []
    for i, cast in enumerate(casts):
        ensemble = results[i * len(seeds) : (i + 1) * len(seeds)]
        row: dict[str, float] = {vary: cast}
        for name in ensemble[0]:
            if name != "t":
                row[name] = float(np.mean([r[name][-1] for r in ensemble]))
        rows.append(row)
    table = {k: np.array([row[k] for row in rows]) for k in rows[0]}
    settings = {**dataclasses.asdict(config), "vary": vary, "values": list(values)}
    name = f"{config.scenario}_sweep_{vary}.csv"
    _require_finite(name, table)
    return _write_outputs(config, {name: table}, started, settings, seeds)
