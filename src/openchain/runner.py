"""Scenario runner: seeded ensembles, parallel sweeps, CSV/JSON emission.

Reproducibility contract: the per-realization seed for realization ``r`` is
derived from the master seed by the splitting rule

    seed_r = SeedSequence(master, spawn_key=(r,)).generate_state(1)[0]

which is independent of execution order, so outputs are byte-identical across
runs and across worker counts. Sweeps reuse the same realization seeds for
every parameter value (common random numbers).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chains import ChainSpec, build_chain_hamiltonian, diagonalize, free_eigensystem, sample_disorder
from .config import SWEEPABLE, ExperimentConfig
from .feynman import build_cnot_layout, run_classical_input, run_superposed_input
from .lindblad import BathSpec, dissipative_transport_run
from .series import write_csv
from .unitary import PureState, arrival_peak, unitary_observable_series

UNITARY_CHAIN_SCENARIOS = {"ballistic", "localized", "bloch"}


def realization_seed(master: int, *key: int) -> int:
    """Documented, order-independent seed-splitting rule."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def time_grid(t_max: float, dt: float) -> np.ndarray:
    return np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)


def run_realization(config: ExperimentConfig, seed: int) -> dict[str, np.ndarray]:
    """One realization of a scenario -> named columns. Pure; safe to parallelize."""
    scenario = config.scenario
    if scenario == "peak-scaling":
        t_max = config.t_max if config.t_max is not None else 1.5 * config.s + 10.0
        eig = free_eigensystem(config.s)
        t_star, p_star = arrival_peak(eig, PureState.site(config.s, 1), t_max, config.dt)
        return {"t_star": np.array([t_star]), "p_star": np.array([p_star])}

    grid = time_grid(config.t_max, config.dt)
    if scenario in UNITARY_CHAIN_SCENARIOS:
        spec = ChainSpec(config.s, config.sigma, config.g, seed)
        eig = diagonalize(build_chain_hamiltonian(spec))
        series = unitary_observable_series(
            eig, PureState.site(config.s, 1), grid, region={config.s}
        )
        return series.columns()
    if scenario == "dissipative-transport":
        spec = ChainSpec(config.s, config.sigma, config.g, seed)
        h = build_chain_hamiltonian(spec)
        bath = BathSpec(config.beta, config.zeta)
        psi0 = PureState.site(config.s, 1).amplitudes
        series = dissipative_transport_run(h, bath, psi0, grid, region={config.s})
        return series.columns()
    if scenario == "cnot-classical":
        layout = build_cnot_layout(config.s, config.a)
        disorder = sample_disorder(ChainSpec(config.s, config.sigma, 0.0, seed))
        bath = BathSpec(config.beta, config.zeta) if config.has_bath() else None
        series = run_classical_input(layout, disorder, config.g, bath, config.branch, grid)
        return series.columns(p_label="p_beyond_gate")
    if scenario == "cnot-superposed":
        layout = build_cnot_layout(config.s, config.a)
        disorder = sample_disorder(ChainSpec(config.s, config.sigma, 0.0, seed))
        bath = BathSpec(config.beta, config.zeta) if config.has_bath() else None
        series = run_superposed_input(layout, disorder, config.g, bath, grid)
        return series.columns()
    raise ValueError(f"unknown scenario {scenario!r}")


def _run_star(args: tuple[ExperimentConfig, int]) -> dict[str, np.ndarray]:
    return run_realization(*args)


def _run_jobs(
    jobs: list[tuple[ExperimentConfig, int]], workers: int
) -> list[dict[str, np.ndarray]]:
    """Every (config, seed) job, in order: one process pool for all, or serial."""
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_star, jobs))
    return [_run_star(job) for job in jobs]


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


def aggregate_columns(results: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Pointwise mean and quartiles of every column across realizations.

    The time column (if present) must be identical in all realizations and is
    passed through unchanged.
    """
    first = results[0]
    out: dict[str, np.ndarray] = {}
    for name in first:
        stack = np.stack([r[name] for r in results])
        if name == "t":
            if np.any(stack != stack[0]):
                raise ValueError("realizations disagree on the time grid")
            out["t"] = first["t"]
            continue
        out[f"{name}_mean"] = stack.mean(axis=0)
        for q, tag in ((0.25, "q25"), (0.5, "q50"), (0.75, "q75")):
            out[f"{name}_{tag}"] = np.quantile(stack, q, axis=0)
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly, plus output digests."""

    config: dict
    version: str
    master_seed: int
    realization_seeds: list[int]
    wall_clock_s: float
    outputs: dict[str, str]
    disorder: list[list[float]] | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    def write(self, path: Path) -> None:
        path.write_text(self.to_json() + "\n")


def _disorder_provenance(config: ExperimentConfig, seeds: list[int]) -> list[list[float]] | None:
    if config.sigma == 0 or config.scenario == "peak-scaling":
        return None
    return [
        [float(e) for e in sample_disorder(ChainSpec(config.s, config.sigma, 0.0, sd)).epsilons]
        for sd in seeds
    ]


def run_scenario(config: ExperimentConfig, workers: int = 1) -> RunManifest:
    """Run an ensemble: one CSV per realization, an aggregate CSV, a JSON manifest.

    A non-finite value other than ``bell_fidelity``'s NaN raises
    ``FloatingPointError`` before any CSV is written.
    """
    started = time.perf_counter()
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = _ensemble_seeds(config)
    results = _run_jobs([(config, seed) for seed in seeds], workers)
    tables = {f"{config.scenario}_r{r:03d}.csv": cols for r, cols in enumerate(results)}
    for name, cols in tables.items():
        _require_finite(name, cols)
    agg_name = f"{config.scenario}_aggregate.csv"
    tables[agg_name] = aggregate_columns(results)
    _require_finite(agg_name, tables[agg_name])
    outputs: dict[str, str] = {}
    for name, cols in tables.items():
        write_csv(out_dir / name, cols)
        outputs[name] = _sha256(out_dir / name)
    manifest = RunManifest(
        config=config.to_dict(),
        version=__version__,
        master_seed=config.seed,
        realization_seeds=seeds,
        wall_clock_s=time.perf_counter() - started,
        outputs=outputs,
        disorder=_disorder_provenance(config, seeds),
    )
    manifest.write(out_dir / "manifest.json")
    return manifest


def sweep(
    config: ExperimentConfig,
    vary: str,
    values: list[float],
    workers: int = 1,
) -> RunManifest:
    """One aggregate row per parameter value.

    For ``peak-scaling`` a row holds the ensemble mean of (t_star, p_star);
    for time-series scenarios it holds the ensemble mean of each column at the
    final grid time. Realization seeds are shared across values. With
    ``workers > 1`` every (value, realization) job goes to one process pool.
    Non-finite values are rejected as in :func:`run_scenario`.
    """
    if vary not in SWEEPABLE:
        raise ValueError(f"parameter {vary!r} is not sweepable; choose from {SWEEPABLE}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if vary in ("beta", "zeta") and not config.has_bath():
        raise ValueError(f"cannot sweep {vary!r}: the config has no bath section")
    if vary in ("sigma", "g") and config.scenario == "peak-scaling":
        raise ValueError(f"cannot sweep {vary!r}: peak-scaling uses the clean chain")
    started = time.perf_counter()
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    casts = [int(value) if vary == "s" else float(value) for value in values]
    seeds = _ensemble_seeds(config)
    jobs = [(dataclasses.replace(config, **{vary: cast}), seed) for cast in casts for seed in seeds]
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
    name = f"{config.scenario}_sweep_{vary}.csv"
    _require_finite(name, table)
    write_csv(out_dir / name, table)
    manifest = RunManifest(
        config={**config.to_dict(), "vary": vary, "values": list(values)},
        version=__version__,
        master_seed=config.seed,
        realization_seeds=seeds,
        wall_clock_s=time.perf_counter() - started,
        outputs={name: _sha256(out_dir / name)},
    )
    manifest.write(out_dir / "manifest.json")
    return manifest
