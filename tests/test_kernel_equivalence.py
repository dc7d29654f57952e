"""Rank-one kernel pipelines against the dense per-time-point references.

Every column must match its reference to 1e-12 * max(1, max|column|), with
NaN at the same positions, for several disorder seeds on a uniform grid, a
non-uniform grid (one exponential step per distinct step size) and a grid
that starts after t = 0 (the initial exponential step). The closed chain,
evaluated in cache-sized blocks of grid columns, is checked against one
complex product per 4096-column chunk, on a grid of several blocks that ends
in a partial one.

The kernel's uniform-grid path (two sqrt(T) phase tables, populations in
blocks of 32 columns) is held to the direct formula of
``support.direct_relax_energy_density`` at s = 200, on grids whose last phase
table and last population block are both partial; a grid with one perturbed
point takes the general path and must match too.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from support import (
    chunked_unitary_columns,
    direct_relax_energy_density,
    dense_classical_columns,
    dense_superposed_columns,
    dense_transport_columns,
)

from openchain import lindblad, unitary
from openchain.chains import (
    ChainSpec,
    build_chain_hamiltonian,
    diagonalize,
    free_eigensystem,
    sample_disorder,
)
from openchain.feynman import build_cnot_layout, run_classical_input, run_superposed_input
from openchain.config import load_config
from openchain.lindblad import BathSpec, dissipative_transport_run, site_distribution
from openchain.runner import time_grid
from openchain.unitary import PureState, arrival_peak, unitary_observable_series

GRIDS = {
    "uniform": np.linspace(0.0, 400.0, 81),
    "nonuniform": np.concatenate([[0.0], np.cumsum(np.geomspace(0.05, 40.0, 40))]),
    "late-start": np.linspace(30.0, 330.0, 61),
}
SEEDS = (0, 1, 2)
BATHS = {"bath": BathSpec(beta=1.0, zeta=0.05), "closed": None}


def assert_columns_match(got: dict, expected: dict) -> None:
    for name, ref in expected.items():
        new = np.asarray(got[name], dtype=float)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(new), nan), f"{name}: NaN positions differ"
        scale = max(1.0, np.max(np.abs(ref[~nan]), initial=0.0))
        worst = np.max(np.abs(new[~nan] - ref[~nan]), initial=0.0)
        assert worst <= 1e-12 * scale, f"{name}: max deviation {worst:.3e} (scale {scale:.3g})"


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_dissipative_transport_run(grid, seed):
    h = build_chain_hamiltonian(ChainSpec(14, 0.5, 2.0, seed=seed))
    psi0 = PureState.site(14, 1).amplitudes
    series = dissipative_transport_run(h, BATHS["bath"], psi0, GRIDS[grid])
    expected = dense_transport_columns(h, BATHS["bath"], psi0, GRIDS[grid])
    assert_columns_match(series.columns(), expected)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
@pytest.mark.parametrize("branch", ["U", "D"])
def test_run_classical_input(branch, bath, seed, grid):
    layout = build_cnot_layout(16, 4)
    disorder = sample_disorder(ChainSpec(16, 0.5, 0.0, seed))
    series = run_classical_input(layout, disorder, 2.0, BATHS[bath], branch, GRIDS[grid])
    expected = dense_classical_columns(layout, disorder, 2.0, BATHS[bath], branch, GRIDS[grid])
    assert_columns_match(series.columns(), expected)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
def test_run_superposed_input(bath, seed, grid):
    layout = build_cnot_layout(16, 4)
    disorder = sample_disorder(ChainSpec(16, 0.5, 0.0, seed))
    series = run_superposed_input(layout, disorder, 2.0, BATHS[bath], GRIDS[grid])
    expected = dense_superposed_columns(layout, disorder, 2.0, BATHS[bath], GRIDS[grid])
    assert_columns_match(series.columns(), expected)


#: closed-chain grids: several kernel blocks of a 40-site chain plus a partial one
UNITARY_GRIDS = {
    "blocks": np.linspace(0.0, 2000.0, 4001),
    "nonuniform": np.concatenate([[0.0], np.cumsum(np.geomspace(0.01, 5.0, 3500))]),
    "late-start": np.linspace(30.0, 330.0, 61),
}
REGIONS = {"last": [40], "several": [3, 17, 18, 19, 40], "none": None}


def test_unitary_grid_spans_blocks():
    step = unitary._BLOCK_BYTES // (16 * 40)
    for name in ("blocks", "nonuniform"):
        size = UNITARY_GRIDS[name].size
        assert size > 2 * step and size % step, name


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("grid", UNITARY_GRIDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_unitary_observable_series(seed, grid, region):
    eig = diagonalize(build_chain_hamiltonian(ChainSpec(40, 0.5, 0.3, seed=seed)))
    psi0 = PureState.site(40, 1)
    sites = REGIONS[region]
    series = unitary_observable_series(eig, psi0, UNITARY_GRIDS[grid], sites)
    blocks = [prob for _, prob in unitary._site_blocks(eig, psi0, UNITARY_GRIDS[grid])]
    prob = np.concatenate(blocks, axis=1)
    region_idx = None if sites is None else np.asarray(sites) - 1
    expected = chunked_unitary_columns(eig, psi0.amplitudes, UNITARY_GRIDS[grid], region_idx)
    got = series.columns()
    assert got.keys() - {"t"} == expected.keys() - {"sites"}
    for j in range(40):
        got[f"site{j + 1}"] = prob[j]
        expected[f"site{j + 1}"] = expected["sites"][:, j]
    del expected["sites"]
    assert_columns_match(got, expected)


@pytest.mark.parametrize("s", [10, 40, 200])
def test_arrival_peak(s):
    eig = free_eigensystem(s)
    psi0 = PureState.site(s, 1)
    times = np.linspace(0.0, 1.5 * s + 10, int(round((1.5 * s + 10) / 0.05)) + 1)
    last = chunked_unitary_columns(eig, psi0.amplitudes, times)["sites"][:, -1]
    t_star, p_star = arrival_peak(eig, psi0, 1.5 * s + 10)
    assert t_star == times[np.argmax(last)]
    assert abs(p_star - last.max()) <= 1e-12


#: uniform grids of 1001 columns: 31 full phase tables of b = 32 plus 9 columns,
#: and likewise 31 full population blocks of 32 plus 9 columns
FAST_GRIDS = {
    "uniform": np.linspace(0.0, 1000.0, 1001),
    "late-start": np.linspace(30.0, 1030.0, 1001),
}
PERTURBED = FAST_GRIDS["uniform"].copy()
PERTURBED[500] += 1e-3
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


def test_fast_grids_end_in_partial_blocks():
    for grid in FAST_GRIDS.values():
        assert lindblad._uniform_step(grid) == 1.0
        assert grid.size % (math.isqrt(grid.size - 1) + 1)
        assert grid.size % (1 << lindblad._BLOCK_SQUARINGS)
    assert lindblad._uniform_step(PERTURBED) is None


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_grids_are_uniform(config):
    cfg = load_config(config)
    t_max = cfg.t_max if cfg.t_max is not None else 1.5 * cfg.s + 10.0
    assert lindblad._uniform_step(time_grid(t_max, cfg.dt)) is not None


def kernel_columns(eig, pops, amps, populations_too: bool) -> dict[str, np.ndarray]:
    """mean_Q, var_Q, the last-site probability and, if asked, each row of P."""
    prob = site_distribution(eig.eigenvectors, pops, amps)
    x = np.arange(1, eig.dim + 1)
    mean = x @ prob
    cols = {"mean_Q": mean, "var_Q": (x**2) @ prob - mean**2, "p_region": prob[-1]}
    if populations_too:
        cols.update({f"P{m}": row for m, row in enumerate(pops)})
    return cols


@pytest.mark.parametrize("grid", [*FAST_GRIDS, "perturbed"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
def test_uniform_path_matches_direct_formula(bath, seed, grid):
    times = PERTURBED if grid == "perturbed" else FAST_GRIDS[grid]
    spec = ChainSpec(200, 0.5, 2.0, seed) if bath == "bath" else ChainSpec(200, 0.5, 0.0, seed)
    eig = diagonalize(build_chain_hamiltonian(spec))
    c = eig.eigenvectors[0].astype(complex)
    got = lindblad.relax_energy_density(eig.eigenvalues, BATHS[bath], c, times)
    ref = direct_relax_energy_density(eig.eigenvalues, BATHS[bath], c, times)
    with_pops = bath == "bath"
    assert_columns_match(kernel_columns(eig, *got, with_pops), kernel_columns(eig, *ref, with_pops))
