"""Rank-one kernel pipelines against the dense per-time-point references.

Every column must match its reference to 1e-12 * max(1, max|column|), with
NaN at the same positions, for several disorder seeds on a uniform grid, a
non-uniform grid (one exponential step per distinct step size) and a grid
that starts after t = 0 (the initial exponential step).
"""

import numpy as np
import pytest
from support import (
    dense_classical_columns,
    dense_superposed_columns,
    dense_transport_columns,
)

from openchain.chains import ChainSpec, build_chain_hamiltonian, sample_disorder
from openchain.feynman import build_cnot_layout, run_classical_input, run_superposed_input
from openchain.lindblad import BathSpec, dissipative_transport_run
from openchain.unitary import PureState

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
