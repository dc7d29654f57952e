"""Rank-one kernel pipelines against the dense per-time-point references.

Every column must match its reference to 1e-12 * max(1, max|column|), with
NaN at the same positions, for several disorder seeds on a uniform grid and a
grid that starts after t = 0 (the initial exponential step). The kernel takes
uniform grids only: every pipeline must reject a non-uniform grid with
``ValueError``. ``read_out`` of random rows R must match R times the dense
oracle's site distribution, with and without a bath, on a grid that crosses a
cache-block edge. The closed chain, evaluated in cache-sized blocks of grid
columns, is checked against one complex product per 4096-column chunk, on a
grid of several blocks that ends in a partial one.

The kernel (two sqrt(T) phase tables, populations in blocks of 32 columns) is
held to the direct formula of ``support.direct_relax_energy_density`` at
s = 200, on grids whose last phase table and last population block are both
partial and whose last cache block is narrower than 32 columns (its
populations come from a slice of the carried ones), and on short grids of
1, 2 and 15 points; a grid with one perturbed point is rejected with the
other irregular grids. On the grid 0 .. 1e4 in steps of 0.1, whose float steps
differ by about 1e-12 beyond t = 4096, the kernel and the closed chain must match their references to
1e-10 * max(1, max|column|). At s = 400, where the kernel sets thousands of
subnormal entries of S^32 to zero, the populations must still match the direct
formula. Every pipeline's later cache blocks are the first block's table times
exp(d (t_start - t_0)): at s = 200, over 31 blocks, the first and last column
of each must match dense ``eigh`` (closed chain), the direct formula (with a
bath, where the shift carries the decay) or the dense states of both switch
branches and their cross block (the superposed switch, with and without a
bath) to the same 1e-10. Every pipeline reads out one cache block at a time,
populations included: at s = 200 on 5001 columns the traced peak allocation of
the bath pipelines and of the superposed switch (which walks the blocks of
both branches side by side) stays below a counted number of blocks plus the
O(T) series and, for the switch, its (T, 4, 4) register stack.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from support import (
    _dense_states,
    chunked_unitary_columns,
    closed_series,
    direct_relax_energy_density,
    dense_classical_columns,
    dense_superposed_columns,
    dense_transport_columns,
    evolve_pure,
    relax_energy_density,
)

from openchain import lindblad
from openchain.chains import (
    ChainSpec,
    build_chain_hamiltonian,
    diagonalize,
    free_eigensystem,
    sample_disorder,
)
from openchain.feynman import build_cnot_layout, run_classical_input, run_superposed_input
from openchain.config import _scan_t_max, load_config
from openchain.lindblad import (
    BathSpec,
    arrival_peak,
    dissipative_transport_run,
    read_out,
)

GRIDS = {
    "uniform": np.linspace(0.0, 400.0, 81),
    "nonuniform": np.concatenate([[0.0], np.cumsum(np.geomspace(0.05, 40.0, 40))]),
    "late-start": np.linspace(30.0, 330.0, 61),
}
SEEDS = (0, 1, 2)
BATHS = {"bath": BathSpec(beta=1.0, zeta=0.05), "closed": None}


def assert_columns_match(got: dict, expected: dict, rtol: float = 1e-12) -> None:
    for name, ref in expected.items():
        new = np.asarray(got[name], dtype=float)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(new), nan), f"{name}: NaN positions differ"
        scale = max(1.0, np.max(np.abs(ref[~nan]), initial=0.0))
        worst = np.max(np.abs(new[~nan] - ref[~nan]), initial=0.0)
        assert worst <= rtol * scale, f"{name}: max deviation {worst:.3e} (scale {scale:.3g})"


def check_pipeline(grid: str, run, reference) -> None:
    """``run`` rejects the non-uniform grid and matches ``reference`` on the others."""
    if grid == "nonuniform":
        with pytest.raises(ValueError, match="uniform"):
            run(GRIDS[grid])
    else:
        assert_columns_match(run(GRIDS[grid]), reference(GRIDS[grid]))


@pytest.mark.parametrize("grid", ["uniform", "late-start"])  # "nonuniform": rejection test below
@pytest.mark.parametrize("seed", SEEDS)
def test_dissipative_transport_run(grid, seed):
    h = build_chain_hamiltonian(ChainSpec(14, 0.5, 2.0, seed=seed))
    psi0 = np.eye(14)[0]
    check_pipeline(
        grid,
        lambda t: dissipative_transport_run(h, BATHS["bath"], t),
        lambda t: dense_transport_columns(h, BATHS["bath"], psi0, t),
    )


@pytest.mark.parametrize("grid", ["uniform", "late-start"])  # "nonuniform": rejection test below
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
@pytest.mark.parametrize("branch", ["U", "D"])
def test_run_classical_input(branch, bath, seed, grid):
    layout = build_cnot_layout(16, 4)
    disorder = sample_disorder(ChainSpec(16, 0.5, 0.0, seed))
    check_pipeline(
        grid,
        lambda t: run_classical_input(layout, disorder, 2.0, BATHS[bath], branch, t),
        lambda t: dense_classical_columns(layout, disorder, 2.0, BATHS[bath], branch, t),
    )


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
def test_run_superposed_input(bath, seed, grid):
    layout = build_cnot_layout(16, 4)
    disorder = sample_disorder(ChainSpec(16, 0.5, 0.0, seed))
    check_pipeline(
        grid,
        lambda t: run_superposed_input(layout, disorder, 2.0, BATHS[bath], t)[0],
        lambda t: dense_superposed_columns(layout, disorder, 2.0, BATHS[bath], t),
    )


#: closed-chain grids: several kernel blocks of a 40-site chain plus a partial one
UNITARY_GRIDS = {
    "blocks": np.linspace(0.0, 2000.0, 4001),
    "nonuniform": np.concatenate([[0.0], np.cumsum(np.geomspace(0.01, 5.0, 3500))]),
    "late-start": np.linspace(30.0, 330.0, 61),
}
REGIONS = {"last": [40], "several": [3, 17, 18, 19, 40], "none": []}


def test_unitary_grid_spans_blocks():
    step = lindblad._BLOCK_BYTES // (16 * 40)
    for name in ("blocks", "nonuniform"):
        size = UNITARY_GRIDS[name].size
        assert size > 2 * step and size % step, name


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("grid", ["blocks", "late-start"])  # "nonuniform": rejection test below
@pytest.mark.parametrize("seed", SEEDS)
def test_unitary_observable_series(seed, grid, region):
    eig = diagonalize(build_chain_hamiltonian(ChainSpec(40, 0.5, 0.3, seed=seed)))
    psi0 = np.eye(40)[0]
    sites = REGIONS[region]
    got = closed_series(eig, psi0, UNITARY_GRIDS[grid], sites)
    e, v = eig
    kernel = lindblad.energy_blocks(e, None, v.T @ psi0, UNITARY_GRIDS[grid])
    blocks = [read_out(v, np.eye(e.size), None, u) for *_, u in kernel]
    prob = np.concatenate(blocks, axis=1)
    region_idx = np.asarray(sites, dtype=int) - 1
    expected = chunked_unitary_columns(eig, psi0, UNITARY_GRIDS[grid], region_idx)
    assert got.keys() - {"t"} == expected.keys() - {"sites"}
    for j in range(40):
        got[f"site{j + 1}"] = prob[j]
        expected[f"site{j + 1}"] = expected["sites"][:, j]
    del expected["sites"]
    assert_columns_match(got, expected)


@pytest.mark.parametrize("s", [10, 40, 200])
def test_arrival_peak(s):
    eig = free_eigensystem(s)
    times = np.linspace(0.0, 1.5 * s + 10, int(round((1.5 * s + 10) / 0.05)) + 1)
    last = chunked_unitary_columns(eig, np.eye(s)[0], times)["sites"][:, -1]
    t_star, p_star = arrival_peak(eig, 1.5 * s + 10)
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
    width = lindblad._BLOCK_BYTES // (16 * 200)  # cache-block columns at s = 200
    for grid in FAST_GRIDS.values():
        assert lindblad._grid_step(grid) == 1.0
        assert grid.size % (math.isqrt(grid.size - 1) + 1)
        assert grid.size % (1 << lindblad._BLOCK_SQUARINGS)
        # the last cache block is narrower than one population block: its
        # populations come from a slice of the carried columns
        assert grid.size > width and 0 < grid.size % width < 1 << lindblad._BLOCK_SQUARINGS
    with pytest.raises(ValueError, match="uniform"):
        lindblad._grid_step(PERTURBED)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_grids_are_uniform(config):
    cfg = load_config(config)
    t_max = cfg.t_max if cfg.t_max is not None else _scan_t_max(cfg.s)
    assert lindblad._grid_step(lindblad.time_grid(t_max, cfg.dt)) == pytest.approx(cfg.dt, rel=1e-9)


def kernel_columns(v, pops, amps, populations_too: bool) -> dict[str, np.ndarray]:
    """mean_Q, var_Q, the last-site probability and, if asked, each row of P (eigenvectors v)."""
    prob = read_out(v, np.eye(v.shape[0]), pops, amps)
    x = np.arange(1, v.shape[0] + 1)
    mean = x @ prob
    cols = {"mean_Q": mean, "var_Q": (x**2) @ prob - mean**2, "p_region": prob[-1]}
    if populations_too:
        cols.update({f"P{m}": row for m, row in enumerate(pops)})
    return cols


def relax_pair(bath: str, seed: int, times: np.ndarray, s: int = 200):
    """(kernel, direct formula) columns of one s-site chain from site 1 on ``times``."""
    spec = ChainSpec(s, 0.5, 2.0, seed) if bath == "bath" else ChainSpec(s, 0.5, 0.0, seed)
    e, v = diagonalize(build_chain_hamiltonian(spec))
    c = v[0].astype(complex)
    got = relax_energy_density(e, BATHS[bath], c, times)
    ref = direct_relax_energy_density(e, BATHS[bath], c, times)
    with_pops = bath == "bath"
    return kernel_columns(v, *got, with_pops), kernel_columns(v, *ref, with_pops)


@pytest.mark.parametrize("grid", FAST_GRIDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
def test_uniform_path_matches_direct_formula(bath, seed, grid):
    assert_columns_match(*relax_pair(bath, seed, FAST_GRIDS[grid]))


def test_flushed_block_step_matches_direct_formula():
    # at s = 400 thousands of entries of S^32 are subnormal; the kernel sets
    # them to zero, and its populations must still hold the direct formula's
    e, _ = diagonalize(build_chain_hamiltonian(ChainSpec(400, 0.5, 2.0, 0)))
    gen = lindblad.population_generator(lindblad.transition_rates(e, BATHS["bath"]), BATHS["bath"])
    step = np.linalg.matrix_power(expm(gen * lindblad._grid_step(FAST_GRIDS["uniform"])), 32)
    assert np.count_nonzero((step != 0) & (np.abs(step) < np.finfo(float).tiny)) > 1000
    assert_columns_match(*relax_pair("bath", 0, FAST_GRIDS["uniform"], s=400))


#: grids shorter than one population block of 32 columns, some starting late
SHORT_GRIDS = {
    "one-point": np.array([0.0]),
    "two-points": np.array([0.0, 7.5]),
    "fifteen-points": np.linspace(0.0, 140.0, 15),
    "late-point": np.array([30.0]),
    "late-two-points": np.array([30.0, 37.5]),
}


@pytest.mark.parametrize("grid", SHORT_GRIDS)
@pytest.mark.parametrize("bath", BATHS)
def test_short_grids_match_direct_formula(bath, grid):
    assert_columns_match(*relax_pair(bath, 0, SHORT_GRIDS[grid]))


IRREGULAR_GRIDS = {
    "empty": np.array([]),
    "nonuniform": GRIDS["nonuniform"],
    "decreasing": np.linspace(400.0, 0.0, 81),
    "repeated": np.array([0.0, 1.0, 1.0, 2.0]),
    "constant": np.zeros(3),
    "negative-start": np.linspace(-100.0, 0.0, 11),
    "perturbed": PERTURBED,
}


@pytest.mark.parametrize("grid", IRREGULAR_GRIDS)
@pytest.mark.parametrize("bath", BATHS)
def test_relax_energy_density_rejects_irregular_grids(bath, grid):
    # the helper drains lindblad.energy_blocks, which raises at its first block
    e, v = free_eigensystem(8)
    with pytest.raises(ValueError, match="uniform"):
        relax_energy_density(e, BATHS[bath], v[0], IRREGULAR_GRIDS[grid])


@pytest.mark.parametrize("grid", [*IRREGULAR_GRIDS, "nonuniform-blocks"])
@pytest.mark.parametrize("bath", BATHS)
def test_pure_state_series_rejects_irregular_grids(bath, grid):
    # the read-out of all three chain pipelines; the last grid spans several
    # cache blocks of a 40-level chain and ends in a partial one
    eig = free_eigensystem(40)
    times = UNITARY_GRIDS["nonuniform"] if grid == "nonuniform-blocks" else IRREGULAR_GRIDS[grid]
    with pytest.raises(ValueError, match="uniform"):
        lindblad.pure_state_series(
            eig, BATHS[bath], eig[1][0], times, np.arange(1, 41), np.array([39])
        )


@pytest.mark.parametrize("grid", IRREGULAR_GRIDS)
@pytest.mark.parametrize("bath", BATHS)
def test_dissipative_transport_run_rejects_irregular_grids(bath, grid):
    h = build_chain_hamiltonian(ChainSpec(14, 0.5, 2.0, seed=0))
    with pytest.raises(ValueError, match="uniform"):
        dissipative_transport_run(h, BATHS[bath], IRREGULAR_GRIDS[grid])


@pytest.mark.parametrize("grid", IRREGULAR_GRIDS)
@pytest.mark.parametrize("bath", BATHS)
def test_run_classical_input_rejects_irregular_grids(bath, grid):
    layout = build_cnot_layout(16, 4)
    disorder = sample_disorder(ChainSpec(16, 0.5, 0.0, 0))
    with pytest.raises(ValueError, match="uniform"):
        run_classical_input(layout, disorder, 2.0, BATHS[bath], "U", IRREGULAR_GRIDS[grid])


@pytest.mark.parametrize("grid", IRREGULAR_GRIDS)
@pytest.mark.parametrize("bath", BATHS)
def test_run_superposed_input_rejects_irregular_grids(bath, grid):
    layout = build_cnot_layout(16, 4)
    disorder = sample_disorder(ChainSpec(16, 0.5, 0.0, 0))
    with pytest.raises(ValueError, match="uniform"):
        run_superposed_input(layout, disorder, 2.0, BATHS[bath], IRREGULAR_GRIDS[grid])


@pytest.mark.parametrize("bath", BATHS)
def test_read_out_matches_dense_site_distribution(bath):
    # k = 5 random rows R against R times the diagonal of V rho V^T of the dense
    # per-time-point states, on a grid of a 20-level chain that runs 40 columns
    # past the first cache block
    e, v = diagonalize(build_chain_hamiltonian(ChainSpec(20, 0.5, 2.0, seed=0)))
    c = v[0]
    size = lindblad._BLOCK_BYTES // (16 * 20) + 40
    times = np.linspace(0.0, 0.5 * (size - 1), size)
    rows = np.random.default_rng(0).standard_normal((5, 20))
    kernel = lindblad.energy_blocks(e, BATHS[bath], c, times)
    got = np.concatenate([lindblad.read_out(v, rows, p, u) for _, p, u in kernel], axis=1)
    states = _dense_states(e, BATHS[bath], np.outer(c, c), times)
    prob = np.array([np.diagonal(v @ rho @ v.T).real for rho in states]).T
    assert_columns_match(dict(enumerate(got)), dict(enumerate(rows @ prob)))


#: beyond t = 4096 linspace rounds each 0.1 step to the float spacing 2**-40,
#: so consecutive steps differ by about 1e-12
LONG_GRID = lindblad.time_grid(10000.0, 0.1)
#: (grid, step) uniform up to float rounding. The times of 9000 + 1e-5 i lie up
#: to 1.8e-12 (the float spacing at 9000) off the line through the end points,
#: far beyond 1e-9 of a step.
ROUNDED_GRIDS = {
    "linspace": (LONG_GRID, 0.1),
    "arange": (9000.0 + 1e-5 * np.arange(101), 1e-5),
}


@pytest.mark.parametrize("grid", ROUNDED_GRIDS)
def test_grid_step_allows_float_rounding(grid):
    times, step = ROUNDED_GRIDS[grid]
    assert lindblad._grid_step(times) == pytest.approx(step, rel=1e-9)


#: at t = 1e4 a phase e t carries a rounding of about eps |e| t ~ 1e-12, and the
#: populations take 3125 blocked products; 1e-10 bounds both
LONG_RTOL = 1e-10


@pytest.mark.parametrize("bath", BATHS)
def test_long_grid_matches_direct_formula(bath):
    spec = ChainSpec(12, 0.5, 2.0, 0) if bath == "bath" else ChainSpec(12, 0.5, 0.0, 0)
    e, v = diagonalize(build_chain_hamiltonian(spec))
    c = v[0].astype(complex)
    pops, amps = relax_energy_density(e, BATHS[bath], c, LONG_GRID)
    cols = slice(None, None, 997)  # the direct formula on every 997th time
    if pops is not None:
        pops = pops[:, cols]
    ref = direct_relax_energy_density(e, BATHS[bath], c, LONG_GRID[cols])
    with_pops = bath == "bath"
    got = kernel_columns(v, pops, amps[:, cols], with_pops)
    assert_columns_match(got, kernel_columns(v, *ref, with_pops), LONG_RTOL)


def test_unitary_observable_series_long_grid():
    eig = diagonalize(build_chain_hamiltonian(ChainSpec(12, 0.5, 0.0, seed=0)))
    psi0 = np.eye(12)[0]
    series = closed_series(eig, psi0, LONG_GRID, [12])
    expected = chunked_unitary_columns(eig, psi0, LONG_GRID, np.array([11]))
    del expected["sites"]
    assert_columns_match(series, expected, LONG_RTOL)


def block_edges(times: np.ndarray, dim: int) -> np.ndarray:
    """First and last column of every cache block of a ``dim``-level kernel on ``times``."""
    step = lindblad._BLOCK_BYTES // (16 * dim)
    starts = np.arange(0, times.size, step)
    assert starts.size == 31 and times.size % step  # many blocks, the last one partial
    return np.unique(np.concatenate([starts, np.minimum(starts + step, times.size) - 1]))


def test_unitary_block_boundaries_match_dense_oracle():
    # s = 200 on 0 .. 5000 in steps of 0.5: 31 cache blocks, the last one partial.
    # Every later block is the first block's table times a phase shift, so its
    # first and last columns are held to dense eigh of the full matrix.
    h = build_chain_hamiltonian(ChainSpec(200, 0.5, 0.0, seed=0))
    psi0 = np.eye(200)[0]
    times = lindblad.time_grid(5000.0, 0.5)
    edges = block_edges(times, 200)
    series = dissipative_transport_run(h, None, times)
    x = np.arange(1, 201)
    prob = np.array([np.abs(evolve_pure(h, psi0, t)) ** 2 for t in times[edges]]).T
    mean = x @ prob
    expected = {"mean_Q": mean, "var_Q": (x**2) @ prob - mean**2, "p_region": prob[-1]}
    got = {name: col[edges] for name, col in series.items()}
    assert_columns_match(got, expected, LONG_RTOL)


def test_bath_block_boundaries_match_direct_formula():
    # With a bath each later block is the first block's table times
    # exp(d (t_start - t_0)), d = -i e - zeta G / 2: the shift must carry the
    # decay as well as the phase. s = 200 on 0 .. 5000 in steps of 0.5 spans 31
    # blocks; the first and last column of each is held to the direct formula.
    h = build_chain_hamiltonian(ChainSpec(200, 0.5, 2.0, seed=0))
    e, v = diagonalize(h)
    times = lindblad.time_grid(5000.0, 0.5)
    edges = block_edges(times, 200)
    bath = BATHS["bath"]
    series = dissipative_transport_run(h, bath, times)
    ref = direct_relax_energy_density(e, bath, v[0], times[edges])
    got = {name: col[edges] for name, col in series.items() if name != "t"}
    assert_columns_match(got, kernel_columns(v, *ref, populations_too=False), LONG_RTOL)


@pytest.mark.parametrize("bath", BATHS)
def test_superposed_block_boundaries_match_dense_oracle(bath):
    # Both branches of an s = 200 switch have n = 198 levels, so their cache
    # blocks span the same columns: 0 .. 5000 in steps of 0.5 is 31 blocks,
    # the last one partial. The first and last column of each block is held
    # to the dense per-time-point states of both branches and the cross block.
    layout = build_cnot_layout(200, 9)
    disorder = sample_disorder(ChainSpec(200, 0.5, 0.0, 0))
    times = lindblad.time_grid(5000.0, 0.5)
    edges = block_edges(times, layout.path_length)
    series, _ = run_superposed_input(layout, disorder, 2.0, BATHS[bath], times)
    got = {name: col[edges] for name, col in series.items() if name != "t"}
    expected = dense_superposed_columns(layout, disorder, 2.0, BATHS[bath], times[edges])
    assert_columns_match(got, expected, LONG_RTOL)


def traced_peak(run) -> int:
    """Peak bytes allocated while ``run()`` executes, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pipeline", ["transport", "classical"])
def test_bath_read_out_memory(pipeline):
    # The bath pipelines hold one cache block of populations, amplitudes and
    # read-out at a time, never a whole-grid array. At the peak, while V U is
    # squared into the site distribution, they hold in units of _BLOCK_BYTES
    # (one complex n x width array): the first-block phase table and the U
    # block (2), V U and the float site distribution (1.5; the correction's
    # two float temporaries come after both are freed), the P block read out
    # and, while the next is filled, the one before (1), and the n x n
    # eigenvector, rate, generator, S^32 and V*V matrices (1.5: five of 0.3 at
    # n = 200); one is margin. On top come the O(T) series: the grid and the
    # columns that each block fills in. The whole-grid populations peaked at
    # 12.5 MiB here.
    times = lindblad.time_grid(5000.0, 1.0)
    bath = BATHS["bath"]
    if pipeline == "transport":
        h = build_chain_hamiltonian(ChainSpec(200, 0.5, 2.0, seed=0))
        peak = traced_peak(lambda: dissipative_transport_run(h, bath, times))
    else:
        layout = build_cnot_layout(200, 9)
        disorder = sample_disorder(ChainSpec(200, 0.5, 0.0, 0))
        peak = traced_peak(lambda: run_classical_input(layout, disorder, 2.0, bath, "U", times))
    series = 7 * times.size * np.dtype(float).itemsize
    bound = series + 7 * lindblad._BLOCK_BYTES
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


@pytest.mark.parametrize("bath", BATHS)
def test_superposed_read_out_memory(bath):
    # The superposed switch walks both branches' blocks side by side. Across
    # blocks it holds the (T, 4, 4) register stack and six O(T) series (the
    # grid and five columns). At its peak one block pair holds, in units of
    # _BLOCK_BYTES (one complex n x width array): the first-block phase tables
    # of both branches (2), their U blocks (2) and their V U (2), plus either
    # the float site distribution and its square inside a read-out or the
    # conjugate of the lower V U while the cross diagonal is formed (1). The
    # read-outs themselves are k x width with k <= 32. One covers both
    # eigenvector matrices and is margin. A bath adds each branch's P block
    # and, while the next is filled, the one before (2), and both branches'
    # rate, generator and S^32 matrices (1: six of 0.3 at n = 198); the bath
    # correction's temporaries (1) come after the site distribution is freed.
    # Measured: 7.9 blocks without the bath and 11.0 with it; holding the
    # (columns, n) site arrays, their masked copies and the cross diagonal's
    # row selection took 10.9 and 13.4. The whole-grid populations peaked at
    # 28.4 MiB with the bath.
    times = lindblad.time_grid(5000.0, 1.0)
    layout = build_cnot_layout(200, 9)
    disorder = sample_disorder(ChainSpec(200, 0.5, 0.0, 0))
    peak = traced_peak(lambda: run_superposed_input(layout, disorder, 2.0, BATHS[bath], times))
    series = 6 * times.size * np.dtype(float).itemsize
    register = times.size * 16 * np.dtype(complex).itemsize
    blocks = 9 if BATHS[bath] is None else 12
    bound = series + register + blocks * lindblad._BLOCK_BYTES
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
