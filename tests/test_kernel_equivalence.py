"""Rank-one kernel pipelines against the dense per-time-point references.

Every run takes its time axis as (t_max, dt) and builds ``time_grid(t_max,
dt)``. Every column must match its reference to 1e-12 * max(1, max|column|),
with NaN at the same positions, for several disorder seeds, in the kernel's
own cache blocks ("uniform") and in blocks narrowed to 32 columns, so that
every block but the first starts late ("late-start"). ``time_grid`` is the one
check on a time axis: it and every pipeline raise ``ValueError`` for a
non-finite or non-positive t_max or dt, or a t_max that is not a whole number
>= 1 of dt steps; each run's ``t`` column is that grid bit for bit.
``read_out`` of random rows R must match R times the dense oracle's site
distribution, with and without a bath, on a grid that crosses a cache-block
edge, and with a bath on a grid whose second block holds the cut past which
read_out drops the coherences (||u||^2 < 2^-70); past both branches' cuts the
superposed switch must match the dense oracle, with diagonal register states
whose entropy equals ``von_neumann_entropy`` within 1e-15. The closed chain,
evaluated in cache-sized blocks of grid columns, is checked against one
complex product per 4096-column chunk, on a grid of several blocks that ends
in a partial one.

The kernel (two sqrt(T) phase tables, populations in blocks of 32 columns) is
held to the direct formula of ``support.direct_relax_energy_density`` at
s = 200, on grids whose last phase table and last population block are both
partial and whose last cache block is narrower than 32 columns (its
populations come from a slice of the carried ones), and on short grids of 2,
6 and 15 points. On the grid 0 .. 1e4 in steps of 0.1, whose float steps
differ by about 1e-12 beyond t = 4096, the kernel and the closed chain must
match their references to 1e-10 * max(1, max|column|). At s = 400, where the
kernel sets thousands of subnormal entries of S^32 to zero, the populations
must still match the direct formula. Every pipeline's later cache blocks are
the first block's table times exp(d t_start): at s = 200, over 31 blocks, the
first and last column of each must match dense ``eigh`` (closed chain), the
direct formula (with a bath, where the shift carries the decay) or the dense
states of both switch branches and their cross block (the superposed switch,
with and without a bath) to the same 1e-10. Every pipeline reads out one cache
block at a time, populations included: at s = 200 on 5001 columns the traced
peak allocation of the bath pipelines and of the superposed switch (which
walks the blocks of both branches side by side) stays below a counted number
of blocks plus the O(T) series and, for the switch, its (T, 4, 4) register
stack.
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
    build_chain_hamiltonian,
    diagonalize,
    free_eigensystem,
    sample_disorder,
)
from openchain.feynman import (
    build_branch,
    run_classical_input,
    run_superposed_input,
    von_neumann_entropy,
)
from openchain.config import _scan_t_max, load_config
from openchain.lindblad import (
    BathSpec,
    arrival_peak,
    dissipative_transport_run,
    read_out,
    time_grid,
)

#: the grid of the pipeline equivalence tests: 0 .. 400 in 80 steps
GRID = (400.0, 5.0)
SEEDS = (0, 1, 2)
BATHS = {"bath": BathSpec(beta=1.0, zeta=0.05), "closed": None}
#: time axes from which no uniform grid can be built, each named after the
#: irregular grid it would describe
IRREGULAR = {
    "empty": (0.0, 1.0),  # no time span
    "nonuniform": (10.0, 3.0),  # the last step would be 1, not 3
    "decreasing": (-400.0, -5.0),
    "repeated": (10.0, 0.0),  # steps of zero
    "constant": (0.0, 0.0),
    "negative-start": (-100.0, 10.0),  # a grid running to negative times
    "perturbed": (1000.001, 1.0),  # a thousandth of a step past a whole number
}
#: every run's time axis is checked by time_grid, which names the rule it breaks
REJECTED = "whole number >= 1 of dt steps"


def assert_columns_match(got: dict, expected: dict, rtol: float = 1e-12) -> None:
    for name, ref in expected.items():
        new = np.asarray(got[name], dtype=float)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(new), nan), f"{name}: NaN positions differ"
        scale = max(1.0, np.max(np.abs(ref[~nan]), initial=0.0))
        worst = np.max(np.abs(new[~nan] - ref[~nan]), initial=0.0)
        assert worst <= rtol * scale, f"{name}: max deviation {worst:.3e} (scale {scale:.3g})"


def narrow_blocks(grid: str, monkeypatch) -> None:
    """"late-start": cache blocks of B = 32 columns, so every block but the first starts late.

    Such a block is the first block's phase table times exp(d t_start), and
    its populations start from the last 32 columns of the block before.
    """
    if grid == "late-start":
        monkeypatch.setattr(lindblad, "_BLOCK_BYTES", 1)  # width max(32, 1 // (16 n)) = 32


def check_pipeline(grid: str, run, reference, monkeypatch) -> None:
    """``run(t_max, dt)`` rejects the non-uniform axis and matches ``reference`` on ``GRID``."""
    if grid == "nonuniform":
        with pytest.raises(ValueError, match=REJECTED):
            run(*IRREGULAR["nonuniform"])
        return
    narrow_blocks(grid, monkeypatch)
    assert_columns_match(run(*GRID), reference(time_grid(*GRID)))


@pytest.mark.parametrize("grid", ["uniform", "late-start"])
@pytest.mark.parametrize("seed", SEEDS)
def test_dissipative_transport_run(grid, seed, monkeypatch):
    h = build_chain_hamiltonian(sample_disorder(14, 0.5, seed), 2.0)
    psi0 = np.eye(14)[0]
    check_pipeline(
        grid,
        lambda *axis: dissipative_transport_run(h, BATHS["bath"], *axis),
        lambda t: dense_transport_columns(h, BATHS["bath"], psi0, t),
        monkeypatch,
    )


@pytest.mark.parametrize("grid", ["uniform", "late-start"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
@pytest.mark.parametrize("branch", ["U", "D"])
def test_run_classical_input(branch, bath, seed, grid, monkeypatch):
    disorder = sample_disorder(16, 0.5, seed)
    check_pipeline(
        grid,
        lambda *axis: run_classical_input(4, disorder, 2.0, BATHS[bath], branch, *axis),
        lambda t: dense_classical_columns(4, disorder, 2.0, BATHS[bath], branch, t),
        monkeypatch,
    )


@pytest.mark.parametrize("grid", ["uniform", "nonuniform", "late-start"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
def test_run_superposed_input(bath, seed, grid, monkeypatch):
    disorder = sample_disorder(16, 0.5, seed)
    check_pipeline(
        grid,
        lambda *axis: run_superposed_input(4, disorder, 2.0, BATHS[bath], *axis)[0],
        lambda t: dense_superposed_columns(4, disorder, 2.0, BATHS[bath], t),
        monkeypatch,
    )


def test_time_axis_is_time_grid():
    # every run's t column is time_grid(t_max, dt) bit for bit, here on a grid
    # of inexact step, and the column slices of energy_blocks cover each grid
    # column once, in order, when the last cache block is partial
    t_max, dt = 500.0, 0.1
    times = time_grid(t_max, dt)
    e, v = free_eigensystem(40)
    width = lindblad._BLOCK_BYTES // (16 * 40)
    assert times.size > width and times.size % width
    for bath in BATHS.values():
        slices = [cols for cols, *_ in lindblad.energy_blocks(e, bath, v[0], t_max, dt)]
        covered = np.concatenate([np.arange(times.size)[cols] for cols in slices])
        assert np.array_equal(covered, np.arange(times.size))
    disorder = sample_disorder(16, 0.5, 0)
    runs = [
        lindblad.pure_state_series((e, v), None, v[0], t_max, dt, np.arange(40), np.array([39])),
        dissipative_transport_run(np.zeros(40), BATHS["bath"], t_max, dt),
        run_classical_input(4, disorder, 2.0, None, "U", t_max, dt),
        run_superposed_input(4, disorder, 2.0, BATHS["bath"], t_max, dt)[0],
    ]
    for columns in runs:
        assert np.array_equal(columns["t"], times)
    assert arrival_peak((e, v), t_max, dt)[0] in times


#: closed-chain grid: several kernel blocks of a 40-site chain plus a partial one
BLOCKS = (2000.0, 0.5)
REGIONS = {"last": [40], "several": [3, 17, 18, 19, 40], "none": []}


def test_unitary_grid_spans_blocks():
    step = lindblad._BLOCK_BYTES // (16 * 40)
    size = time_grid(*BLOCKS).size
    assert size > 2 * step and size % step


@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("grid", ["blocks", "late-start"])
@pytest.mark.parametrize("seed", SEEDS)
def test_unitary_observable_series(seed, grid, region, monkeypatch):
    narrow_blocks(grid, monkeypatch)
    eig = diagonalize(build_chain_hamiltonian(sample_disorder(40, 0.5, seed), 0.3))
    psi0 = np.eye(40)[0]
    sites = REGIONS[region]
    got = closed_series(eig, psi0, *BLOCKS, sites)
    e, v = eig
    kernel = lindblad.energy_blocks(e, None, v.T @ psi0, *BLOCKS)
    blocks = [read_out(v, np.eye(e.size), None, u) for *_, u in kernel]
    prob = np.concatenate(blocks, axis=1)
    region_idx = np.asarray(sites, dtype=int) - 1
    expected = chunked_unitary_columns(eig, psi0, time_grid(*BLOCKS), region_idx)
    assert got.keys() - {"t"} == expected.keys() - {"sites"}
    for j in range(40):
        got[f"site{j + 1}"] = prob[j]
        expected[f"site{j + 1}"] = expected["sites"][:, j]
    del expected["sites"]
    assert_columns_match(got, expected)


@pytest.mark.parametrize("s", [10, 40, 200])
def test_arrival_peak(s):
    eig = free_eigensystem(s)
    times = time_grid(1.5 * s + 10, 0.05)
    last = chunked_unitary_columns(eig, np.eye(s)[0], times)["sites"][:, -1]
    t_star, p_star = arrival_peak(eig, 1.5 * s + 10, 0.05)
    assert t_star == times[np.argmax(last)]
    assert abs(p_star - last.max()) <= 1e-12


#: 1001 columns: 31 full phase tables of b = 32 plus 9 columns, and likewise
#: 31 full population blocks of 32 plus 9 columns
FAST_GRID = (1000.0, 1.0)
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


def test_fast_grids_end_in_partial_blocks():
    width = lindblad._BLOCK_BYTES // (16 * 200)  # cache-block columns at s = 200
    size = time_grid(*FAST_GRID).size
    assert size % (math.isqrt(size - 1) + 1)
    assert size % (1 << lindblad._BLOCK_SQUARINGS)
    # the last cache block is narrower than one population block: its
    # populations come from a slice of the carried columns
    assert size > width and 0 < size % width < 1 << lindblad._BLOCK_SQUARINGS


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_grids_are_uniform(config):
    cfg = load_config(config)
    t_max = cfg.t_max if cfg.t_max is not None else _scan_t_max(cfg.s)
    times = time_grid(t_max, cfg.dt)
    assert times[0] == 0.0 and times[-1] == t_max
    assert np.diff(times) == pytest.approx(np.full(times.size - 1, cfg.dt), rel=1e-9)


def kernel_columns(v, pops, amps, populations_too: bool) -> dict[str, np.ndarray]:
    """mean_Q, var_Q, the last-site probability and, if asked, each row of P (eigenvectors v)."""
    prob = read_out(v, np.eye(v.shape[0]), pops, amps)
    x = np.arange(1, v.shape[0] + 1)
    mean = x @ prob
    cols = {"mean_Q": mean, "var_Q": (x**2) @ prob - mean**2, "p_region": prob[-1]}
    if populations_too:
        cols.update({f"P{m}": row for m, row in enumerate(pops)})
    return cols


def relax_pair(bath: str, seed: int, t_max: float, dt: float, s: int = 200):
    """(kernel, direct formula) columns of an s-site chain from site 1 on time_grid(t_max, dt)."""
    g = 2.0 if bath == "bath" else 0.0
    e, v = diagonalize(build_chain_hamiltonian(sample_disorder(s, 0.5, seed), g))
    c = v[0].astype(complex)
    got = relax_energy_density(e, BATHS[bath], c, t_max, dt)
    ref = direct_relax_energy_density(e, BATHS[bath], c, time_grid(t_max, dt))
    with_pops = bath == "bath"
    return kernel_columns(v, *got, with_pops), kernel_columns(v, *ref, with_pops)


@pytest.mark.parametrize("grid", ["uniform", "late-start"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bath", BATHS)
def test_uniform_path_matches_direct_formula(bath, seed, grid, monkeypatch):
    narrow_blocks(grid, monkeypatch)
    assert_columns_match(*relax_pair(bath, seed, *FAST_GRID))


def test_flushed_block_step_matches_direct_formula():
    # at s = 400 thousands of entries of S^32 are subnormal; the kernel sets
    # them to zero, and its populations must still hold the direct formula's
    e, _ = diagonalize(build_chain_hamiltonian(sample_disorder(400, 0.5, 0), 2.0))
    gen = lindblad.population_generator(lindblad.transition_rates(e, BATHS["bath"]), BATHS["bath"])
    step = np.linalg.matrix_power(expm(gen * FAST_GRID[1]), 32)
    assert np.count_nonzero((step != 0) & (np.abs(step) < np.finfo(float).tiny)) > 1000
    assert_columns_match(*relax_pair("bath", 0, *FAST_GRID, s=400))


#: grids shorter than one population block of 32 columns; the late ones reach
#: t = 30 in one step, and t = 30 and 37.5 in steps of 7.5
SHORT_GRIDS = {
    "two-points": (7.5, 7.5),
    "fifteen-points": (140.0, 10.0),
    "late-point": (30.0, 30.0),
    "late-two-points": (37.5, 7.5),
}


@pytest.mark.parametrize("grid", SHORT_GRIDS)
@pytest.mark.parametrize("bath", BATHS)
def test_short_grids_match_direct_formula(bath, grid):
    assert_columns_match(*relax_pair(bath, 0, *SHORT_GRIDS[grid]))


#: non-finite values, and a step count beyond float range, which time_grid
#: rejects like the irregular axes
INVALID_VALUES = {
    "t_max-inf": (math.inf, 1.0),
    "dt-inf": (10.0, math.inf),
    "t_max-nan": (math.nan, 1.0),
    "dt-nan": (10.0, math.nan),
    "steps-overflow": (1e300, 1e-300),
}


@pytest.mark.parametrize("axis", [*IRREGULAR, *INVALID_VALUES])
def test_time_grid_rejects_invalid_axes(axis):
    t_max, dt = {**IRREGULAR, **INVALID_VALUES}[axis]
    with pytest.raises(ValueError, match=REJECTED):
        time_grid(t_max, dt)
    with pytest.raises(ValueError, match=REJECTED):
        arrival_peak(free_eigensystem(4), t_max, dt)


@pytest.mark.parametrize("grid", IRREGULAR)
@pytest.mark.parametrize("bath", BATHS)
def test_relax_energy_density_rejects_irregular_grids(bath, grid):
    # the helper drains lindblad.energy_blocks, which raises at its first block
    e, v = free_eigensystem(8)
    with pytest.raises(ValueError, match=REJECTED):
        relax_energy_density(e, BATHS[bath], v[0], *IRREGULAR[grid])


@pytest.mark.parametrize("grid", [*IRREGULAR, "nonuniform-blocks"])
@pytest.mark.parametrize("bath", BATHS)
def test_pure_state_series_rejects_irregular_grids(bath, grid):
    # the read-out of all three chain pipelines; the last axis would span
    # several cache blocks of a 40-level chain and end half a step short
    eig = free_eigensystem(40)
    t_max, dt = (4000.5, 1.0) if grid == "nonuniform-blocks" else IRREGULAR[grid]
    with pytest.raises(ValueError, match=REJECTED):
        lindblad.pure_state_series(
            eig, BATHS[bath], eig[1][0], t_max, dt, np.arange(1, 41), np.array([39])
        )


@pytest.mark.parametrize("grid", IRREGULAR)
@pytest.mark.parametrize("bath", BATHS)
def test_dissipative_transport_run_rejects_irregular_grids(bath, grid):
    h = build_chain_hamiltonian(sample_disorder(14, 0.5, 0), 2.0)
    with pytest.raises(ValueError, match=REJECTED):
        dissipative_transport_run(h, BATHS[bath], *IRREGULAR[grid])


@pytest.mark.parametrize("grid", IRREGULAR)
@pytest.mark.parametrize("bath", BATHS)
def test_run_classical_input_rejects_irregular_grids(bath, grid):
    disorder = sample_disorder(16, 0.5, 0)
    with pytest.raises(ValueError, match=REJECTED):
        run_classical_input(4, disorder, 2.0, BATHS[bath], "U", *IRREGULAR[grid])


@pytest.mark.parametrize("grid", IRREGULAR)
@pytest.mark.parametrize("bath", BATHS)
def test_run_superposed_input_rejects_irregular_grids(bath, grid):
    disorder = sample_disorder(16, 0.5, 0)
    with pytest.raises(ValueError, match=REJECTED):
        run_superposed_input(4, disorder, 2.0, BATHS[bath], *IRREGULAR[grid])


@pytest.mark.parametrize("bath", BATHS)
def test_read_out_matches_dense_site_distribution(bath):
    # k = 5 random rows R against R times the diagonal of V rho V^T of the dense
    # per-time-point states, on a grid of a 20-level chain that runs 40 columns
    # past the first cache block
    e, v = diagonalize(build_chain_hamiltonian(sample_disorder(20, 0.5, 0), 2.0))
    c = v[0]
    size = lindblad._BLOCK_BYTES // (16 * 20) + 40
    t_max, dt = 0.5 * (size - 1), 0.5
    rows = np.random.default_rng(0).standard_normal((5, 20))
    kernel = lindblad.energy_blocks(e, BATHS[bath], c, t_max, dt)
    got = np.concatenate([lindblad.read_out(v, rows, p, u) for _, p, u in kernel], axis=1)
    states = _dense_states(e, BATHS[bath], np.outer(c, c), time_grid(t_max, dt))
    prob = np.array([np.diagonal(v @ rho @ v.T).real for rho in states]).T
    assert_columns_match(dict(enumerate(got)), dict(enumerate(rows @ prob)))


def test_read_out_matches_dense_site_distribution_past_the_cut():
    # the same check on a grid whose second cache block holds the bath's cut:
    # from the column where ||u||^2 < 2^-70 on, read_out adds no R |V U|^2,
    # and the dropped part must stay far inside the oracle's bound
    e, v = diagonalize(build_chain_hamiltonian(sample_disorder(20, 0.5, 0), 2.0))
    c, bath = v[0], BATHS["bath"]
    size = lindblad._BLOCK_BYTES // (16 * 20) + 1000
    t_max, dt = 0.25 * (size - 1), 0.25
    rows = np.random.default_rng(0).standard_normal((5, 20))
    kernel = list(lindblad.energy_blocks(e, bath, c, t_max, dt))
    got = np.concatenate([lindblad.read_out(v, rows, p, u) for _, p, u in kernel], axis=1)
    states = _dense_states(e, bath, np.outer(c, c), time_grid(t_max, dt))
    prob = np.array([np.diagonal(v @ rho @ v.T).real for rho in states]).T
    assert_columns_match(dict(enumerate(got)), dict(enumerate(rows @ prob)))
    widths = [u.shape[1] for *_, u in kernel]
    cuts = [lindblad._coherent_columns(u) for *_, u in kernel]
    assert cuts[0] == widths[0] and 0 < cuts[1] < widths[1]  # the cut lies inside block 2


def test_run_superposed_input_past_the_cut():
    # From the later of the two branches' cuts (||u||^2 < 2^-70) on, the
    # switch forms no cross diagonal: its register states are diagonal and
    # their entropy comes from the sorted diagonal, not an eigensolve. Those
    # columns are held to the dense oracle, and that entropy to
    # von_neumann_entropy of the same states within 1e-15.
    disorder = sample_disorder(16, 0.5, 0)
    bath, (t_max, dt) = BATHS["bath"], (1600.0, 2.0)
    cut = 0
    for branch in "UD":
        *_, (e, v) = build_branch(4, branch, disorder, 2.0)
        (_, _, u), = lindblad.energy_blocks(e, bath, v[0], t_max, dt)  # one cache block
        cut = max(cut, lindblad._coherent_columns(u))
    times = time_grid(t_max, dt)
    assert 0 < cut < times.size - 100
    series, register = run_superposed_input(4, disorder, 2.0, bath, t_max, dt)
    expected = dense_superposed_columns(4, disorder, 2.0, bath, times[cut:])
    assert_columns_match({name: col[cut:] for name, col in series.items()}, expected)
    past = register[cut:]
    assert np.count_nonzero(past - past * np.eye(4)) == 0
    assert np.max(np.abs(series["entropy"][cut:] - von_neumann_entropy(past))) <= 1e-15


#: beyond t = 4096 linspace rounds each 0.1 step to the float spacing 2**-40,
#: so consecutive steps differ by about 1e-12
LONG_GRID = time_grid(10000.0, 0.1)
#: at t = 1e4 a phase e t carries a rounding of about eps |e| t ~ 1e-12, and the
#: populations take 3125 blocked products; 1e-10 bounds both
LONG_RTOL = 1e-10


@pytest.mark.parametrize("bath", BATHS)
def test_long_grid_matches_direct_formula(bath):
    g = 2.0 if bath == "bath" else 0.0
    e, v = diagonalize(build_chain_hamiltonian(sample_disorder(12, 0.5, 0), g))
    c = v[0].astype(complex)
    pops, amps = relax_energy_density(e, BATHS[bath], c, 10000.0, 0.1)
    cols = slice(None, None, 997)  # the direct formula on every 997th time
    if pops is not None:
        pops = pops[:, cols]
    ref = direct_relax_energy_density(e, BATHS[bath], c, LONG_GRID[cols])
    with_pops = bath == "bath"
    got = kernel_columns(v, pops, amps[:, cols], with_pops)
    assert_columns_match(got, kernel_columns(v, *ref, with_pops), LONG_RTOL)


def test_unitary_observable_series_long_grid():
    eig = diagonalize(build_chain_hamiltonian(sample_disorder(12, 0.5, 0), 0.0))
    psi0 = np.eye(12)[0]
    series = closed_series(eig, psi0, 10000.0, 0.1, [12])
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
    h = build_chain_hamiltonian(sample_disorder(200, 0.5, 0), 0.0)
    psi0 = np.eye(200)[0]
    times = time_grid(5000.0, 0.5)
    edges = block_edges(times, 200)
    series = dissipative_transport_run(h, None, 5000.0, 0.5)
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
    h = build_chain_hamiltonian(sample_disorder(200, 0.5, 0), 2.0)
    e, v = diagonalize(h)
    times = time_grid(5000.0, 0.5)
    edges = block_edges(times, 200)
    bath = BATHS["bath"]
    series = dissipative_transport_run(h, bath, 5000.0, 0.5)
    ref = direct_relax_energy_density(e, bath, v[0], times[edges])
    got = {name: col[edges] for name, col in series.items() if name != "t"}
    assert_columns_match(got, kernel_columns(v, *ref, populations_too=False), LONG_RTOL)


@pytest.mark.parametrize("bath", BATHS)
def test_superposed_block_boundaries_match_dense_oracle(bath):
    # Both branches of an s = 200 switch have n = 198 levels, so their cache
    # blocks span the same columns: 0 .. 5000 in steps of 0.5 is 31 blocks,
    # the last one partial. The first and last column of each block is held
    # to the dense per-time-point states of both branches and the cross block.
    disorder = sample_disorder(200, 0.5, 0)
    times = time_grid(5000.0, 0.5)
    edges = block_edges(times, 198)  # the branches have s - 2 levels
    series, _ = run_superposed_input(9, disorder, 2.0, BATHS[bath], 5000.0, 0.5)
    got = {name: col[edges] for name, col in series.items() if name != "t"}
    expected = dense_superposed_columns(9, disorder, 2.0, BATHS[bath], times[edges])
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
    axis, bath = (5000.0, 1.0), BATHS["bath"]
    if pipeline == "transport":
        h = build_chain_hamiltonian(sample_disorder(200, 0.5, 0), 2.0)
        peak = traced_peak(lambda: dissipative_transport_run(h, bath, *axis))
    else:
        disorder = sample_disorder(200, 0.5, 0)
        peak = traced_peak(lambda: run_classical_input(9, disorder, 2.0, bath, "U", *axis))
    series = 7 * time_grid(*axis).size * np.dtype(float).itemsize
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
    axis = (5000.0, 1.0)
    times = time_grid(*axis)
    disorder = sample_disorder(200, 0.5, 0)
    peak = traced_peak(lambda: run_superposed_input(9, disorder, 2.0, BATHS[bath], *axis))
    series = 6 * times.size * np.dtype(float).itemsize
    register = times.size * 16 * np.dtype(complex).itemsize
    blocks = 9 if BATHS[bath] is None else 12
    bound = series + register + blocks * lindblad._BLOCK_BYTES
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
