"""Rank-one kernel pipelines against the dense per-time-point references.

Every run takes its time axis as (t_max, dt) and builds ``time_grid(t_max,
dt)``. Every column must match its reference to 1e-12 * max(1, max|column|),
with NaN at the same positions, for several disorder seeds, in the kernel's
own cache blocks ("uniform") and in blocks narrowed to 32 columns, so that
every block but the first starts late ("late-start"). ``time_grid`` is the one
check on a time axis: it, ``arrival_peak`` and every pipeline, with a bath and
without, raise ``ValueError`` for a non-finite or non-positive t_max or dt, or
a t_max that is not a whole number >= 1 of dt steps, on one table of axes (one
of them would span several cache blocks); each run's ``t`` column is that grid
bit for bit.
``read_out`` of random rows R must match R times the dense oracle's site
distribution, with and without a bath, on a grid that crosses a cache-block
edge, and with a bath on a grid whose second block holds the cut past which
read_out drops the coherences (||u||^2 < 2^-70); past both branches' cuts the
superposed switch must match the dense oracle, with diagonal register states
whose entropy equals ``von_neumann_entropy`` within 1e-15. With a bath the
switch keeps only the modes and sites its branches reach: against the run
that keeps all of them, its read-out columns and register move by at most
2^-70 plus rounding. Without a bath the chain and the switch take one reach
too, joined with the modes that read their region rows (the last site, the
sites past the gate) to relative accuracy: the region row equals
|V[region] U|^2 formed in long double within 16 eps b (2 sqrt(p) + eps b), b
the row's sum of |terms|, at 1e-44 too, and where the exact row is far below
that floor the run writes noise below (16 eps b)^2, which the absolute
budget alone breaks; on localized, tilted and clean chains every column,
held to a long-double read-out of the same float64 blocks, errs by at most
twice as much as the uncut float64 read-out. The closed chain,
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
walks the blocks of both branches side by side), and at s = 200 on 10001
columns that of the closed chain, stays below a counted number
of blocks plus the O(T) series and, for the switch, its (T, 4, 4) register
stack; so does the peak-scaling run at s = 1600 on 48201 columns, which forms
no s x s array.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from support import (
    _dense_states,
    block_read_out,
    chunked_unitary_columns,
    closed_block_series,
    closed_series,
    direct_relax_energy_density,
    dense_classical_columns,
    dense_superposed_columns,
    dense_transport_columns,
    evolve_pure,
    free_eigensystem,
    relax_energy_density,
)

from openchain import feynman, lindblad
from openchain.chains import (
    build_chain_hamiltonian,
    diagonalize,
    sample_disorder,
)
from openchain.feynman import (
    build_branch,
    run_classical_input,
    run_superposed_input,
    von_neumann_entropy,
)
from openchain.config import ExperimentConfig, _scan_t_max, load_config
from openchain.lindblad import (
    BathSpec,
    arrival_peak,
    dissipative_transport_run,
    time_grid,
)
from openchain.runner import run_realization

#: the grid of the pipeline equivalence tests: 0 .. 400 in 80 steps
GRID = (400.0, 5.0)
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


def narrow_blocks(grid: str, monkeypatch) -> None:
    """"late-start": cache blocks of B = 32 columns, so every block but the first starts late.

    Such a block is the first block's phase table times exp(d t_start), and
    its populations start from the last 32 columns of the block before.
    """
    if grid == "late-start":
        monkeypatch.setattr(lindblad, "_BLOCK_BYTES", 1)  # width max(32, 1 // (16 n)) = 32


def check_pipeline(grid: str, run, reference, monkeypatch) -> None:
    """``run(t_max, dt)`` matches ``reference`` on ``GRID`` in the blocks ``grid`` names."""
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


@pytest.mark.parametrize("grid", ["uniform", "late-start"])
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
    assert arrival_peak(e, v[0] * v[-1], t_max, dt)[0] in times


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
    blocks = [block_read_out(v, np.eye(e.size), None, u) for *_, u in kernel]
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
    e, v = free_eigensystem(s)
    times = time_grid(1.5 * s + 10, 0.05)
    last = chunked_unitary_columns((e, v), np.eye(s)[0], times)["sites"][:, -1]
    t_star, p_star = arrival_peak(e, v[0] * v[-1], 1.5 * s + 10, 0.05)
    assert t_star == times[np.argmax(last)]
    assert abs(p_star - last.max()) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_arrival_peak_on_a_disordered_tilted_chain(seed):
    # the weights of any chain are the end components V[0] * V[-1] of eigh's
    # eigenvectors; the scan, over three cache blocks, must match the dense
    # last-site probability (weak disorder and tilt: p* is about 0.2)
    eig = diagonalize(build_chain_hamiltonian(sample_disorder(40, 0.1, seed), 0.02))
    times = time_grid(200.0, 0.05)
    last = chunked_unitary_columns(eig, np.eye(40)[0], times)["sites"][:, -1]
    e, v = eig
    t_star, p_star = arrival_peak(e, v[0] * v[-1], 200.0, 0.05)
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
    prob = block_read_out(v, np.eye(v.shape[0]), pops, amps, np.square(v))
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


def flushed_half_bandwidth(e: np.ndarray, bath: BathSpec) -> int:
    """Half-bandwidth of the direct S^32 (scipy's expm) over its entries >= 1e-150."""
    gen = lindblad.population_generator(lindblad.transition_rates(e, bath), bath)
    step = np.linalg.matrix_power(expm(gen * FAST_GRID[1]), 32)
    rows, cols = np.nonzero(np.abs(step) >= 1e-150)
    return int(np.max(np.abs(rows - cols)))


def test_flushed_kernel_on_a_wide_band():
    # S^32's band grows with 1/beta: at beta = 0.1 it is wider than at the
    # test above's beta = 1 (half-bandwidths 170 and 111 at s = 400), and
    # ||A dt||_1 is above 1/4, where expm takes its degree-28 polynomial. The
    # kernel, which flushes S and each of its squares at 1e-150, must still
    # hold the direct formula at the same bound.
    e, v = diagonalize(build_chain_hamiltonian(sample_disorder(400, 0.5, 0), 2.0))
    wide = BathSpec(beta=0.1, zeta=0.05)
    assert flushed_half_bandwidth(e, wide) > flushed_half_bandwidth(e, BATHS["bath"])
    c = v[0].astype(complex)
    got = relax_energy_density(e, wide, c, *FAST_GRID)
    ref = direct_relax_energy_density(e, wide, c, time_grid(*FAST_GRID))
    assert_columns_match(kernel_columns(v, *got, True), kernel_columns(v, *ref, True))


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


#: time axes from which time_grid builds no uniform grid, each named after the
#: grid it would describe
AXES = {
    "empty": (0.0, 1.0),  # no time span
    "nonuniform": (10.0, 3.0),  # the last step would be 1, not 3
    "decreasing": (-400.0, -5.0),
    "repeated": (10.0, 0.0),  # steps of zero
    "constant": (0.0, 0.0),
    "negative-start": (-100.0, 10.0),  # a grid running to negative times
    "perturbed": (1000.001, 1.0),  # a thousandth of a step past a whole number
    "t_max-inf": (math.inf, 1.0),
    "dt-inf": (10.0, math.inf),
    "t_max-nan": (math.nan, 1.0),
    "dt-nan": (10.0, math.nan),
    "steps-overflow": (1e300, 1e-300),  # a step count beyond float range
    # several cache blocks of a 40-level chain, ending half a step short
    "nonuniform-blocks": (4000.5, 1.0),
}
#: every run's time axis is checked by time_grid, which names the rule it breaks
REJECTED = "whole number >= 1 of dt steps"


def rejects(run) -> bool:
    """Whether ``run()`` raises time_grid's ``ValueError``."""
    try:
        run()
    except ValueError as err:
        return REJECTED in str(err)
    return False


@pytest.mark.parametrize(
    "bath, axis",
    # a case with the bath is named after its axis alone
    [pytest.param(bath, axis, id=axis if BATHS[bath] else f"closed-{axis}")
     for axis in AXES for bath in BATHS],
)
def test_time_grid_rejects_invalid_axes(bath, axis):
    # every entry point builds its grid with time_grid before any code that
    # reads the bath, so each axis reaches each entry point once with a bath
    # and once without; time_grid and arrival_peak take no bath and run once,
    # beside the bath
    t_max, dt = AXES[axis]
    e, v = free_eigensystem(40)
    disorder, sites, last = sample_disorder(16, 0.5, 0), np.arange(1, 41), np.array([39])
    spec = BATHS[bath]
    entry_points = {
        "relax_energy_density": lambda: relax_energy_density(e, spec, v[0], t_max, dt),
        "pure_state_series": lambda: lindblad.pure_state_series(
            (e, v), spec, v[0], t_max, dt, sites, last
        ),
        "dissipative_transport_run": lambda: dissipative_transport_run(e, spec, t_max, dt),
        "run_classical_input": lambda: run_classical_input(4, disorder, 2.0, spec, "U", t_max, dt),
        "run_superposed_input": lambda: run_superposed_input(4, disorder, 2.0, spec, t_max, dt),
    }
    if spec is not None:
        entry_points["time_grid"] = lambda: time_grid(t_max, dt)
        entry_points["arrival_peak"] = lambda: arrival_peak(e, v[0] * v[-1], t_max, dt)
    accepted = [name for name, run in entry_points.items() if not rejects(run)]
    assert not accepted, f"not rejected by {', '.join(accepted)}"


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
    levels = rows @ np.square(v)
    got = np.concatenate([block_read_out(v, rows, p, u, levels) for _, p, u in kernel], axis=1)
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
    levels = rows @ np.square(v)
    got = np.concatenate([block_read_out(v, rows, p, u, levels) for _, p, u in kernel], axis=1)
    states = _dense_states(e, bath, np.outer(c, c), time_grid(t_max, dt))
    prob = np.array([np.diagonal(v @ rho @ v.T).real for rho in states]).T
    assert_columns_match(dict(enumerate(got)), dict(enumerate(rows @ prob)))
    widths = [u.shape[1] for *_, u in kernel]
    cuts = [lindblad._coherent_columns(u) for *_, u in kernel]
    assert cuts[0] == widths[0] and 0 < cuts[1] < widths[1]  # the cut lies inside block 2


def test_only_bath_runs_bisect_for_the_cut(monkeypatch):
    # The decay cut bisects a block's column norms (_coherent_columns) only
    # with a bath, once per block and branch: the chain's first mean reads
    # column 0 of its block's one V U, and each switch branch reads its own
    # cut. A closed run (no bath or zeta = 0), whose ||u|| never falls,
    # reads every column with no bisection.
    calls, bisect = [], lindblad._coherent_columns
    monkeypatch.setattr(lindblad, "_coherent_columns", lambda u: calls.append(1) or bisect(u))
    disorder, axis = sample_disorder(52, 0.5, 0), (2000.0, 1.0)
    h = build_chain_hamiltonian(disorder, 2.0)
    for closed in (None, BathSpec(beta=1.0, zeta=0.0)):
        dissipative_transport_run(h, closed, *axis)
        run_classical_input(9, disorder, 2.0, closed, "U", *axis)
        run_superposed_input(9, disorder, 2.0, closed, *axis)
    assert calls == []

    def blocks(n: int) -> int:  # the cache blocks of energy_blocks on n levels
        return sum(1 for _ in lindblad.energy_blocks(np.zeros(n), None, np.ones(n), *axis))

    bath = BATHS["bath"]
    assert blocks(52) == blocks(50) == 2
    dissipative_transport_run(h, bath, *axis)
    assert len(calls) == blocks(52)
    calls.clear()
    run_classical_input(9, disorder, 2.0, bath, "U", *axis)
    assert len(calls) == blocks(50)
    calls.clear()
    run_superposed_input(9, disorder, 2.0, bath, *axis)
    assert len(calls) == 2 * blocks(50)


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


def test_closed_region_row_holds_its_relative_floor(monkeypatch):
    # Without a bath (None or zeta = 0) the run reads every row on one reach:
    # the W rule's modes and sites, 157 and 159 of 200 modes on these localized
    # chains, joined with the modes that read the last site to relative
    # accuracy. The last site holds about 1e-44 at t = 0.5 and must equal
    # |V[-1] U|^2, formed in long double from the same float64 V and U, within
    # 16 eps b (2 sqrt(p) + eps b), b = sum_m |V_jm| |c_m|: about sqrt(n)
    # times a dot product's unit rounding eps b. Up to t = 50 the exact row is
    # below 1e-190, so the run writes rounding noise there, which must stay
    # below (16 eps b)^2. On the second chain the modes left out by the W rule
    # alone, an absolute budget, move the last site's amplitude by 720 eps b,
    # and a row read on them alone breaks that floor.
    eps = 2.0**-53
    times = time_grid(2000.0, 0.5)
    early = times <= 50.0
    for seed, kept in ((0, 157), (2, 159)):
        h = build_chain_hamiltonian(sample_disorder(200, 0.5, seed), 0.0)
        e, v = diagonalize(h)
        x = np.arange(1, 201)
        modes, sites = lindblad._reach(v, v[0], lindblad._moment_weight(x))
        assert (modes.sum(), sites.sum()) == (kept, 200)
        got = dissipative_transport_run(h, None, 2000.0, 0.5)["p_region"]
        _, amps = relax_energy_density(e, None, v[0], 2000.0, 0.5)
        last = v[-1].astype(np.longdouble)
        exact = (last @ amps.real.astype(np.longdouble)) ** 2
        exact += (last @ amps.imag.astype(np.longdouble)) ** 2
        unit = eps * (np.abs(v[-1]) @ np.abs(v[0]))
        assert np.all(np.abs(got - exact) <= 16 * unit * (2 * np.sqrt(exact) + unit))
        assert np.all(got[early] <= (16 * unit) ** 2)
        absolute = np.abs(v[-1, modes] @ amps[modes][:, early]) ** 2
        assert (np.max(absolute) > (16 * unit) ** 2) == (seed == 2)

    # The closed superposed switch takes the reach too, on each branch with W = 1
    # and the sites past the gate read to relative accuracy: on the tilted s = 52
    # switch at a = 9 that is 36 modes and 50 sites of each branch, where the W
    # rule alone keeps 13 modes and 15 or 16 sites.
    counts, reach = [], feynman._reach

    def recorded(v, c, weight, region=()):
        modes, sites = reach(v, c, weight, region)
        counts.append((int(modes.sum()), int(sites.sum())))
        return modes, sites

    monkeypatch.setattr(feynman, "_reach", recorded)
    disorder = sample_disorder(52, 0.5, 0)
    for bath in (None, BathSpec(beta=1.0, zeta=0.0)):
        run_superposed_input(9, disorder, 2.0, bath, 50.0, 1.0)
    assert counts == [(36, 50)] * 4


#: closed chains whose read-out is held to the long-double reference: the
#: localized chain of the closed benchmark (three seeds), the tilted transport
#: chain at s = 400 and the clean chain; (s, sigma, g, disorder seed)
CLOSED_CHAINS = {
    "localized-0": (200, 0.5, 0.0, 0),
    "localized-1": (200, 0.5, 0.0, 1),
    "localized-2": (200, 0.5, 0.0, 2),
    "tilted": (400, 0.5, 2.0, 0),
    "clean": (200, 0.0, 0.0, 0),
}


@pytest.mark.parametrize("chain", CLOSED_CHAINS)
def test_closed_cut_rounds_like_the_uncut_read_out(chain):
    # A closed run reads its moment rows and its region row on one reach:
    # the modes and sites of _reach's W rule, joined with the modes that read
    # the region's site to relative accuracy. Against the same float64 V and
    # U blocks read out in long double, each column must err by at most twice
    # as much as the uncut read-out in float64 (the package's formula before
    # the cut): the cut moves a row by less than its rounding.
    s, sigma, g, seed = CLOSED_CHAINS[chain]
    e, v = diagonalize(build_chain_hamiltonian(sample_disorder(s, sigma, seed), g))
    x, region, axis = np.arange(1, s + 1), np.array([s - 1]), (400.0, 1.0)
    if sigma:
        assert not all(mask.all() for mask in lindblad._reach(v, v[0], lindblad._moment_weight(x)))
    got = lindblad.pure_state_series((e, v), None, v[0], *axis, x, region)
    exact = closed_block_series((e, v), v[0], *axis, x, region, np.longdouble)
    uncut = closed_block_series((e, v), v[0], *axis, x, region)
    for name, ref in exact.items():
        err, uncut_err = (np.max(np.abs(col[name] - ref)) for col in (got, uncut))
        assert err <= 2 * uncut_err, f"{name}: {err:.3g} against {uncut_err:.3g} uncut"


def test_superposed_reach_cut_holds_to_the_full_run(monkeypatch):
    # A bath run of the s = 52 switch at a = 4 keeps 13 of 50 modes and 15
    # sites on each branch (W = 1); the cross diagonal is formed on the 15
    # sites either branch reaches.
    # Against the same run with every mode and site kept, each
    # read-out column and register entry moves by at most 2^-70 plus its
    # rounding, the Bell fidelity times its weight past the gate by 2^-69
    # plus rounding, and the entropy by eigvalsh's rounding.
    disorder, bath, axis = sample_disorder(52, 0.5, 0), BATHS["bath"], (2000.0, 1.0)
    for branch in ("U", "D"):
        *_, (e, v) = build_branch(4, branch, disorder, 2.0)
        assert [mask.sum() for mask in lindblad._reach(v, v[0], np.ones(50))] == [13, 15]
    series, register = run_superposed_input(4, disorder, 2.0, bath, *axis)
    monkeypatch.setattr(lindblad, "_REACH", 0.0)  # no budget: nothing is cut
    full, full_register = run_superposed_input(4, disorder, 2.0, bath, *axis)
    eps = np.finfo(float).eps
    for name in ("trace_UU", "trace_DD", "p_beyond_gate"):
        assert np.all(np.abs(series[name] - full[name]) <= 2.0**-70 + 4 * eps * full[name])
    assert np.max(np.abs(register - full_register)) <= 2.0**-70 + 4 * eps
    weight, fidelity = full["p_beyond_gate"], full["bell_fidelity"]
    defined = ~np.isnan(fidelity)
    assert np.array_equal(np.isnan(series["bell_fidelity"]), ~defined)
    moved = np.abs(series["bell_fidelity"][defined] - fidelity[defined]) * weight[defined]
    assert np.all(moved <= 2.0**-69 + 8 * eps * weight[defined])
    assert np.max(np.abs(series["entropy"] - full["entropy"])) <= 1e-14


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
    # float buffer comes after the site distribution is freed, and V U is
    # small on the reach), the P block read out
    # and, while the next is filled, the one before (1), and the n x n
    # eigenvector, generator, S^32 and V*V matrices (1.2: four of 0.3 at
    # n = 200; the rates are two bands); the rest, 1.3, is margin. On top
    # come the O(T) series: the grid and the columns that each block fills
    # in. The whole-grid populations peaked at 12.5 MiB here. The reach cut
    # keeps U and V U on 14 modes and 17 sites of this chain: measured 3.4
    # blocks above the series on both pipelines, 3.6 MiB in all (5.6 blocks
    # without the cut, while a dense rate matrix was still held).
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


def test_closed_read_out_memory():
    # The closed chain holds one cache block of amplitudes and read-out at a
    # time. At its peak it holds, in units of _BLOCK_BYTES (one complex
    # n x width array): the first-block phase table and the U block on the
    # reach's modes (at most 2), V[S, M] U, which the run forms and read_out
    # squares in place, and the site distribution (1.5), and the n x n
    # eigenvector matrix and its V[S, M] (0.6: two of 0.3 at n = 200). On
    # top come the O(T) series: the grids of the run and of energy_blocks,
    # the three columns and the clipped variance. Measured on this localized
    # chain (157 of 200 modes kept): 3.6 blocks above the series, 4.04 MiB
    # in all (4.0 blocks and 4.46 MiB while its blocks held U on every mode
    # for the region row). One block is margin.
    axis = (5000.0, 0.5)
    h = build_chain_hamiltonian(sample_disorder(200, 0.5, 0), 0.0)
    peak = traced_peak(lambda: dissipative_transport_run(h, None, *axis))
    series = 6 * time_grid(*axis).size * np.dtype(float).itemsize
    bound = series + 5 * lindblad._BLOCK_BYTES
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_reach_memory():
    # The relative rule of _reach reads the terms |V_jm| |c_m| of its region
    # sites in chunks of rows, whose four float arrays (the terms, their
    # sort, its running sum and the masked copy) fill about one _BLOCK_BYTES
    # in all, beside |V|, one eigenvector matrix. Measured on the closed
    # upper branch of an 802-site clock (a = 9, g = 0, sigma = 0.5: n = 800,
    # 789 sites past the gate, 548 modes with c_m != 0, V of 4.9 MiB):
    # 6.0 MiB, V and 1.1 blocks (15.3 MiB while the whole region was one
    # chunk). Half a block is margin.
    sites, _, (_, v) = build_branch(9, "U", sample_disorder(802, 0.5, 0), 0.0)
    region = np.flatnonzero(sites >= 14)
    assert region.size == 789 and np.count_nonzero(v[0]) == 548
    peak = traced_peak(lambda: lindblad._reach(v, v[0], np.ones(v.shape[0]), region))
    bound = v.nbytes + 1.5 * lindblad._BLOCK_BYTES
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


@pytest.mark.parametrize("bath", BATHS)
def test_superposed_read_out_memory(bath):
    # The superposed switch walks both branches' blocks side by side. Across
    # blocks it holds the (T, 4, 4) register stack and six O(T) series (the
    # grid and five columns). At its peak one block pair holds, in units of
    # _BLOCK_BYTES (one complex n x width array): the first-block phase tables
    # of both branches (2), their U blocks (2) and their V U (2), plus either
    # the float site distribution inside a read-out or the product of the
    # upper V U and the conjugated lower one (conjugated in place) while the
    # cross diagonal is formed (1). The
    # read-outs themselves are k x width with k <= 32. One covers both
    # eigenvector matrices (two of 0.3 at n = 198) and is margin. A bath adds
    # each branch's P block and, while the next is filled, the one before
    # (2), and both branches' generator and S^32 matrices (1: four of 0.3,
    # not all alive at once; the rates are two bands). Each branch's V*V is
    # a temporary of the run, freed once its 8 x n level table is formed,
    # before the blocks; the bath correction's buffer (0.5) comes after the
    # site distribution is freed.
    # Measured: 2.6 blocks without the bath and 4.9 with it; both take the
    # reach, which keeps U and V U on a few modes and sites (8.0 without the
    # bath while the closed run kept every mode and site, and 11.7 with the
    # bath without the cut); holding
    # the (columns, n) site arrays, their masked copies and the cross
    # diagonal's row selection took 10.9 and 13.4. The whole-grid populations
    # peaked at 28.4 MiB with the bath.
    axis = (5000.0, 1.0)
    times = time_grid(*axis)
    disorder = sample_disorder(200, 0.5, 0)
    peak = traced_peak(lambda: run_superposed_input(9, disorder, 2.0, BATHS[bath], *axis))
    series = 6 * times.size * np.dtype(float).itemsize
    register = times.size * 16 * np.dtype(complex).itemsize
    blocks = 9 if BATHS[bath] is None else 12
    bound = series + register + blocks * lindblad._BLOCK_BYTES
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_peak_scan_memory():
    # The peak-scaling run at s = 1600 scans 0 .. 1.5 s + 10 in steps of 0.05
    # (T = 48201) on the clean chain's energies and end weights alone. Across
    # blocks it holds four O(T) float series: the grid of arrival_peak and
    # that of energy_blocks, the per-block |A|^2 and their concatenation. At
    # its peak it holds, in units of _BLOCK_BYTES (one complex n x width
    # array): the first-block phase table and the next U block being formed
    # (2); neither energy_blocks nor arrival_peak still holds the block just
    # summed. Half a block is margin, so a third block fails the test.
    # Measured: 1.95 blocks above the series (3.4 MiB in all; 2.9 blocks and
    # 4.4 MiB while the summed block was held); the s x s eigenvector matrix
    # and its build peaked at 39.2 MiB.
    config = ExperimentConfig(scenario="peak-scaling", s=1600, sigma=0.0, g=0.0)
    size = time_grid(_scan_t_max(config.s), config.dt).size
    assert size == 48201
    peak = traced_peak(lambda: run_realization(config, 0))
    bound = 4 * size * np.dtype(float).itemsize + 2.5 * lindblad._BLOCK_BYTES
    assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
