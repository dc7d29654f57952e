"""Invariants of the pure-state kernel and the superposed switch run across
the parameter space.

Hypothesis draws small chains, layouts and physical parameters; the profile
is derandomized (fixed examples, no example database) so the suite stays
deterministic. Derandomized draws are seeded from each test's source, so an
edit to a test swaps its examples: the known hard cases are pinned as
``@example`` rows (the default switch, and a 7-site switch whose full-space
spectrum has clusters of nearly equal eigenvalues; for the chain tests, the
default dissipative-transport chain and the same chain with sigma = g = 0).

The paper's claim that noise hinders entanglement holds here as an
inequality at every time: the register's cross block between the control
branches is 1/2 U_U U_D^H, so each entry that links control +1 to control -1
is at most 1/2 ||u_U|| ||u_D||, and past the gate, where the state sits on
(-1,-1) and (+1,+1) only, |F - 1/2| <= ||u_U|| ||u_D|| / (2 w), with
||u(t)||^2 = sum_m |c_m|^2 exp(-zeta G_m t) computed apart from the kernel.

With a bath the read-out keeps only the modes and sites the start reaches;
on chains up to the transport size (pinned: the transport chain and a hot
bath at s = 400) the cut read-out equals the full one within
max|R_r| 2^-70 plus rounding. Without a bath the region rows of closed
chains and closed classical branches (s <= 60; pinned: the tilted branch at
s = 52, a = 9, whose p_beyond_gate starts near 1e-23) keep the relative
accuracy of their own dot products against a long-double read-out of the
same float64 amplitudes.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import (
    block_read_out,
    evolve_full,
    formed_cut,
    full_space_observables,
    full_space_state,
    full_switch_hamiltonian,
    relax_energy_density,
    thermal_fixed_point,
)

from openchain.chains import build_chain_hamiltonian, diagonalize, sample_disorder
from openchain.feynman import (
    build_branch,
    register_index,
    run_classical_input,
    run_superposed_input,
)
from openchain import lindblad
from openchain.lindblad import BathSpec, level_widths, transition_rates

settings.register_profile(
    "derandomized", derandomize=True, database=None, max_examples=40, deadline=None
)
DERANDOMIZED = settings.get_profile("derandomized")


@st.composite
def switch_params(draw):
    """(s, a, sigma, g, beta, zeta, disorder seed) of a small switch."""
    s = draw(st.integers(7, 16))
    a = draw(st.integers(1, s - 6))
    sigma, g = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 3.0))
    beta, zeta = draw(st.floats(0.2, 5.0)), draw(st.floats(0.0, 0.5))
    return s, a, sigma, g, beta, zeta, draw(st.integers(0, 2**16))


#: the cnot-superposed defaults with configs/cnot_superposed.ini's bath, on disorder
#: seed 0: (s, a, sigma, g, beta, zeta, disorder seed)
DEFAULT_SWITCH = (22, 9, 0.5, 2.0, 1.0, 0.05, 0)


def superposed_run(s, a, sigma, g, beta, zeta, seed):
    disorder = sample_disorder(s, sigma, seed)
    return run_superposed_input(a, disorder, g, BathSpec(beta, zeta), 300.0, 5.0)


@DERANDOMIZED
@given(switch_params())
@example(DEFAULT_SWITCH)
def test_register_is_a_density_matrix(params):
    series, reg = superposed_run(*params)
    assert reg.shape == (series["t"].size, 4, 4)
    assert np.max(np.abs(reg - np.conj(np.swapaxes(reg, 1, 2)))) < 1e-12
    assert np.max(np.abs(np.trace(reg, axis1=1, axis2=2) - 1.0)) < 1e-9
    assert np.linalg.eigvalsh(reg).min() > -1e-9


@DERANDOMIZED
@given(switch_params())
@example(DEFAULT_SWITCH)
def test_entropy_bounds_and_branch_weights(params):
    series, _ = superposed_run(*params)
    assert np.all(series["entropy"] >= 0.0)
    assert np.all(series["entropy"] <= np.log(4.0) + 1e-12)
    assert np.max(np.abs(series["trace_UU"] + series["trace_DD"] - 1.0)) < 1e-9


def branch_norm(a, disorder, g, bath, branch, times):
    """||u(t)|| of a branch started at path coordinate 1: c = V[0], G the level widths."""
    _, _, (e, v) = build_branch(a, branch, disorder, g)
    outflow = level_widths(transition_rates(e, bath))
    return np.sqrt(np.exp(-bath.zeta * np.outer(times, outflow)) @ v[0] ** 2)


@DERANDOMIZED
@given(switch_params())
@example(DEFAULT_SWITCH)
def test_noise_bounds_the_entanglement(params):
    s, a, sigma, g, beta, zeta, seed = params
    series, reg = superposed_run(*params)
    disorder, bath = sample_disorder(s, sigma, seed), BathSpec(beta, zeta)
    overlap = np.prod([branch_norm(a, disorder, g, bath, b, series["t"]) for b in "UD"], axis=0)
    eps = np.finfo(float).eps
    for block in (reg[:, 2:, :2], reg[:, :2, 2:]):  # control +1 against control -1
        assert np.all(np.abs(block).max(axis=(1, 2)) <= 0.5 * overlap + 4 * eps)
    w = series["p_beyond_gate"]
    passed = w > 1e-12
    excess = np.abs(series["bell_fidelity"][passed] - 0.5) - overlap[passed] / (2 * w[passed])
    assert np.all(excess <= 4 * eps)


@st.composite
def closed_switch_params(draw):
    """(s, a, sigma, g, disorder seed, t_max) of a small switch without a bath."""
    s = draw(st.integers(7, 14))
    a = draw(st.integers(1, s - 6))
    sigma, g = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 3.0))
    return s, a, sigma, g, draw(st.integers(0, 2**16)), draw(st.floats(0.5, 60.0))


def register_vector(*labels):
    """Equal superposition of the given (sigma3(c), sigma3(p)) labels."""
    vec = np.zeros(4)
    vec[[register_index(label) for label in labels]] = 1.0 / np.sqrt(len(labels))
    return vec


@DERANDOMIZED
@given(closed_switch_params())
# (s, a, sigma, g, seed, t_max): a 7-site switch with sigma = g ~ 7e-49, whose
# full-space spectrum has one cluster of nearly equal eigenvalues per register
# state; there LAPACK syevr's eigenvectors are orthogonal only to ~1e-5
@example((7, 1, 6.859409746981352e-49, 6.859409746981352e-49, 1, 1.0))
def test_reduced_switch_matches_full_space_oracle(params):
    # the unitary reduced model against the complete clock-register evolution
    # on the 4s-dimensional product space; the bath side is covered by the
    # dense-oracle equivalence tests, since the full-space oracle is unitary
    s, a, sigma, g, seed, t_max = params
    disorder = sample_disorder(s, sigma, seed)
    h_full = full_switch_hamiltonian(a, disorder, g)
    superposed, register = run_superposed_input(a, disorder, g, None, t_max, t_max / 4)
    grid = superposed["t"]
    psi0 = full_space_state(s, register_vector((+1, -1), (-1, -1)))
    for i, t in enumerate(grid):
        psi = evolve_full(h_full, psi0, t)
        _, reg_full = full_space_observables(psi, s)
        p_full = np.sum(np.abs(psi.reshape(s, 4)[a + 4 :]) ** 2)  # sites b = a + 5 on
        assert np.max(np.abs(reg_full - register[i])) < 1e-8
        assert abs(p_full - superposed["p_beyond_gate"][i]) < 1e-8
    for branch, control in (("U", +1), ("D", -1)):
        series = run_classical_input(a, disorder, g, None, branch, t_max, t_max / 4)
        psi0 = full_space_state(s, register_vector((control, -1)))
        for i, t in enumerate(grid):
            mean_full, _ = full_space_observables(evolve_full(h_full, psi0, t), s)
            assert abs(mean_full - series["mean_Q"][i]) < 1e-8


@st.composite
def chain_params(draw):
    """(s, sigma, g, beta, zeta, disorder seed) of a small dissipative chain."""
    s = draw(st.integers(2, 24))
    sigma, g = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 3.0))
    beta, zeta = draw(st.floats(0.2, 5.0)), draw(st.floats(0.01, 0.5))
    return s, sigma, g, beta, zeta, draw(st.integers(0, 2**16))


#: (s, sigma, g, beta, zeta, disorder seed): the dissipative-transport defaults with
#: configs/assisted_transport.ini's bath on disorder seed 0, and the same chain clean
TRANSPORT_CHAIN = (20, 0.5, 2.0, 1.0, 0.05, 0)
CLEAN_CHAIN = (20, 0.0, 0.0, 1.0, 0.05, 0)


def chain_spectrum(s, sigma, g, seed):
    return diagonalize(build_chain_hamiltonian(sample_disorder(s, sigma, seed), g))


@DERANDOMIZED
@given(chain_params())
@example(TRANSPORT_CHAIN)
@example(CLEAN_CHAIN)
def test_kernel_conserves_trace_and_positivity(params):
    s, sigma, g, beta, zeta, seed = params
    e, v = chain_spectrum(s, sigma, g, seed)
    pops, amps = relax_energy_density(e, BathSpec(beta, zeta), v[0], 500.0, 10.0)
    assert np.max(np.abs(pops.sum(axis=0) - 1.0)) < 1e-9
    assert pops.min() > -1e-12
    prob = block_read_out(v, np.eye(s), pops, amps, np.square(v))
    assert np.max(np.abs(prob.sum(axis=0) - 1.0)) < 1e-9
    assert prob.min() > -1e-9


@DERANDOMIZED
@given(chain_params())
@example(TRANSPORT_CHAIN)
@example(CLEAN_CHAIN)
def test_gibbs_populations_are_stationary(params):
    s, sigma, g, beta, zeta, seed = params
    e, _ = chain_spectrum(s, sigma, g, seed)
    gibbs = thermal_fixed_point(e, beta)
    pops, _ = relax_energy_density(e, BathSpec(beta, zeta), np.sqrt(gibbs), 500.0, 50.0)
    assert np.max(np.abs(pops - gibbs[:, None])) < 1e-9


@DERANDOMIZED
@given(chain_params())
@example(TRANSPORT_CHAIN)
@example(CLEAN_CHAIN)
def test_read_out_cut_drops_only_decayed_coherences(params):
    # The cut is the first column with ||u||^2 < 2^-70, and past it read_out
    # omits R |V U|^2: it must still equal the uncut read-out to rounding.
    s, sigma, g, beta, zeta, seed = params
    e, v = chain_spectrum(s, sigma, g, seed)
    pops, amps = relax_energy_density(e, BathSpec(beta, zeta), v[0], 3000.0, 5.0)  # one block
    decayed = np.flatnonzero(np.sum(np.abs(amps) ** 2, axis=0) < lindblad._DECAYED)
    assert formed_cut(amps) == (decayed[0] if decayed.size else amps.shape[1])
    rows = np.random.default_rng(seed).standard_normal((3, s))
    uncut = rows @ np.abs(v @ amps) ** 2 + (rows @ np.square(v)) @ (pops - np.abs(amps) ** 2)
    bound = np.finfo(float).eps * np.abs(rows).max() * s
    got = block_read_out(v, rows, pops, amps, rows @ np.square(v))
    assert np.max(np.abs(got - uncut)) <= bound


@DERANDOMIZED
@given(chain_params())
@example(TRANSPORT_CHAIN)
@example(CLEAN_CHAIN)
def test_horizon_is_the_first_decayed_grid_time(params):
    # A bath run's decay horizon is the first grid time at which the closed
    # form ||u(t)||^2 = sum_M |c_m|^2 exp(-zeta G_m t) falls below 2^-70,
    # on the modes M the run holds. The one bisection (_coherent_columns)
    # must find what a scan of every grid time finds, and each block's
    # yielded cut, the horizon clipped to the block, must be the block's
    # first formed column with ||u||^2 < 2^-70 (the grid spans up to three
    # blocks).
    s, sigma, g, beta, zeta, seed = params
    e, v = chain_spectrum(s, sigma, g, seed)
    bath, (t_max, dt) = BathSpec(beta, zeta), (3000.0, 0.5)
    modes = np.flatnonzero(lindblad._reach(v, v[0], np.ones(s))[0])
    weights = np.abs(v[0, modes]) ** 2
    rates = -zeta * level_widths(transition_rates(e, bath))[modes]
    times = lindblad.time_grid(t_max, dt)
    decayed = np.flatnonzero([weights @ np.exp(rates * t) < lindblad._DECAYED for t in times])
    horizon = lindblad._coherent_columns(weights, rates, times)
    assert horizon == (decayed[0] if decayed.size else times.size)
    for cols, _, u, cut in lindblad.energy_blocks(e, bath, v[0], t_max, dt, modes):
        assert cut == min(max(horizon - cols.start, 0), u.shape[1]) == formed_cut(u)


@st.composite
def reach_params(draw):
    """(s, sigma, g, beta, zeta, disorder seed) of a dissipative chain up to the transport size."""
    s = draw(st.integers(2, 120))
    sigma, g = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 3.0))
    beta, zeta = draw(st.floats(0.1, 5.0)), draw(st.floats(0.01, 0.5))
    return s, sigma, g, beta, zeta, draw(st.integers(0, 2**16))


@DERANDOMIZED
@given(reach_params())
@example((100, 0.5, 2.0, 1.0, 0.05, 0))  # the transport chain
@example((400, 0.5, 2.0, 0.1, 0.05, 0))  # the wide-band case: a hot bath fills the most levels
@example(CLEAN_CHAIN)
def test_reach_cut_holds_to_the_full_read_out(params):
    # With a bath the read-out keeps the modes M and sites S of _reach, here
    # for the weight W_j = max_r |R_rj| of the random rows it reads. The cut
    # read-out, on V[S, M], the rows on S and the kernel's U of the modes M
    # alone, must equal the full one within max|R_r| 2^-70 plus rounding, on
    # random rows and on rows that live on the dropped sites alone, where the
    # whole coherent term is dropped. The rounding of a row is counted on the
    # magnitudes it sums: |R| (|V|^2 (P + |U|^2) + |V U|^2).
    s, sigma, g, beta, zeta, seed = params
    e, v = chain_spectrum(s, sigma, g, seed)
    bath = BathSpec(beta, zeta)
    rows = np.random.default_rng(seed).standard_normal((4, s))
    modes, sites = lindblad._reach(v, v[0], np.abs(rows).max(axis=0))
    rows[2:, sites] = 0.0  # within the weight still
    kept, levels = np.flatnonzero(modes), rows @ np.square(v)
    pops, amps = relax_energy_density(e, bath, v[0], 3000.0, 5.0)
    cut_pops, cut_amps = relax_energy_density(e, bath, v[0], 3000.0, 5.0, kept)
    assert np.array_equal(cut_pops, pops) and np.array_equal(cut_amps, amps[modes])
    full = block_read_out(v, rows, pops, amps, levels)
    cut = block_read_out(v[np.ix_(sites, modes)], rows[:, sites], cut_pops, cut_amps, levels, kept)
    magnitude = np.square(v) @ (pops + np.abs(amps) ** 2) + np.abs(v @ amps) ** 2
    rounding = 4 * s * np.finfo(float).eps * (np.abs(rows) @ magnitude)
    limit = np.abs(rows).max(axis=1)[:, None] * 2.0**-70 + rounding
    assert np.all(np.abs(cut - full) <= limit)


@st.composite
def closed_params(draw):
    """(s, sigma, g, bath or None, disorder seed) of a chain up to the transport size."""
    s = draw(st.integers(2, 120))
    sigma, g = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 3.0))
    bath = draw(st.none() | st.builds(BathSpec, st.floats(0.1, 5.0), st.floats(0.01, 0.5)))
    return s, sigma, g, bath, draw(st.integers(0, 2**16))


@DERANDOMIZED
@given(closed_params())
@example((200, 0.5, 0.0, None, 0))  # the localized chain of the closed benchmark: 157 modes kept
@example((400, 0.5, 2.0, None, 0))  # the tilted chain: 14 modes and 17 sites kept
@example((20, 0.0, 0.0, None, 0))  # the clean chain
@example((100, 0.5, 2.0, BathSpec(1.0, 0.05), 0))  # the transport chain: 14 modes, 17 sites
def test_closed_reach_cut_holds_to_its_bound(params):
    # The rows are read on the modes M and sites S of _reach for a weight W
    # that bounds each of their entries: the moment rows x, y^2, y and the
    # last site's indicator under W = max(|x|, D, D^2), and random rows in
    # [-1, 1] and a 0/1 row, as the superposed switch reads, under W = 1.
    # What that leaves out of row r, on the sites S the sum of
    # R_rj (|a_j + delta_j|^2 - |a_j|^2), with a and delta the site amplitudes
    # of the modes M and of the rest, and on the other sites
    # R_rj |a_j + delta_j|^2, less with a bath the part of the correction on
    # the modes outside M, R_r (V*V)[:, not M] |U_not M|^2, is formed term by
    # term (no cancellation of two full read-outs) and must stay within the
    # documented bound 2 sqrt(A_r E) + E, plus E/2 with a bath, E = _REACH,
    # A_r the coherent term read with |R_r| on the cut; 1e-6 covers the
    # rounding of the terms. The modes spend sum_j W_j d_j^2 <= E/2 of the
    # budget, and the dropped sites' part alone stays within the rest. y is
    # taken about the mean at t = 0, as a block's first column gives it.
    s, sigma, g, bath, seed = params
    e, v = chain_spectrum(s, sigma, g, seed)
    x = np.arange(1.0, s + 1)
    pops, amps = relax_energy_density(e, bath, v[0], 1000.0, 5.0)
    y = x - x @ np.abs(v @ amps[:, 0]) ** 2
    rng = np.random.default_rng(seed)
    unit = np.vstack([rng.uniform(-1.0, 1.0, (2, s)), rng.integers(0, 2, s)])
    moment = np.stack([x, y**2, y, np.arange(s) == s - 1])
    budget = lindblad._REACH
    for rows, weight in ((moment, lindblad._moment_weight(x)), (unit, np.ones(s))):
        assert np.all(np.abs(rows) <= weight * (1 + 1e-12))  # the mean rounds past min x
        modes, sites = lindblad._reach(v, v[0], weight)
        spent = weight @ np.square(np.abs(v[:, ~modes]) @ np.abs(v[0, ~modes]))
        assert spent <= budget / 2
        kept, delta = v[:, modes] @ amps[modes], v[:, ~modes] @ amps[~modes]
        whole = np.abs(kept + delta) ** 2
        outside = rows[:, ~sites] @ whole[~sites]
        assert np.all(np.abs(outside) <= (budget - spent) * (1 + 1e-6))
        inside = 2 * (kept.conj() * delta).real + np.abs(delta) ** 2
        moved = rows[:, sites] @ inside[sites] + outside
        read = np.abs(rows[:, sites]) @ np.abs(kept[sites]) ** 2
        bound = 2 * np.sqrt(read * budget) + budget
        if pops is not None:  # the correction subtracts |U|^2 on the modes M alone
            moved -= rows @ (np.square(v[:, ~modes]) @ np.abs(amps[~modes]) ** 2)
            bound += budget / 2
        assert np.all(np.abs(moved) <= bound * (1 + 1e-6))


@st.composite
def region_params(draw):
    """(branch or None, s, a, sigma, g, disorder seed): a closed chain (None) or classical branch."""
    branch = draw(st.sampled_from([None, "U", "D"]))
    s = draw(st.integers(2 if branch is None else 7, 60))
    a = 0 if branch is None else draw(st.integers(1, s - 6))
    sigma, g = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 3.0))
    return branch, s, a, sigma, g, draw(st.integers(0, 2**16))


@DERANDOMIZED
@given(region_params())
@example(("U", 52, 9, 0.5, 2.0, 0))  # the tilted branch: p_beyond_gate near 1e-23 at early times
@example((None, 60, 0, 0.5, 0.0, 0))  # a localized chain: the last site far below its floor
def test_closed_region_rows_keep_their_relative_accuracy(params):
    # A closed run reads its region rows (the chain's last site, a classical
    # branch's sites past the gate) on one reach that keeps, for each region
    # site j, every mode but the smallest |V_jm c_m| within eps b_j / 8,
    # b_j = sum_m |V_jm| |c_m|. The region row must then equal the sum over the
    # region of |V_j U|^2, formed in long double from the same float64 V and U,
    # within sum_j 16 eps b_j (2 sqrt(p_j) + eps b_j): the rounding of its own
    # dot products, however small the row is. An absolute budget cannot give
    # that to a row near 1e-23, and breaks the bound there.
    branch, s, a, sigma, g, seed = params
    disorder = sample_disorder(s, sigma, seed)
    if branch is None:
        energies = build_chain_hamiltonian(disorder, g)
        e, v = diagonalize(energies)
        region = np.array([s - 1])
        got = lindblad.dissipative_transport_run(energies, None, 300.0, 1.0)["p_region"]
    else:
        sites, _, (e, v) = build_branch(a, branch, disorder, g)
        region = np.flatnonzero(sites >= a + 5)
        got = run_classical_input(a, disorder, g, None, branch, 300.0, 1.0)["p_beyond_gate"]
    _, amps = relax_energy_density(e, None, v[0], 300.0, 1.0)
    rows = v[region].astype(np.longdouble)
    exact = (rows @ amps.real.astype(np.longdouble)) ** 2
    exact += (rows @ amps.imag.astype(np.longdouble)) ** 2  # p_j, one row per region site
    unit = 2.0**-53 * (np.abs(v[region]) @ np.abs(v[0]))[:, None]  # eps b_j
    bound = np.sum(16 * unit * (2 * np.sqrt(exact) + unit), axis=0)
    assert np.all(np.abs(got - exact.sum(axis=0)) <= bound)
