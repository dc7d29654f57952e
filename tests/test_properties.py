"""Invariants of the pure-state kernel and the superposed switch run across
the parameter space.

Hypothesis draws small chains, layouts and physical parameters; the profile
is derandomized (fixed examples, no example database) so the suite stays
deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    evolve_full,
    full_space_observables,
    full_space_state,
    full_switch_hamiltonian,
    relax_energy_density,
    thermal_fixed_point,
)

from openchain.chains import build_chain_hamiltonian, diagonalize, sample_disorder
from openchain.feynman import (
    register_index,
    run_classical_input,
    run_superposed_input,
)
from openchain import lindblad
from openchain.lindblad import BathSpec, read_out

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


def superposed_run(s, a, sigma, g, beta, zeta, seed):
    disorder = sample_disorder(s, sigma, seed)
    return run_superposed_input(a, disorder, g, BathSpec(beta, zeta), 300.0, 5.0)


@DERANDOMIZED
@given(switch_params())
def test_register_is_a_density_matrix(params):
    series, reg = superposed_run(*params)
    assert reg.shape == (series["t"].size, 4, 4)
    assert np.max(np.abs(reg - np.conj(np.swapaxes(reg, 1, 2)))) < 1e-12
    assert np.max(np.abs(np.trace(reg, axis1=1, axis2=2) - 1.0)) < 1e-9
    assert np.linalg.eigvalsh(reg).min() > -1e-9


@DERANDOMIZED
@given(switch_params())
def test_entropy_bounds_and_branch_weights(params):
    series, _ = superposed_run(*params)
    assert np.all(series["entropy"] >= 0.0)
    assert np.all(series["entropy"] <= np.log(4.0) + 1e-12)
    assert np.max(np.abs(series["trace_UU"] + series["trace_DD"] - 1.0)) < 1e-9


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


def chain_spectrum(s, sigma, g, seed):
    return diagonalize(build_chain_hamiltonian(sample_disorder(s, sigma, seed), g))


@DERANDOMIZED
@given(chain_params())
def test_kernel_conserves_trace_and_positivity(params):
    s, sigma, g, beta, zeta, seed = params
    e, v = chain_spectrum(s, sigma, g, seed)
    pops, amps = relax_energy_density(e, BathSpec(beta, zeta), v[0], 500.0, 10.0)
    assert np.max(np.abs(pops.sum(axis=0) - 1.0)) < 1e-9
    assert pops.min() > -1e-12
    prob = read_out(v, np.eye(s), pops, amps)
    assert np.max(np.abs(prob.sum(axis=0) - 1.0)) < 1e-9
    assert prob.min() > -1e-9


@DERANDOMIZED
@given(chain_params())
def test_gibbs_populations_are_stationary(params):
    s, sigma, g, beta, zeta, seed = params
    e, _ = chain_spectrum(s, sigma, g, seed)
    gibbs = thermal_fixed_point(e, beta)
    pops, _ = relax_energy_density(e, BathSpec(beta, zeta), np.sqrt(gibbs), 500.0, 50.0)
    assert np.max(np.abs(pops - gibbs[:, None])) < 1e-9


@DERANDOMIZED
@given(chain_params())
def test_read_out_cut_drops_only_decayed_coherences(params):
    # The cut is the first column with ||u||^2 < 2^-70, and past it read_out
    # omits R |V U|^2: it must still equal the uncut read-out to rounding.
    s, sigma, g, beta, zeta, seed = params
    e, v = chain_spectrum(s, sigma, g, seed)
    pops, amps = relax_energy_density(e, BathSpec(beta, zeta), v[0], 3000.0, 5.0)  # one block
    decayed = np.flatnonzero(np.sum(np.abs(amps) ** 2, axis=0) < lindblad._DECAYED)
    assert lindblad._coherent_columns(amps) == (decayed[0] if decayed.size else amps.shape[1])
    rows = np.random.default_rng(seed).standard_normal((3, s))
    uncut = rows @ np.abs(v @ amps) ** 2 + (rows @ np.square(v)) @ (pops - np.abs(amps) ** 2)
    bound = np.finfo(float).eps * np.abs(rows).max() * s
    assert np.max(np.abs(read_out(v, rows, pops, amps) - uncut)) <= bound
