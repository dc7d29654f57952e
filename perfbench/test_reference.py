"""Tests of the benchmark's reference computations against facts they must obey.

Run with ``python3 -m pytest perfbench``. None of these tests imports
openchain: the references are checked against closed forms, conservation
laws and a brute-force Liouvillian, not against the code they judge.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import reference as ref


def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=5))


def test_free_chain_spectrum_is_the_closed_form():
    s = 37
    evals = np.linalg.eigvalsh(ref.chain_matrix(np.zeros(s)))
    k = np.arange(1, s + 1)
    assert np.max(np.abs(evals - (-np.cos(k * np.pi / (s + 1))))) < 1e-13


def test_free_chain_end_probability_matches_dense_propagation():
    s = 23
    times = np.array([0.0, 3.7, 21.0, 40.5])
    prop = ref.Propagator(np.zeros(s))
    dense = np.array([abs(prop.amplitude(t)[-1]) ** 2 for t in times])
    assert np.max(np.abs(ref.free_chain_end_probability(s, times) - dense)) < 1e-13


@pytest.mark.parametrize("beta,zeta", [(1.0, 0.05), (0.3, 0.7), (3.0, 0.01)])
def test_generator_conserves_trace_and_fixes_gibbs(beta, zeta):
    evals = np.sort(rng().normal(size=9)) + np.arange(9)
    a, widths = ref.bath_generator(evals, beta, zeta)
    assert np.max(np.abs(a.sum(axis=0))) < 1e-14
    assert np.allclose(-np.diag(a), widths)
    gibbs = np.exp(-beta * (evals - evals.min()))
    gibbs /= gibbs.sum()
    assert np.max(np.abs(a @ gibbs)) < 1e-14
    assert np.all(a - np.diag(np.diag(a)) >= 0)


def test_zero_coupling_is_the_closed_chain():
    onsite = ref.tilted_onsite(rng().normal(0.0, 0.5, 15), 0.7)
    closed = ref.Propagator(onsite)
    open_ = ref.Propagator(onsite, bath=(1.0, 0.0))
    for t in (0.0, 2.5, 80.0):
        assert np.max(np.abs(open_.probabilities(t) - closed.probabilities(t))) < 1e-13


def _liouvillian(h: np.ndarray, jumps: list[np.ndarray]) -> np.ndarray:
    # column-stacked vec: vec(A X B) = (B^T kron A) vec(X)
    n = h.shape[0]
    eye = np.eye(n)
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for jump in jumps:
        jj = jump.conj().T @ jump
        lv += np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))
    return lv


def test_open_chain_matches_brute_force_lindblad():
    """Nearest-level jumps integrated in the full n^2 Liouville space."""
    n, beta, zeta = 6, 0.8, 0.3
    onsite = ref.tilted_onsite(rng().normal(0.0, 0.5, n), 1.5)
    h = ref.chain_matrix(onsite)
    evals, evecs = np.linalg.eigh(h)
    nbar = 1.0 / np.expm1(beta * np.diff(evals))
    jumps = []
    for k in range(n - 1):
        lower, upper = evecs[:, k], evecs[:, k + 1]
        jumps.append(np.sqrt(zeta * nbar[k]) * np.outer(upper, lower))
        jumps.append(np.sqrt(zeta * (nbar[k] + 1.0)) * np.outer(lower, upper))
    lv = _liouvillian(h, jumps)
    rho0 = np.zeros((n, n), dtype=complex)
    rho0[0, 0] = 1.0
    prop = ref.Propagator(onsite, bath=(beta, zeta))
    for t in (0.7, 4.0, 19.0):
        rho = (expm(lv * t) @ rho0.reshape(-1, order="F")).reshape(n, n, order="F")
        assert np.max(np.abs(np.real(np.diag(rho)) - prop.probabilities(t))) < 1e-11


def test_path_sites_follow_the_two_branches():
    s, a = 20, 6
    up, down = ref.path_sites(s, a, "U"), ref.path_sites(s, a, "D")
    assert up.size == down.size == s - 2
    assert set(up) == set(range(1, a + 3)) | set(range(a + 5, s + 1))
    assert set(down) == set(range(1, a + 1)) | {a + 3, a + 4} | set(range(a + 5, s + 1))
    assert np.all(np.diff(up) > 0) and np.all(np.diff(down) > 0)


def test_clean_unitary_switch_makes_phi_plus_past_the_gate():
    s, a = 22, 9
    states = ref.switch_registers(np.zeros(s), a, 0.0, None, [0.0, 40.0, 90.0, 160.0])
    assert ref.entropy(states[0][0]) < 1e-12
    for full, beyond in states[1:]:
        assert abs(np.trace(full).real - 1.0) < 1e-12
        weight = np.trace(beyond).real
        assert weight > 1e-3
        assert abs(ref.bell_overlap(beyond / weight) - 1.0) < 1e-12


def test_switch_register_is_a_state_under_the_bath():
    s, a = 18, 4
    eps = rng().normal(0.0, 0.5, s)
    for full, beyond in ref.switch_registers(eps, a, 2.0, (1.0, 0.05), [0.0, 30.0, 300.0]):
        assert abs(np.trace(full).real - 1.0) < 1e-12
        assert np.max(np.abs(full - full.conj().T)) < 1e-15
        assert np.linalg.eigvalsh(full).min() > -1e-12
        assert 0.0 <= ref.entropy(full) <= np.log(4.0) + 1e-12
        assert -1e-15 <= np.trace(beyond).real <= 1.0 + 1e-12
