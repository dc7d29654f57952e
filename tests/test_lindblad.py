import itertools

import numpy as np
import pytest
import scipy.linalg
from support import (
    brute_force_lindblad,
    integrate_populations,
    kernel_at,
    kernel_states,
    relax_energy_density,
    thermal_fixed_point,
)

from openchain.chains import (
    build_chain_hamiltonian,
    diagonalize,
    free_eigensystem,
    sample_disorder,
)
from openchain.lindblad import (
    _THETA13,
    BathSpec,
    DegenerateGapError,
    dissipative_transport_run,
    expm,
    population_generator,
    pure_state_series,
    read_out,
    site_amplitudes,
    transition_rates,
)


def random_spectrum(dim, seed, min_gap=0.2):
    rng = np.random.Generator(np.random.Philox(key=seed))
    gaps = min_gap + rng.uniform(0.0, 2.0, dim - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)]) + rng.uniform(-1, 1)


def random_pure(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c / np.linalg.norm(c)


def kernel_populations(evals, bath, p0, t):
    """Populations at time t of the kernel run started from amplitudes sqrt(p0)."""
    pops, _ = kernel_at(evals, bath, np.sqrt(p0), t)
    return pops[:, 0]


def kernel_coherences(evals, bath, c, t):
    """Off-diagonal part of the kernel state u u^H at time t (diagonal set to 0)."""
    _, amps = kernel_at(evals, bath, c, t)
    coh = np.outer(amps[:, 0], amps[:, 0].conj())
    np.fill_diagonal(coh, 0.0)
    return coh


class TestBathSpec:
    @pytest.mark.parametrize(
        "beta,zeta",
        [(0.0, 0.05), (-1.0, 0.05), (1.0, -0.1), (np.nan, 0.05), (1.0, np.nan), (1.0, np.inf)],
        ids=["beta-zero", "beta-negative", "zeta-negative", "beta-nan", "zeta-nan", "zeta-inf"],
    )
    def test_rejects_bad_fields(self, beta, zeta):
        # NaN passes every ordered comparison that fails, so the checks are
        # written as what a valid field satisfies
        with pytest.raises(ValueError):
            BathSpec(beta, zeta)

    def test_zero_temperature_runs_finite(self):
        # beta = inf is zero temperature: no upward jumps, 1/expm1(inf) = 0
        h = build_chain_hamiltonian(sample_disorder(10, 0.5, 0), 2.0)
        columns = dissipative_transport_run(h, BathSpec(np.inf, 0.05), 10.0, 1.0)
        assert all(np.all(np.isfinite(values)) for values in columns.values())


class TestTransitionRates:
    def test_bose_factors(self):
        gamma = transition_rates([0.0, 1.0], BathSpec(beta=1.0, zeta=1.0))
        assert gamma[1, 0] == pytest.approx(0.58198, abs=1e-5)
        assert gamma[0, 1] == pytest.approx(1.58198, abs=1e-5)

    def test_zero_temperature_limit(self):
        gamma = transition_rates([0.0, 1.0], BathSpec(beta=50.0, zeta=1.0))
        assert gamma[1, 0] < 1e-20
        assert gamma[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_detailed_balance(self):
        evals = random_spectrum(8, 1)
        beta = 0.7
        gamma = transition_rates(evals, BathSpec(beta=beta, zeta=1.0))
        for k in range(7):
            omega = evals[k + 1] - evals[k]
            assert gamma[k + 1, k] / gamma[k, k + 1] == pytest.approx(
                np.exp(-beta * omega), rel=1e-12
            )

    def test_nearest_level_only(self):
        gamma = transition_rates(random_spectrum(6, 2), BathSpec(beta=1.0, zeta=1.0))
        mask = np.abs(np.subtract.outer(range(6), range(6))) == 1
        assert np.all(gamma[~mask] == 0.0)
        assert np.all(gamma >= 0.0)

    def test_degenerate_gap_rejected(self):
        with pytest.raises(DegenerateGapError):
            transition_rates([0.0, 0.0, 1.0], BathSpec(beta=1.0, zeta=1.0))


class TestPropagatePopulations:
    """Populations of the pure-state kernel, started from amplitudes sqrt(p0)."""

    def test_zero_time(self):
        p0 = np.array([0.2, 0.3, 0.5])
        assert np.allclose(
            kernel_populations([0.0, 1.0, 2.5], BathSpec(1.0, 0.3), p0, 0.0), p0, atol=1e-12
        )

    def test_two_level_cold_decay(self):
        # beta large: pure decay of the upper level at unit rate
        p = kernel_populations([0.0, 1.0], BathSpec(beta=50.0, zeta=1.0), [0.0, 1.0], 1.0)
        assert p[0] == pytest.approx(0.63212, abs=1e-5)
        assert p[1] == pytest.approx(0.36788, abs=1e-5)

    def test_relaxes_to_gibbs(self):
        evals = random_spectrum(7, 3)
        p0 = np.zeros(7)
        p0[-1] = 1.0
        p_inf = kernel_populations(evals, BathSpec(beta=1.3, zeta=0.4), p0, 2000.0)
        assert np.max(np.abs(p_inf - thermal_fixed_point(evals, 1.3))) < 1e-10

    def test_trace_preserved(self):
        evals = random_spectrum(9, 4)
        bath = BathSpec(beta=0.8, zeta=0.6)
        p0 = thermal_fixed_point(evals, 5.0)
        for t in (0.1, 3.0, 50.0):
            assert kernel_populations(evals, bath, p0, t).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim,seed", [(3, 5), (8, 6), (20, 7)])
    def test_expm_matches_adaptive_integrator(self, dim, seed):
        evals = random_spectrum(dim, seed)
        bath = BathSpec(beta=1.1, zeta=0.7)
        gamma = transition_rates(evals, bath)
        rng = np.random.Generator(np.random.Philox(key=seed))
        p0 = rng.uniform(0.1, 1.0, dim)
        p0 /= p0.sum()
        a = kernel_populations(evals, bath, p0, 4.0)
        b = integrate_populations(population_generator(gamma, bath), p0, 4.0)
        assert np.max(np.abs(a - b)) < 1e-8


class TestExpm:
    """The package's scaling-and-squaring Pade expm against scipy.linalg.expm.

    The bounds are the worst deviations measured over this grid (2.6e-15 and
    6.6e-14; column sums 8.9e-16 and 3.0e-13) times about four.
    """

    @pytest.mark.parametrize("s", [2, 20, 52, 200])
    def test_matches_scipy_on_population_generators(self, s):
        paths = set()
        for g in (0.2, 2.0):
            evals, _ = diagonalize(build_chain_hamiltonian(sample_disorder(s, 0.5, 0), g))
            for zeta, dt in itertools.product([0.05, 0.5], [0.05, 1.0, 32.0, 500.0]):
                bath = BathSpec(beta=1.0, zeta=zeta)
                a = population_generator(transition_rates(evals, bath), bath) * dt
                scaled = np.linalg.norm(a, 1) > _THETA13  # above it expm scales and squares
                paths.add(scaled)
                out = expm(a)
                assert np.max(np.abs(out - scipy.linalg.expm(a))) <= (3e-13 if scaled else 1e-14)
                assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= (1.2e-12 if scaled else 4e-15)
        assert paths == {False, True}

    def test_zero_is_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


class TestPropagateCoherences:
    """Coherences of the pure-state kernel: u u^H off the diagonal."""

    def test_zero_coupling_is_phase_rotation(self):
        evals = np.array([0.0, 1.5, 2.0])
        out = kernel_coherences(evals, BathSpec(beta=1.0, zeta=0.0), np.ones(3), 2.0)
        for m in range(3):
            for n in range(3):
                if m != n:
                    expected = np.exp(-1j * (evals[m] - evals[n]) * 2.0)
                    assert out[m, n] == pytest.approx(expected, abs=1e-12)

    def test_two_level_decay(self):
        bath = BathSpec(beta=50.0, zeta=1.0)
        evals = np.array([0.0, 1.0])
        out = kernel_coherences(evals, bath, np.array([1.0, 1.0]) / np.sqrt(2.0), 2.0)
        assert abs(out[0, 1]) == pytest.approx(0.5 * np.exp(-1.0), abs=1e-10)

    def test_monotone_decay(self):
        evals = random_spectrum(4, 10)
        bath = BathSpec(beta=1.0, zeta=0.5)
        c = random_pure(4, 11)
        prev = np.abs(kernel_coherences(evals, bath, c, 0.0))
        for t in (0.5, 1.0, 2.0, 4.0):
            cur = np.abs(kernel_coherences(evals, bath, c, t))
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_matches_brute_force_lindblad(self):
        # independent oracle: integrate the full dissipator with explicit
        # jump operators and compare populations and coherences
        for dim, seed in ((3, 12), (6, 13)):
            evals = random_spectrum(dim, seed)
            bath = BathSpec(beta=1.2, zeta=0.4)
            gamma = transition_rates(evals, bath)
            c = random_pure(dim, seed + 100)
            t = 2.5
            oracle = brute_force_lindblad(evals, gamma, bath.zeta, np.outer(c, c.conj()), t)
            ours = kernel_states(*kernel_at(evals, bath, c, t))[0]
            assert np.max(np.abs(ours - oracle)) < 1e-8


class TestThermalFixedPoint:
    def test_two_level(self):
        p = thermal_fixed_point([0.0, 1.0], 1.0)
        assert p[0] == pytest.approx(0.73106, abs=1e-5)
        assert p[1] == pytest.approx(0.26894, abs=1e-5)

    def test_high_temperature_uniform(self):
        p = thermal_fixed_point(random_spectrum(6, 14), 1e-9)
        assert np.allclose(p, 1 / 6, atol=1e-8)

    def test_generator_annihilates_gibbs(self):
        evals = random_spectrum(10, 15)
        bath = BathSpec(beta=1.4, zeta=0.9)
        gamma = transition_rates(evals, bath)
        gen = population_generator(gamma, bath)
        resid = gen @ thermal_fixed_point(evals, 1.4)
        assert np.max(np.abs(resid)) < 1e-12


class TestRepresentations:
    """The kernel's rotation to the site basis."""

    def test_pure_eigenstate_population(self):
        e, v = free_eigensystem(5)
        c = np.zeros(5)
        c[2] = 1.0
        pops, amps = kernel_at(e, None, c, 0.0)
        prob = read_out(v, np.eye(e.size), pops, amps)[:, 0]
        assert np.max(np.abs(prob - v[:, 2] ** 2)) < 1e-12

    def test_maximally_mixed_invariant(self):
        # uniform populations without coherences: flat in the site basis too
        e, v = free_eigensystem(6)
        pops, amps = np.full((6, 1), 1 / 6), np.zeros((6, 1), complex)
        prob = read_out(v, np.eye(e.size), pops, amps)
        assert np.max(np.abs(prob - 1 / 6)) < 1e-12

    def test_round_trip(self):
        _, v = diagonalize(build_chain_hamiltonian(sample_disorder(7, 0.3, 16), 1.0))
        psi = random_pure(7, 17)
        back = site_amplitudes(v, (v.T @ psi)[:, None])[:, 0]
        assert np.max(np.abs(back - psi)) < 1e-12


class TestDensityObservables:
    """Moments and region weight of a site distribution."""

    @staticmethod
    def observables(prob, region):
        # with V = 1 the site distribution at t = 0 is |c|^2 = prob
        eig = np.arange(prob.size, dtype=float), np.eye(prob.size)
        x = np.arange(1, prob.size + 1)
        rows = np.asarray(sorted(region), dtype=int) - 1
        series = pure_state_series(eig, None, np.sqrt(prob), 1.0, 1.0, x, rows)
        return series["mean_Q"][0], series["var_Q"][0], series["p_region"][0]

    def test_basis_state(self):
        prob = np.zeros(10)
        prob[6] = 1.0
        assert self.observables(prob, {7}) == pytest.approx((7.0, 0.0, 1.0))
        assert self.observables(prob, {3})[2] == 0.0

    def test_maximally_mixed(self):
        mean, _, _ = self.observables(np.full(20, 1 / 20), ())
        assert mean == pytest.approx(10.5)

    def test_negative_variance_rejected(self):
        # unnormalized weights 1, 1 on x = 1, 2: <x^2> - <x>^2 = 5 - 9 = -4
        with pytest.raises(FloatingPointError, match="variance"):
            self.observables(np.ones(2), ())

    def test_tiny_negative_variance_clipped(self):
        # one site of weight w = 1 + 1e-4: the variance w (1 - w)^3 is about
        # -1e-12, a rounding-level negative, and reads 0
        assert self.observables(np.array([1.0 + 1e-4]), ())[1] == 0.0


class TestDissipativeTransportRun:
    def test_weak_coupling_limit_matches_unitary(self):
        h = build_chain_hamiltonian(sample_disorder(10, 0.3, 19), 1.0)
        unitary = dissipative_transport_run(h, None, 10.0, 0.2)
        open_sys = dissipative_transport_run(h, BathSpec(beta=1.0, zeta=1e-9), 10.0, 0.2)
        assert np.max(np.abs(open_sys["mean_Q"] - unitary["mean_Q"])) < 1e-6

    def test_zero_coupling_exact(self):
        h = build_chain_hamiltonian(sample_disorder(8, 0.4, 20), 1.5)
        unitary = dissipative_transport_run(h, None, 25.0, 1.0)
        open_sys = dissipative_transport_run(h, BathSpec(beta=1.0, zeta=0.0), 25.0, 1.0)
        assert np.max(np.abs(open_sys["mean_Q"] - unitary["mean_Q"])) < 1e-12
        assert np.max(np.abs(open_sys["p_region"] - unitary["p_region"])) < 1e-12

    def test_transport_reaches_far_end(self):
        # tilted disordered chain with a cold bath: the excitation walks to
        # the last site and stays
        h = build_chain_hamiltonian(sample_disorder(20, 0.5, 0), 2.0)
        series = dissipative_transport_run(h, BathSpec(beta=1.0, zeta=0.05), 1000.0, 4.0)
        assert series["p_region"][-1] >= 0.8
        # past the initial transient the drift is monotone to the right
        tail = series["mean_Q"][series["t"] >= 100]
        assert np.all(np.diff(tail) >= -1e-9)
        assert series["mean_Q"][-1] > 19.0

    def test_effective_hop_time(self):
        # cold-bath regime: one site per 1/zeta time units, within 50%
        h = build_chain_hamiltonian(sample_disorder(20, 0.0, 0), 2.0)
        series = dissipative_transport_run(h, BathSpec(beta=50.0, zeta=0.05), 600.0, 0.5)
        t5 = np.interp(5.0, series["mean_Q"], series["t"])
        t15 = np.interp(15.0, series["mean_Q"], series["t"])
        per_site = (t15 - t5) / 10.0
        assert 10.0 <= per_site <= 30.0

    def test_trace_and_positivity_along_run(self):
        h = build_chain_hamiltonian(sample_disorder(12, 0.5, 21), 2.0)
        e, v = diagonalize(h)
        bath = BathSpec(beta=1.0, zeta=0.1)
        pops, amps = relax_energy_density(e, bath, v[0], 200.0, 5.0)
        for state in kernel_states(pops, amps):
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(state).min() > -1e-9
