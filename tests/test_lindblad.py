import numpy as np
import pytest
from support import brute_force_lindblad, integrate_populations, relax_energy_density_dense

from openchain.chains import (
    ChainSpec,
    build_chain_hamiltonian,
    diagonalize,
    free_eigensystem,
)
from openchain.lindblad import (
    BathSpec,
    DegenerateGapError,
    EnergyRepDensity,
    density_observables,
    dissipative_transport_run,
    population_generator,
    propagate_coherences,
    propagate_populations,
    thermal_fixed_point,
    to_energy_representation,
    to_position_representation,
    transition_rates,
)
from openchain.unitary import PureState, unitary_observable_series


def random_spectrum(dim, seed, min_gap=0.2):
    rng = np.random.Generator(np.random.Philox(key=seed))
    gaps = min_gap + rng.uniform(0.0, 2.0, dim - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)]) + rng.uniform(-1, 1)


def random_density(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestTransitionRates:
    def test_bose_factors(self):
        rates = transition_rates([0.0, 1.0], BathSpec(beta=1.0, zeta=1.0))
        assert rates.gamma[1, 0] == pytest.approx(0.58198, abs=1e-5)
        assert rates.gamma[0, 1] == pytest.approx(1.58198, abs=1e-5)

    def test_zero_temperature_limit(self):
        rates = transition_rates([0.0, 1.0], BathSpec(beta=50.0, zeta=1.0))
        assert rates.gamma[1, 0] < 1e-20
        assert rates.gamma[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_detailed_balance(self):
        evals = random_spectrum(8, 1)
        beta = 0.7
        rates = transition_rates(evals, BathSpec(beta=beta, zeta=1.0))
        for k in range(7):
            omega = evals[k + 1] - evals[k]
            assert rates.gamma[k + 1, k] / rates.gamma[k, k + 1] == pytest.approx(
                np.exp(-beta * omega), rel=1e-12
            )

    def test_nearest_level_only(self):
        rates = transition_rates(random_spectrum(6, 2), BathSpec(beta=1.0, zeta=1.0))
        mask = np.abs(np.subtract.outer(range(6), range(6))) == 1
        assert np.all(rates.gamma[~mask] == 0.0)
        assert np.all(rates.gamma >= 0.0)
        assert np.allclose(rates.widths, rates.gamma.sum(axis=0))

    def test_degenerate_gap_rejected(self):
        with pytest.raises(DegenerateGapError):
            transition_rates([0.0, 0.0, 1.0], BathSpec(beta=1.0, zeta=1.0))


class TestPropagatePopulations:
    def test_zero_time(self):
        rates = transition_rates([0.0, 1.0, 2.5], BathSpec(beta=1.0, zeta=0.3))
        p0 = np.array([0.2, 0.3, 0.5])
        assert np.allclose(
            propagate_populations(rates, BathSpec(1.0, 0.3), p0, 0.0), p0, atol=1e-12
        )

    def test_two_level_cold_decay(self):
        # beta large: pure decay of the upper level at unit rate
        bath = BathSpec(beta=50.0, zeta=1.0)
        rates = transition_rates([0.0, 1.0], bath)
        p = propagate_populations(rates, bath, [0.0, 1.0], 1.0)
        assert p[0] == pytest.approx(0.63212, abs=1e-5)
        assert p[1] == pytest.approx(0.36788, abs=1e-5)

    def test_relaxes_to_gibbs(self):
        evals = random_spectrum(7, 3)
        bath = BathSpec(beta=1.3, zeta=0.4)
        rates = transition_rates(evals, bath)
        p0 = np.zeros(7)
        p0[-1] = 1.0
        p_inf = propagate_populations(rates, bath, p0, 2000.0)
        assert np.max(np.abs(p_inf - thermal_fixed_point(evals, 1.3))) < 1e-10

    def test_trace_preserved(self):
        evals = random_spectrum(9, 4)
        bath = BathSpec(beta=0.8, zeta=0.6)
        rates = transition_rates(evals, bath)
        p0 = thermal_fixed_point(evals, 5.0)
        for t in (0.1, 3.0, 50.0):
            assert propagate_populations(rates, bath, p0, t).sum() == pytest.approx(
                1.0, abs=1e-9
            )

    def test_negative_input_rejected(self):
        rates = transition_rates([0.0, 1.0], BathSpec(1.0, 1.0))
        with pytest.raises(ValueError):
            propagate_populations(rates, BathSpec(1.0, 1.0), [-0.1, 1.1], 1.0)

    @pytest.mark.parametrize("dim,seed", [(3, 5), (8, 6), (20, 7)])
    def test_expm_matches_adaptive_integrator(self, dim, seed):
        evals = random_spectrum(dim, seed)
        bath = BathSpec(beta=1.1, zeta=0.7)
        rates = transition_rates(evals, bath)
        rng = np.random.Generator(np.random.Philox(key=seed))
        p0 = rng.uniform(0.1, 1.0, dim)
        p0 /= p0.sum()
        a = propagate_populations(rates, bath, p0, 4.0)
        b = integrate_populations(population_generator(rates, bath), p0, 4.0)
        assert np.max(np.abs(a - b)) < 1e-8


class TestPropagateCoherences:
    def test_zero_coupling_is_phase_rotation(self):
        evals = np.array([0.0, 1.5, 2.0])
        bath = BathSpec(beta=1.0, zeta=0.0)
        rates = transition_rates(evals, bath)
        rho0 = np.ones((3, 3), complex) - np.eye(3)
        out = propagate_coherences(evals, rates, bath, rho0, 2.0)
        for m in range(3):
            for n in range(3):
                if m != n:
                    expected = np.exp(-1j * (evals[m] - evals[n]) * 2.0)
                    assert out[m, n] == pytest.approx(expected, abs=1e-12)

    def test_two_level_decay(self):
        bath = BathSpec(beta=50.0, zeta=1.0)
        evals = np.array([0.0, 1.0])
        rates = transition_rates(evals, bath)
        rho0 = np.array([[0, 0.5], [0.5, 0]], complex)
        out = propagate_coherences(evals, rates, bath, rho0, 2.0)
        assert abs(out[0, 1]) == pytest.approx(0.5 * np.exp(-1.0), abs=1e-10)

    def test_hermiticity(self):
        evals = random_spectrum(5, 8)
        bath = BathSpec(beta=0.9, zeta=0.2)
        rates = transition_rates(evals, bath)
        rho0 = random_density(5, 9)
        np.fill_diagonal(rho0, 0.0)
        out = propagate_coherences(evals, rates, bath, rho0, 3.7)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_monotone_decay(self):
        evals = random_spectrum(4, 10)
        bath = BathSpec(beta=1.0, zeta=0.5)
        rates = transition_rates(evals, bath)
        rho0 = random_density(4, 11)
        np.fill_diagonal(rho0, 0.0)
        prev = np.abs(rho0)
        for t in (0.5, 1.0, 2.0, 4.0):
            cur = np.abs(propagate_coherences(evals, rates, bath, rho0, t))
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_matches_brute_force_lindblad(self):
        # independent oracle: integrate the full dissipator with explicit
        # jump operators and compare populations and coherences
        for dim, seed in ((3, 12), (6, 13)):
            evals = random_spectrum(dim, seed)
            bath = BathSpec(beta=1.2, zeta=0.4)
            rates = transition_rates(evals, bath)
            rho0 = random_density(dim, seed + 100)
            t = 2.5
            oracle = brute_force_lindblad(evals, rates.gamma, bath.zeta, rho0, t)
            pops = propagate_populations(rates, bath, np.real(np.diag(rho0)), t)
            offdiag = rho0.copy()
            np.fill_diagonal(offdiag, 0.0)
            cohs = propagate_coherences(evals, rates, bath, offdiag, t)
            ours = np.diag(pops).astype(complex) + cohs
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
        rates = transition_rates(evals, bath)
        gen = population_generator(rates, bath)
        resid = gen @ thermal_fixed_point(evals, 1.4)
        assert np.max(np.abs(resid)) < 1e-12


class TestRepresentations:
    def test_pure_eigenstate_population(self):
        eig = free_eigensystem(5)
        pops = np.zeros(5)
        pops[2] = 1.0
        rho = to_position_representation(eig, EnergyRepDensity(pops, np.zeros((5, 5))))
        v = eig.eigenvectors[:, 2]
        assert np.max(np.abs(rho - np.outer(v, v))) < 1e-12

    def test_maximally_mixed_invariant(self):
        eig = free_eigensystem(6)
        rho = to_position_representation(
            eig, EnergyRepDensity(np.full(6, 1 / 6), np.zeros((6, 6)))
        )
        assert np.max(np.abs(rho - np.eye(6) / 6)) < 1e-12

    def test_round_trip(self):
        eig = diagonalize(build_chain_hamiltonian(ChainSpec(7, 0.3, 1.0, seed=16)))
        rho_pos = random_density(7, 17)
        back = to_position_representation(eig, to_energy_representation(eig, rho_pos))
        assert np.max(np.abs(back - rho_pos)) < 1e-12

    def test_energy_density_validate(self):
        good = EnergyRepDensity.from_matrix(random_density(4, 18))
        good.validate()
        bad = EnergyRepDensity(np.array([0.7, 0.7]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            bad.validate()


class TestDensityObservables:
    def test_basis_state(self):
        rho = np.zeros((10, 10), complex)
        rho[6, 6] = 1.0
        assert density_observables(rho, {7}) == pytest.approx((7.0, 0.0, 1.0))
        assert density_observables(rho, {3})[2] == 0.0

    def test_maximally_mixed(self):
        mean, _, _ = density_observables(np.eye(20) / 20)
        assert mean == pytest.approx(10.5)


class TestDissipativeTransportRun:
    def test_weak_coupling_limit_matches_unitary(self):
        spec = ChainSpec(10, 0.3, 1.0, seed=19)
        h = build_chain_hamiltonian(spec)
        grid = np.linspace(0, 10, 51)
        psi0 = PureState.site(10, 1)
        unitary = unitary_observable_series(diagonalize(h), psi0, grid, region={10})
        open_sys = dissipative_transport_run(
            h, BathSpec(beta=1.0, zeta=1e-9), psi0.amplitudes, grid
        )
        assert np.max(np.abs(open_sys.mean_q - unitary.mean_q)) < 1e-6

    def test_zero_coupling_exact(self):
        spec = ChainSpec(8, 0.4, 1.5, seed=20)
        h = build_chain_hamiltonian(spec)
        grid = np.linspace(0, 25, 26)
        psi0 = PureState.site(8, 1)
        unitary = unitary_observable_series(diagonalize(h), psi0, grid, region={8})
        open_sys = dissipative_transport_run(
            h, BathSpec(beta=1.0, zeta=0.0), psi0.amplitudes, grid
        )
        assert np.max(np.abs(open_sys.mean_q - unitary.mean_q)) < 1e-12
        assert np.max(np.abs(open_sys.p_region - unitary.p_region)) < 1e-12

    def test_transport_reaches_far_end(self):
        # tilted disordered chain with a cold bath: the excitation walks to
        # the last site and stays
        h = build_chain_hamiltonian(ChainSpec(20, 0.5, 2.0, seed=0))
        grid = np.linspace(0, 1000, 251)
        series = dissipative_transport_run(
            h, BathSpec(beta=1.0, zeta=0.05), PureState.site(20, 1).amplitudes, grid
        )
        assert series.p_region[-1] >= 0.8
        # past the initial transient the drift is monotone to the right
        tail = series.mean_q[grid >= 100]
        assert np.all(np.diff(tail) >= -1e-9)
        assert series.mean_q[-1] > 19.0

    def test_effective_hop_time(self):
        # cold-bath regime: one site per 1/zeta time units, within 50%
        h = build_chain_hamiltonian(ChainSpec(20, 0.0, 2.0, seed=0))
        grid = np.linspace(0, 600, 1201)
        series = dissipative_transport_run(
            h, BathSpec(beta=50.0, zeta=0.05), PureState.site(20, 1).amplitudes, grid
        )
        t5 = np.interp(5.0, series.mean_q, grid)
        t15 = np.interp(15.0, series.mean_q, grid)
        per_site = (t15 - t5) / 10.0
        assert 10.0 <= per_site <= 30.0

    def test_trace_and_positivity_along_run(self):
        h = build_chain_hamiltonian(ChainSpec(12, 0.5, 2.0, seed=21))
        eig = diagonalize(h)
        bath = BathSpec(beta=1.0, zeta=0.1)
        rates = transition_rates(eig.eigenvalues, bath)
        psi0 = PureState.site(12, 1).amplitudes
        rho0 = to_energy_representation(eig, np.outer(psi0, psi0.conj()))
        for state in relax_energy_density_dense(
            eig.eigenvalues, rates, bath, rho0, np.linspace(0, 200, 41)
        ):
            assert state.trace() == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(state.matrix()).min() > -1e-9
