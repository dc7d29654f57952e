import numpy as np
import pytest
from support import (
    bandwidth,
    build_free_chain,
    clean_chain_last_site,
    closed_series,
    dense_hamiltonian,
    evolve_pure,
    free_eigensystem,
    localization_length_gaussian,
)

from openchain.chains import (
    build_chain_hamiltonian,
    diagonalize,
    free_end_weights,
    sample_disorder,
)
from openchain.lindblad import arrival_peak, dissipative_transport_run, time_grid


def random_state(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


def moments(psi):
    """Mean and variance of the position x = 1..dim in the state psi."""
    prob = np.abs(psi) ** 2
    x = np.arange(1, prob.size + 1)
    mean = prob @ x
    return mean, prob @ x**2 - mean**2


class TestEvolvePure:
    """Closed-chain propagation: the kernel's series and the dense oracle."""

    def test_zero_time_identity(self):
        psi0 = random_state(7, 1)
        series = closed_series(free_eigensystem(7), psi0, 1.0, 1.0, region={3})
        mean, var = moments(psi0)
        assert series["mean_Q"][0] == pytest.approx(mean, abs=1e-12)
        assert series["var_Q"][0] == pytest.approx(var, abs=1e-12)
        assert series["p_region"][0] == pytest.approx(abs(psi0[2]) ** 2, abs=1e-12)

    def test_two_site_rabi(self):
        # 2x2 chain: P(site 2)(t) = sin^2(t/2), exactly 1 at t = pi
        series = closed_series(free_eigensystem(2), np.eye(2)[0], 2 * np.pi, np.pi / 4, region={2})
        times = series["t"]  # holds pi/2 and pi
        assert np.max(np.abs(series["p_region"] - np.sin(times / 2) ** 2)) <= 1e-12

    @pytest.mark.parametrize("t", [0.1, 3.0, 57.0])
    def test_norm_preserved(self, t):
        eig = diagonalize(build_chain_hamiltonian(sample_disorder(15, 0.4, 2), 1.0))
        series = closed_series(eig, random_state(15, 3), t, t, region=range(1, 16))
        assert abs(series["p_region"][-1] - 1.0) < 1e-10

    def test_composition(self):
        h = build_chain_hamiltonian(sample_disorder(12, 0.3, 4), 0.5)
        psi0 = random_state(12, 5)
        one_shot = evolve_pure(h, psi0, 5.2)
        two_step = evolve_pure(h, evolve_pure(h, psi0, 2.0), 3.2)
        assert np.max(np.abs(one_shot - two_step)) < 1e-9

    def test_energy_conserved(self):
        h = build_chain_hamiltonian(sample_disorder(12, 0.3, 6), 0.5)
        psi0 = random_state(12, 7)
        hd = dense_hamiltonian(h)
        e0 = np.real(psi0.conj() @ hd @ psi0)
        for t in (1.0, 10.0, 100.0):
            psi = evolve_pure(h, psi0, t)
            e_t = np.real(psi.conj() @ hd @ psi)
            assert abs(e_t - e0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            closed_series(free_eigensystem(5), np.eye(4)[0], 1.0, 1.0)


class TestPositionMoments:
    """mean_Q and var_Q of the kernel's series at t = 0."""

    @staticmethod
    def at_start(amplitudes):
        series = closed_series(free_eigensystem(amplitudes.size), amplitudes, 1.0, 1.0)
        return series["mean_Q"][0], series["var_Q"][0]

    def test_basis_state(self):
        mean, var = self.at_start(np.eye(9)[4])
        assert mean == pytest.approx(5.0, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_uniform_three_sites(self):
        mean, var = self.at_start(np.full(3, 1 / np.sqrt(3)))
        assert mean == pytest.approx(2.0)
        assert var == pytest.approx(2.0 / 3.0)

    def test_edge_superposition(self):
        amp = np.zeros(20)
        amp[0] = amp[19] = 1 / np.sqrt(2)
        mean, var = self.at_start(amp)
        assert mean == pytest.approx(10.5)
        assert var == pytest.approx(90.25)


class TestSiteProbability:
    """Region probability of the kernel's series."""

    def test_all_sites(self):
        series = closed_series(
            free_eigensystem(8), random_state(8, 11), 3.0, 3.0, region=range(1, 9)
        )
        assert series["p_region"] == pytest.approx([1.0, 1.0])

    def test_empty_region(self):
        series = closed_series(free_eigensystem(8), random_state(8, 12), 2.0, 2.0, [])
        assert np.all(series["p_region"] == 0.0)

    def test_half_transfer(self):
        series = closed_series(free_eigensystem(2), np.eye(2)[0], np.pi / 2, np.pi / 2, region={2})
        assert series["p_region"][-1] == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_series(free_eigensystem(5), random_state(5, 13), 1.0, 1.0, {6})


class TestArrivalPeak:
    def test_two_site_peak(self):
        t_star, p_star = arrival_peak(*free_end_weights(2), 8.0, dt=1e-4)
        assert t_star == pytest.approx(np.pi, abs=1e-3)
        assert p_star == pytest.approx(1.0, abs=1e-6)


class TestCleanChainOracle:
    """The clean chain against its Bessel image sum, which uses no eigensolver."""

    @pytest.mark.parametrize("s", [50, 400, 1600])
    def test_arrival_peak(self, s):
        times = time_grid(1.5 * s + 10, 0.05)
        oracle = clean_chain_last_site(s, times)
        t_star, p_star = arrival_peak(*free_end_weights(s), 1.5 * s + 10, 0.05)
        assert t_star == times[np.argmax(oracle)]
        assert abs(p_star - oracle.max()) <= 1e-13

    @pytest.mark.parametrize("s", [50, 400])
    def test_closed_run_last_site(self, s):
        # the dense eigensolver path: dissipative_transport_run diagonalizes h
        times = time_grid(1.5 * s + 10, 0.05)
        series = dissipative_transport_run(build_free_chain(s), None, 1.5 * s + 10, 0.05)
        assert np.max(np.abs(series["p_region"] - clean_chain_last_site(s, times))) <= 1e-13


class TestObservableSeries:
    def test_matches_pointwise_evolution(self):
        # against the dense oracle, which shares no code with the kernel
        h = build_chain_hamiltonian(sample_disorder(10, 0.2, 8), 0.7)
        psi0 = np.eye(10)[0]
        series = closed_series(diagonalize(h), psi0, 20.0, 0.5, region={9, 10})
        grid = series["t"]
        for i in (0, 7, 40):
            psi = evolve_pure(h, psi0, grid[i])
            mean, var = moments(psi)
            assert series["mean_Q"][i] == pytest.approx(mean, abs=1e-10)
            assert series["var_Q"][i] == pytest.approx(var, abs=1e-10)
            assert series["p_region"][i] == pytest.approx(
                np.sum(np.abs(psi[8:]) ** 2), abs=1e-10
            )

    def test_variance_far_from_origin(self):
        # near x = 2000, <x^2> - <x>^2 about the origin cancels about s^2 of
        # precision and came out below -1e-9 for these starts; the central form
        # sum (x - <x>)^2 p is the reference
        s = 2000
        e, v = diagonalize(build_chain_hamiltonian(sample_disorder(s, 0.0, 0), 2.0))
        grid = time_grid(10.0, 0.5)
        x = np.arange(1, s + 1)[:, None]
        phases = np.exp(-1j * np.outer(e, grid))
        for start in (1988, 1994, 1998):
            series = closed_series((e, v), np.eye(s)[start - 1], 10.0, 0.5)
            psi = v @ (v[start - 1][:, None] * phases)
            prob = np.abs(psi) ** 2
            var = np.sum((x - x.T @ prob) ** 2 * prob, axis=0)
            assert np.max(np.abs(series["var_Q"] - var)) <= 1e-10, start

    def test_site_probabilities_normalized(self):
        series = closed_series(
            free_eigensystem(6), np.eye(6)[0], 5.0, 0.5, range(1, 7)
        )
        assert np.allclose(series["p_region"], 1.0, atol=1e-10)

    def test_disorder_keeps_excitation_near_start(self):
        # time-averaged position stays within the localization-length bound
        # for the vast majority of realizations
        bound = 1 + 2 * localization_length_gaussian(0.5)
        ok = 0
        for seed in range(100):
            eig = diagonalize(build_chain_hamiltonian(sample_disorder(20, 0.5, seed), 0.0))
            series = closed_series(eig, np.eye(20)[0], 500.0, 0.5)
            if series["mean_Q"].mean() < bound:
                ok += 1
        assert ok >= 80

    def test_tilt_confines_oscillation(self):
        # clean tilted chain: mean position oscillates within about one
        # tilt-localization length of its start
        eig = diagonalize(build_chain_hamiltonian(sample_disorder(20, 0.0, 0), 2.0))
        series = closed_series(eig, np.eye(20)[0], 500.0, 0.25)
        width = bandwidth(free_eigensystem(20)[0])
        assert series["mean_Q"].max() - series["mean_Q"].min() <= width / 2.0 + 1.0
