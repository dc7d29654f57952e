import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from support import (
    bandwidth,
    build_free_chain,
    dense_hamiltonian,
    free_eigensystem,
    localization_length_bloch,
    localization_length_gaussian,
    participation_ratio,
)

from openchain.chains import (
    _fix_eigenvector_signs,
    build_chain_hamiltonian,
    diagonalize,
    free_end_weights,
    sample_disorder,
)


class TestBuildFreeChain:
    def test_two_sites(self):
        h = build_free_chain(2)
        assert np.array_equal(h, [0.0, 0.0])
        assert np.array_equal(dense_hamiltonian(h), [[0.0, -0.5], [-0.5, 0.0]])

    def test_three_sites(self):
        h = build_free_chain(3)
        expected = np.array([[0, -0.5, 0], [-0.5, 0, -0.5], [0, -0.5, 0]])
        assert np.array_equal(dense_hamiltonian(h), expected)

    def test_larger_chain_dimension(self):
        assert build_free_chain(20).size == 20

    @pytest.mark.parametrize("s", [1, 0, -3])
    def test_too_small(self, s):
        with pytest.raises(ValueError):
            build_free_chain(s)


class TestFreeEigensystem:
    def test_three_site_eigenvalues(self):
        e, _ = free_eigensystem(3)
        assert np.allclose(e, [-np.sqrt(0.5), 0.0, np.sqrt(0.5)], atol=1e-12)

    def test_three_site_first_eigenvector(self):
        _, v = free_eigensystem(3)
        assert np.allclose(v[:, 0], [0.5, np.sqrt(0.5), 0.5], atol=1e-12)

    @pytest.mark.parametrize("s", [2, 5, 17, 40])
    def test_spectrum_antisymmetric(self, s):
        e, _ = free_eigensystem(s)
        assert np.allclose(e, -e[::-1], atol=1e-12)


class TestFreeEndWeights:
    """The clean chain's (e, w) that the peak scan takes, without eigenvectors."""

    @pytest.mark.parametrize("s", range(2, 65))
    def test_matches_eigenvector_ends(self, s):
        # w = V[0] * V[-1] of the closed-form eigenvectors; the energies are
        # bitwise equal and the weights deviated by at most 4.6e-16 here
        e, w = free_end_weights(s)
        closed_e, closed_v = free_eigensystem(s)
        assert np.array_equal(e, closed_e)
        assert np.max(np.abs(w - closed_v[0] * closed_v[-1])) <= 1e-15

    @pytest.mark.parametrize("s", [1, 0, -3])
    def test_too_small(self, s):
        with pytest.raises(ValueError):
            free_end_weights(s)


class TestSampleDisorder:
    def test_zero_sigma(self):
        eps = sample_disorder(10, 0.0, 3)
        assert np.array_equal(eps, np.zeros(10))

    def test_statistics(self):
        eps = sample_disorder(10_000, 0.5, 1)
        assert abs(eps.mean()) < 0.015
        assert abs(eps.std() - 0.5) < 0.01

    def test_deterministic(self):
        assert np.array_equal(sample_disorder(50, 0.3, 123), sample_disorder(50, 0.3, 123))

    def test_seed_changes_draw(self):
        a = sample_disorder(50, 0.3, 1)
        b = sample_disorder(50, 0.3, 2)
        assert not np.array_equal(a, b)


class TestLinearPotential:
    """The tilt -g*x on the diagonal of ``build_chain_hamiltonian``."""

    def test_zero_strength(self):
        h = build_chain_hamiltonian(sample_disorder(5, 0.0, 1), 0.0)
        assert np.array_equal(h, np.zeros(5))

    def test_values(self):
        h = build_chain_hamiltonian(sample_disorder(3, 0.0, 1), 2.0)
        assert np.array_equal(h, [-2.0, -4.0, -6.0])

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            build_chain_hamiltonian(np.zeros(5), -1.0)


class TestAssembleHamiltonian:
    """Disorder and tilt added to the free chain's on-site energies."""

    def test_no_potentials(self):
        out = build_chain_hamiltonian(sample_disorder(4, 0.0, 0), 0.0)
        assert np.array_equal(out, build_free_chain(4))

    def test_disorder_on_diagonal(self):
        disorder = sample_disorder(6, 0.5, 3)
        out = build_chain_hamiltonian(disorder, 0.0)
        assert np.array_equal(out, disorder)

    def test_disorder_plus_tilt(self):
        disorder = sample_disorder(6, 0.5, 3)
        tilt = -2.0 * np.arange(1, 7)
        out = build_chain_hamiltonian(disorder, 2.0)
        assert np.allclose(out, disorder + tilt, atol=1e-12)


class TestDiagonalize:
    def test_single_site(self):
        e, v = diagonalize(np.array([2.5]))
        assert e[0] == 2.5
        assert v[0, 0] == 1.0

    def test_orthogonality(self):
        h = build_chain_hamiltonian(sample_disorder(30, 0.5, 4), 2.0)
        _, v = diagonalize(h)
        assert np.max(np.abs(v.T @ v - np.eye(30))) < 1e-10

    def test_eigen_equation(self):
        h = build_chain_hamiltonian(sample_disorder(25, 0.5, 5), 2.0)
        e, v = diagonalize(h)
        resid = dense_hamiltonian(h) @ v - v * e
        assert np.max(np.abs(resid)) < 1e-10

    def test_trace_invariance(self):
        h = build_chain_hamiltonian(sample_disorder(40, 0.7, 6), 1.5)
        e, _ = diagonalize(h)
        assert abs(e.sum() - h.sum()) < 1e-9

    @pytest.mark.parametrize("s", [50, 400])
    def test_sign_convention_matches_column_loop(self, s):
        # the vectorised sign fix against the per-column rule it replaced; the
        # tilted eigenvectors have many components below 1e-12, and the last
        # column none above it (its sign is then set by the first component)
        h = build_chain_hamiltonian(sample_disorder(s, 0.5, 0), 2.0)
        _, raw = eigh_tridiagonal(h, np.full(s - 1, -0.5))
        raw[:, -1] = np.where(np.arange(s) % 2, 1e-13, -1e-13)
        expected = raw.copy()
        for k in range(s):
            col = expected[:, k]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            if col[nz[0] if nz.size else 0] < 0:
                expected[:, k] = -col
        assert np.array_equal(_fix_eigenvector_signs(raw), expected)

    @pytest.mark.parametrize("s", [2, 50, 400])
    @pytest.mark.parametrize(
        "sigma,g", [(0.0, 0.0), (0.5, 0.0), (0.5, 2.0)], ids=["clean", "disordered", "tilted"]
    )
    def test_matches_tridiagonal_solver(self, s, sigma, g):
        # dense numpy eigh against scipy's tridiagonal solver, sign-fixed alike;
        # measured over these cases: eigenvalues bitwise equal, eigenvectors
        # within 1.9e-16
        h = build_chain_hamiltonian(sample_disorder(s, sigma, 3), g)
        e, v = diagonalize(h)
        evals, evecs = eigh_tridiagonal(h, np.full(s - 1, -0.5))
        assert np.max(np.abs(e - evals)) <= 4e-16 * max(1.0, np.abs(evals).max())
        assert np.max(np.abs(v - _fix_eigenvector_signs(evecs))) <= 2e-15

    def test_tilted_ensemble_gap_ladder(self):
        # for g >= 1 and sigma <= 0.5 the spectrum is a near-uniform ladder
        # with spacing about g for the vast majority of gaps
        g, sigma = 2.0, 0.5
        within = total = 0
        for seed in range(100):
            e, _ = diagonalize(build_chain_hamiltonian(sample_disorder(20, sigma, seed), g))
            gaps = np.diff(e)
            within += np.sum(np.abs(gaps - g) <= 3 * sigma)
            total += gaps.size
        assert within / total >= 0.9


class TestLocalizationLengths:
    def test_gaussian_base_case(self):
        assert localization_length_gaussian(2 * np.pi**2) == pytest.approx(1.0)

    def test_gaussian_value(self):
        assert localization_length_gaussian(0.5) == pytest.approx(11.59, abs=0.01)

    def test_gaussian_scaling(self):
        assert localization_length_gaussian(0.25) == pytest.approx(
            localization_length_gaussian(0.5) * 2 ** (2 / 3)
        )

    def test_gaussian_domain(self):
        with pytest.raises(ValueError):
            localization_length_gaussian(0.0)

    def test_bloch_free_chain(self):
        bw = bandwidth(free_eigensystem(20)[0])
        assert bw == pytest.approx(2 * np.cos(np.pi / 21), abs=1e-12)
        assert localization_length_bloch(bw, 2.0) == pytest.approx(0.9888, abs=1e-4)

    def test_bloch_scaling_and_limit(self):
        assert localization_length_bloch(2.0, 4.0) == localization_length_bloch(2.0, 2.0) / 2
        assert localization_length_bloch(2.0, 1e12) < 1e-11

    def test_bloch_domain(self):
        with pytest.raises(ValueError):
            localization_length_bloch(2.0, 0.0)


class TestParticipationRatio:
    def test_basis_state(self):
        psi = np.zeros(10)
        psi[3] = 1.0
        assert participation_ratio(psi) == pytest.approx(1.0)

    def test_uniform_state(self):
        s = 16
        assert participation_ratio(np.full(s, 1 / np.sqrt(s))) == pytest.approx(s)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            participation_ratio(np.ones(4))

    def test_tilted_eigenstates_are_localized(self):
        prs = []
        for seed in range(100):
            _, v = diagonalize(build_chain_hamiltonian(sample_disorder(20, 0.5, seed), 2.0))
            prs.append([participation_ratio(v[:, k]) for k in range(20)])
        assert np.median(prs) <= 3.0

    def test_tilt_localizes_below_free_chain(self):
        free_pr = np.array(
            [participation_ratio(v) for v in free_eigensystem(20)[1].T]
        )
        prs = []
        for seed in range(100):
            _, v = diagonalize(build_chain_hamiltonian(sample_disorder(20, 0.5, seed), 2.0))
            prs.append([participation_ratio(v[:, k]) for k in range(20)])
        assert np.all(np.median(np.array(prs), axis=0) <= free_pr)


class TestSpecValidation:
    def test_chain_spec_rejects_bad_fields(self):
        # each parameter is checked by the one function that takes it
        with pytest.raises(ValueError, match="at least 2 sites"):
            sample_disorder(1, 0.0, 0)
        with pytest.raises(ValueError, match="standard deviation"):
            sample_disorder(5, -0.1, 0)
        with pytest.raises(ValueError, match="tilt strength"):
            build_chain_hamiltonian(np.zeros(5), -1.0)

    @pytest.mark.parametrize(
        "energies",
        [[0.0, np.nan, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0], [], np.zeros((2, 2))],
        ids=["diagonal-nan", "diagonal-inf", "empty", "2-d"],
    )
    def test_hamiltonian_rejects_non_finite(self, energies):
        # non-finite, empty or 2-d on-site energies are a ValueError naming
        # them (a config problem, exit 2), not an eigensolver failure
        with pytest.raises(ValueError, match="on-site energies"):
            diagonalize(energies)
