"""Tight-binding chain Hamiltonians, seeded disorder and their diagonalization.

Conventions used throughout the package:

* sites are labelled x = 1..s (1-based in all formulas; arrays are 0-based),
* the hopping amplitude is -1/2 on every nearest-neighbour bond, so a chain
  is its s on-site energies: the Hamiltonian builders return that float
  array and :func:`diagonalize` adds the hopping band itself,
* hbar = 1, all energies and times are dimensionless,
* a spectrum is the pair (eigenvalues, eigenvectors) that
  ``numpy.linalg.eigh`` returns: eigenvalues in ascending order, eigenvector
  columns sign-normalized so that the first significant component is positive;
* :func:`diagonalize` is numpy's dense symmetric eigensolver (LAPACK), so the
  package needs numpy alone.

A disorder realization is the float array of the s on-site energies eps_x
that :func:`sample_disorder` draws from a zero-mean Gaussian with the
Philox4x64 counter-based generator (``numpy.random.Philox``) keyed directly
by the seed, so realizations are reproducible across platforms and
independent of call order. A chain is its disorder array: its length is s,
and :func:`build_chain_hamiltonian` adds the tilt, for the chain and for
each switch branch alike.
"""

from __future__ import annotations

import numpy as np


def free_end_weights(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The clean chain's energies e and end weights w = V[0] * V[-1], in closed form.

    e_k = -cos(theta_k) and w_k = (2/(s+1)) sin(theta_k) sin(s theta_k), theta_k =
    k pi / (s+1), k = 1..s. sin(s theta_k) = (-1)^(k+1) sin(theta_k) is taken in
    that form: the argument s theta_k would add an error of about eps s k.
    """
    if s < 2:
        raise ValueError(f"chain needs at least 2 sites, got s={s}")
    k = np.arange(1, s + 1)
    theta = k * np.pi / (s + 1)
    sign = np.where(k % 2, 1.0, -1.0)
    return -np.cos(theta), sign * (2.0 / (s + 1)) * np.square(np.sin(theta))


def sample_disorder(s: int, sigma: float, seed: int) -> np.ndarray:
    """The s on-site energies eps_x: i.i.d. normal(0, sigma^2), Philox keyed by seed."""
    if s < 2:
        raise ValueError(f"chain needs at least 2 sites, got s={s}")
    if sigma < 0:
        raise ValueError(f"disorder standard deviation must be >= 0, got {sigma}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.normal(0.0, sigma, s)


def build_chain_hamiltonian(disorder: np.ndarray, g: float) -> np.ndarray:
    """On-site energies of the tilted chain: disorder plus tilt, eps_x - g*x, x = 1..len(disorder).

    It serves a switch branch too, whose disorder is read along its
    path coordinates (:func:`openchain.feynman.build_branch`). Energies that
    are not finite, from a disorder draw or a tilt that overflows, are a
    numeric failure: ``FloatingPointError``.
    """
    if g < 0:
        raise ValueError(f"tilt strength must be >= 0, got {g}")
    with np.errstate(over="ignore", invalid="ignore"):
        energies = disorder - g * np.arange(1, len(disorder) + 1, dtype=float)
    if not np.all(np.isfinite(energies)):
        bad = disorder[~np.isfinite(disorder)]
        cause = f"disorder {bad[0]}" if bad.size else f"tilt g={g}"
        raise FloatingPointError(f"on-site energies overflow: {cause} on {len(disorder)} sites")
    return energies


def _fix_eigenvector_signs(evecs: np.ndarray) -> np.ndarray:
    # deterministic convention: first significant component of each column > 0
    first = np.argmax(np.abs(evecs) > 1e-12, axis=0)
    evecs *= np.where(evecs[first, np.arange(evecs.shape[1])] < 0, -1.0, 1.0)
    return evecs


def diagonalize(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerically diagonalize the chain with these on-site energies and hopping -1/2.

    ``numpy.linalg.eigh`` on the dense matrix, of which only the diagonal and
    the lower band are filled (``eigh`` reads the lower triangle). Returns
    ``eigh``'s pair (eigenvalues, eigenvectors): eigenvalues ascending,
    eigenvectors as columns whose signs follow the package convention (first
    significant component positive). A non-finite, empty or
    non-1-d ``energies`` raises ``ValueError``.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValueError(f"on-site energies must be a non-empty 1-d array, got shape {e.shape}")
    if not np.all(np.isfinite(e)):
        raise ValueError(f"on-site energies must be finite, got {e[~np.isfinite(e)][0]}")
    h = np.diag(e)
    np.fill_diagonal(h[1:], -0.5)  # the lower hopping band
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"symmetric eigensolver failed for dim={e.size} "
            f"(on-site energies in [{e.min():.3g}, {e.max():.3g}]): {exc}"
        ) from exc
    return evals, _fix_eigenvector_signs(evecs)
