"""Tight-binding chain Hamiltonians, seeded disorder and their diagonalization.

Conventions used throughout the package:

* sites are labelled x = 1..s (1-based in all formulas; arrays are 0-based),
* the hopping amplitude is -1/2 on every nearest-neighbour bond, so a chain
  is its s on-site energies: the Hamiltonian builders return that float
  array and :func:`diagonalize` adds the hopping band itself,
* hbar = 1, all energies and times are dimensionless,
* eigenvalues are always reported in ascending order; eigenvector columns are
  sign-normalized so that the first significant component is positive;
* :func:`diagonalize` is numpy's dense symmetric eigensolver (LAPACK), so the
  package needs numpy alone.

A disorder realization is the float array of the s on-site energies eps_x,
drawn from a zero-mean Gaussian with the Philox4x64 counter-based generator
(``numpy.random.Philox``) keyed directly by the seed, so realizations are
reproducible across platforms and independent of call order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of a disordered, tilted chain: size, disorder width, tilt, seed."""

    s: int
    sigma: float = 0.0
    g: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.s < 2:
            raise ValueError(f"chain needs at least 2 sites, got s={self.s}")
        if self.sigma < 0:
            raise ValueError(f"disorder standard deviation must be >= 0, got {self.sigma}")
        if self.g < 0:
            raise ValueError(f"tilt strength must be >= 0, got {self.g}")


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with the orthonormal eigenvector matrix (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        if v.shape != (w.size, w.size):
            raise ValueError(f"eigenvector matrix must be {w.size}x{w.size}, got {v.shape}")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be in ascending order")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def free_eigensystem(s: int) -> EigenSystem:
    """Closed-form spectrum of the free chain.

    e_k = -cos(k pi / (s+1)) and v_k(x) = sqrt(2/(s+1)) sin(k pi x / (s+1)),
    k = 1..s, already ascending and with positive first components.
    """
    if s < 2:
        raise ValueError(f"chain needs at least 2 sites, got s={s}")
    k = np.arange(1, s + 1)
    x = np.arange(1, s + 1)
    evals = -np.cos(k * np.pi / (s + 1))
    evecs = np.sqrt(2.0 / (s + 1)) * np.sin(np.outer(x, k) * np.pi / (s + 1))
    return EigenSystem(evals, evecs)


def sample_disorder(spec: ChainSpec) -> np.ndarray:
    """The s on-site energies eps_x: i.i.d. normal(0, sigma^2), Philox keyed by seed."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    return rng.normal(0.0, spec.sigma, spec.s)


def build_chain_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """On-site energies of the chain of ``spec``: disorder plus tilt, eps_x - g*x, x = 1..s."""
    x = np.arange(1, spec.s + 1, dtype=float)
    return sample_disorder(spec) - spec.g * x


def _fix_eigenvector_signs(evecs: np.ndarray) -> np.ndarray:
    # deterministic convention: first significant component of each column > 0
    first = np.argmax(np.abs(evecs) > 1e-12, axis=0)
    evecs *= np.where(evecs[first, np.arange(evecs.shape[1])] < 0, -1.0, 1.0)
    return evecs


def diagonalize(energies: np.ndarray) -> EigenSystem:
    """Numerically diagonalize the chain with these on-site energies and hopping -1/2.

    ``numpy.linalg.eigh`` on the dense matrix, of which only the diagonal and
    the lower band are filled (``eigh`` reads the lower triangle). Eigenvalues
    come back ascending; eigenvector signs follow the package convention
    (first significant component positive). A non-finite, empty or
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
    return EigenSystem(evals, _fix_eigenvector_signs(evecs))
