"""Tight-binding chain Hamiltonians, seeded disorder and their diagonalization.

Conventions used throughout the package:

* sites are labelled x = 1..s (1-based in all formulas; arrays are 0-based),
* the hopping amplitude is -1/2 on every nearest-neighbour bond,
* hbar = 1, all energies and times are dimensionless,
* eigenvalues are always reported in ascending order; eigenvector columns are
  sign-normalized so that the first significant component is positive.

On-site disorder is drawn from a zero-mean Gaussian with the Philox4x64
counter-based generator (``numpy.random.Philox``) keyed directly by the seed,
so realizations are reproducible across platforms and independent of call
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal


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
class DisorderRealization:
    """One draw of the random on-site energies eps_x, x = 1..s."""

    epsilons: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilons", np.asarray(self.epsilons, dtype=float))

    def __len__(self) -> int:
        return len(self.epsilons)


@dataclass(frozen=True)
class HamiltonianOperator:
    """Real symmetric tridiagonal operator: diagonal plus one hopping band."""

    diagonal: np.ndarray
    hopping: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diagonal, dtype=float)
        hop = np.asarray(self.hopping, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diagonal must be a non-empty 1-d array")
        if hop.shape != (diag.size - 1,):
            raise ValueError(
                f"hopping must have length dim-1 = {diag.size - 1}, got {hop.size}"
            )
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "hopping", hop)

    @property
    def dim(self) -> int:
        return self.diagonal.size


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


def build_free_chain(s: int) -> HamiltonianOperator:
    """Clean chain: zero on-site energies, hopping -1/2 on every bond."""
    if s < 2:
        raise ValueError(f"chain needs at least 2 sites, got s={s}")
    return HamiltonianOperator(np.zeros(s), -0.5 * np.ones(s - 1))


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


def sample_disorder(spec: ChainSpec) -> DisorderRealization:
    """Draw the s on-site energies: i.i.d. normal(0, sigma^2), Philox keyed by seed."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    return DisorderRealization(rng.normal(0.0, spec.sigma, spec.s))


def build_chain_hamiltonian(spec: ChainSpec) -> HamiltonianOperator:
    """Free chain plus the disorder and tilt of ``spec``: diagonal eps_x - g*x, x = 1..s."""
    x = np.arange(1, spec.s + 1, dtype=float)
    diag = sample_disorder(spec).epsilons - spec.g * x
    return HamiltonianOperator(diag, build_free_chain(spec.s).hopping)


def _fix_eigenvector_signs(evecs: np.ndarray) -> np.ndarray:
    # deterministic convention: first significant component of each column > 0
    first = np.argmax(np.abs(evecs) > 1e-12, axis=0)
    evecs *= np.where(evecs[first, np.arange(evecs.shape[1])] < 0, -1.0, 1.0)
    return evecs


def diagonalize(h: HamiltonianOperator) -> EigenSystem:
    """Numerically diagonalize a symmetric tridiagonal operator.

    Eigenvalues come back ascending; eigenvector signs follow the package
    convention (first significant component positive).
    """
    try:
        evals, evecs = eigh_tridiagonal(h.diagonal, h.hopping)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"tridiagonal eigensolver failed for dim={h.dim} "
            f"(diagonal range [{h.diagonal.min():.3g}, {h.diagonal.max():.3g}]): {exc}"
        ) from exc
    return EigenSystem(evals, _fix_eigenvector_signs(evecs))
