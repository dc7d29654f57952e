"""Closed-chain observable series and the arrival-peak scan.

No time-stepping anywhere: psi_t = sum_k exp(-i e_k t) |e_k><e_k|psi_0>, so
every sample is exact to machine precision at any t. Whole grids run on the
pure-state kernel of :mod:`openchain.lindblad` without a bath, in cache-sized
blocks of grid columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chains import EigenSystem
from .lindblad import relax_energy_density, site_distribution
from .series import ObservableSeries

_BLOCK_BYTES = 1 << 20  # one complex n x block kernel array: cache-sized


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over the chain sites."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state must be normalized, got ||psi|| = {norm}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def site(cls, dim: int, x: int) -> "PureState":
        """Basis state localized at site x (1-based)."""
        if not 1 <= x <= dim:
            raise ValueError(f"site {x} outside 1..{dim}")
        amp = np.zeros(dim, dtype=complex)
        amp[x - 1] = 1.0
        return cls(amp)


def _site_blocks(eig: EigenSystem, psi0: PureState, times: np.ndarray, rows: slice = slice(None)):
    """(columns, site probabilities of ``rows``) per cache-sized block of the grid.

    Each block runs the pure-state kernel of :mod:`openchain.lindblad` without a bath.
    """
    if psi0.dim != eig.dim:
        raise ValueError(f"state dim {psi0.dim} does not match system dim {eig.dim}")
    coeff = eig.eigenvectors.T @ psi0.amplitudes
    v = eig.eigenvectors[rows]
    step = max(1, _BLOCK_BYTES // (16 * eig.dim))
    for start in range(0, times.size, step):
        cols = slice(start, start + step)
        _, amps = relax_energy_density(eig.eigenvalues, None, coeff, times[cols])
        yield cols, site_distribution(v, None, amps)


def arrival_peak(
    eig: EigenSystem, psi0: PureState, t_max: float, dt: float = 0.05
) -> tuple[float, float]:
    """Grid-scan maximum of the last-site probability over [0, t_max].

    Returns (t_star, p_star). Resolution is limited by dt; the default 0.05
    resolves the ballistic arrival peaks of all chain sizes used here.
    """
    if dt <= 0 or t_max <= 0:
        raise ValueError("t_max and dt must be positive")
    times = np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)
    last = np.concatenate([p[0] for _, p in _site_blocks(eig, psi0, times, slice(-1, None))])
    i = int(np.argmax(last))
    return float(times[i]), float(last[i])


def unitary_observable_series(
    eig: EigenSystem,
    psi0: PureState,
    t_grid: np.ndarray,
    region: Iterable[int] | None = None,
) -> ObservableSeries:
    """Sample mean_Q, var_Q and the region probability on a caller-supplied grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    region_idx = None
    if region is not None:
        sites = sorted(set(region))
        if sites and (sites[0] < 1 or sites[-1] > eig.dim):
            raise ValueError(f"region {sites} not contained in 1..{eig.dim}")
        region_idx = np.asarray(sites, dtype=int) - 1
    x = np.arange(1, eig.dim + 1)
    mean = np.empty(t_grid.size)
    var = np.empty(t_grid.size)
    p_reg = np.empty(t_grid.size) if region_idx is not None else None
    for sl, prob in _site_blocks(eig, psi0, t_grid):
        mean[sl] = x @ prob
        var[sl] = (x**2) @ prob - mean[sl] ** 2
        if p_reg is not None:
            p_reg[sl] = prob[region_idx, :].sum(axis=0)
    return ObservableSeries(t_grid, mean, var, p_reg)
