"""Closed-chain observable series and the arrival-peak scan.

No time-stepping anywhere: psi_t = sum_k exp(-i e_k t) |e_k><e_k|psi_0>, so
every sample is exact to machine precision at any t. Whole grids are read out
in cache-sized blocks of grid columns. The pure-state kernel of
:mod:`openchain.lindblad` runs once per grid, without a bath, on the first
block; every later block is that table times the phase shift of its start, so
the phase tables are built once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chains import EigenSystem
from .lindblad import _grid_step, relax_energy_density, site_distribution, time_grid
from .series import ObservableSeries, _region_rows

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

    The pure-state kernel of :mod:`openchain.lindblad` runs once, without a bath,
    on the first block; the block from column ``start`` on is that table times
    exp(-i e (t_start - t_0)).
    """
    if psi0.dim != eig.dim:
        raise ValueError(f"state dim {psi0.dim} does not match system dim {eig.dim}")
    _grid_step(times)  # the whole grid must be uniform, not only the first block
    coeff = eig.eigenvectors.T @ psi0.amplitudes
    v = eig.eigenvectors[rows]
    step = max(1, _BLOCK_BYTES // (16 * eig.dim))
    _, first = relax_energy_density(eig.eigenvalues, None, coeff, times[:step])
    for start in range(0, times.size, step):
        cols = slice(start, start + step)
        shift = np.exp(-1j * (times[start] - times[0]) * eig.eigenvalues)
        amps = first[:, : times[cols].size] * shift[:, None]
        yield cols, site_distribution(v, None, amps)


def arrival_peak(
    eig: EigenSystem, psi0: PureState, t_max: float, dt: float = 0.05
) -> tuple[float, float]:
    """Grid-scan maximum of the last-site probability over [0, t_max].

    Returns (t_star, p_star). Resolution is limited by dt; the default 0.05
    resolves the ballistic arrival peaks of all chain sizes used here.
    """
    times = time_grid(t_max, dt)
    last = np.concatenate([p[0] for _, p in _site_blocks(eig, psi0, times, slice(-1, None))])
    i = int(np.argmax(last))
    return float(times[i]), float(last[i])


def unitary_observable_series(
    eig: EigenSystem,
    psi0: PureState,
    t_grid: np.ndarray,
    region: Iterable[int] | None = None,
) -> ObservableSeries:
    """Sample mean_Q, var_Q and the region probability on a caller-supplied grid.

    The grid must be uniform (see :func:`openchain.lindblad.relax_energy_density`);
    ``region = None`` leaves ``p_region`` unset.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    rows = None if region is None else _region_rows(region, eig.dim)
    x = np.arange(1, eig.dim + 1)
    blocks = [
        ObservableSeries.from_site_probabilities(t_grid[cols], prob, x, rows)
        for cols, prob in _site_blocks(eig, psi0, t_grid)
    ]
    return ObservableSeries(
        t_grid,
        np.concatenate([b.mean_q for b in blocks]),
        np.concatenate([b.var_q for b in blocks]),
        None if rows is None else np.concatenate([b.p_region for b in blocks]),
    )
