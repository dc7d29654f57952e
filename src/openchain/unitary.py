"""Closed-chain observable series and the arrival-peak scan.

No time-stepping anywhere: psi_t is the sum over levels k of the phase
rotation of <e_k|psi_0> |e_k>, so every sample is exact to machine precision at
any t. Both read-outs run on the cache-sized blocks of
:func:`openchain.lindblad.energy_blocks` without a bath: the series through
:func:`openchain.lindblad.pure_state_series`, the peak scan on the last site's
row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .chains import EigenSystem
from .lindblad import energy_blocks, pure_state_series, site_distribution, time_grid
from .series import ObservableSeries, _region_rows


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


def _energy_amplitudes(eig: EigenSystem, psi0: PureState) -> np.ndarray:
    if psi0.dim != eig.dim:
        raise ValueError(f"state dim {psi0.dim} does not match system dim {eig.dim}")
    return eig.eigenvectors.T @ psi0.amplitudes


def arrival_peak(
    eig: EigenSystem, psi0: PureState, t_max: float, dt: float = 0.05
) -> tuple[float, float]:
    """Grid-scan maximum of the last-site probability over [0, t_max].

    Returns (t_star, p_star). Resolution is limited by dt; the default 0.05
    resolves the ballistic arrival peaks of all chain sizes used here.
    """
    times = time_grid(t_max, dt)
    blocks = energy_blocks(eig.eigenvalues, None, _energy_amplitudes(eig, psi0), times)
    row = eig.eigenvectors[-1:]
    last = np.concatenate([site_distribution(row, None, u)[0] for *_, u in blocks])
    i = int(np.argmax(last))
    return float(times[i]), float(last[i])


def unitary_observable_series(
    eig: EigenSystem,
    psi0: PureState,
    t_grid: np.ndarray,
    region: Iterable[int] | None = None,
) -> ObservableSeries:
    """Sample mean_Q, var_Q and the region probability on a caller-supplied grid.

    The grid must be uniform (see :func:`openchain.lindblad.energy_blocks`);
    ``region = None`` leaves ``p_region`` unset.
    """
    rows = None if region is None else _region_rows(region, eig.dim)
    c = _energy_amplitudes(eig, psi0)
    return pure_state_series(eig, None, c, t_grid, np.arange(1, eig.dim + 1), rows)
