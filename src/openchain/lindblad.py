"""Open-system dynamics in the energy representation of the chain.

The bath exchanges single energy quanta with the chain: jump operators connect
adjacent energy levels only (simultaneous multi-phonon processes are excluded),
at the thermal rates

    absorption  n -> n+1 :  1 / (exp(beta*omega) - 1)
    emission    n+1 -> n :  1 / (exp(beta*omega) - 1) + 1

with omega the level gap, so detailed balance holds and the Gibbs vector is
stationary. The chain-bath coupling strength ``zeta`` multiplies all rates.

Under these rates the density matrix decouples in the energy eigenbasis:
populations follow a classical master equation, while each coherence decays
autonomously,

    rho_mn(t) = rho_mn(0) * exp([-i (e_m - e_n) - zeta (G_m + G_n)/2] t),

where G_m is the total outflow rate from level m. ``zeta = 0`` reduces every
formula to the closed-system evolution.

Every run in the package starts from a pure state (energy amplitudes c), for
which the decay law factorizes: the coherences are the off-diagonal part of
u u^H with u_m(t) = c_m exp((-i e_m - zeta G_m / 2) t). A whole time grid is
then the n x T populations P (exact matrix-exponential steps of the master
equation) and amplitudes U (:func:`relax_energy_density`), and its site
distribution |V U|^2 + (V*V)(P - |U|^2) is two matrix products, one without a
bath (:func:`site_distribution`; V is real, so V U is a real product). No
dense n x n state is formed, and every pipeline runs on this kernel: the
dissipative chain below, the closed chain of :mod:`openchain.unitary` and
both switch pipelines of :mod:`openchain.feynman`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import expm

from .chains import HamiltonianOperator, diagonalize
from .series import ObservableSeries


class DegenerateGapError(ValueError):
    """Adjacent energy levels coincide, so the thermal rates are undefined."""


@dataclass(frozen=True)
class BathSpec:
    """Thermal reservoir: inverse temperature and coupling constant.

    ``zeta = 0`` is allowed and gives exactly unitary evolution (handy for
    consistency checks); dissipative runs use zeta > 0.
    """

    beta: float
    zeta: float

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError(f"inverse temperature must be > 0, got {self.beta}")
        if self.zeta < 0:
            raise ValueError(f"coupling constant must be >= 0, got {self.zeta}")


@dataclass(frozen=True)
class TransitionRates:
    """gamma[m, n] = bare rate of the level transition n -> m (zeta excluded).

    Only nearest-level entries are nonzero. ``widths[m]`` is the total outflow
    rate G_m = sum_j gamma[j, m].
    """

    gamma: np.ndarray
    widths: np.ndarray


def transition_rates(eigenvalues: np.ndarray, bath: BathSpec) -> TransitionRates:
    """Thermal absorption/emission rates between adjacent levels."""
    evals = np.asarray(eigenvalues, dtype=float)
    n = evals.size
    gamma = np.zeros((n, n))
    for k in range(n - 1):
        omega = evals[k + 1] - evals[k]
        if omega <= 0:
            raise DegenerateGapError(
                f"levels {k + 1} and {k + 2} have gap {omega}; "
                "rates require a strictly ascending spectrum"
            )
        with np.errstate(over="ignore"):
            occupation = 1.0 / np.expm1(bath.beta * omega)
        gamma[k + 1, k] = occupation  # absorption
        gamma[k, k + 1] = occupation + 1.0  # stimulated + spontaneous emission
    return TransitionRates(gamma, gamma.sum(axis=0))


def population_generator(rates: TransitionRates, bath: BathSpec) -> np.ndarray:
    """Generator A of dp/dt = A p; columns sum to zero (trace preserving)."""
    a = bath.zeta * rates.gamma.copy()
    np.fill_diagonal(a, -bath.zeta * rates.widths)
    return a


def thermal_fixed_point(eigenvalues: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs populations proportional to exp(-beta e_m)."""
    e = np.asarray(eigenvalues, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def relax_energy_density(
    eigenvalues: np.ndarray,
    bath: BathSpec | None,
    amplitudes: np.ndarray,
    t_grid: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Populations P and amplitudes U (both n x T) of a pure start on a time grid.

    ``amplitudes`` are the initial energy-basis amplitudes c; the grid must be
    nondecreasing. U[m, i] = c_m exp((-i e_m - zeta G_m / 2) t_i), so the
    coherences at t_i are u u^H - diag|u|^2 with u = U[:, i]. Populations
    advance by exact exponential steps of the generator, cached per distinct
    step size. Without a bath (``None`` or zeta = 0) U is the unitary phase
    rotation and P is returned as None: the populations are |U|^2, so the
    coherence correction of :func:`site_distribution` vanishes and is skipped.
    """
    e = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(amplitudes, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be nondecreasing")
    if bath is None or bath.zeta == 0.0 or not t_grid.size:
        return None, c[:, None] * np.exp(np.outer(-1j * e, t_grid))
    rates = transition_rates(e, bath)
    gen = population_generator(rates, bath)
    steps: dict[float, np.ndarray] = {}
    pops = np.empty((e.size, t_grid.size))
    p = np.abs(c) ** 2
    if t_grid[0] > 0:
        p = expm(gen * t_grid[0]) @ p
    prev_t = t_grid[0]
    for i, t in enumerate(t_grid):
        if t > prev_t:
            dt = round(float(t - prev_t), 12)
            if dt not in steps:
                steps[dt] = expm(gen * dt)
            p = steps[dt] @ p
        prev_t = t
        pops[:, i] = p
    decay = -1j * e - 0.5 * bath.zeta * rates.widths
    return pops, c[:, None] * np.exp(np.outer(decay, t_grid))


def site_amplitudes(eigenvectors: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """V U for real V: one real product on the interleaved (re, im) view of U."""
    return (eigenvectors @ np.ascontiguousarray(amplitudes).view(float)).view(complex)


def site_distribution(
    eigenvectors: np.ndarray,
    populations: np.ndarray | None,
    amplitudes: np.ndarray,
    rotated: np.ndarray | None = None,
) -> np.ndarray:
    """Site probabilities (n x T) of a :func:`relax_energy_density` result.

    The diagonal of V (u u^H + diag(P - |u|^2)) V^T for every time at once;
    ``populations = None`` (no bath) drops the vanishing correction term.
    ``rotated`` is V U when the caller has it already; it is left intact.
    """
    w = site_amplitudes(eigenvectors, amplitudes) if rotated is None else rotated
    prob = np.square(w.real)
    prob += np.square(w.imag, out=w.imag if rotated is None else None)  # in place when w is ours
    del w  # frees V U before the correction's temporaries
    if populations is not None:
        prob += (eigenvectors * eigenvectors) @ (populations - np.abs(amplitudes) ** 2)
    return prob


def dissipative_transport_run(
    h: HamiltonianOperator,
    bath: BathSpec,
    psi0: np.ndarray,
    t_grid: np.ndarray,
    region: Iterable[int] | None = None,
) -> ObservableSeries:
    """Full pipeline: diagonalize, relax in the energy basis, report site observables.

    ``psi0`` is a position-basis pure state; ``region`` defaults to the last
    site. The initial energy-basis coherences are kept and propagated, so the
    early-time transient is exact.
    """
    eig = diagonalize(h)
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    sites = sorted(set(region)) if region is not None else [h.dim]
    if sites and (sites[0] < 1 or sites[-1] > h.dim):
        raise ValueError(f"region {sites} not contained in 1..{h.dim}")
    t_grid = np.asarray(t_grid, dtype=float)
    pops, amps = relax_energy_density(
        eig.eigenvalues, bath, eig.eigenvectors.T @ psi0, t_grid
    )
    prob = site_distribution(eig.eigenvectors, pops, amps)
    return ObservableSeries.from_site_probabilities(
        t_grid, prob, np.arange(1, h.dim + 1), np.asarray(sites, dtype=int) - 1
    )
