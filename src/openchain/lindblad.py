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

Every grid the runner builds is uniform (an ``np.linspace``), and there the
kernel takes a fast path. The phases exp(d t) with d = -i e - zeta G / 2 come
from two tables of about sqrt(T) columns, exp(d k dt) and c exp(d (t_0 + j b dt)),
multiplied by one broadcast product, instead of n T complex exponentials. The
populations take B matrix-vector steps of S = expm(A dt) and then one BLAS-3
product S^B P per block of B columns. Non-uniform and short grids are stepped
one column at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import expm

from .chains import HamiltonianOperator, diagonalize
from .series import ObservableSeries

_MIN_TABLE_COLUMNS = 16  # shorter grids take direct exponentials: tables would save little
_BLOCK_SQUARINGS = 5  # population blocks of B = 2**5 columns, S^B by five squarings


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


def _uniform_step(t_grid: np.ndarray) -> float | None:
    """The step of a uniform grid, rounded as the step cache keys it, else None.

    A grid is uniform when every step rounds to the same 12-decimal key; grids
    shorter than a useful table are reported as non-uniform.
    """
    if t_grid.size < _MIN_TABLE_COLUMNS:
        return None
    keys = np.round(np.diff(t_grid), 12)
    return float(keys[0]) if np.all(keys == keys[0]) else None


def _phases(d: np.ndarray, c: np.ndarray, t_grid: np.ndarray, uniform: bool) -> np.ndarray:
    """c_m exp(d_m t_i) on the grid; on a uniform grid from two sqrt(T) tables.

    With b = ceil(sqrt(T)) and dt = (t_{T-1} - t_0) / (T - 1), column j b + k is
    the product of the fine table exp(d k dt) and the coarse table
    c exp(d (t_0 + j b dt)).
    """
    if not uniform:
        return c[:, None] * np.exp(np.outer(d, t_grid))
    size = t_grid.size
    b = math.isqrt(size - 1) + 1
    full = size // b
    dt = (t_grid[-1] - t_grid[0]) / (size - 1)
    fine = np.exp(np.outer(d, dt * np.arange(b)))
    coarse = c[:, None] * np.exp(np.outer(d, t_grid[0] + (b * dt) * np.arange(-(-size // b))))
    out = np.empty((d.size, size), dtype=complex)
    tables = out[:, : full * b].reshape(d.size, full, b)  # a view: the split axis is the last
    np.multiply(coarse[:, :full, None], fine[:, None, :], out=tables)
    out[:, full * b :] = coarse[:, full:] * fine[:, : size - full * b]
    return out


def _step_populations(gen: np.ndarray, p: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Populations one exponential step per column, cached per distinct step size."""
    steps: dict[float, np.ndarray] = {}
    pops = np.empty((p.size, t_grid.size))
    prev_t = t_grid[0]
    for i, t in enumerate(t_grid):
        if t > prev_t:
            dt = round(float(t - prev_t), 12)
            if dt not in steps:
                steps[dt] = expm(gen * dt)
            p = steps[dt] @ p
        prev_t = t
        pops[:, i] = p
    return pops


def _block_populations(gen: np.ndarray, p: np.ndarray, dt: float, size: int) -> np.ndarray:
    """Populations on a uniform grid: B steps of S = expm(A dt), then P_next = S^B P per block."""
    block = 1 << _BLOCK_SQUARINGS
    step = expm(gen * dt)
    pops = np.empty((p.size, size))
    pops[:, 0] = p
    for i in range(1, min(block, size)):
        pops[:, i] = step @ pops[:, i - 1]
    for _ in range(_BLOCK_SQUARINGS):
        step = step @ step
    for start in range(block, size, block):
        stop = min(start + block, size)
        pops[:, start:stop] = step @ pops[:, start - block : stop - block]
    return pops


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
    advance by exact exponential steps of the generator. Without a bath
    (``None`` or zeta = 0) U is the unitary phase rotation and P is returned
    as None: the populations are |U|^2, so the coherence correction of
    :func:`site_distribution` vanishes and is skipped.

    On a uniform grid (every step rounds to one 12-decimal key, at least
    ``_MIN_TABLE_COLUMNS`` columns) U is the product of two sqrt(T)-column
    exponential tables, and P advances by one S^B product per block of B = 32
    columns (S = expm(A dt), S^B by squaring). Other grids evaluate every
    exponential and step P one column at a time, caching expm per step size.
    """
    e = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(amplitudes, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be nondecreasing")
    step = _uniform_step(t_grid)
    if bath is None or bath.zeta == 0.0 or not t_grid.size:
        return None, _phases(-1j * e, c, t_grid, step is not None)
    rates = transition_rates(e, bath)
    gen = population_generator(rates, bath)
    p = np.abs(c) ** 2
    if t_grid[0] > 0:
        p = expm(gen * t_grid[0]) @ p
    if step is None:
        pops = _step_populations(gen, p, t_grid)
    else:
        pops = _block_populations(gen, p, step, t_grid.size)
    decay = -1j * e - 0.5 * bath.zeta * rates.widths
    return pops, _phases(decay, c, t_grid, step is not None)


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
