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
u u^H with u_m(t) = c_m exp((-i e_m - zeta G_m / 2) t). A time grid is then
the n x T populations P (exact matrix-exponential steps of the master
equation) and amplitudes U, and its site distribution |V U|^2 + (V*V)(P - |U|^2)
is two matrix products, one without a bath (:func:`site_distribution`; V is
real, so V U is a real product). No dense n x n state and no n x T array is
formed: every pipeline reads this kernel one block at a time, in O(n x block)
memory plus its O(T) outputs: the chain with or without a bath
(:func:`pure_state_series`), the arrival-peak scan (:func:`arrival_peak`, on
the last site's row alone) and both switch pipelines of :mod:`openchain.feynman`.

The kernel takes uniform grids only (:func:`time_grid` builds them); any other
grid raises ``ValueError``. :func:`energy_blocks` yields P and U in cache-sized
blocks of grid columns. The phases exp(d t) with d = -i e - zeta G / 2 of the
first block come from two tables of about sqrt(T) columns, exp(d k dt) and
c exp(d (t_0 + j b dt)), multiplied by one broadcast product, instead of n T
complex exponentials; every later block is that table times exp(d (t_start - t_0)).
The populations take B matrix-vector steps of S = expm(A dt) and then one
BLAS-3 product S^B P per B columns, in the same block loop: each block starts
from the last B columns of the one before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import expm

from .chains import EigenSystem, HamiltonianOperator, diagonalize
from .series import ObservableSeries, _region_rows

_BLOCK_SQUARINGS = 5  # population blocks of B = 2**5 columns, S^B by five squarings
_BLOCK_BYTES = 1 << 20  # one complex n x block amplitude array: cache-sized


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
    omega = np.diff(evals)
    not_ascending = np.flatnonzero(omega <= 0)
    if not_ascending.size:
        k = not_ascending[0]
        raise DegenerateGapError(
            f"levels {k + 1} and {k + 2} have gap {omega[k]}; "
            "rates require a strictly ascending spectrum"
        )
    with np.errstate(over="ignore"):
        occupation = 1.0 / np.expm1(bath.beta * omega)
    k = np.arange(omega.size)
    gamma = np.zeros((evals.size, evals.size))
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


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """The uniform grid 0 .. t_max in round(t_max / dt) equal steps."""
    if dt <= 0 or t_max <= 0:
        raise ValueError("t_max and dt must be positive")
    return np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)


def _grid_step(t_grid: np.ndarray) -> float:
    """The step dt = (t_{T-1} - t_0) / (T - 1) of a uniform grid, 0 for one point.

    A grid is uniform when it starts at t_0 >= 0, increases strictly, and each
    t_i lies within 1e-9 dt + 8 eps t_{T-1} of t_0 + i dt (the second term is
    ``np.linspace``'s rounding at the grid's magnitude); any other grid raises
    ``ValueError``.
    """
    message = "time grid must be uniform from t >= 0: one point, or equal positive steps"
    if not (t_grid.size and t_grid[0] >= 0 and math.isfinite(t_grid[-1])):
        raise ValueError(message)
    t0, t_end = t_grid[0], t_grid[-1]
    dt = (t_end - t0) / max(t_grid.size - 1, 1)
    tol = 1e-9 * dt + 8 * np.finfo(float).eps * t_end
    if not (
        np.all(np.diff(t_grid) > 0)
        and np.all(np.abs(t_grid - (t0 + dt * np.arange(t_grid.size))) <= tol)
    ):
        raise ValueError(message)
    return dt


def _phases(d: np.ndarray, c: np.ndarray, t0: float, dt: float, size: int) -> np.ndarray:
    """c_m exp(d_m t_i) on the grid t_i = t0 + i dt from two sqrt(T) tables.

    With b = ceil(sqrt(T)), column j b + k is the product of the fine table
    exp(d k dt) and the coarse table c exp(d (t0 + j b dt)).
    """
    b = math.isqrt(size - 1) + 1
    full = size // b
    fine = np.exp(np.outer(d, dt * np.arange(b)))
    coarse = c[:, None] * np.exp(np.outer(d, t0 + (b * dt) * np.arange(-(-size // b))))
    out = np.empty((d.size, size), dtype=complex)
    tables = out[:, : full * b].reshape(d.size, full, b)  # a view: the split axis is the last
    np.multiply(coarse[:, :full, None], fine[:, None, :], out=tables)
    out[:, full * b :] = coarse[:, full:] * fine[:, : size - full * b]
    return out


def _population_blocks(gen: np.ndarray, p: np.ndarray, dt: float, width: int, size: int):
    """Populations on a uniform grid, one block of ``width`` >= B columns at a time.

    The first B columns take steps of S = expm(A dt); every later column i is
    S^B times column i - B, one BLAS-3 product per B columns. Each block starts
    from the last B columns of the block before it, so at most two blocks are
    alive. Entries of S^B below the smallest normal float are set to zero: far
    off the band they are subnormal, which slows every product.
    """
    block = 1 << _BLOCK_SQUARINGS
    step = expm(gen * dt)
    pops = np.empty((p.size, block + min(width, size)))  # B carried columns, then the block
    pops[:, block] = p
    for i in range(block + 1, min(2 * block, pops.shape[1])):
        pops[:, i] = step @ pops[:, i - 1]
    for _ in range(_BLOCK_SQUARINGS):
        step = step @ step
    step[np.abs(step) < np.finfo(float).tiny] = 0.0
    for start in range(0, size, width):
        if start:
            carried = np.empty((p.size, block + min(width, size - start)))
            carried[:, :block] = pops[:, -block:]
            pops = carried
        for i in range(2 * block if start == 0 else block, pops.shape[1], block):
            stop = min(i + block, pops.shape[1])
            pops[:, i:stop] = step @ pops[:, i - block : stop - block]
        yield pops[:, block:]


def energy_blocks(
    eigenvalues: np.ndarray,
    bath: BathSpec | None,
    amplitudes: np.ndarray,
    t_grid: np.ndarray,
):
    """(columns, P block or None, U block) of a pure start per cache-sized block of a uniform grid.

    ``amplitudes`` are the initial energy-basis amplitudes c. The grid must be
    uniform from t >= 0 (one point, or equal positive steps up to float
    rounding); any other grid raises ``ValueError`` at the first block.
    U[m, i] = c_m exp(d_m t_i) with d = -i e - zeta G / 2, so the coherences at
    t_i are u u^H - diag|u|^2 with u = U[:, i]. A block spans as many grid
    columns as fit one complex n x width array of about 1 MiB, and at least
    B = 32. The phase tables are built once, for the first block; the block
    from column ``start`` on is that table times exp(d (t_start - t_0)). P
    advances block by block, carrying the last B columns of each block into
    the next, so at most two blocks of it are held; without a bath (``None``
    or zeta = 0) it is None: the populations are |U|^2, so the coherence
    correction of :func:`site_distribution` vanishes and is skipped.
    """
    e = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(amplitudes, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _grid_step(t_grid)
    width = max(1 << _BLOCK_SQUARINGS, _BLOCK_BYTES // (16 * e.size))
    pops, d = None, -1j * e
    if bath is not None and bath.zeta != 0.0:
        rates = transition_rates(e, bath)
        gen = population_generator(rates, bath)
        p = np.abs(c) ** 2
        if t_grid[0] > 0:
            p = expm(gen * t_grid[0]) @ p
        pops = _population_blocks(gen, p, dt, width, t_grid.size)
        d = d - 0.5 * bath.zeta * rates.widths
    first = _phases(d, c, t_grid[0], dt, min(width, t_grid.size))
    for start in range(0, t_grid.size, width):
        cols = slice(start, start + width)
        shift = np.exp(d * (t_grid[start] - t_grid[0]))
        amps = first if start == 0 else first[:, : t_grid[cols].size] * shift[:, None]
        yield cols, None if pops is None else next(pops), amps


def site_amplitudes(eigenvectors: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """V U for real V: one real product on the interleaved (re, im) view of U."""
    return (eigenvectors @ np.ascontiguousarray(amplitudes).view(float)).view(complex)


def site_distribution(
    eigenvectors: np.ndarray,
    populations: np.ndarray | None,
    amplitudes: np.ndarray,
    rotated: np.ndarray | None = None,
) -> np.ndarray:
    """Site probabilities (n x columns) of one block of :func:`energy_blocks`.

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


def pure_state_series(
    eig: EigenSystem,
    bath: BathSpec | None,
    amplitudes: np.ndarray,
    t_grid: np.ndarray,
    positions: np.ndarray,
    region: np.ndarray | None,
) -> ObservableSeries:
    """mean_Q, var_Q and p_region of a pure start, read out one cache block at a time.

    ``amplitudes`` are the energy-basis amplitudes c, ``positions`` the
    coordinate of each eigenvector row and ``region`` 0-based rows (None leaves
    ``p_region`` unset). Only one block of P, U and the site distribution is
    held at a time. var_Q is taken about each block's first mean: about the
    origin, <x^2> - <x>^2 would cancel max(x)^2 of precision.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x = np.asarray(positions, dtype=float)
    mean, var = np.empty(t_grid.size), np.empty(t_grid.size)
    p_region = None if region is None else np.empty(t_grid.size)
    for cols, p, u in energy_blocks(eig.eigenvalues, bath, amplitudes, t_grid):
        prob = site_distribution(eig.eigenvectors, p, u)
        mean[cols] = x @ prob
        y = x - mean[cols.start]
        var[cols] = (y**2) @ prob - (y @ prob) ** 2
        if p_region is not None:
            p_region[cols] = prob[region].sum(axis=0)
    return ObservableSeries(t_grid, mean, var, p_region)


def arrival_peak(eig: EigenSystem, t_max: float, dt: float = 0.05) -> tuple[float, float]:
    """Grid-scan maximum of the last-site probability over [0, t_max] from site 1.

    Returns (t_star, p_star). Resolution is limited by dt; the default 0.05
    resolves the ballistic arrival peaks of all chain sizes used here. The
    blocks are read out on the last site's row alone.
    """
    times = time_grid(t_max, dt)
    blocks = energy_blocks(eig.eigenvalues, None, eig.eigenvectors[0], times)
    row = eig.eigenvectors[-1:]
    last = np.concatenate([site_distribution(row, None, u)[0] for *_, u in blocks])
    i = int(np.argmax(last))
    return float(times[i]), float(last[i])


def dissipative_transport_run(
    h: HamiltonianOperator,
    bath: BathSpec | None,
    psi0: np.ndarray,
    t_grid: np.ndarray,
    region: Iterable[int] | None = None,
) -> ObservableSeries:
    """Full pipeline: diagonalize, relax in the energy basis, report site observables.

    ``psi0`` is a position-basis pure state; ``region`` defaults to the last
    site. The initial energy-basis coherences are kept and propagated, so the
    early-time transient is exact. ``bath = None`` (or zeta = 0) is the closed
    chain.
    """
    eig = diagonalize(h)
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    rows = _region_rows([h.dim] if region is None else region, h.dim)
    c = eig.eigenvectors.T @ psi0
    return pure_state_series(eig, bath, c, t_grid, np.arange(1, h.dim + 1), rows)
