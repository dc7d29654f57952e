"""Open-system dynamics in the energy representation of the chain.

The bath exchanges single energy quanta with the chain: jump operators connect
adjacent energy levels only (simultaneous multi-phonon processes are excluded),
at the thermal rates

    absorption  n -> n+1 :  1 / (exp(beta*omega) - 1)
    emission    n+1 -> n :  1 / (exp(beta*omega) - 1) + 1

with omega the level gap, so detailed balance holds and the Gibbs vector is
stationary. They form the bare-rate matrix gamma, gamma[m, n] the rate of
n -> m (:func:`transition_rates`); the chain-bath coupling strength ``zeta``
multiplies all rates.

Under these rates the density matrix decouples in the energy eigenbasis:
populations follow a classical master equation, while each coherence decays
autonomously,

    rho_mn(t) = rho_mn(0) * exp([-i (e_m - e_n) - zeta (G_m + G_n)/2] t),

where G_m = sum_j gamma[j, m] is the total outflow rate from level m.
``zeta = 0`` reduces every formula to the closed-system evolution.

Every run in the package starts from a pure state (energy amplitudes c); the
chain runs release the excitation at site 1, c = V[0] (the first row of the
eigenvectors V), and read the last site. From a pure start the decay law
factorizes: the coherences are the off-diagonal part of u u^H with
u_m(t) = c_m exp((-i e_m - zeta G_m / 2) t). A run on the T points of
``time_grid(t_max, dt)`` is then the n x T populations P (exact
matrix-exponential steps of the master equation) and amplitudes U. No
pipeline needs the whole site distribution
|V U|^2 + (V*V)(P - |U|^2), only k rows R of it, R |V U|^2 + (R (V*V))(P - |U|^2)
(:func:`read_out`; V is real, so V U is a real product). No dense n x n state
and no n x T array is formed: every pipeline reads this kernel one block at a
time, in O(n x block) memory plus its O(T) outputs: the chain with or without a
bath (:func:`pure_state_series`), the arrival-peak scan (:func:`arrival_peak`,
on the end weights V[0] * V[-1] alone) and the switch pipelines of
:mod:`openchain.feynman`. A spectrum travels as the pair (e, V) that
:func:`openchain.chains.diagonalize` returns, and a chain run returns its CSV
columns: a dict of named arrays.

Every run takes its time axis as (t_max, dt), and :func:`time_grid` is the one
check on it. :func:`energy_blocks` yields P and U in cache-sized blocks of grid
columns. The phases exp(d t) with d = -i e - zeta G / 2 of the first block come
from two tables of about sqrt(T) columns, exp(d k dt) and c exp(d j b dt),
multiplied by one broadcast product, instead of n T complex exponentials; every
later block is that table times exp(d t_start).
The populations take B matrix-vector steps of S = expm(A dt) and then one
BLAS-3 product S^B P per B columns, in the same block loop: each block starts
from the last B columns of the one before it. :func:`expm` is the package's
own, in numpy: a degree-12 Taylor polynomial (five products, no solve) up to
1-norm 1/4, which covers the production ||A dt|| of about 0.2, and scaling
and squaring around the degree-13 Pade approximant above. Far off the band
S and its powers hold entries whose products turn subnormal, and subnormal
products run at a fraction of BLAS speed. So S is flushed (entries below
1e-150 in absolute value set to zero) right after expm and after each of its
five squarings to S^B: the product of two kept entries is a normal float.
P is not flushed.

With a bath the coherences die out, and past a cut the read-out skips them.
The coherent term R_r |V u|^2 of row r is at most max|R_r| ||u(t)||^2 (V is
orthogonal), while the population term (R_r (V*V)) P already rounds by about
eps max|R_r|, eps = 2^-53 the unit roundoff. Each |u_m(t)|^2 =
|c_m|^2 exp(-zeta G_m t) can only fall, so once ||u||^2 < ``_DECAYED`` =
2^-70 the coherent term is below 2^-17 of that rounding, and it only falls
further. :func:`read_out` therefore forms V U and adds R |V U|^2 only on a
block's columns before that cut (:func:`_coherent_columns` finds it by
bisection, O(n log width) per block); the subtracted |U|^2 of the bath
correction is kept on every column. The superposed switch stops its cross
diagonal and its register eigensolve at the same cut. Without a bath
||u|| = 1, and every column is read out in full.

With a bath the coherent term is also formed only on the energy modes and
sites that the start reaches (:func:`_reach`). Every |u_m(t)| <= |c_m|. The
modes M keep all but the smallest |c_m|, dropped while their norm
||c_drop|| < ``_REACH`` = 2^-72; replacing u by its rows M, in R |V u|^2 and
in the subtracted |u|^2 alike, moves row r by at most
max|R_r| (2 ||c_drop|| + 2 ||c_drop||^2). Each site amplitude of the kept
modes is bounded at every t, |(V[:, M] u_M)_j| <= b_j = sum_{m in M} |V_jm| |c_m|,
and the sites S keep all but the smallest b_j, dropped while their tail
sum b_j^2 < 2^-72. So the coherent term is R[:, S] |V[S, M] U_M|^2 and the
bath correction subtracts |U|^2 on the rows M alone; the part dropped from
row r is at most max|R_r| (2^-71 + 2^-72 + 2^-143), below the decay cut's
own bound max|R_r| 2^-70. :func:`energy_blocks` builds the phase tables and
U blocks of the modes M alone; P keeps every level, because the bath fills
them all. Without a bath every mode and site stays and the run is unchanged
bit for bit: there P is |U|^2 itself, and a cut would move a row that is
tiny in its own right (the last site of a localized chain at early times,
1e-44 to 1e-31) by O(1) of its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import diagonalize

_BLOCK_SQUARINGS = 5  # population blocks of B = 2**5 columns, S^B by five squarings
_BLOCK_BYTES = 1 << 20  # one complex n x block amplitude array: cache-sized
_DECAYED = 2.0**-70  # ||u||^2 below which the coherences drop under rounding (see above)
_REACH = 2.0**-72  # ||c_drop|| and the sites' tail sum b_j^2 a bath run leaves out (see above)
_FLUSH = 1e-150  # entries of S and S^2 .. S^B set to zero below it: no subnormal products
# degree-13 Pade coefficients b_0 .. b_13 and the 1-norm up to which they need
# no scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# Taylor coefficients 1 / k! of the degree-12 polynomial that expm takes up to 1-norm 1/4
_TAYLOR12 = tuple(1.0 / math.factorial(k) for k in range(13))
_TAYLOR_NORM = 0.25


class DegenerateGapError(ValueError):
    """Adjacent energy levels coincide, so the thermal rates are undefined."""


@dataclass(frozen=True)
class BathSpec:
    """Thermal reservoir: inverse temperature and coupling constant.

    ``zeta = 0`` is allowed and gives exactly unitary evolution (handy for
    consistency checks); dissipative runs use zeta > 0. ``beta = inf`` is zero
    temperature (no upward jumps). NaN fails both checks, and so does an
    infinite ``zeta``.
    """

    beta: float
    zeta: float

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError(f"inverse temperature must be > 0, got {self.beta}")
        if not 0 <= self.zeta < math.inf:
            raise ValueError(f"coupling constant must be finite and >= 0, got {self.zeta}")


def transition_rates(eigenvalues: np.ndarray, bath: BathSpec) -> np.ndarray:
    """The bare-rate matrix: gamma[m, n] is the thermal rate of the level transition n -> m.

    zeta is excluded. Only nearest-level entries (absorption and emission) are
    nonzero; column m sums to the total outflow rate G_m of level m.
    """
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
    return gamma


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real matrix: a degree-12 Taylor polynomial up to 1-norm 1/4, Pade-13 above.

    At ||a||_1 <= 1/4 the Taylor remainder is below ||a||_1^13 / 13! < 3e-18,
    and the polynomial takes five products and no solve: a^2, a^3 and a^4,
    then two Horner steps in a^4 (Paterson and Stockmeyer, SIAM J. Comput. 2,
    60 (1973)). Above 1/4, a is scaled by 2^-k so that its 1-norm is at most
    theta_13, the degree-13 Pade approximant r = (V - U)^-1 (V + U) is taken
    in the form I + 2 (V - U)^-1 U, which rounds less at small norms, and r
    is squared k times. Both add the identity last. A non-finite a gives a
    non-finite result.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    ident = np.eye(a.shape[0])
    if norm <= _TAYLOR_NORM:
        c = _TAYLOR12
        a2 = a @ a
        a3, a4 = a2 @ a, a2 @ a2
        r = a4 @ (c[12] * a4 + c[11] * a3 + c[10] * a2 + c[9] * a + c[8] * ident)
        r = a4 @ (r + c[7] * a3 + c[6] * a2 + c[5] * a + c[4] * ident)
        r += c[3] * a3 + c[2] * a2 + a
        return r + ident
    k = math.ceil(math.log2(norm / _THETA13)) if _THETA13 < norm < math.inf else 0
    a = a * 2.0**-k
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
    u = a @ (u + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
    v += b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(k):
        r = r @ r
    return r


def population_generator(gamma: np.ndarray, bath: BathSpec) -> np.ndarray:
    """Generator A of dp/dt = A p from the bare rates; columns sum to zero (trace preserving)."""
    a = bath.zeta * gamma
    np.fill_diagonal(a, -bath.zeta * gamma.sum(axis=0))
    return a


def _whole_steps(t_max: float, dt: float) -> bool:
    """Whether 0 .. t_max is >= 1 whole dt steps (rel. 1e-9), so a grid steps by the given dt."""
    ratio = t_max / dt
    steps = round(ratio) if math.isfinite(ratio) else 0  # 1e300 / 1e-300 counts no steps
    return steps >= 1 and math.isclose(steps * dt, t_max, rel_tol=1e-9)


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """The uniform grid 0 .. t_max in round(t_max / dt) equal steps: every run's time axis.

    t_max and dt must be finite and positive, and t_max a whole number >= 1 of
    dt steps (:func:`_whole_steps`); anything else raises ``ValueError``.
    """
    if not (0 < t_max < math.inf and 0 < dt < math.inf and _whole_steps(t_max, dt)):
        raise ValueError(
            f"t_max and dt must be finite and positive, and t_max a whole number >= 1 "
            f"of dt steps; got t_max={t_max}, dt={dt}"
        )
    return np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)


def _phases(d: np.ndarray, c: np.ndarray, dt: float, size: int) -> np.ndarray:
    """c_m exp(d_m t_i) on the grid t_i = i dt from two sqrt(T) tables.

    With b = ceil(sqrt(T)), column j b + k is the product of the fine table
    exp(d k dt) and the coarse table c exp(d j b dt).
    """
    b = math.isqrt(size - 1) + 1
    full = size // b
    fine = np.exp(np.outer(d, dt * np.arange(b)))
    coarse = c[:, None] * np.exp(np.outer(d, (b * dt) * np.arange(-(-size // b))))
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
    alive. Far off the band the entries of S and its powers fall below 1e-150,
    and their products turn subnormal, which slows every product. So entries
    of S below ``_FLUSH`` = 1e-150 in absolute value are set to zero right
    after :func:`expm` and again after each squaring: the product of two
    kept entries is then a normal float. P is not flushed.
    """
    block = 1 << _BLOCK_SQUARINGS
    step = expm(gen * dt)
    step[np.abs(step) < _FLUSH] = 0.0
    pops = np.empty((p.size, block + min(width, size)))  # B carried columns, then the block
    pops[:, block] = p
    for i in range(block + 1, min(2 * block, pops.shape[1])):
        pops[:, i] = step @ pops[:, i - 1]
    for _ in range(_BLOCK_SQUARINGS):
        step = step @ step
        step[np.abs(step) < _FLUSH] = 0.0
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
    t_max: float,
    dt: float,
    modes: np.ndarray | slice = slice(None),
):
    """(columns, P block or None, U block) of a pure start per cache-sized block of the grid.

    The grid is ``time_grid(t_max, dt)``, whose ``ValueError`` an invalid
    axis raises at the first block. ``amplitudes`` are the initial
    energy-basis amplitudes c. U[m, i] = c_m exp(d_m t_i) with
    d = -i e - zeta G / 2, so the coherences at t_i are u u^H - diag|u|^2
    with u = U[:, i]. U holds the rows ``modes`` alone (every mode by
    default; a bath run passes those of :func:`_reach`), while P keeps every
    level. A block spans as many grid columns as fit one complex n x width
    array of about 1 MiB, and at least B = 32. The phase tables are built
    once, for the first block; the block from column ``start`` on is that
    table times exp(d t_start), formed after the generator has let go of the
    block before. P advances block by block, carrying the last B columns of
    each block into the next, so at most two blocks of it are held; without
    a bath (``None`` or zeta = 0) it is None: the populations are |U|^2, so
    the coherence correction of :func:`read_out` vanishes and is skipped.
    """
    times = time_grid(t_max, dt)
    e = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(amplitudes, dtype=complex)
    step, size = t_max / (times.size - 1), times.size
    width = max(1 << _BLOCK_SQUARINGS, _BLOCK_BYTES // (16 * e.size))
    pops, d = None, -1j * e
    if bath is not None and bath.zeta != 0.0:
        gamma = transition_rates(e, bath)
        gen = population_generator(gamma, bath)
        pops = _population_blocks(gen, np.abs(c) ** 2, step, width, size)
        d = d - 0.5 * bath.zeta * gamma.sum(axis=0)
    d, c = d[modes], c[modes]
    first = _phases(d, c, step, min(width, size))
    for start in range(0, size, width):
        # no local name holds a yielded block, so the next one is formed without it
        yield (
            slice(start, start + width),
            None if pops is None else next(pops),
            first if start == 0 else first[:, : size - start] * np.exp(d * times[start])[:, None],
        )


def _coherent_columns(amplitudes: np.ndarray) -> int:
    """How many leading columns u of a U block have ||u||^2 >= ``_DECAYED``.

    ||u(t)||^2 = sum |c_m|^2 exp(-zeta G_m t) can only fall along the grid, so
    the decayed columns are a suffix of the block: a bisection on the norms of
    single columns finds where it starts.
    """
    lo, hi = 0, amplitudes.shape[1]
    while lo < hi:
        mid = (lo + hi) // 2
        column = amplitudes[:, mid]
        if np.vdot(column, column).real >= _DECAYED:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _tail(weights: np.ndarray, budget: float) -> np.ndarray:
    """Indices of the smallest ``weights`` whose sum stays below ``budget``."""
    order = np.argsort(weights)
    return order[: np.count_nonzero(np.cumsum(weights[order]) < budget)]


def _reach(
    eigenvectors: np.ndarray, amplitudes: np.ndarray, bath: BathSpec | None
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (modes, sites) of what the coherent term of a pure start c keeps.

    Without a bath (``None`` or zeta = 0) both are True throughout. With a
    bath the modes drop the smallest |c_m| while ||c_drop|| < ``_REACH``, and
    the sites drop the smallest bounds b_j = sum_{m in M} |V_jm| |c_m| while
    their tail sum b_j^2 < ``_REACH``; the module docstring gives the bound.
    """
    c = np.abs(amplitudes)
    modes = np.ones(c.size, dtype=bool)
    sites = np.ones(eigenvectors.shape[0], dtype=bool)
    if bath is not None and bath.zeta != 0.0:
        modes[_tail(np.square(c), _REACH**2)] = False
        bound = np.abs(eigenvectors[:, modes]) @ c[modes]
        sites[_tail(np.square(bound), _REACH)] = False
    return modes, sites


def _kept(mask: np.ndarray) -> np.ndarray | slice:
    """The indices where ``mask`` holds, or ``slice(None)`` (a view) where it holds everywhere."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def site_amplitudes(eigenvectors: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """V U for real V: one real product on the interleaved (re, im) view of U.

    A U whose columns are adjacent in memory, such as the leading columns of
    a block, is viewed in place; any other U is copied first.
    """
    u = np.asarray(amplitudes)
    if u.strides[-1] != u.itemsize:
        u = np.ascontiguousarray(u)
    return (eigenvectors @ u.view(float)).view(complex)


def read_out(
    eigenvectors: np.ndarray,
    rows: np.ndarray,
    populations: np.ndarray | None,
    amplitudes: np.ndarray,
    squared: np.ndarray | None = None,
    reach: tuple[np.ndarray | slice, np.ndarray | slice] | None = None,
    rotated: np.ndarray | None = None,
) -> np.ndarray:
    """``rows`` (k x n) times the site distribution of one block of :func:`energy_blocks`.

    R |V U|^2 + (R (V*V))(P - |U|^2), k x columns: the bath correction is a k x n
    product; ``populations = None`` (no bath) drops it. With a bath, the
    term R |V U|^2 is added only on the block's leading columns with
    ||u||^2 >= 2^-70 (:func:`_coherent_columns`). Past them the dropped part
    of row r is at most max|R_r| 2^-70, about 2^-17 of the population term's
    own rounding, eps max|R_r| (eps = 2^-53). ``reach`` is the pair
    (modes M, sites S) of a bath run, index arrays or slices (:func:`_reach`
    and :func:`_kept`): U holds the rows M, the coherent term is
    R[:, S] |V[S, M] U|^2 and the correction subtracts |U|^2 from the rows M
    of P. None keeps every mode and site. ``squared`` is V*V and ``rotated``
    is V[S, M] U, at least on the leading columns, when the caller has them
    already; both are left intact. The package's runs pass V*V, squared once
    per spectrum; without it (one-off calls, as in the tests) read_out
    squares V itself.
    """
    modes, sites = (slice(None), slice(None)) if reach is None else reach
    keep = amplitudes.shape[1] if populations is None else _coherent_columns(amplitudes)
    if rotated is None:
        w = site_amplitudes(eigenvectors[sites][:, modes], amplitudes[:, :keep])
    else:
        w = rotated[:, :keep]
    prob = np.square(w.real)
    prob += np.square(w.imag, out=w.imag if rotated is None else None)  # in place when w is ours
    del w  # frees V U before the correction's temporaries
    coherent = rows[:, sites] @ prob
    if populations is None:
        return coherent
    if squared is None:
        squared = np.square(eigenvectors)
    magnitude = np.abs(amplitudes, out=np.empty(amplitudes.shape))
    np.square(magnitude, out=magnitude)
    correction = np.array(populations)  # P - |U|^2, subtracted on the rows M alone
    correction[modes] -= magnitude
    del magnitude
    out = (rows @ squared) @ correction
    out[:, :keep] += coherent
    return out


def pure_state_series(
    eig: tuple[np.ndarray, np.ndarray],
    bath: BathSpec | None,
    amplitudes: np.ndarray,
    t_max: float,
    dt: float,
    positions: np.ndarray,
    region: np.ndarray,
) -> dict[str, np.ndarray]:
    """Columns t, mean_Q, var_Q and p_region of a pure start, read out one cache block at a time.

    The ``t`` column is ``time_grid(t_max, dt)``. ``eig`` is the spectrum
    (eigenvalues, eigenvectors), ``amplitudes`` the energy-basis amplitudes
    c, ``positions`` the coordinate x of each eigenvector row and ``region``
    the 0-based rows summed into ``p_region`` (an empty array gives zeros).
    Each block is read out on the rows x, y^2, y and the region's indicator,
    with y = x - the block's first mean, read out from that column alone:
    about the origin, <x^2> - <x>^2 would cancel max(x)^2 of precision. A
    variance below -1e-9 is a numeric failure and raises
    ``FloatingPointError``; the rounding-level negatives above it are clipped
    to 0. With a bath the blocks hold U on the modes of :func:`_reach` alone,
    and the read-out forms V U on its sites alone.
    """
    (e, v), x = eig, np.asarray(positions, dtype=float)
    times = time_grid(t_max, dt)
    indicator = np.bincount(region, minlength=x.size)
    mean, var, p_region = (np.empty(times.size) for _ in range(3))
    squared = np.square(v)  # V*V, once per spectrum
    reach = tuple(_kept(mask) for mask in _reach(v, amplitudes, bath))
    for cols, p, u in energy_blocks(e, bath, amplitudes, t_max, dt, reach[0]):
        first = None if p is None else p[:, :1]
        y = x - read_out(v, x[None], first, u[:, :1], squared, reach)[0, 0]
        out = read_out(v, np.stack([x, y**2, y, indicator]), p, u, squared, reach)
        mean[cols], var[cols], p_region[cols] = out[0], out[1] - out[2] ** 2, out[3]
    if np.any(var < -1e-9):
        raise FloatingPointError("variance must be nonnegative")
    return {"t": times, "mean_Q": mean, "var_Q": np.maximum(var, 0.0), "p_region": p_region}


def arrival_peak(
    energies: np.ndarray, weights: np.ndarray, t_max: float, dt: float
) -> tuple[float, float]:
    """Grid-scan maximum of |A(t)|^2, A(t) = sum_m w_m exp(-i e_m t), over [0, t_max].

    With w = V[0] * V[-1], A is the last site's amplitude from site 1. Returns
    (t_star, p_star) on ``time_grid(t_max, dt)``, so the resolution is dt; A
    is the column sum of each block of :func:`energy_blocks` started from w.
    """
    times = time_grid(t_max, dt)
    power = []
    for *_, u in energy_blocks(energies, None, weights, t_max, dt):
        a = u.sum(axis=0)
        del u  # so the next block is formed while this one is freed
        power.append(np.square(a.real) + np.square(a.imag))
    last = np.concatenate(power)
    i = int(np.argmax(last))
    return float(times[i]), float(last[i])


def dissipative_transport_run(
    energies: np.ndarray, bath: BathSpec | None, t_max: float, dt: float
) -> dict[str, np.ndarray]:
    """Full pipeline: diagonalize, relax in the energy basis, report site observables.

    ``energies`` are the chain's on-site energies
    (:func:`openchain.chains.build_chain_hamiltonian`); the hopping is -1/2.
    The excitation starts on site 1 (energy amplitudes ``V[0]``). Returns the
    columns of :func:`pure_state_series`; ``p_region`` is the last site's
    probability. The initial energy-basis coherences are kept and propagated,
    so the early-time transient is exact.
    ``bath = None`` (or zeta = 0) is the closed chain.
    """
    e, v = diagonalize(energies)
    sites = np.arange(1, e.size + 1)
    return pure_state_series((e, v), bath, v[0], t_max, dt, sites, np.array([e.size - 1]))
