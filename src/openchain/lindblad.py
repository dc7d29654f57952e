"""Open-system dynamics in the energy representation of the chain.

The bath exchanges single energy quanta with the chain: jump operators connect
adjacent energy levels only (simultaneous multi-phonon processes are excluded),
at the thermal rates

    absorption  n -> n+1 :  1 / (exp(beta*omega) - 1)
    emission    n+1 -> n :  1 / (exp(beta*omega) - 1) + 1

with omega the level gap, so detailed balance holds and the Gibbs vector is
stationary. The rates are two bands of n - 1 entries, absorption k -> k+1
and emission k+1 -> k (:func:`transition_rates`); the chain-bath coupling
strength ``zeta`` multiplies all rates.

Under these rates the density matrix decouples in the energy eigenbasis:
populations follow a classical master equation, while each coherence decays
autonomously,

    rho_mn(t) = rho_mn(0) * exp([-i (e_m - e_n) - zeta (G_m + G_n)/2] t),

where G_m, the width of level m, is its total outflow rate (:func:`level_widths`).
``zeta = 0`` reduces every formula to the closed-system evolution.

Every run in the package starts from a pure state (energy amplitudes c); the
chain runs release the excitation at site 1, c = V[0] (the first row of the
eigenvectors V), and read the last site. From a pure start the decay law
factorizes: the coherences are the off-diagonal part of u u^H with
u_m(t) = c_m exp((-i e_m - zeta G_m / 2) t), so the state is exactly
rho(t) = diag(q) + u u^H with q = P - |u|^2, P the populations (exact
matrix-exponential steps of the master equation). A run on the T points of
``time_grid(t_max, dt)`` is then the n x T arrays q and amplitudes U. No
pipeline needs the whole site distribution |V U|^2 + (V*V) q, only k rows R
of it, R |V U|^2 + (R (V*V)) q (:func:`read_out`; V is real, so V U is a
real product). No dense n x n state
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
own, in numpy: one Taylor polynomial with no solve, of degree 12 (five
products) up to 1-norm 1/4, which covers the production ||A dt|| of about
0.2, and of degree 28 above it, on A dt scaled to 1-norm <= 3 and squared
back. A is tridiagonal, so S is banded at every norm: half-bandwidth at
most 12, or 28 times 2^k after k squarings. Far off the band S and its
powers hold entries whose products turn subnormal, and subnormal products
run at a fraction of BLAS speed. So S is flushed (entries below 1e-150 in
absolute value set to zero): expm returns it flushed, and each squaring,
expm's and the five to S^B (:func:`_squared`), is flushed too: the product
of two kept entries is a normal float. P is not flushed.

With a bath the coherences die out, and past a cut the read-out skips them.
The coherent term R_r |V u|^2 of row r is at most max|R_r| ||u(t)||^2 (V is
orthogonal), while the population term (R_r (V*V)) P already rounds by about
eps max|R_r|, eps = 2^-53 the unit roundoff. Each |u_m(t)|^2 =
|c_m|^2 exp(-zeta G_m t) can only fall, so once ||u||^2 < ``_DECAYED`` =
2^-70 the coherent term is below 2^-17 of that rounding, and it only falls
further. So the cut is a property of the run, not of a block: ||u(t)||^2 =
sum_M |c_m|^2 exp(-zeta G_m t) on the modes M that U holds is known in
closed form, and :func:`energy_blocks` finds the run's horizon, the first
grid time at which it falls below 2^-70, once, before its block loop
(:func:`_coherent_columns`, one bisection over the grid, O(|M| log T));
without a bath ||u|| = 1, and the horizon is the whole grid, taken with no
bisection. Each block's cut is the horizon clipped to the block. Before its
cut a bath block is diag(P - |u|^2) + u u^H; from the cut on it is diag(P):
q is P there, and no |u|^2 is subtracted. So past the cut row r misses
R_r (|V u|^2 - (V*V) |u|^2) instead of R_r |V u|^2. Both terms are at most
max|R_r| ||u||^2 in size, and they share a sign for a row of one sign, so a
row of one sign misses at most max|R_r| 2^-70 and a signed row (y) at most
twice that. Each pipeline forms V U on the columns before the cut alone, and
:func:`read_out` adds R |V U|^2 on exactly those columns and L q on every
column. The superposed switch stops its cross diagonal and its register
eigensolve at the later of its two branches' cuts.

The coherent term is also formed only on the energy modes M and sites S that
the start reaches (:func:`_reach`): one reach for every run, with and
without a bath, whose rectangle joins two budgets. The absolute one: the
caller passes a weight W_j >= |R_rj| for every row r that it reads on the
reach. Every |u_m(t)| <= |c_m| (the bath only damps them), so dropping the
modes outside M moves site amplitude j by at most
d_j = sum_{m not in M} |V_jm| |c_m| at every t, and every site amplitude is
at most B_j = sum_m |V_jm| |c_m|. The modes M drop the smallest |c_m| while
sum_j W_j d_j^2 <= E/2, and the sites S drop the smallest W_j B_j^2 while the
sum of those stays within E - sum_j W_j d_j^2, with E = ``_REACH`` = 2^-110.
By Cauchy-Schwarz, reading the coherent term of row r as
R_r[S] |V[S, M] U_M|^2 moves it by at most 2 sqrt(A_r E) + E, where A_r is
the cut term read with |R_r| in place of R_r (without a bath, for y^2 and for
x >= 0, the row itself). With a bath the correction subtracts |U|^2 on the
rows M alone, and the part it leaves out, sum_j R_rj sum_{m not in M} V_jm^2
|u_m|^2, is at most sum_j W_j d_j^2 <= E/2. So row r moves by at most
2 sqrt(A_r E) + E, and 2 sqrt(A_r E) + 3E/2 with a bath: that is
2^-54 sqrt(A_r) + 3 * 2^-111 <= eps/2 max(A_r, 1) + 3 * 2^-111.

The relative one: a closed run also passes its region, the sites whose rows
need the accuracy of their own dot products. Without a bath P is |U|^2 and
no column decays, and a region row can be tiny in its own right (a tilted
switch branch past its gate, near 1e-23; the last site of a localized chain
at early times, far below 1e-190), where E would move it by O(1) of its
size. For each region site j the reach keeps the modes M_j, all but the
smallest |V_jm| |c_m| whose sum stays within eps B_j / 8 (eps = ``_EPS`` =
2^-53, the unit roundoff), and j joins S when B_j > 0: B_j = 0 holds its
amplitude at exactly 0 at every t, so dropping it is exact. Every
|u_m(t)| <= |c_m|, so site j's amplitude moves by at most eps B_j / 8, below
its dot product's own rounding eps B_j, and a region row p = sum_j p_j moves
by at most sum_j eps B_j (2 sqrt(p_j) + eps B_j) / 8. A region row below
(eps B_j)^2 is rounding noise, with the cut or without: the localized chain
(s = 200, sigma = 0.5) writes 4e-49 to 6e-44 where its exact last-site
probability is below 1e-190. The reach is the union of the two rectangles:
more modes and sites only shrink what either budget leaves out, so both
bounds hold on it. A bath run passes no region. Its populations are
accurate to eps absolute, so the absolute budget is already its floor; on
the s = 52 switch the relative rule would grow a branch's reach from 13
modes and 15 or 16 sites to 36 and 50.

Every run's blocks hold U on the modes M alone (q keeps every level,
because the bath fills them all, and is P - |U|^2 on the modes M before the
block's cut). Each
pipeline calls :func:`read_out` once per block and branch, on what the run
has formed: each run slices V[S, M] and its rows on S once, and forms one
V[S, M] U per block and branch, on the columns before the cut
(:func:`site_amplitudes`); with a bath it passes the block's q and the level
table L = R (V*V) over every site, which it forms once for rows that stay
fixed. read_out squares the caller's V U in place, re^2 + im^2, adds L q,
and neither forms V U, squares V, indexes V or its rows, nor copies q.

The chain (:func:`pure_state_series`) weights its rows x, y^2 and y by
W_j = max(|x_j|, D_j, D_j^2), D_j = max(x_j - min x, max x - x_j) >= |y_j|
(the mean that y is taken about lies between min x and max x, up to a few
ulps that the bound absorbs). Their move stays below their own rounding. W
covers the region indicator too while x >= 1, as the sites of every chain
and switch branch are, so a bath run reads that row under the absolute
bound, and a closed run, which passes the region, under both. The
superposed switch (:func:`openchain.feynman.run_superposed_input`) reads
0/1 rows under W = 1, and a closed switch passes each branch's sites past
the gate as its region.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .chains import diagonalize

_BLOCK_SQUARINGS = 5  # population blocks of B = 2**5 columns, S^B by five squarings
_BLOCK_BYTES = 1 << 20  # one complex n x block amplitude array: cache-sized
_DECAYED = 2.0**-70  # ||u||^2 below which the coherences drop under rounding (see above)
_REACH = 2.0**-110  # the weighted sum E that the reach of a run leaves out (see above)
_EPS = 2.0**-53  # the unit roundoff: a region site's amplitude moves by at most _EPS B_j / 8
_FLUSH = 1e-150  # entries of S and of each square set to zero below it: no subnormal products
# Taylor coefficients 1 / k! up to degree 28; expm takes degree 12 up to 1-norm
# _TAYLOR_NORM and degree 28 above it, on a scaled to 1-norm <= _SCALED_NORM
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(29))
_TAYLOR_NORM = 0.25
_SCALED_NORM = 3.0


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


def transition_rates(eigenvalues: np.ndarray, bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    """(absorption, emission): the only nonzero rates, k -> k+1 and k+1 -> k, zeta excluded."""
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
    return occupation, occupation + 1.0  # emission: stimulated + spontaneous


def level_widths(rates: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """G_m, the outflow rate of level m: absorption[m] up plus emission[m - 1] down."""
    widths = np.append(rates[0], 0.0)
    widths[1:] += rates[1]
    return widths


def _squared(s: np.ndarray, times: int) -> np.ndarray:
    """s squared ``times`` times, its entries below ``_FLUSH`` set to zero after each squaring."""
    for _ in range(times):
        s = s @ s
        s[np.abs(s) < _FLUSH] = 0.0
    return s


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real matrix: one Taylor polynomial, of degree 12 or 28 by ||a||_1.

    At ||a||_1 <= 1/4 the degree is 12 and a is not scaled: the remainder is
    below ||a||_1^13 / 13! < 3e-18. Above 1/4 the degree is 28, a is scaled
    by 2^-k to 1-norm <= 3, and the result is squared k times (flushed after
    each squaring, as :func:`_squared` does): the remainder is below
    3^29 / 29! * 1.12 < 1e-17. Both degrees are multiples of 4, so one
    Paterson-Stockmeyer loop (SIAM J. Comput. 2, 60 (1973)) evaluates them:
    a^2, a^3 and a^4, then Horner steps in a^4, five products at degree 12
    and nine at 28, with no solve; the identity is added last. A
    tridiagonal a gives a result of half-bandwidth at most 12, or 28 times
    2^k. Every result, squared or not, is returned flushed: its entries below
    ``_FLUSH`` = 1e-150 in absolute value are zero. A non-finite a gives a
    non-finite result.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    degree = 12 if norm <= _TAYLOR_NORM else 28
    k = math.ceil(math.log2(norm / _SCALED_NORM)) if _SCALED_NORM < norm < math.inf else 0
    a = a * 2.0**-k
    c, ident = _TAYLOR, np.eye(a.shape[0])
    a2 = a @ a
    a3, a4 = a2 @ a, a2 @ a2
    r = c[degree] * a4
    for j in range(degree - 4, 0, -4):
        r = a4 @ (r + c[j + 3] * a3 + c[j + 2] * a2 + c[j + 1] * a + c[j] * ident)
    r += c[3] * a3 + c[2] * a2 + a
    r = _squared(r + ident, k)
    return np.where(np.abs(r) < _FLUSH, 0.0, r)  # the unsquared polynomial too: all flushed


def population_generator(rates: tuple[np.ndarray, np.ndarray], bath: BathSpec) -> np.ndarray:
    """Dense generator A = zeta (rates - diag G) of dp/dt = A p, expm's input; columns sum to 0."""
    k = np.arange(rates[0].size)
    a = np.diag(-bath.zeta * level_widths(rates))
    a[k + 1, k], a[k, k + 1] = bath.zeta * rates[0], bath.zeta * rates[1]
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
    from a copy of the last B columns of the block before it, taken before
    that block is yielded: every yielded block is a fresh buffer that the
    caller may keep or overwrite (:func:`energy_blocks` forms P - |u|^2 in
    it). Far off the band the entries of S and its powers fall below 1e-150,
    and their products turn subnormal, which slows every product. So entries
    below ``_FLUSH`` = 1e-150 in absolute value are zero in S, as
    :func:`expm` returns it, and are set to zero again after each squaring
    (:func:`_squared`): the product of two kept entries is then a normal
    float. P is not flushed.
    """
    block = 1 << _BLOCK_SQUARINGS
    step = expm(gen * dt)
    pops = np.empty((p.size, block + min(width, size)))  # B carried columns, then the block
    pops[:, block] = p
    for i in range(block + 1, min(2 * block, pops.shape[1])):
        pops[:, i] = step @ pops[:, i - 1]
    step = _squared(step, _BLOCK_SQUARINGS)
    for start in range(0, size, width):
        if start:
            pops = np.empty((p.size, block + min(width, size - start)))
            pops[:, :block] = carried
        for i in range(2 * block if start == 0 else block, pops.shape[1], block):
            stop = min(i + block, pops.shape[1])
            pops[:, i:stop] = step @ pops[:, i - block : stop - block]
        carried = pops[:, -block:].copy()  # the yielded block is the caller's to overwrite
        yield pops[:, block:]


def energy_blocks(
    eigenvalues: np.ndarray,
    bath: BathSpec | None,
    amplitudes: np.ndarray,
    t_max: float,
    dt: float,
    modes: np.ndarray | slice = slice(None),
):
    """(columns, q, U, cut) of a pure start per cache-sized block of the grid.

    The energy-basis state at a grid time is diag(q) + u u^H, with q and u
    that time's columns of q and U. The grid is ``time_grid(t_max, dt)``, whose ``ValueError`` an
    invalid axis raises at the first block. ``amplitudes`` are the initial
    energy-basis amplitudes c. U[m, i] = c_m exp(d_m t_i) with
    d = -i e - zeta G / 2. U holds the rows ``modes``, in their order (every
    mode by default; every run passes the modes of :func:`_reach`), while q
    keeps every level: q = P - |U|^2, the populations P less |U|^2 on the
    rows ``modes`` on the columns before the block's cut and P from it on,
    formed in place in the P block, which is the caller's (a fresh buffer per
    block). Without a bath (``None`` or zeta = 0) q is None: the populations
    are |U|^2, and the block is u u^H alone. ``cut`` is the decay cut, how
    many leading columns carry a coherent term: the run's horizon, found once
    before the first block, clipped to the block, min(max(horizon - start,
    0), width). With a bath the horizon is the first grid time with
    sum_M |c_m|^2 exp(-zeta G_m t) < ``_DECAYED`` (:func:`_coherent_columns`,
    one bisection per run); without one it is the whole grid, with no
    bisection, since ||u|| = 1 throughout. A block spans as many grid
    columns as fit one complex n x width array of about 1 MiB, and at least
    B = 32. The phase tables are built once, for the first block; the block
    from column ``start`` on is that table times exp(d t_start), formed
    after the generator has let go of the block before. P advances block by
    block from a copy of the last B columns of the block before.
    """
    times = time_grid(t_max, dt)
    e = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(amplitudes, dtype=complex)
    step, size = t_max / (times.size - 1), times.size
    width = max(1 << _BLOCK_SQUARINGS, _BLOCK_BYTES // (16 * e.size))
    pops, d, horizon = None, -1j * e, size
    if bath is not None and bath.zeta != 0.0:
        rates = transition_rates(e, bath)
        gen = population_generator(rates, bath)
        pops = _population_blocks(gen, np.abs(c) ** 2, step, width, size)
        d = d - 0.5 * bath.zeta * level_widths(rates)
        horizon = _coherent_columns(np.abs(c[modes]) ** 2, 2.0 * d.real[modes], times)
    d, c = d[modes], c[modes]
    first = _phases(d, c, step, min(width, size))
    for start in range(0, size, width):
        u = first if start == 0 else first[:, : size - start] * np.exp(d * times[start])[:, None]
        q, cut = None, min(max(horizon - start, 0), u.shape[1])
        if pops is not None:
            q, magnitude = next(pops), np.abs(u[:, :cut])
            q[modes, :cut] -= np.square(magnitude, out=magnitude)  # P - |u|^2, in the P block
        yield slice(start, start + width), q, u, cut
        del u, q  # so the next block is formed without this one


def _coherent_columns(weights: np.ndarray, rates: np.ndarray, times: np.ndarray) -> int:
    """The run's horizon: how many leading ``times`` have sum_m w_m exp(r_m t) >= ``_DECAYED``.

    With weights w = |c_m|^2 and rates r = 2 Re d_m = -zeta G_m <= 0 the sum
    is ||u(t)||^2 in closed form, formed the same way at every grid time, not
    read off formed columns. Each term can only fall along the grid, so the
    decayed times are a suffix of the grid: one bisection finds where it
    starts.
    """
    return bisect.bisect_left(
        range(times.size), True, key=lambda i: weights @ np.exp(rates * times[i]) < _DECAYED
    )


def _reach(
    eigenvectors: np.ndarray, amplitudes: np.ndarray, weight: np.ndarray, region=()
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (modes M, sites S) of what the coherent term of a pure start c keeps.

    ``weight`` is W, W_j >= |R_rj| for every row r read on the reach. The
    modes drop the smallest |c_m| while sum_j W_j d_j^2 <= ``_REACH`` / 2,
    d_j = sum_{m not in M} |V_jm| |c_m|, and the sites drop the smallest
    W_j B_j^2, B_j = sum_m |V_jm| |c_m|, within the rest of the budget. Each
    site j of ``region`` (0-based rows, read to relative accuracy) then keeps
    the modes M_j: all but the smallest |V_jm| |c_m| whose sum stays
    <= ``_EPS`` B_j / 8 (a term equal to the least kept one is kept too). It
    joins S when B_j > 0 (B_j = 0 holds its amplitude at 0), and the modes
    are the union of M and every M_j. The module docstring derives both
    bounds.
    """
    c, size = np.abs(amplitudes), np.abs(eigenvectors)
    rank = np.argsort(np.argsort(c))

    def dropped(k: int) -> np.ndarray:  # d_j of the k smallest |c_m|
        return size @ np.where(rank < k, c, 0.0)

    lo, hi = 0, c.size  # the most modes with sum_j W_j d_j^2 <= budget / 2: d grows with k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if weight @ np.square(dropped(mid)) <= _REACH / 2 else (lo, mid - 1)
    tail = weight * np.square(size @ c)  # W_j B_j^2
    order, left = np.argsort(tail), _REACH - weight @ np.square(dropped(lo))
    sites = np.ones(tail.size, dtype=bool)
    sites[order[: np.count_nonzero(np.cumsum(tail[order]) < left)]] = False
    rows, live = np.asarray(region, dtype=int), np.flatnonzero(c)
    modes = rank >= lo
    # chunks of rows whose four float arrays (terms, ranked, the cumsum, the where) fill a block
    for chunk in np.array_split(rows, 1 + 32 * rows.size * live.size // _BLOCK_BYTES):
        terms = size[np.ix_(chunk, live)] * c[live]  # |V_jm| |c_m|, modes with c_m != 0
        ranked = np.sort(terms, axis=1)
        total = ranked.sum(axis=1)  # B_j
        past = np.cumsum(ranked, axis=1) > _EPS / 8 * total[:, None]  # past the dropped smallest
        least = np.where(past, ranked, np.inf).min(axis=1, initial=np.inf)  # M_j's smallest term
        sites[chunk[total > 0]] = True
        modes[live[np.any(terms >= least[:, None], axis=0)]] = True
    return modes, sites


def _moment_weight(positions: np.ndarray) -> np.ndarray:
    """W_j = max(|x_j|, D_j, D_j^2), D_j = max(x_j - min x, max x - x_j): bounds x, y^2 and y."""
    x = np.asarray(positions, dtype=float)
    spread = np.maximum(x - x.min(), x.max() - x)  # >= |x - mu| for any mean mu of x
    return np.maximum(np.abs(x), np.maximum(spread, np.square(spread)))


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
    rows: np.ndarray, vu: np.ndarray, q: np.ndarray | None, levels: np.ndarray | None
) -> np.ndarray:
    """``rows`` times the site distribution of a block diag(q) + u u^H of :func:`energy_blocks`.

    ``vu`` is the block's site amplitudes V[S, M] U on the columns before its
    decay cut, which the caller forms (:func:`site_amplitudes`): V[S, M] is
    the eigenvectors on the sites S and modes M that the run reads, U the
    block's amplitudes on M, and ``rows`` is R on the sites S (k x |S|).
    read_out adds R |V U|^2 on exactly the columns of ``vu``; |V U|^2 is
    re^2 + im^2, formed by squaring the float view of ``vu`` in place and
    adding the column pairs, so the caller must not read ``vu`` afterwards.
    With a bath it adds L q on every column of the block, q = P - |U|^2 as
    :func:`energy_blocks` yields it; ``levels`` is the level table
    L = R (V*V) over every site (k x n), which a run forms once for rows that
    stay fixed. ``q = None`` (no bath) drops that term: the result has the
    columns of ``vu``, and ``levels`` is not read. Past the cut q is P, so
    row r misses R_r (|V u|^2 - (V*V) |u|^2): at most max|R_r| 2^-70 for a
    row of one sign and twice that for a signed row, about 2^-17 of the
    population term's own rounding, eps max|R_r| (eps = 2^-53).
    """
    square = vu.view(float)
    np.square(square, out=square)
    coherent = rows @ (square[:, ::2] + square[:, 1::2])  # re^2 + im^2
    if q is None:
        return coherent
    out = levels @ q
    out[:, : coherent.shape[1]] += coherent
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
    Each block is read out once, on the rows x, y^2, y and the region's
    indicator, with y = x - mu, mu the mean of the grid column just before
    the block, as the block before read it out: about the origin,
    <x^2> - <x>^2 would cancel max(x)^2 of precision. The first block is
    centred at the start's mean x |V c|^2, formed once per run. A
    variance below -1e-9 is a numeric failure and raises
    ``FloatingPointError``; the rounding-level negatives above it are clipped
    to 0. The rows are read on the modes M and sites S of :func:`_reach`,
    weighted by :func:`_moment_weight` of ``positions``, which bounds the
    region's indicator too while every position is >= 1; a closed run
    (``None`` or zeta = 0) also passes ``region``, whose row it reads to
    relative accuracy (module docstring). The run slices V[S, M] and the rows
    on S once, and its blocks hold U on M alone. Each block forms one
    V[S, M] U on the columns before the cut that :func:`energy_blocks`
    yields with it. With a bath the run squares V once, and each block forms
    the level table of its four rows.
    """
    (e, v), x = eig, np.asarray(positions, dtype=float)
    times = time_grid(t_max, dt)
    indicator = np.bincount(region, minlength=x.size).astype(float)
    mean, var, p_region = (np.empty(times.size) for _ in range(3))
    closed = bath is None or bath.zeta == 0.0
    keep, cover = _reach(v, amplitudes, _moment_weight(x), region if closed else ())
    modes = np.flatnonzero(keep)
    rotate, near, marked = v[np.ix_(cover, modes)], x[cover], indicator[cover]
    squared = None if closed else np.square(v)
    mu = x @ np.square(np.abs(v @ amplitudes))  # the start's mean: the first block's centre
    for cols, q, u, cut in energy_blocks(e, bath, amplitudes, t_max, dt, modes):
        y = near - mu
        levels = None if q is None else np.stack([x, (x - mu) ** 2, x - mu, indicator]) @ squared
        rows = np.stack([near, y**2, y, marked])
        out = read_out(rows, site_amplitudes(rotate, u[:, :cut]), q, levels)  # the block's one V U
        mean[cols], var[cols], p_region[cols] = out[0], out[1] - out[2] ** 2, out[3]
        mu = out[0, -1]  # the next block's centre: this block's last mean
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
    for _, _, u, _ in energy_blocks(energies, None, weights, t_max, dt):
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
