"""Independent oracles used by the tests.

The oracles are deliberately written from scratch against the model
definitions (full product-space Hamiltonian, dense closed-chain propagation,
brute-force master-equation integration, dense per-time-point density
matrices on plain ndarrays) so they
share no code path with the package implementations they check; they take
only the model inputs (spectrum, rates) from the package. The branch geometry
and register labels are written out here from the switch diagram
(:func:`branch_sites`, :func:`branch_registers`), a chain's matrix from its
on-site energies and the hopping -1/2 (:func:`dense_hamiltonian`), and the
clean chain's eigenvectors in closed form (:func:`free_eigensystem`). The switch
oracles take the geometry as plain integers, as the package does: the clock's
s sites (the length of a disorder array where one is passed) and the entry a,
with the exit b = a + 5.
The helpers under "kernel states" join the package's own pure-state kernel
blocks over a whole grid and assemble dense matrices from them, for invariant
checks of what the pipelines compute; ``closed_series`` reads out the closed
chain through the package's ``pure_state_series``. The closed-form
diagnostics at the end (Gibbs populations, localization lengths,
participation ratio, spectral width, the clean chain's Bessel image sum) are
formulas that only the tests use.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, expm
from scipy.special import jv

from openchain import series
from openchain.chains import diagonalize
from openchain.feynman import build_branch
from openchain.lindblad import (
    BathSpec,
    _cut,
    energy_blocks,
    pure_state_series,
    read_out,
    site_amplitudes,
    time_grid,
    transition_rates,
)


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by ``openchain.series.write_csv``."""
    lines = Path(path).read_text().strip().splitlines()
    names = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {n: data[:, i] for i, n in enumerate(names)}


def csv_tables() -> tuple[np.ndarray, ...]:
    """The CSV formatter's tables, built with Python integers and byte strings.

    The same arrays, in the same order, dtypes and shapes, as
    ``openchain.series._tables`` reads from ``csv_tables.bin``; the file is
    their bytes, concatenated::

        Path("src/openchain/csv_tables.bin").write_bytes(b"".join(t.tobytes() for t in csv_tables()))
    """
    x_min, x_max, split, word = series._X_MIN, series._X_MAX, series._SPLIT, series._WORD
    # 10**(16 - X) ~ (hi + lo) * 2**s for X = x_max .. x_min, hi and lo of 53 bits each
    t, e = (1 << 1100) // 10 ** (x_max - 16), -1100
    his, los, shifts = [], [], []
    for _ in range(x_max - x_min + 1):
        b = t.bit_length() - 106
        his.append(t >> (b + 53))
        los.append(t >> b & (1 << 53) - 1)
        shifts.append(e + b + 52)
        t *= 10
        if b > 64:
            t, e = t >> 64, e + 64
    hi, lo = np.array([his[::-1], los[::-1]], float) * [[2.0], [2.0**-52]]
    high = hi * split - (hi * split - hi)
    ten = np.stack([hi, high, hi - high, lo])

    x_all = range(x_min, x_max + 1)

    def padded(chunks):  # each chunk NUL-padded to one word
        return np.frombuffer(b"".join(c.ljust(8, b"\0") for c in chunks), word)

    # four digits, each after its point slot; the last nonzero digit of each
    # group gives the significant digits through it (at least one)
    pairs = np.frombuffer(b"".join(b".%d.%d" % divmod(i, 10) for i in range(100)), "<u4")
    groups = (pairs[:, None] | pairs.astype(word) << np.uint64(32)).ravel()
    last = np.array([2 if i % 10 else 1 if i else -99 for i in range(100)], np.int16)
    sig = np.where(last > 0, last + 2, last[:, None]).ravel() + np.int16([[1], [5], [9], [13]])
    sig = np.maximum(sig, 1) * np.int16(21)
    # a sign slot, the "0.000" prefix (for -4 <= X < 0) and the first digit
    small = padded(b"\0" + b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in x_all)
    lead = (small[:, None] | padded(b"\0" * 6 + b"%d" % d for d in range(10))).ravel()
    # "e+XX" or "e+XXX" (a NUL hundreds digit below 100); nothing in fixed notation
    exp = padded((b"e%+04d" % x).replace(b"0", b"\0", abs(x) < 100) * (x < -4 or x > 16)
                 for x in x_all)
    tail = (exp | np.array([[ord(",") << 40], [ord("\n") << 40]], word)).ravel()
    integer = np.full(len(x_all), 4)
    integer[-4 - x_min : 17 - x_min] = np.arange(21)
    # words 1-4 keep the digits through max(n_sig, p) and the point before digit p + 1
    n_sig, p = np.divmod(np.arange(18 * 21)[:, None], 21)
    p -= 3
    byte = np.arange(32)
    digit = byte // 2 + 2  # the digit a byte holds, or precedes
    keep = np.where(byte % 2, digit <= np.maximum(n_sig, p), (digit == p + 1) & (n_sig > p))
    words = np.concatenate([groups, lead, tail])
    masks = np.ascontiguousarray((keep * np.uint8(255)).view(word).T)
    return ten, words, masks, integer, np.array(shifts[::-1], np.int32), sig


def build_free_chain(s: int) -> np.ndarray:
    """Clean chain: its s on-site energies, all zero (the hopping is -1/2 on every bond)."""
    if s < 2:
        raise ValueError(f"chain needs at least 2 sites, got s={s}")
    return np.zeros(s)


def free_eigensystem(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectrum of the free chain: (eigenvalues, eigenvectors), as ``eigh`` returns.

    e_k = -cos(k pi / (s+1)) and v_k(x) = sqrt(2/(s+1)) sin(k pi x / (s+1)),
    k = 1..s, already ascending and with positive first components.
    """
    if s < 2:
        raise ValueError(f"chain needs at least 2 sites, got s={s}")
    k = np.arange(1, s + 1)
    x = np.arange(1, s + 1)
    evals = -np.cos(k * np.pi / (s + 1))
    evecs = np.sqrt(2.0 / (s + 1)) * np.sin(np.outer(x, k) * np.pi / (s + 1))
    return evals, evecs


def dense_hamiltonian(energies: np.ndarray) -> np.ndarray:
    """Full matrix of the chain with these on-site energies and hopping -1/2 on every bond."""
    hopping = np.full(len(energies) - 1, -0.5)
    return np.diag(energies) + np.diag(hopping, 1) + np.diag(hopping, -1)


def branch_sites(s: int, a: int, branch: str) -> np.ndarray:
    """Physical site at each path coordinate: 1..a, the branch's two switch sites, b..s."""
    b = a + 5
    middle = {"U": [a + 1, a + 2], "D": [a + 3, a + 4]}[branch]
    return np.array(list(range(1, a + 1)) + middle + list(range(b, s + 1)))


# register basis order (sigma3(c), sigma3(p))
REGISTER_LABELS = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
P_CONTROL_UP = np.diag([0.0, 0.0, 1.0, 1.0])
P_CONTROL_DOWN = np.diag([1.0, 1.0, 0.0, 0.0])
NOT_PASSIVE = np.array(
    [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]
)
I4 = np.eye(4)


def branch_registers(s: int, a: int, branch: str, input_register) -> np.ndarray:
    """Register index at each path coordinate, in the order of :func:`branch_sites`.

    The lower branch carries the input (c, p) throughout; the upper branch
    carries it over 1..a+1 and (c, -p) from a+2 on, past its NOT bond a+1 -> a+2.
    """
    b = a + 5
    c, p = input_register
    before, after = REGISTER_LABELS.index((c, p)), REGISTER_LABELS.index((c, -p))
    if branch == "U":  # sites 1..a+1 before the NOT bond; a+2 and b..s after it
        return np.array([before] * (a + 1) + [after] * (1 + s - b + 1))
    return np.array([before] * (s - 2))


def _hop(x: int, y: int, op: np.ndarray, s: int) -> np.ndarray:
    m = np.zeros((s, s))
    m[x - 1, y - 1] = 1.0
    return np.kron(m, op)


def full_switch_hamiltonian(a: int, disorder: np.ndarray, g: float) -> np.ndarray:
    """Complete clock-and-register Hamiltonian on the 4s-dimensional product space.

    The clock has s = ``len(disorder)`` sites and the switch spans a..a+5.

    Bond operators: control-up projector into and out of the upper branch with
    the passive-qubit NOT on its middle bond; control-down projector around
    the lower branch with a bare middle bond; identity on the inertial bonds.
    The diagonal carries the disorder plus the tilt (-g x before the branch
    split, -g (x - 2) after it).
    """
    s, b = len(disorder), a + 5
    h = np.zeros((4 * s, 4 * s))
    bonds = [(x, x + 1, I4) for x in range(1, a)]
    bonds += [
        (a, a + 1, P_CONTROL_UP),
        (a + 1, a + 2, NOT_PASSIVE),
        (a + 2, b, P_CONTROL_UP),
        (a, a + 3, P_CONTROL_DOWN),
        (a + 3, a + 4, I4),
        (a + 4, b, P_CONTROL_DOWN),
    ]
    bonds += [(x, x + 1, I4) for x in range(b, s)]
    for x, y, op in bonds:
        h += -0.5 * (_hop(y, x, op, s) + _hop(x, y, op, s))
    x = np.arange(1, s + 1)
    tilt = np.where(x <= a + 2, -g * x, -g * (x - 2)).astype(float)
    h += np.kron(np.diag(disorder + tilt), I4)
    return h


def full_space_state(s: int, register_amplitudes: np.ndarray) -> np.ndarray:
    """Cursor at site 1 of s tensor a register state given in the 4-dim basis."""
    psi = np.zeros(4 * s, dtype=complex)
    psi[:4] = register_amplitudes
    return psi


def subspace_projector(sites: np.ndarray, registers: np.ndarray, s: int) -> np.ndarray:
    """Projector onto a branch's basis (sites, register indices) in the 4s-dim product space."""
    proj = np.zeros((4 * s, 4 * s))
    idx = 4 * (sites - 1) + registers
    proj[idx, idx] = 1.0
    return proj


def evolve_full(h: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """State at time t by scipy's dense ``eigh`` (LAPACK ``syev``) of the full matrix ``h``.

    ``syev`` (tridiagonal QR) keeps the eigenvectors orthogonal to rounding
    inside clusters of nearly equal eigenvalues. The full switch space has
    such clusters, one copy of the clock per register state; ``syevr``
    (scipy's default) lost orthogonality by 8e-6 there on a clean 7-site
    switch.
    """
    w, v = eigh(h, driver="ev")
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))


def evolve_pure(energies: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """Closed-chain state at time t by dense ``eigh`` of the chain's full matrix.

    Shares no code with the package's kernel, and its LAPACK driver (``syev``)
    is not the one behind ``diagonalize`` (numpy's ``syevd``).
    """
    return evolve_full(dense_hamiltonian(energies), psi0, t)


def full_space_observables(psi: np.ndarray, s: int) -> tuple[float, np.ndarray]:
    """(mean cursor position, 4x4 register density matrix) from a full-space state."""
    amp = psi.reshape(s, 4)
    site_prob = np.sum(np.abs(amp) ** 2, axis=1)
    mean_q = float(site_prob @ np.arange(1, s + 1))
    rho_reg = amp.T @ amp.conj()  # sum over cursor sites of |amp_x><amp_x|
    return mean_q, rho_reg


def rate_matrix(eigenvalues: np.ndarray, bath: BathSpec) -> np.ndarray:
    """The dense bare-rate matrix: gamma[m, n] the rate of n -> m, from the package's two bands.

    The oracles below take it as their input, and their widths G as its
    column sums, so that they share no code with ``population_generator``
    and ``level_widths``.
    """
    absorption, emission = transition_rates(eigenvalues, bath)
    k = np.arange(absorption.size)
    gamma = np.zeros((k.size + 1, k.size + 1))
    gamma[k + 1, k] = absorption
    gamma[k, k + 1] = emission
    return gamma


def brute_force_lindblad(
    eigenvalues: np.ndarray,
    gamma: np.ndarray,
    zeta: float,
    rho0: np.ndarray,
    t: float,
) -> np.ndarray:
    """Integrate the full master equation in the energy basis with explicit jumps.

    d rho/dt = -i[H, rho] + zeta sum_{m != n} gamma[m,n] (L rho L+ - 1/2 {L+L, rho})
    with L = |m><n|, H = diag(eigenvalues). Uses a high-order adaptive
    integrator at tight tolerance.
    """
    n = len(eigenvalues)
    ham = np.diag(np.asarray(eigenvalues, dtype=float))
    jumps = [
        (gamma[m, c], m, c) for m in range(n) for c in range(n) if m != c and gamma[m, c] != 0
    ]

    def rhs(_, flat):
        rho = flat.reshape(n, n)
        drho = -1j * (ham @ rho - rho @ ham)
        for rate, m, c in jumps:
            l_rho_ld = np.zeros_like(rho)
            l_rho_ld[m, m] = rho[c, c]
            anti = np.zeros_like(rho)
            anti[c, :] += 0.5 * rho[c, :]
            anti[:, c] += 0.5 * rho[:, c]
            drho += zeta * rate * (l_rho_ld - anti)
        return drho.ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t),
        np.asarray(rho0, dtype=complex).ravel(),
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(n, n)


def integrate_populations(gen: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """Integrate dp/dt = A p with a high-order adaptive Runge-Kutta scheme."""
    sol = solve_ivp(
        lambda _, p: gen @ p,
        (0.0, t),
        np.asarray(p0, dtype=float),
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success, sol.message
    return sol.y[:, -1]


def direct_relax_energy_density(
    eigenvalues: np.ndarray,
    bath: BathSpec | None,
    amplitudes: np.ndarray,
    t_grid: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray]:
    """(P, U) of ``relax_energy_density`` by the direct formula on any increasing times >= 0.

    U = c exp(d t) with one complex exponential per entry, d = -i e - zeta G / 2;
    P advances by one cached ``expm`` step per grid column. The reference for
    the kernel's uniform-grid tables and blocked population products.
    """
    e = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(amplitudes, dtype=complex)
    if bath is None or bath.zeta == 0.0:
        return None, c[:, None] * np.exp(np.outer(-1j * e, t_grid))
    gamma = rate_matrix(e, bath)
    widths = gamma.sum(axis=0)
    gen = bath.zeta * (gamma - np.diag(widths))
    steps: dict[float, np.ndarray] = {}
    pops = np.empty((e.size, t_grid.size))
    p, prev_t = np.abs(c) ** 2, 0.0
    for i, t in enumerate(t_grid):
        if t > prev_t:
            dt = round(float(t - prev_t), 12)
            if dt not in steps:
                steps[dt] = expm(gen * dt)
            p = steps[dt] @ p
        prev_t = t
        pops[:, i] = p
    decay = -1j * e - 0.5 * bath.zeta * widths
    return pops, c[:, None] * np.exp(np.outer(decay, t_grid))


# ---------------------------------------------------------------------------
# dense per-time-point pipelines: one n x n energy-basis density matrix per
# grid time, rotated to the site basis one at a time (the reference for the
# rank-one kernel in openchain.lindblad)
# ---------------------------------------------------------------------------


def relax_energy_density_dense(
    eigenvalues: np.ndarray,
    gamma: np.ndarray,
    zeta: float,
    rho0: np.ndarray,
    t_grid: np.ndarray,
) -> list[np.ndarray]:
    """Energy-basis density matrix at each grid time (times >= 0, nondecreasing).

    Populations (the diagonal) advance by exact exponential steps of the
    master-equation generator, cached per distinct step size; each coherence
    follows its closed form rho_mn(0) exp([-i (e_m - e_n) - zeta (G_m + G_n)/2] t).
    """
    e = np.asarray(eigenvalues, dtype=float)
    assert np.all(np.diff(t_grid, prepend=0.0) >= 0), "times must be >= 0 and nondecreasing"
    widths = gamma.sum(axis=0)
    gen = zeta * (gamma - np.diag(widths))
    decay = -1j * np.subtract.outer(e, e) - 0.5 * zeta * np.add.outer(widths, widths)
    rho0 = np.asarray(rho0, dtype=complex)
    pops = np.real(np.diag(rho0)).copy()
    coh0 = rho0 - np.diag(np.diag(rho0))
    steps: dict[float, np.ndarray] = {}
    out, prev_t = [], 0.0
    for t in t_grid:
        if t > prev_t:
            dt = round(float(t - prev_t), 12)
            if dt not in steps:
                steps[dt] = expm(gen * dt)
            pops = steps[dt] @ pops
        prev_t = t
        out.append(np.diag(pops) + coh0 * np.exp(decay * t))
    return out


#: no bath is the zero-coupling limit: constant populations, pure phase rotation
CLOSED = BathSpec(beta=1.0, zeta=0.0)


def _dense_states(eigenvalues, bath: BathSpec | None, rho0: np.ndarray, t_grid) -> list:
    bath = bath or CLOSED
    gamma = rate_matrix(eigenvalues, bath)
    return relax_energy_density_dense(eigenvalues, gamma, bath.zeta, rho0, t_grid)


def _moments(prob: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    mean = float(prob @ x)
    return mean, max(float(prob @ x**2) - mean**2, 0.0)


def dense_transport_columns(
    energies: np.ndarray, bath: BathSpec, psi0: np.ndarray, t_grid: np.ndarray
) -> dict[str, np.ndarray]:
    """mean_Q, var_Q and last-site probability of a dissipative chain run."""
    e, v = diagonalize(energies)
    psi0 = np.asarray(psi0, dtype=complex)
    rho0 = v.T @ np.outer(psi0, psi0.conj()) @ v
    x = np.arange(1, e.size + 1)
    rows = []
    for state in _dense_states(e, bath, rho0, t_grid):
        prob = np.real(np.diag(v @ state @ v.T))
        rows.append((*_moments(prob, x), prob[-1]))
    return dict(zip(("mean_Q", "var_Q", "p_region"), np.array(rows).T))


def dense_classical_columns(
    a: int,
    disorder: np.ndarray,
    g: float,
    bath: BathSpec | None,
    branch: str,
    t_grid: np.ndarray,
) -> dict[str, np.ndarray]:
    """mean_Q, var_Q (physical sites) and p_beyond_gate of one branch run."""
    *_, (e, v) = build_branch(a, branch, disorder, g)
    rho0 = np.outer(v[0], v[0])
    sites = branch_sites(len(disorder), a, branch)
    x = sites.astype(float)
    beyond = sites >= a + 5
    rows = []
    for state in _dense_states(e, bath, rho0, t_grid):
        prob = np.real(np.diag(v @ state @ v.T))
        rows.append((*_moments(prob, x), prob[beyond].sum()))
    return dict(zip(("mean_Q", "var_Q", "p_beyond_gate"), np.array(rows).T))


def loop_register_state(uu, dd, ud, s, a, idx_up, idx_down, sites=None) -> np.ndarray:
    """Cursor traced out entry by entry from site-basis blocks -> 4x4 register state."""
    up, down = branch_sites(s, a, "U"), branch_sites(s, a, "D")
    rho = np.zeros((4, 4), dtype=complex)
    for j in range(uu.shape[0]):
        if sites is None or up[j] in sites:
            rho[idx_up[j], idx_up[j]] += uu[j, j].real
        if sites is None or down[j] in sites:
            rho[idx_down[j], idx_down[j]] += dd[j, j].real
    for j in range(uu.shape[0]):
        if up[j] == down[j] and (sites is None or up[j] in sites):
            rho[idx_up[j], idx_down[j]] += ud[j, j]
            rho[idx_down[j], idx_up[j]] += np.conj(ud[j, j])
    return rho


def dense_superposed_columns(
    a: int,
    disorder: np.ndarray,
    g: float,
    bath: BathSpec | None,
    t_grid: np.ndarray,
) -> dict[str, np.ndarray]:
    """Every column of a superposed run from dense blocks rotated one time point at a time."""
    s, b = len(disorder), a + 5
    *_, (e_u, vu) = build_branch(a, "U", disorder, g)
    *_, (e_d, vd) = build_branch(a, "D", disorder, g)
    beyond_u = branch_sites(s, a, "U") >= b
    beyond_d = branch_sites(s, a, "D") >= b
    idx_up = branch_registers(s, a, "U", (+1, -1))
    idx_down = branch_registers(s, a, "D", (-1, -1))
    uu_states = _dense_states(e_u, bath, 0.5 * np.outer(vu[0], vu[0]), t_grid)
    dd_states = _dense_states(e_d, bath, 0.5 * np.outer(vd[0], vd[0]), t_grid)
    bath = bath or CLOSED
    widths = [bath.zeta * rate_matrix(e, bath).sum(axis=0) for e in (e_u, e_d)]
    cross_decay = -1j * np.subtract.outer(e_u, e_d) - 0.5 * (
        widths[0][:, None] + widths[1][None, :]
    )
    ud0 = 0.5 * np.outer(vu[0], vd[0]).astype(complex)
    region = set(range(b, s + 1))
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rows = []
    for t, uu_e, dd_e in zip(t_grid, uu_states, dd_states):
        uu = vu @ uu_e @ vu.T
        dd = vd @ dd_e @ vd.T
        ud = vu @ (ud0 * np.exp(cross_decay * t)) @ vd.T
        p_beyond = (
            np.real(np.diag(uu))[beyond_u].sum() + np.real(np.diag(dd))[beyond_d].sum()
        )
        lam = np.linalg.eigvalsh(loop_register_state(uu, dd, ud, s, a, idx_up, idx_down))
        lam = lam[lam > 1e-15]
        cond = loop_register_state(uu, dd, ud, s, a, idx_up, idx_down, region)
        weight = np.trace(cond).real
        fidelity = np.real(phi @ cond @ phi) / weight if weight > 1e-12 else np.nan
        traces = (np.trace(uu_e).real, np.trace(dd_e).real)
        rows.append((*traces, p_beyond, -np.sum(lam * np.log(lam)), fidelity))
    names = ("trace_UU", "trace_DD", "p_beyond_gate", "entropy", "bell_fidelity")
    return dict(zip(names, np.array(rows).T))


# ---------------------------------------------------------------------------
# closed chain in 4096-column chunks with a complex product (the reference for
# the cache-blocked read-out of the closed chain)
# ---------------------------------------------------------------------------


def chunked_unitary_columns(
    eig, psi0: np.ndarray, t_grid: np.ndarray, region_idx: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """mean_Q, var_Q, the region probability and the (T, n) site distribution."""
    e, v = eig
    coeff = v.T @ psi0
    x = np.arange(1, e.size + 1)
    cols = {
        "mean_Q": np.empty(t_grid.size),
        "var_Q": np.empty(t_grid.size),
        "sites": np.empty((t_grid.size, e.size)),
    }
    if region_idx is not None:
        cols["p_region"] = np.empty(t_grid.size)
    for start in range(0, t_grid.size, 4096):
        sl = slice(start, min(start + 4096, t_grid.size))
        phases = np.exp(-1j * np.outer(e, t_grid[sl])) * coeff[:, None]
        prob = np.abs(v @ phases) ** 2  # (dim, chunk)
        cols["mean_Q"][sl] = x @ prob
        cols["var_Q"][sl] = np.maximum((x**2) @ prob - cols["mean_Q"][sl] ** 2, 0.0)
        if region_idx is not None:
            cols["p_region"][sl] = prob[region_idx, :].sum(axis=0)
        cols["sites"][sl] = prob.T
    return cols


# ---------------------------------------------------------------------------
# kernel states: the whole-grid P and U of openchain.lindblad's pure-state
# kernel, and dense matrices assembled from them, for invariant checks of what
# the pipelines compute; the closed chain's series from a position-basis start
# ---------------------------------------------------------------------------


def _region_rows(region, dim: int) -> np.ndarray:
    """0-based rows of a set of 1-based sites, each of which must lie in 1..dim."""
    sites = sorted(set(region))
    if sites and (sites[0] < 1 or sites[-1] > dim):
        raise ValueError(f"region {sites} not contained in 1..{dim}")
    return np.asarray(sites, dtype=int) - 1


def closed_series(eig, psi0: np.ndarray, t_max: float, dt: float, region=()):
    """The package's closed-chain columns from the position-basis state psi0 (no region: 0)."""
    e, v = eig
    c, rows = v.T @ np.asarray(psi0), _region_rows(region, e.size)
    return pure_state_series(eig, None, c, t_max, dt, np.arange(1, e.size + 1), rows)


def relax_energy_density(
    eigenvalues, bath, amplitudes, t_max: float, dt: float, modes=slice(None)
):
    """(P or None, U), n x T and modes x T: the package's :func:`energy_blocks` of a grid."""
    blocks = list(energy_blocks(eigenvalues, bath, amplitudes, t_max, dt, modes))
    pops = None if blocks[0][1] is None else np.concatenate([p for _, p, _ in blocks], axis=1)
    return pops, np.concatenate([u for *_, u in blocks], axis=1)


def block_read_out(v, rows, populations, amplitudes, levels=None, modes=slice(None)):
    """``read_out`` of one block on the eigenvectors v, its V U formed up to the cut as runs do."""
    vu = site_amplitudes(v, amplitudes[:, : _cut(populations, amplitudes)])
    return read_out(rows, vu, populations, amplitudes, levels, modes)


def closed_block_series(eig, amplitudes, t_max: float, dt: float, positions, region, dtype=float):
    """mean_Q, var_Q and p_region of a closed run read out uncut, in ``dtype``.

    The package's float64 V and U blocks (:func:`energy_blocks`) are cast to
    ``dtype`` (exactly, for ``np.longdouble``), and V U, its squares and the
    rows are formed in it over every mode and site, in the order of the
    package's read-out: V times the interleaved (re, im) view of U, re^2 +
    im^2, then the rows x, y^2, y and the indicator of the 0-based rows
    ``region`` at once, with y = x - the mean of each block's first column,
    read from that column alone. With ``float`` this is the closed read-out
    as the package formed it before it cut the moment rows; with
    ``np.longdouble`` it is the reference both are held to. The variance is
    clipped at 0, as the package does.
    """
    e, v = eig
    v, x = np.asarray(v, dtype), np.asarray(positions, dtype)
    indicator = np.zeros(x.size, dtype)
    indicator[region] = 1
    mean, var, p_region = (np.empty(time_grid(t_max, dt).size, dtype) for _ in range(3))

    def squares(u):  # |V u|^2
        w = v @ np.ascontiguousarray(u).view(float).astype(dtype)
        return w[:, ::2] ** 2 + w[:, 1::2] ** 2

    for cols, _, u in energy_blocks(e, None, amplitudes, t_max, dt):
        y = x - (x[None] @ squares(u[:, :1]))[0, 0]
        out = np.stack([x, y**2, y, indicator]) @ squares(u)
        mean[cols], var[cols], p_region[cols] = out[0], out[1] - out[2] ** 2, out[3]
    return {"mean_Q": mean, "var_Q": np.maximum(var, 0), "p_region": p_region}


def kernel_at(eigenvalues, bath, amplitudes, t: float):
    """(P or None, U), both n x 1, at one time t >= 0: the last column of the grid 0, t.

    At t = 0 it is the first column of the grid 0, 1.
    """
    pops, amps = relax_energy_density(eigenvalues, bath, amplitudes, t or 1.0, t or 1.0)
    col = slice(-1, None) if t else slice(0, 1)
    return None if pops is None else pops[:, col], amps[:, col]


def kernel_states(populations: np.ndarray | None, amplitudes: np.ndarray) -> np.ndarray:
    """(T, n, n) energy-basis states of a kernel run: diag(P) plus u u^H off the diagonal."""
    u = amplitudes.T
    rho = u[:, :, None] * u.conj()[:, None, :]
    idx = np.arange(u.shape[1])
    rho[:, idx, idx] = np.abs(u) ** 2 if populations is None else populations.T
    return rho


def switch_block_states(
    a: int,
    disorder: np.ndarray,
    g: float,
    bath: BathSpec | None,
    t_max: float,
    dt: float,
) -> np.ndarray:
    """(T, 2n, 2n) site-basis state of a superposed run, from its two branch kernel runs.

    Each diagonal block is half its branch's kernel state rotated by the
    branch eigenvectors V; the cross block is 1/2 (V_U u_U)(V_D u_D)^H.
    """
    blocks = []
    for branch in "UD":
        *_, (e, v) = build_branch(a, branch, disorder, g)
        pops, amps = relax_energy_density(e, bath, v[0], t_max, dt)
        blocks.append((v @ kernel_states(pops, amps) @ v.T, (v @ amps).T))
    (uu, w_u), (dd, w_d) = blocks
    ud = w_u[:, :, None] * w_d.conj()[:, None, :]
    top = np.concatenate([uu, ud], axis=2)
    bottom = np.concatenate([np.conj(np.swapaxes(ud, 1, 2)), dd], axis=2)
    return 0.5 * np.concatenate([top, bottom], axis=1)


# ---------------------------------------------------------------------------
# closed-form diagnostics the tests compare runs against: Gibbs populations,
# localization lengths, participation ratio, spectral width, clean-chain arrival
# ---------------------------------------------------------------------------


def thermal_fixed_point(eigenvalues: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs populations proportional to exp(-beta e_m)."""
    e = np.asarray(eigenvalues, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def bandwidth(eigenvalues: np.ndarray) -> float:
    """Spectral width e_max - e_min of ascending eigenvalues."""
    return float(eigenvalues[-1] - eigenvalues[0])


def localization_length_gaussian(sigma: float) -> float:
    """Disorder-induced localization length (2 pi^2 / sigma)^(2/3)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return (2.0 * np.pi**2 / sigma) ** (2.0 / 3.0)


def localization_length_bloch(width: float, g: float) -> float:
    """Tilt-induced localization length width/g.

    ``width`` is the spectral width of the chain *without* the tilt
    (:func:`bandwidth` of the untilted spectrum).
    """
    if g <= 0:
        raise ValueError(f"tilt strength must be > 0, got {g}")
    if width < 0:
        raise ValueError(f"bandwidth must be >= 0, got {width}")
    return width / g


def participation_ratio(state: np.ndarray) -> float:
    """Inverse participation ratio 1 / sum |psi_x|^4 of a normalized state.

    Equals 1 for a single-site state and dim for the uniform superposition.
    """
    psi = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized, got ||psi|| = {norm}")
    return float(1.0 / np.sum(np.abs(psi) ** 4))


def clean_chain_last_site(s: int, t_grid) -> np.ndarray:
    """Last-site probability of the clean s-site chain released at site 1, by Bessel images.

    With hopping -1/2 the infinite chain's propagator is G(d, t) = i^d J_d(t);
    the walls at sites 0 and s + 1 are images, so the amplitude is
    sum_m [G(s - 1 - 2m(s+1), t) - G(s + 1 - 2m(s+1), t)], m = -3..3, which
    holds while t is well below 7 (s + 1). No spectral sum is involved.
    """
    t = np.asarray(t_grid, dtype=float)
    psi = np.zeros(t.size, dtype=complex)
    for m in range(-3, 4):
        for d, sign in ((s - 1 - 2 * m * (s + 1), 1.0), (s + 1 - 2 * m * (s + 1), -1.0)):
            psi += sign * (1, 1j, -1, -1j)[d % 4] * jv(d, t)
    return np.abs(psi) ** 2
