"""Clocked computation on a chain: the CNOT switch circuit.

A cursor excitation walks along a clock track and applies one primitive per
bond to a two-qubit register (control sigma(c), passive sigma(p)). The CNOT
switch occupies sites a..b with b = a + 5:

    upper branch (control up):    a -- a+1 --NOT-- a+2 -- b
    lower branch (control down):  a -- a+3 ------- a+4 -- b

with plain (inertial) sites 1..a before and b..s after the switch. A switch
is its entry site a: the clock's length s is that of the disorder realization
(the array of the s on-site energies, :func:`openchain.chains.sample_disorder`)
and the exit is a + 5, so every entry point takes (a, disorder). Because the
register state is a function of the cursor position within a branch, each
branch reduces exactly to an (s-2)-site chain in "path coordinates": the
tilted chain of :func:`openchain.chains.build_chain_hamiltonian` on the
disorder along the path, eps_{x(j)} - g*j, where x(j) is the physical site
visited at path coordinate j and the tilt is linear in j (the physical-site
tilt is -g*x before the branch split and -g*(x-2) after it, which is the same
thing).

The branch's computational basis pairs each path coordinate with a physical
site and a register state; :func:`peres_basis` returns the two as integer
arrays, the sites and the register indices (:func:`register_index`). The
register states are classical product states, so any site-diagonal potential
commutes with the projector onto the branch subspace and the computation
survives disorder unharmed.

For a superposed control the state is a 2x2 block matrix over the two branch
subspaces. Each diagonal block relaxes like a single chain; the cross block
only dephases (the bath jumps act within a branch and never transfer
population between branches):

    rho^{UD}_mn(t) = rho^{UD}_mn(0)
                     * exp{[-i (e^U_m - e^D_n) - zeta (G^U_m + G^D_n)/2] t}.

Tracing out the cursor in the physical-site basis gives the register state:
diagonal blocks contribute their site populations; the cross block contributes
only where the two branches traverse the same physical site (1..a and b..s).

Both runs return their CSV columns, a dict of named arrays
(:func:`run_classical_input`, :func:`run_superposed_input`); the superposed run
also returns the (T, 4, 4) register states.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .chains import build_chain_hamiltonian, diagonalize
from .lindblad import (
    BathSpec,
    _coherent_columns,
    _kept,
    _reach,
    energy_blocks,
    pure_state_series,
    read_out,
    site_amplitudes,
    time_grid,
)

Branch = Literal["U", "D"]
RegisterLabel = tuple[int, int]

#: maximally entangled target state (|-1,-1> + |+1,+1>)/sqrt(2)
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def register_index(label: RegisterLabel) -> int:
    """Index of (sigma3(c), sigma3(p)) in the basis (-1,-1), (-1,+1), (+1,-1), (+1,+1)."""
    c, p = label
    if c not in (-1, 1) or p not in (-1, 1):
        raise ValueError(f"register label must be a (+-1, +-1) pair, got {label}")
    return 2 * (c > 0) + (p > 0)


def _path_sites(s: int, a: int, branch: Branch) -> np.ndarray:
    """Physical site x(j) at path coordinate j = 1..s-2: j up to a+2 (U) or a (D), then j+2.

    Every switch path comes through here, so here the entry a is checked:
    1 <= a <= s - 6, which leaves an inertial site after the exit b = a + 5.
    """
    if branch not in ("U", "D"):
        raise ValueError(f"branch must be U or D, got {branch!r}")
    if not 1 <= a <= s - 6:
        raise ValueError(
            f"need 1 <= a <= s - 6 so that an inertial site follows the switch; got s={s}, a={a}"
        )
    j = np.arange(1, s - 1)
    return np.where(j <= (a + 2 if branch == "U" else a), j, j + 2)


def peres_basis(
    s: int, a: int, branch: Branch, input_register: RegisterLabel
) -> tuple[np.ndarray, np.ndarray]:
    """Computational basis of a branch for a classical input register: (sites, registers).

    The switch sits at a..a+5 on a clock of s sites. Both arrays run over the
    path coordinates 1..s-2: the physical site and the register index
    (:func:`register_index`) at each. The control qubit must match the branch
    (+1 up, -1 down). On the upper branch the passive qubit flips across the
    NOT bond (path coordinates a+1 to a+2); the lower branch applies no
    primitive at all.
    """
    c, p = input_register
    index = register_index(input_register)  # validates the label
    sites = _path_sites(s, a, branch)  # validates the branch and the entry
    if (branch == "U") != (c == +1):
        raise ValueError(
            f"branch {branch} requires control {'+1' if branch == 'U' else '-1'}, "
            f"got sigma3(c) = {c}"
        )
    flipped = (branch == "U") & (np.arange(1, s - 1) > a + 1)
    return sites, np.where(flipped, register_index((c, -p)), index)


# ---------------------------------------------------------------------------
# evolution with classical and superposed control
# ---------------------------------------------------------------------------


def build_branch(
    a: int, branch: Branch, disorder: np.ndarray, g: float
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A branch's sites (its geometry), register indices and spectrum: (sites, registers, eig).

    The clock has s = ``len(disorder)`` sites and the switch enters at ``a``.
    ``sites`` and ``registers`` are :func:`peres_basis` for the branch's own
    control value (+1 up, -1 down) and passive qubit -1; ``eig`` is the pair
    (eigenvalues, eigenvectors) of :func:`openchain.chains.diagonalize` of the
    branch's chain, :func:`openchain.chains.build_chain_hamiltonian` of the
    disorder along its path, eps_x(j) - g*j.
    """
    sites, registers = peres_basis(len(disorder), a, branch, (+1 if branch == "U" else -1, -1))
    return sites, registers, diagonalize(build_chain_hamiltonian(disorder[sites - 1], g))


def run_classical_input(
    a: int,
    disorder: np.ndarray,
    g: float,
    bath: BathSpec | None,
    branch: Branch,
    t_max: float,
    dt: float,
) -> dict[str, np.ndarray]:
    """Cursor dynamics of one branch, started at path coordinate 1.

    The switch enters at ``a`` on a clock of ``len(disorder)`` sites. Unitary
    when ``bath`` is None, Lindblad otherwise. Returns the columns t, mean_Q,
    var_Q and p_beyond_gate, the probability of the sites at and beyond the
    switch exit b = a + 5. Position observables are reported in
    physical-site coordinates.
    """
    sites, _, (e, v) = build_branch(a, branch, disorder, g)
    beyond = np.flatnonzero(sites >= a + 5)
    columns = pure_state_series((e, v), bath, v[0], t_max, dt, sites, beyond)
    columns["p_beyond_gate"] = columns.pop("p_region")
    return columns


def register_states(diag_up: np.ndarray, diag_down: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Cursor traced out (physical-site basis) at every time -> (T, 4, 4) register states.

    ``diag_up``/``diag_down`` (4 x T) are the diagonal blocks' site populations
    summed by register index, ``cross`` (16 x k, k <= T) the cross block's
    diagonal summed by index pair 4 i_U + i_D where both branches sit on the
    same physical site, at the first k times; it is zero at the later ones.
    Sums over some coordinates give the unnormalized state restricted to them.
    """
    rho = np.zeros((diag_up.shape[1], 4, 4), dtype=complex)
    rho[:, np.arange(4), np.arange(4)] = (diag_up + diag_down).T
    off = cross.T.reshape(-1, 4, 4)
    rho[: off.shape[0]] += off + np.conj(np.swapaxes(off, 1, 2))
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """-sum lambda ln lambda over the eigenvalues (natural log, 0 ln 0 = 0).

    A stack of matrices (..., d, d) gives one entropy per matrix. A pure state
    can carry an eigenvalue a rounding error above 1, whose term is slightly
    negative; the result is clipped at 0.
    """
    return _spectral_entropy(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def _spectral_entropy(lam: np.ndarray) -> float | np.ndarray:
    """-sum lambda ln lambda over the last axis of ascending eigenvalues (those <= 1e-15 cut).

    The result is clipped at 0; :func:`von_neumann_entropy` explains why.
    """
    lam = np.where(lam > 1e-15, lam, 1.0)  # 1 ln 1 = 0 drops the cut eigenvalues
    return np.maximum(-np.sum(lam * np.log(lam), axis=-1), 0.0)


def bell_fidelity(rho: np.ndarray) -> float | np.ndarray:
    """Overlap of a 4x4 register state (or a stack of them) with the target Phi+."""
    phi = BELL_PHI_PLUS
    return np.real(np.einsum("i,...ij,j->...", phi, np.asarray(rho, dtype=complex), phi))


def run_superposed_input(
    a: int,
    disorder: np.ndarray,
    g: float,
    bath: BathSpec | None,
    t_max: float,
    dt: float,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Evolve the machine from the equal superposition of control up and down: (columns, register).

    The switch enters at ``a`` on a clock of ``len(disorder)`` sites. The
    initial state is (|1, +1,-1> + |1, -1,-1>)/sqrt(2): cursor at path
    start with all four blocks populated. ``bath = None`` (or zeta = 0) gives
    the unitary limit. ``columns`` are t, trace_UU, trace_DD, p_beyond_gate,
    entropy and bell_fidelity, in the CSV's order; ``register`` is the (T, 4, 4)
    stack of unconditioned register states, and ``entropy`` is their entropy.
    ``bell_fidelity`` is conditioned on the cursor having passed the switch
    (physical site >= b) and is NaN where that probability vanishes.

    This factorization needs the pure initial state. With P_B, U_B the
    :func:`energy_blocks` of branch B from path coordinate 1, each diagonal
    block is half its branch run and the cross block is rank one,
    rho^{UD}(t) = 1/2 U_U U_D^H, with site diagonal 1/2 (V_U U_U)_j
    conj((V_D U_D)_j); each branch's V U feeds both its read-out and the cross
    diagonal. Both branches have s - 2 levels, so their blocks span the same
    columns. The read-out rows, built once per run, are each branch's one-hot
    register-index rows and the 16 index-pair rows of the cross diagonal on
    the shared coordinates, each over its copy past the gate (``sites`` >= b
    on both branches): they give the state (:func:`register_states`) and the
    state past the gate, normalized by ``p_beyond_gate``. Only the O(T) series
    and ``register`` are held across blocks.

    With a bath, a block's columns from the later of the two branches' cuts
    on (:func:`openchain.lindblad._coherent_columns`: ||u||^2 < 2^-70 on both)
    form neither V U nor the cross diagonal. Their cross block is taken as
    zero, since |cross| <= ||u_U|| ||u_D|| < 2^-70 there, so their register
    states are diagonal and their entropy is taken from the sorted diagonal,
    without an eigensolve. A bath run also keeps only the reach of each
    branch (:func:`openchain.lindblad._reach`): U on the branch's modes, and
    V U and the cross diagonal on the sites S = S_U | S_D that either branch
    reaches. A site outside both has |(V U)_j| <= b_j on each branch, so the
    cross diagonal drops at most (sum b^U_j^2 + sum b^D_j^2) / 2 < 2^-72 there.
    """
    sites_u, idx_up, (e_u, vu) = build_branch(a, "U", disorder, g)
    sites_d, idx_down, (e_d, vd) = build_branch(a, "D", disorder, g)
    times = time_grid(t_max, dt)
    beyond = sites_u >= a + 5
    pairs = np.eye(16)[4 * idx_up + idx_down].T * (sites_u == sites_d)
    rows_u, rows_d, pairs = (
        np.concatenate([r, r * beyond]) for r in (np.eye(4)[idx_up].T, np.eye(4)[idx_down].T, pairs)
    )
    trace_uu, trace_dd, p_beyond, entropy = (np.empty(times.size) for _ in range(4))
    fidelity = np.full(times.size, np.nan)
    register = np.empty((times.size, 4, 4), dtype=complex)
    squared_u, squared_d = np.square(vu), np.square(vd)  # V*V, once per spectrum
    (keep_u, cover_u), (keep_d, cover_d) = _reach(vu, vu[0], bath), _reach(vd, vd[0], bath)
    modes_u, modes_d, sites = _kept(keep_u), _kept(keep_d), _kept(cover_u | cover_d)
    reach_u, reach_d = (modes_u, sites), (modes_d, sites)
    rotate_u, rotate_d, pairs = vu[sites][:, modes_u], vd[sites][:, modes_d], pairs[:, sites]
    blocks = zip(
        energy_blocks(e_u, bath, vu[0], t_max, dt, modes_u),
        energy_blocks(e_d, bath, vd[0], t_max, dt, modes_d),
    )
    for (cols, pop_u, amp_u), (_, pop_d, amp_d) in blocks:
        keep = max(_coherent_columns(amp_u), _coherent_columns(amp_d))
        w_u = site_amplitudes(rotate_u, amp_u[:, :keep])  # V U on the sites S
        w_d = site_amplitudes(rotate_d, amp_d[:, :keep])
        diag_u = 0.5 * read_out(vu, rows_u, pop_u, amp_u, squared_u, reach_u, w_u)  # (8, columns)
        diag_d = 0.5 * read_out(vd, rows_d, pop_d, amp_d, squared_d, reach_d, w_d)
        w_u *= np.conj(w_d)  # in place: the cross diagonal on the sites
        cross = 0.5 * site_amplitudes(pairs, w_u)  # (32, keep): zero after keep
        del w_u, w_d
        trace_uu[cols], trace_dd[cols] = diag_u[:4].sum(axis=0), diag_d[:4].sum(axis=0)
        weight = diag_u[4:].sum(axis=0) + diag_d[4:].sum(axis=0)
        p_beyond[cols] = weight
        register[cols] = register_states(diag_u[:4], diag_d[:4], cross[:16])
        states = register[cols]
        entropy[cols][:keep] = von_neumann_entropy(states[:keep])
        diagonal = np.sort(np.diagonal(states[keep:], axis1=1, axis2=2).real, axis=-1)
        entropy[cols][keep:] = _spectral_entropy(diagonal)
        cond = register_states(diag_u[4:], diag_d[4:], cross[16:])
        passed = weight > 1e-12
        fidelity[cols][passed] = bell_fidelity(cond[passed] / weight[passed, None, None])
    columns = {"t": times, "trace_UU": trace_uu, "trace_DD": trace_dd, "p_beyond_gate": p_beyond,
               "entropy": entropy, "bell_fidelity": fidelity}
    return columns, register
