"""Clocked computation on a chain: the CNOT switch circuit.

A cursor excitation walks along a clock track and applies one primitive per
bond to a two-qubit register (control sigma(c), passive sigma(p)). The CNOT
switch occupies sites a..b with b = a + 5:

    upper branch (control up):    a -- a+1 --NOT-- a+2 -- b
    lower branch (control down):  a -- a+3 ------- a+4 -- b

with plain (inertial) sites 1..a before and b..s after the switch. Because
the register state is a function of the cursor position within a branch, each
branch reduces exactly to an (s-2)-site chain in "path coordinates": hopping
-1/2, on-site energy eps_{x(j)} - g*j, where eps is the disorder realization
(the array of the s on-site energies, :func:`openchain.chains.sample_disorder`),
x(j) is the physical site visited at path coordinate j and the tilt is linear
in j (the physical-site tilt is -g*x before the branch split and -g*(x-2) after
it, which is the same thing).

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

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .chains import diagonalize
from .lindblad import BathSpec, energy_blocks, pure_state_series, read_out, site_amplitudes

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


@dataclass(frozen=True)
class CircuitLayout:
    """Switch geometry: s clock sites, switch entry a, exit b = a + 5."""

    s: int
    a: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError(f"switch entry must be >= 1, got a={self.a}")
        if self.s < self.a + 6:
            raise ValueError(
                f"need s >= a + 6 so that an inertial site follows the switch; "
                f"got s={self.s}, a={self.a}"
            )

    @property
    def b(self) -> int:
        return self.a + 5

    @property
    def path_length(self) -> int:
        """Number of sites visited by either branch."""
        return self.s - 2


def build_cnot_layout(s: int, a: int) -> CircuitLayout:
    return CircuitLayout(s, a)


def _path_sites(layout: CircuitLayout, branch: Branch) -> np.ndarray:
    """Physical site x(j) at path coordinate j = 1..s-2: j up to a+2 (U) or a (D), then j+2."""
    if branch not in ("U", "D"):
        raise ValueError(f"branch must be U or D, got {branch!r}")
    j = np.arange(1, layout.path_length + 1)
    return np.where(j <= (layout.a + 2 if branch == "U" else layout.a), j, j + 2)


def peres_basis(
    layout: CircuitLayout, branch: Branch, input_register: RegisterLabel
) -> tuple[np.ndarray, np.ndarray]:
    """Computational basis of a branch for a classical input register: (sites, registers).

    Both are integer arrays over the path coordinates 1..s-2: the physical
    site and the register index (:func:`register_index`) at each. The control
    qubit must match the branch (+1 up, -1 down). On the upper branch the
    passive qubit flips across the NOT bond (path coordinates a+1 to a+2); the
    lower branch applies no primitive at all.
    """
    c, p = input_register
    index = register_index(input_register)  # validates the label
    sites = _path_sites(layout, branch)  # validates the branch
    if (branch == "U") != (c == +1):
        raise ValueError(
            f"branch {branch} requires control {'+1' if branch == 'U' else '-1'}, "
            f"got sigma3(c) = {c}"
        )
    j = np.arange(1, layout.path_length + 1)
    flipped = (branch == "U") & (j > layout.a + 1)
    return sites, np.where(flipped, register_index((c, -p)), index)


def reduced_chain_hamiltonian(
    layout: CircuitLayout,
    branch: Branch,
    disorder: np.ndarray,
    g: float,
) -> np.ndarray:
    """On-site energies of a branch in path coordinates, eps_x(j) - g*j (hopping -1/2)."""
    if len(disorder) != layout.s:
        raise ValueError(
            f"disorder has {len(disorder)} entries, layout has {layout.s} sites"
        )
    sites = _path_sites(layout, branch)
    j = np.arange(1, layout.path_length + 1, dtype=float)
    return disorder[sites - 1] - g * j


# ---------------------------------------------------------------------------
# evolution with classical and superposed control
# ---------------------------------------------------------------------------


def build_branch(
    layout: CircuitLayout, branch: Branch, disorder: np.ndarray, g: float
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A branch's sites (its geometry), register indices and spectrum: (sites, registers, eig).

    ``sites`` and ``registers`` are :func:`peres_basis` for the branch's own
    control value (+1 up, -1 down) and passive qubit -1; ``eig`` is the pair
    (eigenvalues, eigenvectors) of :func:`openchain.chains.diagonalize`.
    """
    sites, registers = peres_basis(layout, branch, (+1 if branch == "U" else -1, -1))
    return sites, registers, diagonalize(reduced_chain_hamiltonian(layout, branch, disorder, g))


def run_classical_input(
    layout: CircuitLayout,
    disorder: np.ndarray,
    g: float,
    bath: BathSpec | None,
    branch: Branch,
    t_grid: np.ndarray,
) -> dict[str, np.ndarray]:
    """Cursor dynamics of one branch, started at path coordinate 1.

    Unitary when ``bath`` is None, Lindblad otherwise. Returns the columns t,
    mean_Q, var_Q and p_beyond_gate, the probability of the sites at and
    beyond the switch exit b. Position observables are reported in
    physical-site coordinates.
    """
    sites, _, (e, v) = build_branch(layout, branch, disorder, g)
    beyond = np.flatnonzero(sites >= layout.b)
    columns = pure_state_series((e, v), bath, v[0], t_grid, sites, beyond)
    columns["p_beyond_gate"] = columns.pop("p_region")
    return columns


def register_states(diag_up: np.ndarray, diag_down: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Cursor traced out (physical-site basis) at every time -> (T, 4, 4) register states.

    ``diag_up``/``diag_down`` (4 x T) are the diagonal blocks' site populations
    summed by register index, ``cross`` (16 x T) the cross block's diagonal
    summed by index pair 4 i_U + i_D where both branches sit on the same
    physical site. Sums over some coordinates give the unnormalized state
    restricted to them.
    """
    rho = np.zeros((diag_up.shape[1], 4, 4), dtype=complex)
    rho[:, np.arange(4), np.arange(4)] = (diag_up + diag_down).T
    off = cross.T.reshape(-1, 4, 4)
    return rho + off + np.conj(np.swapaxes(off, 1, 2))


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """-sum lambda ln lambda over the eigenvalues (natural log, 0 ln 0 = 0).

    A stack of matrices (..., d, d) gives one entropy per matrix. A pure state
    can carry an eigenvalue a rounding error above 1, whose term is slightly
    negative; the result is clipped at 0.
    """
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    lam = np.where(lam > 1e-15, lam, 1.0)  # 1 ln 1 = 0 drops the cut eigenvalues
    return np.maximum(-np.sum(lam * np.log(lam), axis=-1), 0.0)


def bell_fidelity(rho: np.ndarray) -> float | np.ndarray:
    """Overlap of a 4x4 register state (or a stack of them) with the target Phi+."""
    phi = BELL_PHI_PLUS
    return np.real(np.einsum("i,...ij,j->...", phi, np.asarray(rho, dtype=complex), phi))


def run_superposed_input(
    layout: CircuitLayout,
    disorder: np.ndarray,
    g: float,
    bath: BathSpec | None,
    t_grid: np.ndarray,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Evolve the machine from the equal superposition of control up and down: (columns, register).

    The initial state is (|1, +1,-1> + |1, -1,-1>)/sqrt(2): cursor at path
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
    """
    sites_u, idx_up, (e_u, vu) = build_branch(layout, "U", disorder, g)
    sites_d, idx_down, (e_d, vd) = build_branch(layout, "D", disorder, g)
    t_grid = np.asarray(t_grid, dtype=float)
    beyond = sites_u >= layout.b
    pairs = np.eye(16)[4 * idx_up + idx_down].T * (sites_u == sites_d)
    rows_u, rows_d, pairs = (
        np.concatenate([r, r * beyond]) for r in (np.eye(4)[idx_up].T, np.eye(4)[idx_down].T, pairs)
    )
    trace_uu, trace_dd, p_beyond, entropy = (np.empty(t_grid.size) for _ in range(4))
    fidelity = np.full(t_grid.size, np.nan)
    register = np.empty((t_grid.size, 4, 4), dtype=complex)
    blocks = zip(energy_blocks(e_u, bath, vu[0], t_grid), energy_blocks(e_d, bath, vd[0], t_grid))
    for (cols, pop_u, amp_u), (_, pop_d, amp_d) in blocks:
        w_u, w_d = site_amplitudes(vu, amp_u), site_amplitudes(vd, amp_d)
        diag_u = 0.5 * read_out(vu, rows_u, pop_u, amp_u, w_u)  # (8, columns)
        diag_d = 0.5 * read_out(vd, rows_d, pop_d, amp_d, w_d)
        w_u *= np.conj(w_d)  # in place: the cross diagonal on every coordinate
        cross = 0.5 * site_amplitudes(pairs, w_u)  # (32, columns)
        del w_u, w_d
        trace_uu[cols], trace_dd[cols] = diag_u[:4].sum(axis=0), diag_d[:4].sum(axis=0)
        weight = diag_u[4:].sum(axis=0) + diag_d[4:].sum(axis=0)
        p_beyond[cols] = weight
        register[cols] = register_states(diag_u[:4], diag_d[:4], cross[:16])
        entropy[cols] = von_neumann_entropy(register[cols])
        cond = register_states(diag_u[4:], diag_d[4:], cross[16:])
        passed = weight > 1e-12
        fidelity[cols][passed] = bell_fidelity(cond[passed] / weight[passed, None, None])
    columns = {"t": t_grid, "trace_UU": trace_uu, "trace_DD": trace_dd, "p_beyond_gate": p_beyond,
               "entropy": entropy, "bell_fidelity": fidelity}
    return columns, register
