"""Clocked computation on a chain: the CNOT switch circuit.

A cursor excitation walks along a clock track and applies one primitive per
bond to a two-qubit register (control sigma(c), passive sigma(p)). The CNOT
switch occupies sites a..b with b = a + 5:

    upper branch (control up):    a -- a+1 --NOT-- a+2 -- b
    lower branch (control down):  a -- a+3 ------- a+4 -- b

with plain (inertial) sites 1..a before and b..s after the switch. Because
the register state is a function of the cursor position within a branch, each
branch reduces exactly to an (s-2)-site chain in "path coordinates": hopping
-1/2, on-site energy eps_{x(j)} - g*j, where x(j) is the physical site visited
at path coordinate j and the tilt is linear in j (the physical-site tilt is
-g*x before the branch split and -g*(x-2) after it, which is the same thing).

The pairing (path coordinate, physical site, register label) is the branch's
computational basis; labels are classical product states, so any site-diagonal
potential commutes with the projector onto the branch subspace and the
computation survives disorder unharmed.

For a superposed control the state is a 2x2 block matrix over the two branch
subspaces. Each diagonal block relaxes like a single chain; the cross block
only dephases (the bath jumps act within a branch and never transfer
population between branches):

    rho^{UD}_mn(t) = rho^{UD}_mn(0)
                     * exp([-i (e^U_m - e^D_n) - zeta (G^U_m + G^D_n)/2] t).

Tracing out the cursor in the physical-site basis gives the register state:
diagonal blocks contribute their site populations; the cross block contributes
only where the two branches traverse the same physical site (1..a and b..s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .chains import DisorderRealization, EigenSystem, HamiltonianOperator, diagonalize
from .lindblad import BathSpec, relax_energy_density, site_amplitudes, site_distribution
from .series import ObservableSeries

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


@dataclass(frozen=True)
class PathCoordinateMap:
    """Physical site x(j) visited at each path coordinate j = 1..s-2, per branch."""

    up: np.ndarray
    down: np.ndarray

    def sites(self, branch: Branch) -> np.ndarray:
        return self.up if branch == "U" else self.down

    @property
    def shared(self) -> np.ndarray:
        """0-based path coordinates where both branches sit on the same site."""
        return np.flatnonzero(self.up == self.down)


def coordinate_map(layout: CircuitLayout) -> PathCoordinateMap:
    a, n = layout.a, layout.path_length
    j = np.arange(1, n + 1)
    up = np.where(j <= a + 2, j, j + 2)
    down = j.copy()
    down[j == a + 1] = a + 3
    down[j == a + 2] = a + 4
    down[j >= a + 3] = j[j >= a + 3] + 2
    return PathCoordinateMap(up, down)


@dataclass(frozen=True)
class PeresBasis:
    """Ordered computational basis of one branch: (path 1..n, site, register label)."""

    branch: Branch
    sites: np.ndarray
    registers: tuple[RegisterLabel, ...]

    def register_indices(self) -> np.ndarray:
        return np.array([register_index(r) for r in self.registers])


def peres_basis(
    layout: CircuitLayout, branch: Branch, input_register: RegisterLabel
) -> PeresBasis:
    """Computational basis of a branch for a classical input register.

    The control qubit must match the branch (+1 up, -1 down). On the upper
    branch the passive qubit flips across the NOT bond (path coordinates a+1
    to a+2); the lower branch applies no primitive at all.
    """
    c, p = input_register
    register_index(input_register)  # validates the label
    if (branch == "U") != (c == +1):
        raise ValueError(
            f"branch {branch} requires control {'+1' if branch == 'U' else '-1'}, "
            f"got sigma3(c) = {c}"
        )
    maps = coordinate_map(layout)
    n = layout.path_length
    if branch == "U":
        registers = tuple(
            (c, p) if j <= layout.a + 1 else (c, -p) for j in range(1, n + 1)
        )
    else:
        registers = tuple((c, p) for _ in range(n))
    return PeresBasis(branch, maps.sites(branch), registers)


def reduced_chain_hamiltonian(
    layout: CircuitLayout,
    branch: Branch,
    disorder: DisorderRealization,
    g: float,
) -> HamiltonianOperator:
    """Branch Hamiltonian in path coordinates: hopping -1/2, diagonal eps_x(j) - g*j."""
    if len(disorder) != layout.s:
        raise ValueError(
            f"disorder has {len(disorder)} entries, layout has {layout.s} sites"
        )
    sites = coordinate_map(layout).sites(branch)
    j = np.arange(1, layout.path_length + 1, dtype=float)
    diag = disorder.epsilons[sites - 1] - g * j
    return HamiltonianOperator(diag, -0.5 * np.ones(layout.path_length - 1))


# ---------------------------------------------------------------------------
# evolution with classical and superposed control
# ---------------------------------------------------------------------------


@dataclass
class BranchModel:
    """Everything needed to evolve one branch: basis and reduced spectrum."""

    layout: CircuitLayout
    branch: Branch
    basis: PeresBasis
    eig: EigenSystem

    @classmethod
    def build(
        cls,
        layout: CircuitLayout,
        branch: Branch,
        disorder: DisorderRealization,
        g: float,
        input_register: RegisterLabel | None = None,
    ) -> "BranchModel":
        if input_register is None:
            input_register = (+1 if branch == "U" else -1, -1)
        basis = peres_basis(layout, branch, input_register)
        h = reduced_chain_hamiltonian(layout, branch, disorder, g)
        return cls(layout, branch, basis, diagonalize(h))

    def beyond_gate_coordinates(self) -> np.ndarray:
        """0-based path coordinates whose physical site is >= b."""
        return np.flatnonzero(self.basis.sites >= self.layout.b)


def run_classical_input(
    layout: CircuitLayout,
    disorder: DisorderRealization,
    g: float,
    bath: BathSpec | None,
    branch: Branch,
    t_grid: np.ndarray,
    input_register: RegisterLabel | None = None,
) -> ObservableSeries:
    """Cursor dynamics of one branch, started at path coordinate 1.

    Unitary when ``bath`` is None, Lindblad otherwise. ``p_region`` is the
    probability of the sites at and beyond the switch exit b. Position
    observables are reported in physical-site coordinates.
    """
    model = BranchModel.build(layout, branch, disorder, g, input_register)
    t_grid = np.asarray(t_grid, dtype=float)
    v = model.eig.eigenvectors
    pops, amps = relax_energy_density(model.eig.eigenvalues, bath, v[0], t_grid)
    prob = site_distribution(v, pops, amps)
    return ObservableSeries.from_site_probabilities(
        t_grid, prob, model.basis.sites, model.beyond_gate_coordinates()
    )


def register_states(
    pops_up: np.ndarray,
    pops_down: np.ndarray,
    cross: np.ndarray,
    maps: PathCoordinateMap,
    bases: tuple[PeresBasis, PeresBasis],
    region: Iterable[int] | None = None,
) -> np.ndarray:
    """Cursor traced out (physical-site basis) at every time -> (T, 4, 4) register states.

    ``pops_up``/``pops_down`` are the (T, n) path-coordinate populations of the
    diagonal blocks and ``cross`` the (T, len(maps.shared)) diagonal of the
    cross block on the shared coordinates: the cross block contributes only on
    sites traversed by both branches. Each entry is summed into its register
    index by a product with a one-hot matrix. With ``region`` (a set of
    physical sites) the trace is restricted to those sites and the states are
    unnormalized: their trace is the probability of the cursor being there.
    """
    idx_up, idx_down = bases[0].register_indices(), bases[1].register_indices()
    shared = maps.shared
    if region is not None:
        sites = list(set(region))
        pops_up = pops_up * np.isin(maps.up, sites)
        pops_down = pops_down * np.isin(maps.down, sites)
        cross = cross * np.isin(maps.up[shared], sites)
    rho = np.zeros((pops_up.shape[0], 4, 4), dtype=complex)
    diag = pops_up @ np.eye(4)[idx_up] + pops_down @ np.eye(4)[idx_down]
    rho[:, np.arange(4), np.arange(4)] = diag
    off = (cross @ np.eye(16)[4 * idx_up[shared] + idx_down[shared]]).reshape(-1, 4, 4)
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


@dataclass
class SwitchSeries:
    """Time series of a superposed-control run.

    ``bell_fidelity`` is conditioned on the cursor having passed the switch
    (physical site >= b) and is NaN where that probability vanishes;
    ``entropy`` is the entropy of ``register``, the (T, 4, 4) unconditioned
    register states.
    """

    times: np.ndarray
    trace_uu: np.ndarray
    trace_dd: np.ndarray
    p_beyond_gate: np.ndarray
    entropy: np.ndarray
    bell_fidelity: np.ndarray
    register: np.ndarray

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "t": self.times,
            "trace_UU": self.trace_uu,
            "trace_DD": self.trace_dd,
            "p_beyond_gate": self.p_beyond_gate,
            "entropy": self.entropy,
            "bell_fidelity": self.bell_fidelity,
        }


def run_superposed_input(
    layout: CircuitLayout,
    disorder: DisorderRealization,
    g: float,
    bath: BathSpec | None,
    t_grid: np.ndarray,
) -> SwitchSeries:
    """Evolve the machine from the equal superposition of control up and down.

    The initial state is (|1, +1,-1> + |1, -1,-1>)/sqrt(2): cursor at path
    start with all four blocks populated. ``bath = None`` (or zeta = 0) gives
    the unitary limit.

    This factorization needs the pure initial state. With P_B, U_B a
    :func:`relax_energy_density` run of branch B from path coordinate 1, each
    diagonal block is half its branch run and the cross block is rank one,
    rho^{UD}(t) = 1/2 U_U U_D^H, with site diagonal 1/2 (V_U U_U)_j
    conj((V_D U_D)_j) on the shared coordinates j; each branch's V U is
    computed once and feeds both its site distribution and the cross diagonal.
    The register states of the whole grid are traced (:func:`register_states`),
    diagonalized and projected as one (T, 4, 4) stack, which the series keeps
    as ``register``; no per-time state or dense block is formed.
    """
    up = BranchModel.build(layout, "U", disorder, g)
    down = BranchModel.build(layout, "D", disorder, g)
    t_grid = np.asarray(t_grid, dtype=float)
    maps = coordinate_map(layout)
    bases = (up.basis, down.basis)
    vu, vd = up.eig.eigenvectors, down.eig.eigenvectors
    pop_u, amp_u = relax_energy_density(up.eig.eigenvalues, bath, vu[0], t_grid)
    pop_d, amp_d = relax_energy_density(down.eig.eigenvalues, bath, vd[0], t_grid)

    w_u, w_d = site_amplitudes(vu, amp_u), site_amplitudes(vd, amp_d)
    sites_u = 0.5 * site_distribution(vu, pop_u, amp_u, w_u).T  # (T, n)
    sites_d = 0.5 * site_distribution(vd, pop_d, amp_d, w_d).T
    w_u *= np.conj(w_d)  # in place: the cross diagonal on every coordinate
    cross = 0.5 * w_u[maps.shared].T
    del w_u, w_d
    if pop_u is None:  # no bath: the populations are |U|^2
        pop_u, pop_d = np.abs(amp_u) ** 2, np.abs(amp_d) ** 2
    p_beyond = (
        sites_u[:, up.beyond_gate_coordinates()].sum(axis=1)
        + sites_d[:, down.beyond_gate_coordinates()].sum(axis=1)
    )
    register = register_states(sites_u, sites_d, cross, maps, bases)
    entropy = von_neumann_entropy(register)
    cond = register_states(
        sites_u, sites_d, cross, maps, bases, region=range(layout.b, layout.s + 1)
    )
    weight = np.real(np.trace(cond, axis1=1, axis2=2))
    fidelity = np.full(t_grid.size, np.nan)
    passed = weight > 1e-12
    fidelity[passed] = bell_fidelity(cond[passed] / weight[passed, None, None])

    trace_uu, trace_dd = 0.5 * pop_u.sum(axis=0), 0.5 * pop_d.sum(axis=0)
    return SwitchSeries(t_grid, trace_uu, trace_dd, p_beyond, entropy, fidelity, register)
