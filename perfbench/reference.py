"""Independent reference computations for the benchmark's output checks.

Everything here is written afresh from the model's formulas on top of numpy
and scipy, and imports nothing from openchain, so a fault in the package
cannot hide in its own reference:

* chains and switch branches are dense matrices diagonalized by
  ``numpy.linalg.eigh``;
* the bath couples adjacent levels only, absorption at
  ``1 / (exp(beta w) - 1)`` and emission at that plus one, all times ``zeta``;
* populations are ``scipy.linalg.expm(A t) p0`` for the whole time ``t``;
* coherences of a pure initial state are rank one at all times,
  ``rho_mn(t) = u_m conj(u_n)`` with ``u_m = c_m exp((-i e_m - G_m / 2) t)``,
  so the site distribution is ``|V u|^2 - V^2 |u|^2 + V^2 p``;
* the free chain's last-site amplitude has a closed form.

Sites and path coordinates are 1-based in the formulas, 0-based in arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

#: register basis order: (sigma3(c), sigma3(p)) = (-1,-1), (-1,+1), (+1,-1), (+1,+1)
REGISTER_DOWN = 0  # (-1, -1): lower branch, no primitive applied
REGISTER_UP_BEFORE = 2  # (+1, -1): upper branch before the NOT bond
REGISTER_UP_AFTER = 3  # (+1, +1): upper branch after the NOT bond


def chain_matrix(onsite: np.ndarray) -> np.ndarray:
    """Dense tight-binding matrix: given diagonal, hopping -1/2 between neighbours."""
    onsite = np.asarray(onsite, dtype=float)
    h = np.diag(onsite)
    i = np.arange(onsite.size - 1)
    h[i, i + 1] = h[i + 1, i] = -0.5
    return h


def tilted_onsite(epsilons: np.ndarray, g: float) -> np.ndarray:
    """On-site energies eps_x - g x of a tilted, disordered chain."""
    epsilons = np.asarray(epsilons, dtype=float)
    return epsilons - g * np.arange(1, epsilons.size + 1)


def path_sites(s: int, a: int, branch: str) -> np.ndarray:
    """Physical site at path coordinate j = 1..s-2 of one switch branch.

    Both branches run 1..a, then the upper one visits a+1, a+2 and the lower
    one a+3, a+4, and both continue from b = a+5 to s.
    """
    j = np.arange(1, s - 1)
    x = np.where(j <= a, j, j + 2)
    if branch == "U":
        inside = (j == a + 1) | (j == a + 2)
        x[inside] = j[inside]
    return x


def branch_onsite(epsilons: np.ndarray, a: int, branch: str, g: float) -> np.ndarray:
    """Path-coordinate diagonal eps_x(j) - g j of one branch."""
    epsilons = np.asarray(epsilons, dtype=float)
    x = path_sites(epsilons.size, a, branch)
    return epsilons[x - 1] - g * np.arange(1, x.size + 1)


def bath_generator(evals: np.ndarray, beta: float, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Population generator A (dp/dt = A p) and level widths G (zeta included)."""
    omega = np.diff(np.asarray(evals, dtype=float))
    nbar = 1.0 / np.expm1(beta * omega)
    n = omega.size + 1
    a = np.zeros((n, n))
    k = np.arange(n - 1)
    a[k + 1, k] = zeta * nbar  # absorption k -> k+1
    a[k, k + 1] = zeta * (nbar + 1.0)  # emission k+1 -> k
    widths = a.sum(axis=0)
    return a - np.diag(widths), widths


class Propagator:
    """Site amplitudes and distributions of a chain started on its first site.

    ``bath=None`` is the closed chain. With ``bath=(beta, zeta)`` the state
    relaxes under the nearest-level bath; ``amplitude`` is then the site
    vector ``V u(t)`` of the rank-one coherent part.
    """

    def __init__(self, onsite: np.ndarray, bath: tuple[float, float] | None = None):
        self.evals, self.evecs = np.linalg.eigh(chain_matrix(onsite))
        self.c = self.evecs[0, :].astype(complex)
        if bath is None:
            self.generator, self.widths = None, np.zeros(self.evals.size)
        else:
            self.generator, self.widths = bath_generator(self.evals, *bath)

    def energy_amplitudes(self, t: float) -> np.ndarray:
        return self.c * np.exp((-1j * self.evals - 0.5 * self.widths) * t)

    def amplitude(self, t: float) -> np.ndarray:
        return self.evecs @ self.energy_amplitudes(t)

    def probabilities(self, t: float) -> np.ndarray:
        u = self.energy_amplitudes(t)
        prob = np.abs(self.evecs @ u) ** 2
        if self.generator is not None:
            pops = expm(self.generator * t) @ np.abs(self.c) ** 2
            prob += (self.evecs**2) @ (pops - np.abs(u) ** 2)
        return prob


def position_observables(prop: Propagator, x: np.ndarray, region: np.ndarray, times) -> np.ndarray:
    """Rows (mean_Q, var_Q, probability of ``region``), one per time."""
    rows = []
    for t in times:
        prob = prop.probabilities(t)
        mean = prob @ x
        rows.append((mean, prob @ x**2 - mean**2, prob[region].sum()))
    return np.array(rows)


def chain_observables(onsite, times, bath=None) -> np.ndarray:
    """Observables of a chain started at site 1; the region is the last site."""
    onsite = np.asarray(onsite, dtype=float)
    x = np.arange(1, onsite.size + 1, dtype=float)
    return position_observables(Propagator(onsite, bath), x, np.array([onsite.size - 1]), times)


def classical_branch_observables(epsilons, a, g, bath, times) -> np.ndarray:
    """Upper-branch cursor: physical-site mean, variance and P(x >= b)."""
    x = path_sites(len(epsilons), a, "U").astype(float)
    prop = Propagator(branch_onsite(epsilons, a, "U", g), bath)
    return position_observables(prop, x, np.flatnonzero(x >= a + 5), times)


def switch_registers(epsilons, a, g, bath, times) -> list[tuple[np.ndarray, np.ndarray]]:
    """Register state (4x4) of the superposed control, and its part at x >= b.

    The machine starts in (|U> + |D>)/sqrt(2) with the cursor at path
    coordinate 1. Each branch block is half a single-branch run; the cross
    block is ``1/2 (V_U u_U)_j conj(V_D u_D)_j`` on coordinates where both
    branches sit on the same site. One pair per time.
    """
    s = len(epsilons)
    up = Propagator(branch_onsite(epsilons, a, "U", g), bath)
    down = Propagator(branch_onsite(epsilons, a, "D", g), bath)
    j = np.arange(1, s - 1)
    reg_up = np.where(j <= a + 1, REGISTER_UP_BEFORE, REGISTER_UP_AFTER)
    shared = path_sites(s, a, "U") == path_sites(s, a, "D")
    everywhere, beyond = np.ones(s - 2, dtype=bool), j >= a + 3

    def trace_out(keep, p_up, p_down, cross) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        np.add.at(rho, (reg_up[keep], reg_up[keep]), p_up[keep])
        rho[REGISTER_DOWN, REGISTER_DOWN] += p_down[keep].sum()
        both = keep & shared
        np.add.at(rho, (reg_up[both], REGISTER_DOWN), cross[both])
        np.add.at(rho, (REGISTER_DOWN, reg_up[both]), np.conj(cross[both]))
        return rho

    out = []
    for t in times:
        blocks = (
            0.5 * up.probabilities(t),
            0.5 * down.probabilities(t),
            0.5 * up.amplitude(t) * np.conj(down.amplitude(t)),
        )
        out.append((trace_out(everywhere, *blocks), trace_out(beyond, *blocks)))
    return out


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in nats."""
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log(lam)))


def bell_overlap(rho: np.ndarray) -> float:
    """<Phi+|rho|Phi+> with Phi+ = (|-1,-1> + |+1,+1>)/sqrt(2)."""
    return float(0.5 * np.real(rho[0, 0] + rho[3, 3] + rho[0, 3] + rho[3, 0]))


def free_chain_end_probability(s: int, t: np.ndarray | float) -> np.ndarray:
    """|<s| exp(-iHt) |1>|^2 of the clean chain, from its closed-form spectrum."""
    k = np.arange(1, s + 1)
    q = k * np.pi / (s + 1)
    weights = (2.0 / (s + 1)) * np.sin(q) * np.sin(q * s)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    amp = np.exp(1j * np.outer(t, np.cos(q))) @ weights
    return np.abs(amp) ** 2
