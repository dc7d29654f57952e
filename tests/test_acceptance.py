"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.
"""

import time

import numpy as np
from support import (
    build_free_chain,
    evolve_full,
    evolve_pure,
    free_eigensystem,
    full_space_observables,
    full_space_state,
    full_switch_hamiltonian,
    kernel_at,
    relax_energy_density,
    subspace_projector,
    thermal_fixed_point,
)

from openchain.chains import (
    build_chain_hamiltonian,
    diagonalize,
    free_end_weights,
    sample_disorder,
)
from openchain.feynman import (
    build_branch,
    peres_basis,
    register_index,
    run_classical_input,
    run_superposed_input,
    von_neumann_entropy,
)
from openchain.lindblad import (
    BathSpec,
    arrival_peak,
    read_out,
    time_grid,
    transition_rates,
)


def branch_distribution(eig, bath: BathSpec | None, t_max: float, dt: float) -> np.ndarray:
    """Kernel site distribution (path coordinate x time) of a branch started at coordinate 1."""
    e, v = eig
    pops, amps = relax_energy_density(e, bath, v[0], t_max, dt)
    return read_out(v, np.eye(v.shape[0]), pops, amps)


class Criterion:
    """Times a criterion and prints one PASS/FAIL line when it closes."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.checks: list[bool] = []

    def check(self, ok: bool, note: str = "") -> None:
        self.checks.append(bool(ok))
        if not ok and note:
            print(f"  criterion {self.number} failed check: {note}")

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        in_budget = elapsed < self.budget_s
        ok = exc_type is None and all(self.checks) and in_budget
        verdict = "PASS" if ok else "FAIL"
        print(
            f"ACCEPTANCE {self.number:2d} [{verdict}] {self.title} "
            f"({elapsed:.2f}s / budget {self.budget_s:.0f}s)"
        )
        if exc_type is None:
            assert all(self.checks), f"criterion {self.number} checks failed"
            assert in_budget, f"criterion {self.number} exceeded {self.budget_s}s"
        return False


def test_criterion_1_free_chain_spectrum():
    with Criterion(1, "free-chain spectrum matches the closed form", 1.0) as c:
        worst = 0.0
        for s in range(2, 65):
            closed_e, closed_v = free_eigensystem(s)
            numeric_e, numeric_v = diagonalize(build_free_chain(s))
            # np.max, unlike max, carries a NaN through to the check
            worst = np.max([
                worst,
                np.max(np.abs(closed_e - numeric_e)),
                np.max(np.abs(closed_v - numeric_v)),
            ])
        c.check(worst <= 1e-10, f"max abs error {worst:.2e}")


def test_criterion_2_ballistic_arrival_and_peak_scaling():
    with Criterion(2, "ballistic arrival time and peak-height scaling", 30.0) as c:
        t_star, _ = arrival_peak(*free_end_weights(20), 40.0, 0.05)
        c.check(17.0 <= t_star <= 25.0, f"t* = {t_star}")
        sizes = [50, 100, 200, 400]
        p_stars = []
        for s in sizes:
            _, p = arrival_peak(*free_end_weights(s), 1.5 * s + 10, 0.05)
            p_stars.append(p)
        slope = float(np.polyfit(np.log(sizes), np.log(p_stars), 1)[0])
        c.check(-0.80 <= slope <= -0.55, f"slope = {slope}")


def test_criterion_3_anderson_suppression_in_the_switch():
    with Criterion(3, "static disorder suppresses unitary gate traversal", 120.0) as c:
        peaks = []
        for seed in range(100):
            disorder = sample_disorder(22, 0.5, seed)
            series = run_classical_input(9, disorder, 0.0, None, "U", 200.0, 0.05)
            peaks.append(series["p_beyond_gate"].max())
        median_peak = float(np.median(peaks))
        c.check(median_peak < 0.3, f"disordered median peak = {median_peak}")
        clean = run_classical_input(9, np.zeros(22), 0.0, None, "U", 200.0, 0.05)
        clean = clean["p_beyond_gate"]
        c.check(clean.max() >= 0.9, f"clean peak = {clean.max()}")


def test_criterion_4_thermal_fixed_point():
    with Criterion(4, "long-time populations reach the Gibbs vector", 5.0) as c:
        h = build_chain_hamiltonian(sample_disorder(20, 0.5, 0), 2.0)
        e, v = diagonalize(h)
        bath = BathSpec(beta=1.0, zeta=0.05)
        # cursor at site 1: energy amplitudes are the first row of V
        pops, _ = kernel_at(e, bath, v[0], 1e5)
        p_final = pops[:, 0]
        gibbs = thermal_fixed_point(e, 1.0)
        err = float(np.max(np.abs(p_final - gibbs)))
        c.check(err <= 1e-6, f"max norm deviation {err:.2e}")


def test_criterion_5_noise_assisted_gate_traversal():
    with Criterion(5, "bath plus tilt drives the cursor past the gate", 60.0) as c:
        disorder = sample_disorder(22, 0.5, 0)
        series = run_classical_input(
            9, disorder, 2.0, BathSpec(beta=1.0, zeta=0.05), "U", 1000.0, 1.0
        )
        p_beyond = series["p_beyond_gate"]
        min_step = float(np.diff(p_beyond).min())
        c.check(min_step >= -1e-6, f"worst decrease {min_step:.2e}")
        c.check(p_beyond[-1] >= 0.8, f"p(1000) = {p_beyond[-1]}")


def test_criterion_6_coherence_closed_form():
    with Criterion(6, "coherences follow the analytic decay law", 10.0) as c:
        rng = np.random.Generator(np.random.Philox(key=2024))
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(2, 11))
            evals = np.cumsum(rng.uniform(0.2, 2.0, dim)) + rng.uniform(-1, 1)
            bath = BathSpec(beta=float(rng.uniform(0.3, 3.0)), zeta=float(rng.uniform(0.0, 1.0)))
            gamma = transition_rates(evals, bath)
            amp0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amp0 /= np.linalg.norm(amp0)
            rho0 = np.outer(amp0, amp0.conj())
            t = float(rng.uniform(0.0, 5.0))
            _, amps = kernel_at(evals, bath, amp0, t)
            got = np.outer(amps[:, 0], amps[:, 0].conj())  # off-diagonal: the coherences
            widths = gamma.sum(axis=0)
            for i in range(dim):
                for j in range(dim):
                    if i == j:
                        continue
                    rate = -1j * (evals[i] - evals[j]) - bath.zeta * (
                        widths[i] + widths[j]
                    ) / 2.0
                    expected = rho0[i, j] * np.exp(rate * t)
                    worst = np.maximum(worst, abs(got[i, j] - expected))
        c.check(worst <= 1e-10, f"worst deviation {worst:.2e}")


def test_criterion_7_conservation_law_and_exact_cnot():
    with Criterion(7, "subspace conservation and exact conditional CNOT", 60.0) as c:
        # the computational subspace of each branch is invariant under the
        # complete clock-register Hamiltonian (hopping, NOT bond, disorder, tilt)
        rng = np.random.Generator(np.random.Philox(key=7))
        worst = 0.0
        for _ in range(100):
            s = int(rng.integers(7, 32))
            a = int(rng.integers(1, s - 5))
            branch = "U" if rng.integers(2) else "D"
            control = +1 if branch == "U" else -1
            sites, registers = peres_basis(s, a, branch, (control, int(rng.choice([-1, 1]))))
            eps = rng.normal(0.0, rng.uniform(0.1, 1.0), s)
            g = float(rng.uniform(0.0, 3.0))
            h = full_switch_hamiltonian(a, eps, g)
            proj = subspace_projector(sites, registers, s)
            worst = np.maximum(worst, np.linalg.norm(h @ proj - proj @ h))
        c.check(worst <= 1e-12, f"worst commutator norm {worst:.2e}")

        disorder = sample_disorder(22, 0.5, 1)
        for control, passive in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            branch = "U" if control == 1 else "D"
            sites, indices = peres_basis(22, 9, branch, (control, passive))
            expected = (control, -passive) if control == 1 else (control, passive)
            # the branch (the tilted chain on the disorder along its path) evolves
            # by the dense oracle: no kernel, no tridiagonal solver
            h = build_chain_hamiltonian(disorder[sites - 1], 2.0)
            past_gate = np.flatnonzero(sites >= 9 + 5)
            for t in (30.0, 120.0, 450.0):
                probs = np.abs(evolve_pure(h, np.eye(h.size)[0], t)) ** 2
                rho = np.zeros((4, 4))
                for j in past_gate:
                    rho[indices[j], indices[j]] += probs[j]
                weight = np.trace(rho)
                if weight == 0.0:
                    continue
                rho /= weight
                fidelity = rho[register_index(expected), register_index(expected)]
                c.check(fidelity == 1.0, f"conditional fidelity {fidelity} != 1")


def test_criterion_8_entanglement_destroyed_by_the_bath():
    with Criterion(8, "register entropy: superposed vs classical control", 120.0) as c:
        disorder = sample_disorder(22, 0.5, 0)
        bath = BathSpec(beta=1.0, zeta=0.05)
        ln2 = np.log(2.0)

        superposed, _ = run_superposed_input(9, disorder, 2.0, bath, 2000.0, 1.0)
        end_err = abs(superposed["entropy"][-1] - ln2)
        peak_err = abs(superposed["entropy"].max() - 1.5 * ln2)
        c.check(end_err <= 1e-2, f"superposed end entropy off by {end_err:.2e}")
        c.check(peak_err <= 5e-2, f"superposed peak entropy off by {peak_err:.2e}")

        # classical control (+1, -1): the register from the branch's kernel run
        _, indices, eig = build_branch(9, "U", disorder, 2.0)
        prob = branch_distribution(eig, bath, 2000.0, 1.0)
        entropy = np.empty(prob.shape[1])
        for i in range(prob.shape[1]):
            rho = np.zeros((4, 4))
            for j in range(indices.size):
                rho[indices[j], indices[j]] += prob[j, i]
            entropy[i] = von_neumann_entropy(rho)
        c.check(entropy[-1] <= 1e-2, f"classical end entropy {entropy[-1]:.2e}")
        peak_err = abs(entropy.max() - ln2)
        c.check(peak_err <= 5e-2, f"classical peak entropy off by {peak_err:.2e}")


def test_criterion_9_clean_unitary_entangling():
    with Criterion(9, "clean unitary run entangles the register exactly", 30.0) as c:
        clean = np.zeros(22)
        series = run_superposed_input(9, clean, 0.0, None, 200.0, 0.5)[0]
        grid, fidelity = series["t"], series["bell_fidelity"]
        defined = ~np.isnan(fidelity)
        # conditioning needs nonzero weight past the gate; before the
        # ballistic front arrives (t of order b) that weight underflows,
        # so the conditional state exists only from then on
        c.check(
            np.all(defined[grid >= 15.0]),
            f"undefined points after front arrival: {np.flatnonzero(~defined)}",
        )
        worst = float(np.max(np.abs(fidelity[defined] - 1.0)))
        c.check(worst <= 1e-10, f"worst fidelity deviation {worst:.2e}")


def test_criterion_10_full_space_oracle_equivalence():
    with Criterion(10, "reduced model equals the full clock-register space", 60.0) as c:
        s, a = 8, 1
        disorder = sample_disorder(s, 0.5, 7)
        g = 2.0
        h_full = full_switch_hamiltonian(a, disorder, g)
        grid = time_grid(50.0, 0.5)

        reg0 = np.zeros(4)
        reg0[register_index((+1, -1))] = reg0[register_index((-1, -1))] = 1 / np.sqrt(2)
        psi0 = full_space_state(s, reg0)
        series, register = run_superposed_input(a, disorder, g, None, 50.0, 0.5)
        # mean_Q of the reduced model: half of each branch's kernel distribution
        mean_red = np.zeros(grid.size)
        for branch in "UD":
            sites, _, eig = build_branch(a, branch, disorder, g)
            mean_red += 0.5 * (sites @ branch_distribution(eig, None, 50.0, 0.5))
        # np.maximum, unlike max, carries a NaN at any time through to the checks
        worst_q = worst_reg = worst_p = 0.0
        for i, t in enumerate(grid):
            psi = evolve_full(h_full, psi0, t)
            mean_full, reg_full = full_space_observables(psi, s)
            p_full = float(np.sum(np.abs(psi.reshape(s, 4)[a + 4 :]) ** 2))  # sites b = a + 5 on
            worst_q = np.maximum(worst_q, abs(mean_full - mean_red[i]))
            worst_reg = np.maximum(worst_reg, np.max(np.abs(reg_full - register[i])))
            worst_p = np.maximum(worst_p, abs(p_full - series["p_beyond_gate"][i]))
        c.check(worst_q <= 1e-8, f"superposed mean_Q deviation {worst_q:.2e}")
        c.check(worst_reg <= 1e-8, f"superposed register deviation {worst_reg:.2e}")
        c.check(worst_p <= 1e-8, f"superposed p_beyond_gate deviation {worst_p:.2e}")

        reg0 = np.zeros(4)
        reg0[register_index((+1, -1))] = 1.0
        psi0 = full_space_state(s, reg0)
        classical = run_classical_input(a, disorder, g, None, "U", 50.0, 0.5)
        _, indices, eig = build_branch(a, "U", disorder, g)
        prob = branch_distribution(eig, None, 50.0, 0.5)
        worst_q = worst_reg = 0.0
        for i, t in enumerate(grid):
            mean_full, reg_full = full_space_observables(
                evolve_full(h_full, psi0, t), s
            )
            worst_q = np.maximum(worst_q, abs(mean_full - classical["mean_Q"][i]))
            rho = np.zeros((4, 4))
            for j in range(indices.size):
                rho[indices[j], indices[j]] += prob[j, i]
            worst_reg = np.maximum(worst_reg, np.max(np.abs(reg_full - rho)))
        c.check(worst_q <= 1e-8, f"classical mean_Q deviation {worst_q:.2e}")
        c.check(worst_reg <= 1e-8, f"classical register deviation {worst_reg:.2e}")
