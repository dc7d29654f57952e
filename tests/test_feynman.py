import numpy as np
import pytest
from support import (
    branch_registers,
    branch_sites,
    free_eigensystem,
    full_switch_hamiltonian,
    relax_energy_density,
    subspace_projector,
    switch_block_states,
)

from openchain.chains import build_chain_hamiltonian, sample_disorder
from openchain.feynman import (
    BELL_PHI_PLUS,
    bell_fidelity,
    build_branch,
    peres_basis,
    register_index,
    register_states,
    run_classical_input,
    run_superposed_input,
    von_neumann_entropy,
)
from openchain.lindblad import BathSpec


def branch_runs(a, disorder, g, bath, t_max, dt):
    """(sites, (eigenvalues, eigenvectors), P, U) of each branch's kernel run from coordinate 1."""
    runs = []
    for branch in ("U", "D"):
        sites, _, (e, v) = build_branch(a, branch, disorder, g)
        pops, amps = relax_energy_density(e, bath, v[0], t_max, dt)
        runs.append((sites, (e, v), pops, amps))
    return runs


def branch_energies(a, branch, disorder, g):
    """A branch's on-site energies in path coordinates: the tilted chain on the disorder it visits."""
    return build_chain_hamiltonian(disorder[branch_sites(len(disorder), a, branch) - 1], g)


def commutator_norm(a, disorder, g, basis):
    """Frobenius norm of [H, P]: full clock-register Hamiltonian, projector on (sites, registers)."""
    h = full_switch_hamiltonian(a, disorder, g)
    proj = subspace_projector(*basis, len(disorder))
    return float(np.linalg.norm(h @ proj - proj @ h))


def geometry(s, a):
    """(path coordinates, exit): the branches' length and the first site they share past a."""
    up, _ = peres_basis(s, a, "U", (+1, -1))
    down, _ = peres_basis(s, a, "D", (-1, -1))
    assert up.size == down.size
    return up.size, min(set(up[up > a]) & set(down[down > a]))


class TestLayout:
    def test_standard_geometry(self):
        assert geometry(22, 9) == (20, 14)

    def test_minimal_geometry(self):
        assert geometry(8, 1) == (6, 6)

    def test_smallest_valid(self):
        assert geometry(7, 1)[0] == 5

    def test_too_short_rejected(self):
        # the entry must leave an inertial site past the exit: 1 <= a <= s - 6,
        # checked by every switch entry point on (a, an s-entry disorder)
        entries = [
            lambda s, a: peres_basis(s, a, "U", (+1, -1)),
            lambda s, a: peres_basis(s, a, "D", (-1, -1)),
            lambda s, a: build_branch(a, "U", np.zeros(s), 0.0),
            lambda s, a: build_branch(a, "D", np.zeros(s), 0.0),
            lambda s, a: run_classical_input(a, np.zeros(s), 0.0, None, "U", 1.0, 1.0),
            lambda s, a: run_superposed_input(a, np.zeros(s), 0.0, None, 1.0, 1.0),
        ]
        for entry in entries:
            for s, a in [(6, 1), (22, 17)]:
                with pytest.raises(ValueError, match="need 1 <= a <= s - 6"):
                    entry(s, a)


class TestCoordinateMap:
    def test_images_and_overlap(self):
        up, _ = peres_basis(22, 9, "U", (+1, -1))
        down, _ = peres_basis(22, 9, "D", (-1, -1))
        # a = 9, b = 14, s = 22: the upper branch detours over 10, 11, the lower over 12, 13
        assert list(up) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 17, 18, 19, 20, 21, 22]
        assert list(down) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22]
        # both injective, overlapping exactly on the inertial stretches
        assert len(set(up)) == len(set(down)) == 20
        assert sorted(set(up) & set(down)) == [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16, 17, 18, 19, 20, 21, 22
        ]
        # on the same path coordinates (0-based), so the cross block pairs them there
        assert [j for j in range(20) if up[j] == down[j]] == [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18, 19
        ]


class TestPeresBasis:
    def test_upper_branch_flips_passive(self):
        a = 9
        _, registers = peres_basis(22, a, "U", (+1, -1))
        assert registers[0] == register_index((+1, -1))
        assert registers[-1] == register_index((+1, +1))
        # the flip happens between path coordinates a+1 and a+2
        assert registers[a] == register_index((+1, -1))
        assert registers[a + 1] == register_index((+1, +1))

    def test_lower_branch_keeps_register(self):
        _, registers = peres_basis(22, 9, "D", (-1, -1))
        assert np.all(registers == register_index((-1, -1)))

    @pytest.mark.parametrize("branch", ["U", "D"])
    def test_entry_count(self, branch):
        c = +1 if branch == "U" else -1
        sites, registers = peres_basis(22, 9, branch, (c, -1))
        assert sites.size == registers.size == 20

    def test_control_mismatch_rejected(self):
        with pytest.raises(ValueError):
            peres_basis(8, 1, "U", (-1, -1))
        with pytest.raises(ValueError):
            peres_basis(8, 1, "D", (+1, -1))
        # any other branch name is rejected, not read as the lower branch
        for branch in ("X", "u", "d", ""):
            with pytest.raises(ValueError, match="branch must be U or D"):
                peres_basis(8, 1, branch, (-1, -1))

    @pytest.mark.parametrize("s,a", [(8, 1), (12, 3), (22, 9), (202, 100)])
    @pytest.mark.parametrize(
        "label", [(-1, -1), (-1, 1), (1, -1), (1, 1)], ids=lambda r: f"c{r[0]:+d}p{r[1]:+d}"
    )
    def test_matches_switch_diagram(self, s, a, label):
        # the oracle's sites and register labels, written from the diagram
        branch = "U" if label[0] == 1 else "D"
        sites, registers = peres_basis(s, a, branch, label)
        assert np.array_equal(sites, branch_sites(s, a, branch))
        assert np.array_equal(registers, branch_registers(s, a, branch, label))

    def test_register_index_order(self):
        assert [register_index(r) for r in [(-1, -1), (-1, 1), (1, -1), (1, 1)]] == [
            0,
            1,
            2,
            3,
        ]


class TestReducedHamiltonian:
    def test_clean_branches_are_free_chains(self):
        closed_e, closed_v = free_eigensystem(20)
        for branch in ("U", "D"):
            assert np.array_equal(branch_energies(9, branch, np.zeros(22), 0.0), np.zeros(20))
            _, _, (e, v) = build_branch(9, branch, np.zeros(22), 0.0)
            assert np.max(np.abs(e - closed_e)) < 1e-10
            assert np.max(np.abs(v - closed_v)) < 1e-10

    def test_branches_feel_different_disorder(self):
        a = 9
        disorder = sample_disorder(22, 0.5, 1)
        h_up = branch_energies(a, "U", disorder, 0.0)
        h_down = branch_energies(a, "D", disorder, 0.0)
        # inside the switch the branches pick up different on-site energies
        assert h_up[a] != h_down[a]
        assert h_up[a + 1] != h_down[a + 1]
        # outside they coincide
        assert np.array_equal(h_up[:a], h_down[:a])
        assert np.array_equal(h_up[a + 2 :], h_down[a + 2 :])

    def test_tilt_steps_in_path_coordinates(self):
        disorder = sample_disorder(22, 0.5, 2)
        h = branch_energies(9, "D", disorder, 2.0)
        sites, _ = peres_basis(22, 9, "D", (-1, -1))
        eps = disorder[sites - 1]
        steps = np.diff(h - eps)
        assert np.allclose(steps, -2.0, atol=1e-12)

    def test_disorder_length_mismatch(self):
        # s is the disorder's length: fewer than a + 6 entries leave no site past the exit
        for a in (1, 3):
            with pytest.raises(ValueError, match="need 1 <= a <= s - 6"):
                build_branch(a, "U", np.zeros(a + 5), 0.0)
            assert build_branch(a, "U", np.zeros(a + 6), 0.0)[0].size == a + 4


class TestSubspaceConservation:
    """The branch subspaces are invariant under the full clock-register Hamiltonian."""

    def test_random_diagonal_potentials_commute(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        for _ in range(100):
            s = int(rng.integers(7, 30))
            a = int(rng.integers(1, s - 5))
            branch = "U" if rng.integers(2) else "D"
            c = +1 if branch == "U" else -1
            basis = peres_basis(s, a, branch, (c, int(rng.choice([-1, 1]))))
            g = float(rng.uniform(0, 3))
            eps = rng.normal(0, rng.uniform(0.1, 1.0), s)
            assert commutator_norm(a, eps, g, basis) <= 1e-12

    def test_identity_potential_exactly_zero(self):
        for c, p in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            basis = peres_basis(8, 1, "U" if c == 1 else "D", (c, p))
            assert commutator_norm(1, np.ones(8), 0.0, basis) == 0.0

    def test_misplaced_not_label_detected(self):
        # negative control: labelling the passive flip one bond late puts
        # (a+2, unflipped) in the subspace, which the NOT bond leaves
        a = 3
        sites, registers = peres_basis(12, a, "U", (+1, -1))
        j = np.arange(1, 11)
        late = np.where(j <= a + 2, register_index((+1, -1)), register_index((+1, +1)))
        assert not np.array_equal(late, registers)
        disorder = sample_disorder(12, 0.5, 6)
        assert commutator_norm(a, disorder, 2.0, (sites, registers)) <= 1e-12
        assert commutator_norm(a, disorder, 2.0, (sites, late)) > 1.0


class TestClassicalRuns:
    def test_clean_run_passes_gate(self):
        clean = np.zeros(22)
        series = run_classical_input(9, clean, 0.0, None, "U", 200.0, 0.1)
        assert series["p_beyond_gate"].max() >= 0.9

    def test_disorder_suppresses_transmission(self):
        peaks = []
        for seed in range(100):
            series = run_classical_input(
                9, sample_disorder(22, 0.5, seed), 0.0, None, "U", 200.0, 0.1
            )
            peaks.append(series["p_beyond_gate"].max())
        assert np.median(peaks) < 0.3

    def test_bath_restores_transmission(self):
        series = run_classical_input(
            9,
            sample_disorder(22, 0.5, 0),
            2.0,
            BathSpec(beta=1.0, zeta=0.05),
            "U",
            1000.0,
            2.0,
        )
        assert np.all(np.diff(series["p_beyond_gate"]) >= -1e-6)
        assert series["p_beyond_gate"][-1] >= 0.8

    def test_cnot_truth_table(self):
        # all four classical inputs, measured at the arrival peak conditioned
        # on the cursor being past the gate, give the gate's truth table
        clean = np.zeros(22)
        for c, p in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            branch = "U" if c == 1 else "D"
            sites, registers = peres_basis(22, 9, branch, (c, p))
            expected = register_index((c, -p) if c == 1 else (c, p))
            assert registers[-1] == expected
            series = run_classical_input(9, clean, 0.0, None, branch, 200.0, 0.1)
            # conditioned on arrival, the register label is exact: every
            # basis element past the gate (b = 14) carries the output label
            assert np.all(registers[sites >= 14] == expected)
            assert series["p_beyond_gate"].max() >= 0.9


class TestSuperposedRuns:
    def test_clean_unitary_conditional_bell_state(self):
        clean = np.zeros(22)
        series, _ = run_superposed_input(9, clean, 0.0, None, 100.0, 0.5)
        defined = ~np.isnan(series["bell_fidelity"])
        assert defined.sum() > 150
        assert np.all(np.abs(series["bell_fidelity"][defined] - 1.0) < 1e-10)

    # the cross block is 1/2 u_U u_D^H: its Frobenius norm is 1/2 |u_U| |u_D|
    # and its largest entry 1/2 max|u_U| max|u_D|

    def test_cross_block_norm_conserved_without_bath(self):
        clean = np.zeros(22)
        (*_, amp_u), (*_, amp_d) = branch_runs(9, clean, 0.0, None, 80.0, 10.0)
        norms = 0.5 * np.linalg.norm(amp_u, axis=0) * np.linalg.norm(amp_d, axis=0)
        assert np.allclose(norms, norms[0], atol=1e-12)

    def test_cross_block_decays_under_bath(self):
        (*_, amp_u), (*_, amp_d) = branch_runs(
            9,
            sample_disorder(22, 0.5, 3),
            2.0,
            BathSpec(beta=1.0, zeta=0.05),
            400.0,
            100.0,  # t = 0, 100, ..., 400
        )
        norms = 0.5 * np.abs(amp_u).max(axis=0) * np.abs(amp_d).max(axis=0)
        assert norms[1] < 1e-2 * norms[0]
        assert norms[4] < 1e-8 * norms[0]

    def test_trace_preserved(self):
        series, _ = run_superposed_input(
            9,
            sample_disorder(22, 0.5, 4),
            2.0,
            BathSpec(beta=1.0, zeta=0.05),
            500.0,
            5.0,
        )
        assert np.allclose(series["trace_UU"] + series["trace_DD"], 1.0, atol=1e-9)

    def test_block_matrix_stays_physical(self):
        states = switch_block_states(
            3,
            sample_disorder(12, 0.5, 5),
            2.0,
            BathSpec(beta=1.0, zeta=0.05),
            300.0,
            10.0,
        )
        for full in states:
            assert np.max(np.abs(full - full.conj().T)) < 1e-9
            assert np.trace(full).real == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(full).min() > -1e-9


class TestRegisterReduction:
    def test_start_is_pure_product(self):
        clean = np.zeros(22)
        _, register = run_superposed_input(9, clean, 0.0, None, 1.0, 1.0)
        rho = register[0]
        # (|+1,-1> + |-1,-1>)/sqrt(2)
        vec = np.zeros(4)
        vec[register_index((+1, -1))] = vec[register_index((-1, -1))] = 1 / np.sqrt(2)
        assert np.max(np.abs(rho - np.outer(vec, vec))) < 1e-12
        assert von_neumann_entropy(rho) < 1e-12

    def test_dephased_split_is_maximally_mixed_pair(self):
        # no cross block and half the population at each branch end: the
        # register is the 50/50 mixture of the two outcomes
        _, reg_up = peres_basis(22, 9, "U", (+1, -1))
        _, reg_down = peres_basis(22, 9, "D", (-1, -1))
        up, down = (np.zeros((4, 1)) for _ in range(2))
        up[reg_up[-1]] = down[reg_down[-1]] = 0.5
        rho = register_states(up, down, np.zeros((16, 1), complex))[0]
        expected = np.zeros((4, 4))
        expected[register_index((+1, +1)), register_index((+1, +1))] = 0.5
        expected[register_index((-1, -1)), register_index((-1, -1))] = 0.5
        assert np.max(np.abs(rho - expected)) < 1e-12
        assert von_neumann_entropy(rho) == pytest.approx(np.log(2), abs=1e-12)

    def test_three_state_mixture_entropy(self):
        rho = np.zeros((4, 4))
        rho[register_index((+1, -1)), register_index((+1, -1))] = 0.25
        rho[register_index((+1, +1)), register_index((+1, +1))] = 0.25
        rho[register_index((-1, -1)), register_index((-1, -1))] = 0.5
        assert von_neumann_entropy(rho) == pytest.approx(1.03972, abs=1e-5)
        assert von_neumann_entropy(rho) == pytest.approx(1.5 * np.log(2), abs=1e-5)


class TestEntropyAndFidelity:
    def test_pure_state_entropy(self):
        assert von_neumann_entropy(np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS)) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2))

    def test_bell_fidelity_values(self):
        assert bell_fidelity(np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS)) == pytest.approx(1.0)
        mixed = np.zeros((4, 4))
        mixed[0, 0] = mixed[3, 3] = 0.5
        assert bell_fidelity(mixed) == pytest.approx(0.5)
        pure_up = np.zeros((4, 4))
        pure_up[3, 3] = 1.0
        assert bell_fidelity(pure_up) == pytest.approx(0.5)
