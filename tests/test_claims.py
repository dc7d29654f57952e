"""The paper's headline claims as curves over the bath coupling zeta.

Noise assists traversal. On the disordered tilted switch (s = 22, a = 9,
sigma = 0.5, g = 2, beta = 1, time axis (1000, 1), disorder seeds 0-19) the
median probability past the gate at t_max rises with zeta over 0 (no bath),
0.002, 0.01 and 0.05, from about 0 to about 1, for the classical U branch and
for the superposed run alike. Every zeta stays inside the nearest-level
model's secular regime: zeta max G / min gap <= 0.127, the shipped configs'
worst value.

Measured over the 20 seeds (medians, classical / superposed): 2.0e-23 /
1.6e-23 without a bath, 4.6e-5 / 4.7e-5 at 0.002, 0.454 / 0.454 at 0.01 (seeds
0.449-0.472) and 1.000 / 1.000 at 0.05; the worst ratio was 0.1267. The
bounds in ``MEDIANS`` were set from that measurement.

Noise hinders entanglement. On the clean weakly tilted switch (sigma = 0, g =
0.1, time axis (200, 0.05)) the superposed run's Bell fidelity at the first
peak of the probability past the gate (its first local maximum after it passes
0.1) falls strictly with zeta over 0 (no bath), 1e-4, 3e-4 and 9e-4, and stays
>= 1/2. Measured: 1.000000, 0.995452, 0.986336 and 0.958677, at t = 16.75,
16.75, 16.7 and 16.65, with secular ratios 0, 0.013, 0.040 and 0.119. The
bounds in ``FIDELITIES`` were set from that measurement.
"""

import numpy as np
import pytest

from openchain.chains import sample_disorder
from openchain.feynman import build_branch, run_classical_input, run_superposed_input
from openchain.lindblad import BathSpec, level_widths, transition_rates

S, A, SIGMA, G, BETA, AXIS, SEEDS = 22, 9, 0.5, 2.0, 1.0, (1000.0, 1.0), range(20)
#: each zeta (0: no bath) with the bounds on the median p_beyond_gate at t_max
MEDIANS = {0.0: (0.0, 1e-20), 0.002: (1e-5, 1e-3), 0.01: (0.40, 0.50), 0.05: (0.95, 1.0 + 1e-12)}
#: the clean switch's tilt and time axis, and each zeta (0: no bath) with the
#: bounds on the Bell fidelity at the first peak past the gate
CLEAN_G, CLEAN_AXIS = 0.1, (200.0, 0.05)
FIDELITIES = {0.0: (1 - 1e-12, 1 + 1e-12), 1e-4: (0.994, 0.997), 3e-4: (0.984, 0.988),
              9e-4: (0.955, 0.962)}
RUNS = {
    "classical": lambda d, bath: run_classical_input(A, d, G, bath, "U", *AXIS),
    "superposed": lambda d, bath: run_superposed_input(A, d, G, bath, *AXIS)[0],
}


@pytest.mark.parametrize("run", RUNS)
def test_noise_assists_traversal(run):
    medians = []
    for zeta, (low, high) in MEDIANS.items():
        bath = BathSpec(BETA, zeta) if zeta else None
        finals = [RUNS[run](sample_disorder(S, SIGMA, seed), bath)["p_beyond_gate"][-1]
                  for seed in SEEDS]
        medians.append(float(np.median(finals)))
        assert low <= medians[-1] <= high, f"zeta = {zeta}: median {medians[-1]:.4g}"
    assert all(np.diff(medians) > 0), f"medians {medians} do not rise with zeta"


def secular_ratio(disorder: np.ndarray, g: float, zeta: float) -> float:
    """zeta max G / min gap over both branches of the switch on ``disorder``."""
    ratios = []
    for branch in "UD":
        *_, (e, _) = build_branch(A, branch, disorder, g)
        widths = level_widths(transition_rates(e, BathSpec(BETA, zeta)))
        ratios.append(zeta * widths.max() / np.diff(e).min())
    return float(np.max(ratios))  # np.max, unlike max, keeps a NaN


def test_every_coupling_is_secular():
    # the ratio grows linearly with zeta, so the largest zeta bounds every one
    zeta = max(MEDIANS)
    worst = np.max([secular_ratio(sample_disorder(S, SIGMA, seed), G, zeta) for seed in SEEDS])
    assert worst <= 0.127, f"secular ratio {worst:.4f}"


def test_noise_hinders_entanglement():
    fidelities = []
    for zeta, (low, high) in FIDELITIES.items():
        bath = BathSpec(BETA, zeta) if zeta else None
        series, _ = run_superposed_input(A, np.zeros(S), CLEAN_G, bath, *CLEAN_AXIS)
        p = series["p_beyond_gate"]
        peak = np.flatnonzero((p[:-1] > 0.1) & (p[1:] <= p[:-1]))[0]  # first maximum past 0.1
        fidelities.append(float(series["bell_fidelity"][peak]))
        assert low <= fidelities[-1] <= high, f"zeta = {zeta}: F = {fidelities[-1]:.6f}"
    assert all(np.diff(fidelities) < 0), f"F = {fidelities} does not fall with zeta"
    assert min(fidelities) >= 0.5
    ratio = secular_ratio(np.zeros(S), CLEAN_G, max(FIDELITIES))
    assert ratio <= 0.127, f"secular ratio {ratio:.4f}"
