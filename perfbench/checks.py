"""Correctness checks on the files one CLI invocation wrote.

Every check returns a list of problems; an empty list means the output is
right. Nothing is compared against stored output: each figure is recomputed
from the manifest (digests, disorder) and from ``reference``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import reference as ref

LN2 = float(np.log(2.0))
SAMPLED_TIMES = 5  # grid points compared against a reference, per realization

COLUMNS = {
    "localized": ("t", "mean_Q", "var_Q", "p_region"),
    "dissipative-transport": ("t", "mean_Q", "var_Q", "p_region"),
    "cnot-classical": ("t", "mean_Q", "var_Q", "p_beyond_gate"),
    "cnot-superposed": ("t", "trace_UU", "trace_DD", "p_beyond_gate", "entropy", "bell_fidelity"),
}


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def grid_length(cfg: dict) -> int:
    return int(round(cfg["t_max"] / cfg["dt"])) + 1


def sampled_rows(length: int) -> np.ndarray:
    return np.linspace(0, length - 1, SAMPLED_TIMES + 1).round().astype(int)[1:]


def check_manifest(out: Path) -> tuple[dict, list[str]]:
    """Every file is listed in the manifest with its sha256, and nothing else is there."""
    manifest = json.loads((out / "manifest.json").read_text())
    listed = manifest["outputs"]
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    problems = []
    if present != set(listed):
        problems.append(f"{out.name}: files {sorted(present)} != manifest {sorted(listed)}")
    for name, digest in listed.items():
        path = out / name
        if path.exists() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
    return manifest, problems


def check_table(name: str, table: dict[str, np.ndarray], columns, rows: int) -> list[str]:
    """Column names, row count, and finiteness (bell_fidelity may be NaN)."""
    problems = []
    if tuple(table) != tuple(columns):
        problems.append(f"{name}: columns {tuple(table)} != {tuple(columns)}")
    for col, values in table.items():
        if values.size != rows:
            problems.append(f"{name}: {col} has {values.size} rows, expected {rows}")
        bad = np.isinf(values) if col.startswith("bell_fidelity") else ~np.isfinite(values)
        if bad.any():
            problems.append(f"{name}: {int(bad.sum())} non-finite values in {col}")
    return problems


def check_aggregate(aggregate: dict[str, np.ndarray], runs: list[dict[str, np.ndarray]]) -> list[str]:
    """Means and quartiles recomputed from the realizations, to 1e-12."""
    problems = []
    if not np.array_equal(aggregate["t"], runs[0]["t"]):
        problems.append("aggregate: time column differs from the realizations")
    for col in runs[0]:
        if col == "t":
            continue
        stack = np.stack([r[col] for r in runs])
        expected = {"mean": stack.mean(axis=0)}
        for q, tag in ((0.25, "q25"), (0.5, "q50"), (0.75, "q75")):
            expected[tag] = np.quantile(stack, q, axis=0)
        for tag, want in expected.items():
            got = aggregate[f"{col}_{tag}"]
            if not np.array_equal(np.isnan(got), np.isnan(want)):
                problems.append(f"aggregate: {col}_{tag} is NaN at other points than recomputed")
                continue
            defined = ~np.isnan(want)
            err = np.max(np.abs(got[defined] - want[defined]), initial=0.0)
            if err > 1e-12:
                problems.append(f"aggregate: {col}_{tag} off by {err:.2e}")
        q25, q50, q75 = (aggregate[f"{col}_{t}"] for t in ("q25", "q50", "q75"))
        defined = ~np.isnan(q50)
        if np.any(q25[defined] > q50[defined]) or np.any(q50[defined] > q75[defined]):
            problems.append(f"aggregate: quartiles of {col} out of order")
    return problems


def check_run(cfg: dict) -> tuple[dict, list[dict[str, np.ndarray]], list[str]]:
    """Checks shared by every ``openchain run`` output directory."""
    out = Path(cfg["output"])
    scenario, count = cfg["scenario"], cfg["ensemble_size"]
    manifest, problems = check_manifest(out)
    rows = grid_length(cfg)
    columns = COLUMNS[scenario]
    runs = []
    for r in range(count):
        name = f"{scenario}_r{r:03d}.csv"
        table = read_csv(out / name)
        problems += check_table(name, table, columns, rows)
        runs.append(table)
    agg_columns = ["t"] + [f"{c}_{t}" for c in columns[1:] for t in ("mean", "q25", "q50", "q75")]
    aggregate = read_csv(out / f"{scenario}_aggregate.csv")
    problems += check_table("aggregate", aggregate, agg_columns, rows)
    if not problems:
        problems += check_aggregate(aggregate, runs)
    if manifest["master_seed"] != cfg["seed"] or len(manifest["realization_seeds"]) != count:
        problems.append("manifest: seeds do not match the config")
    if cfg["sigma"] > 0 and [len(d) for d in manifest["disorder"] or []] != [cfg["s"]] * count:
        problems.append("manifest: disorder is not recorded for every realization")
    return manifest, runs, problems


def compare(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    err = float(np.max(np.abs(got - want)))
    return [f"{label}: off the reference by {err:.2e} (> {tol:g})"] if not err <= tol else []


def bounded(label: str, values: np.ndarray, low: float, high: float, tol: float = 1e-12) -> list[str]:
    if np.all(values >= low - tol) and np.all(values <= high + tol):
        return []
    return [f"{label}: values in [{values.min():.17g}, {values.max():.17g}] leave [{low}, {high}]"]


def _reference_rows(runs, manifest, columns, reference_fn, tol) -> list[str]:
    problems = []
    for r, (table, eps) in enumerate(zip(runs, manifest["disorder"])):
        idx = sampled_rows(table["t"].size)
        want = reference_fn(np.asarray(eps), table["t"][idx])
        for k, col in enumerate(columns):
            problems += compare(f"r{r:03d} {col}", table[col][idx], want[:, k], tol)
    return problems


def check_transport(cfg: dict) -> list[str]:
    manifest, runs, problems = check_run(cfg)
    if problems:
        return problems
    bath = (cfg["beta"], cfg["zeta"])
    problems += _reference_rows(
        runs, manifest, ("mean_Q", "var_Q", "p_region"),
        lambda eps, t: ref.chain_observables(ref.tilted_onsite(eps, cfg["g"]), t, bath), 1e-8,
    )
    for r, table in enumerate(runs):
        problems += bounded(f"r{r:03d} mean_Q", table["mean_Q"], 1.0, cfg["s"])
        problems += bounded(f"r{r:03d} p_region", table["p_region"], 0.0, 1.0)
    return problems


def check_classical(cfg: dict) -> list[str]:
    manifest, runs, problems = check_run(cfg)
    if problems:
        return problems
    bath = (cfg["beta"], cfg["zeta"])
    problems += _reference_rows(
        runs, manifest, ("mean_Q", "var_Q", "p_beyond_gate"),
        lambda eps, t: ref.classical_branch_observables(eps, cfg["a"], cfg["g"], bath, t), 1e-8,
    )
    for r, table in enumerate(runs):
        p = table["p_beyond_gate"]
        if np.min(np.diff(p)) < -1e-6:
            problems.append(f"r{r:03d} p_beyond_gate drops by {-np.min(np.diff(p)):.2e}")
        if p[-1] < 0.8:
            problems.append(f"r{r:03d} p_beyond_gate ends at {p[-1]:.4f} < 0.8")
    return problems


def check_superposed(cfg: dict) -> list[str]:
    manifest, runs, problems = check_run(cfg)
    if problems:
        return problems
    bath = (cfg["beta"], cfg["zeta"])
    for r, (table, eps) in enumerate(zip(runs, manifest["disorder"])):
        tag = f"r{r:03d}"
        for col in ("trace_UU", "trace_DD"):
            problems += compare(f"{tag} {col}", table[col], 0.5, 1e-9)
        s_vn = table["entropy"]
        problems += bounded(f"{tag} entropy", s_vn, 0.0, float(np.log(4.0)))
        if abs(s_vn[-1] - LN2) > 1e-2:
            problems.append(f"{tag} final entropy {s_vn[-1]:.4f} is not ln 2 to 1e-2")
        if abs(s_vn.max() - 1.5 * LN2) > 5e-2:
            problems.append(f"{tag} peak entropy {s_vn.max():.4f} is not 1.5 ln 2 to 5e-2")
        idx = sampled_rows(table["t"].size)
        states = ref.switch_registers(np.asarray(eps), cfg["a"], cfg["g"], bath, table["t"][idx])
        for i, (full, beyond) in zip(idx, states):
            weight = float(np.trace(beyond).real)
            problems += compare(f"{tag} entropy", table["entropy"][i], ref.entropy(full), 1e-8)
            problems += compare(f"{tag} p_beyond_gate", table["p_beyond_gate"][i], weight, 1e-8)
            fid = table["bell_fidelity"][i]
            if weight > 1e-6:
                problems += compare(f"{tag} bell_fidelity", fid, ref.bell_overlap(beyond / weight), 1e-8)
            elif weight < 1e-14 and not np.isnan(fid):
                problems.append(f"{tag} bell_fidelity defined where nothing passed the gate")
    return problems


def check_localized(cfg: dict) -> list[str]:
    manifest, runs, problems = check_run(cfg)
    if problems:
        return problems
    problems += _reference_rows(
        runs, manifest, ("mean_Q", "var_Q", "p_region"),
        lambda eps, t: ref.chain_observables(ref.tilted_onsite(eps, cfg["g"]), t), 1e-9,
    )
    return problems


def check_peak_sweep(cfg: dict, values: list[int]) -> list[str]:
    """Arrival peaks of the clean chain against the closed-form amplitude."""
    out = Path(cfg["output"])
    _, problems = check_manifest(out)
    table = read_csv(out / "peak-scaling_sweep_s.csv")
    problems += check_table("sweep", table, ("s", "t_star", "p_star"), len(values))
    if problems:
        return problems
    if list(table["s"]) != [float(v) for v in values]:
        problems.append(f"sweep: s column {list(table['s'])} != {values}")
    dt = cfg["dt"]
    for s, t_star, p_star in zip(values, table["t_star"], table["p_star"]):
        exact = ref.free_chain_end_probability(s, [t_star - dt, t_star, t_star + dt])
        problems += compare(f"s={s} p_star", p_star, exact[1], 1e-12)
        if max(exact[0], exact[2]) > exact[1] + 1e-12:
            problems.append(f"s={s}: a grid neighbour of t_star={t_star} is higher")
        if not s <= t_star <= 1.1 * s + 10:
            problems.append(f"s={s}: t_star={t_star} outside [s, 1.1 s + 10]")
    slope = float(np.polyfit(np.log(values), np.log(table["p_star"]), 1)[0])
    if not -0.80 <= slope <= -0.55:
        problems.append(f"sweep: log-log slope of p_star vs s is {slope:.3f}, not in [-0.80, -0.55]")
    return problems
