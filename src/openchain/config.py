"""Experiment configuration: INI-style files with per-scenario defaults.

A config is a key-value file with sections::

    [experiment]
    scenario = dissipative-transport   ; required
    seed = 42                          ; master seed (default 0)
    ensemble_size = 1
    output = out

    [chain]
    s = 20
    sigma = 0.5
    g = 2.0

    [bath]
    beta = 1.0                         ; required for bath scenarios
    zeta = 0.05

    [layout]
    a = 9                              ; switch scenarios only
    branch = U

    [grid]
    t_max = 1000
    dt = 1.0

Chain, layout and grid fields default to each scenario's standard desk-scale
parameters (see SCENARIO_DEFAULTS), so a minimal file only names the scenario
and, for open-system runs, the bath. Bath parameters are never defaulted.
Validation reports every violation at once, not just the first.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Any

SCENARIOS = (
    "ballistic",
    "localized",
    "bloch",
    "dissipative-transport",
    "cnot-classical",
    "cnot-superposed",
    "peak-scaling",
)

BATH_REQUIRED = {"dissipative-transport", "cnot-superposed"}
LAYOUT_REQUIRED = {"cnot-classical", "cnot-superposed"}

#: chain/layout/grid defaults per scenario (desk-scale figures)
SCENARIO_DEFAULTS: dict[str, dict[str, Any]] = {
    "ballistic": {"s": 20, "sigma": 0.0, "g": 0.0, "t_max": 40.0, "dt": 0.05},
    "localized": {"s": 20, "sigma": 0.5, "g": 0.0, "t_max": 500.0, "dt": 0.5},
    "bloch": {"s": 20, "sigma": 0.0, "g": 2.0, "t_max": 40.0, "dt": 0.05},
    "dissipative-transport": {"s": 20, "sigma": 0.5, "g": 2.0, "t_max": 1000.0, "dt": 1.0},
    "cnot-classical": {"s": 22, "a": 9, "sigma": 0.5, "g": 0.0, "t_max": 200.0, "dt": 0.1},
    "cnot-superposed": {"s": 22, "a": 9, "sigma": 0.5, "g": 2.0, "t_max": 2000.0, "dt": 1.0},
    # peak-scaling: t_max omitted -> scan window auto-sized to 1.5 s + 10
    "peak-scaling": {"s": 50, "sigma": 0.0, "g": 0.0, "dt": 0.05},
}

SWEEPABLE = ("s", "sigma", "g", "zeta", "beta")

_SECTIONS = {
    "experiment": ("scenario", "seed", "ensemble_size", "output"),
    "chain": ("s", "sigma", "g"),
    "bath": ("beta", "zeta"),
    "layout": ("a", "branch"),
    "grid": ("t_max", "dt"),
}


class ConfigError(ValueError):
    """Invalid experiment config; ``violations`` lists every problem found."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid config:\n  " + "\n  ".join(violations))


@dataclass
class ExperimentConfig:
    scenario: str
    s: int
    sigma: float
    g: float
    seed: int = 0
    beta: float | None = None
    zeta: float | None = None
    a: int | None = None
    branch: str = "U"
    t_max: float | None = None
    dt: float = 0.05
    ensemble_size: int = 1
    output: str = "out"

    def has_bath(self) -> bool:
        return self.beta is not None and self.zeta is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "s": self.s,
            "sigma": self.sigma,
            "g": self.g,
            "seed": self.seed,
            "beta": self.beta,
            "zeta": self.zeta,
            "a": self.a,
            "branch": self.branch,
            "t_max": self.t_max,
            "dt": self.dt,
            "ensemble_size": self.ensemble_size,
            "output": self.output,
        }


def _parse_number(raw: dict, key: str, kind, violations: list[str]):
    if key not in raw:
        return None
    try:
        value = kind(raw[key])
    except ValueError:
        violations.append(f"{key}: expected {kind.__name__}, got {raw[key]!r}")
        return None
    if not math.isfinite(value):
        violations.append(f"{key}: must be finite, got {raw[key]!r}")
        return None
    return value


def validate_config(text: str) -> ExperimentConfig:
    """Parse and cross-validate a config; raises ConfigError with all violations."""
    violations: list[str] = []
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from exc

    raw: dict[str, str] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            violations.append(f"unknown section [{section}]")
            continue
        for key, value in parser.items(section):
            if key not in _SECTIONS[section]:
                violations.append(f"unknown key {key!r} in section [{section}]")
            else:
                raw[key] = value

    scenario = raw.get("scenario")
    if scenario is None:
        violations.append("scenario: missing (section [experiment])")
    elif scenario not in SCENARIOS:
        violations.append(f"scenario: {scenario!r} is not one of {', '.join(SCENARIOS)}")
        scenario = None

    s = _parse_number(raw, "s", int, violations)
    sigma = _parse_number(raw, "sigma", float, violations)
    g = _parse_number(raw, "g", float, violations)
    seed = _parse_number(raw, "seed", int, violations)
    beta = _parse_number(raw, "beta", float, violations)
    zeta = _parse_number(raw, "zeta", float, violations)
    a = _parse_number(raw, "a", int, violations)
    t_max = _parse_number(raw, "t_max", float, violations)
    dt = _parse_number(raw, "dt", float, violations)
    ensemble = _parse_number(raw, "ensemble_size", int, violations)
    branch = raw.get("branch", "U").strip()
    output = raw.get("output", "out").strip()

    if scenario is None:
        # still surface whatever field problems are visible without defaults
        if dt is not None and dt <= 0:
            violations.append(f"dt: must be > 0, got {dt}")
        if sigma is not None and sigma < 0:
            violations.append(f"sigma: must be >= 0, got {sigma}")
        raise ConfigError(violations)
    defaults = SCENARIO_DEFAULTS[scenario]

    s = defaults["s"] if s is None else s
    sigma = defaults["sigma"] if sigma is None else sigma
    g = defaults["g"] if g is None else g
    a = defaults.get("a") if a is None else a
    t_max = defaults.get("t_max") if t_max is None else t_max
    dt = defaults["dt"] if dt is None else dt
    seed = 0 if seed is None else seed
    ensemble = 1 if ensemble is None else ensemble

    if s is not None and s < 2:
        violations.append(f"s: must be >= 2, got {s}")
    if sigma is not None and sigma < 0:
        violations.append(f"sigma: must be >= 0, got {sigma}")
    if g is not None and g < 0:
        violations.append(f"g: must be >= 0, got {g}")
    if dt is not None and dt <= 0:
        violations.append(f"dt: must be > 0, got {dt}")
    if ensemble is not None and ensemble < 1:
        violations.append(f"ensemble_size: must be >= 1, got {ensemble}")
    if branch not in ("U", "D"):
        violations.append(f"branch: must be U or D, got {branch!r}")

    if scenario == "peak-scaling":
        if t_max is not None and t_max <= 0:
            violations.append(f"t_max: must be > 0, got {t_max}")
        # the arrival peak is taken on the clean, untilted chain
        for key, value in (("sigma", sigma), ("g", g)):
            if value:
                violations.append(f"{key}: peak-scaling uses the clean chain, got {value}")
    else:
        if t_max is None:
            violations.append("t_max: missing (section [grid])")
        elif t_max <= 0:
            violations.append(f"t_max: must be > 0, got {t_max}")

    if scenario in BATH_REQUIRED:
        if beta is None and "beta" not in raw:
            violations.append("beta: required for scenario "
                              f"{scenario} (section [bath])")
        if zeta is None and "zeta" not in raw:
            violations.append("zeta: required for scenario "
                              f"{scenario} (section [bath])")
    if ("beta" in raw) != ("zeta" in raw):
        violations.append("beta and zeta must be given together")
    if beta is not None and beta <= 0:
        violations.append(f"beta: must be > 0, got {beta}")
    if zeta is not None and zeta < 0:
        violations.append(f"zeta: must be >= 0, got {zeta}")

    if scenario in LAYOUT_REQUIRED:
        if a is None:
            violations.append(f"a: required for scenario {scenario} (section [layout])")
        elif s is not None and (a < 1 or s < a + 6):
            violations.append(f"a: need 1 <= a <= s - 6, got a={a}, s={s}")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(
        scenario=scenario,
        s=s,
        sigma=sigma,
        g=g,
        seed=seed,
        beta=beta,
        zeta=zeta,
        a=a,
        branch=branch,
        t_max=t_max,
        dt=dt,
        ensemble_size=ensemble,
        output=output,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        return validate_config(fh.read())
