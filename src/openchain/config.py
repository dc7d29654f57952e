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
    branch = U                         ; cnot-classical only

    [grid]
    t_max = 1000                       ; a whole number of dt steps
    dt = 1.0

Chain, layout and grid fields default to each scenario's standard desk-scale
parameters (see SCENARIOS), so a minimal file only names the scenario
and, for open-system runs, the bath. Bath parameters are never defaulted, and
a bath or layout field that the scenario does not read is an error.
Validation reports every violation at once, not just the first.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass
from typing import Any

from .lindblad import _whole_steps

#: each scenario's chain/layout/grid defaults (desk-scale figures); a scenario
#: reads a layout field (a, branch) only if its row has a default for it
SCENARIOS: dict[str, dict[str, Any]] = {
    "ballistic": {"s": 20, "sigma": 0.0, "g": 0.0, "t_max": 40.0, "dt": 0.05},
    "localized": {"s": 20, "sigma": 0.5, "g": 0.0, "t_max": 500.0, "dt": 0.5},
    "bloch": {"s": 20, "sigma": 0.0, "g": 2.0, "t_max": 40.0, "dt": 0.05},
    "dissipative-transport": {"s": 20, "sigma": 0.5, "g": 2.0, "t_max": 1000.0, "dt": 1.0},
    "cnot-classical": {"s": 22, "a": 9, "sigma": 0.5, "g": 0.0, "t_max": 200.0, "dt": 0.1,
                       "branch": "U"},
    "cnot-superposed": {"s": 22, "a": 9, "sigma": 0.5, "g": 2.0, "t_max": 2000.0, "dt": 1.0},
    # peak-scaling: t_max omitted -> scan window auto-sized to _scan_t_max(s) = 1.5 s + 10
    "peak-scaling": {"s": 50, "sigma": 0.0, "g": 0.0, "dt": 0.05},
}

#: the scenarios that read a [bath] section, each mapped to whether it requires one
_BATH = {"dissipative-transport": True, "cnot-classical": False, "cnot-superposed": True}

SWEEPABLE = ("s", "sigma", "g", "zeta", "beta")

_SECTIONS = {
    "experiment": ("scenario", "seed", "ensemble_size", "output"),
    "chain": ("s", "sigma", "g"),
    "bath": ("beta", "zeta"),
    "layout": ("a", "branch"),
    "grid": ("t_max", "dt"),
}


def _scan_t_max(s: int) -> float:
    """peak-scaling's default scan window 0 .. 1.5 s + 10 for an s-site chain."""
    return 1.5 * s + 10.0


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


#: numeric fields and their types, in the order their violations are reported
_NUMBERS = {"s": int, "sigma": float, "g": float, "seed": int, "beta": float, "zeta": float,
            "a": int, "t_max": float, "dt": float, "ensemble_size": int}
#: lower bound of a numeric field and whether the field may equal it
_LOWER_BOUNDS = {"s": (2, True), "sigma": (0, True), "g": (0, True), "seed": (0, True),
                 "t_max": (0, False), "dt": (0, False), "ensemble_size": (1, True),
                 "beta": (0, False), "zeta": (0, True)}


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


def _bound_violations(values: dict[str, Any]) -> list[str]:
    """One line per field of ``values`` (None skipped) below its lower bound."""
    found = []
    for key, (bound, inclusive) in _LOWER_BOUNDS.items():
        value = values.get(key)
        if value is not None and (value < bound if inclusive else value <= bound):
            found.append(f"{key}: must be {'>=' if inclusive else '>'} {bound}, got {value}")
    return found


def range_violations(config: ExperimentConfig) -> list[str]:
    """The out-of-range fields of ``config``: checked for a config file and each sweep value."""
    found = _bound_violations(asdict(config))
    if config.branch not in ("U", "D"):
        found.append(f"branch: must be U or D, got {config.branch!r}")
    t_max = config.t_max
    if config.scenario == "peak-scaling":
        # the arrival peak is taken on the clean, untilted chain
        for key in ("sigma", "g"):
            if value := getattr(config, key):
                found.append(f"{key}: peak-scaling uses the clean chain, got {value}")
        t_max = _scan_t_max(config.s) if t_max is None else t_max
    if t_max is not None and t_max > 0 and config.dt > 0 and not _whole_steps(t_max, config.dt):
        window = "" if config.t_max is not None else " (scan window 1.5 s + 10)"
        found.append(f"t_max: must be a whole number >= 1 of dt = {config.dt} steps, "
                     f"got {t_max}{window}")
    a = config.a
    if "a" in SCENARIOS[config.scenario] and not 1 <= a <= config.s - 6:
        found.append(f"a: need 1 <= a <= s - 6, got a={a}, s={config.s}")
    return found


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

    values = {key: _parse_number(raw, key, kind, violations) for key, kind in _NUMBERS.items()}
    if scenario is None:
        # still surface whatever field problems are visible without defaults
        raise ConfigError(violations + _bound_violations(values))
    # the scenario's defaults, overridden by what the file gives; the dataclass supplies the rest
    given = {key: value for key, value in values.items() if value is not None}
    given.update((key, raw[key].strip()) for key in ("branch", "output") if key in raw)
    config = ExperimentConfig(scenario, **{**SCENARIOS[scenario], **given})
    violations += range_violations(config)

    reads = {*SCENARIOS[scenario], *(("beta", "zeta") if scenario in _BATH else ())}
    violations += [f"{key}: scenario {scenario} does not read it, got {raw[key]}"
                   for key in ("beta", "zeta", "a", "branch") if key in raw and key not in reads]
    if _BATH.get(scenario):
        violations += [f"{key}: required for scenario {scenario} (section [bath])"
                       for key in ("beta", "zeta") if key not in raw]
    if ("beta" in raw) != ("zeta" in raw):
        violations.append("beta and zeta must be given together")

    if violations:
        raise ConfigError(violations)
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        return validate_config(fh.read())
