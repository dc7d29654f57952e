import re
from pathlib import Path

import pytest

from openchain.cli import main
from openchain.config import ConfigError, validate_config

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

FIG_STYLE_SWITCH = """
[experiment]
scenario = cnot-classical

[chain]
s = 22
sigma = 0.5
g = 2.0

[bath]
beta = 1.0
zeta = 0.05

[layout]
a = 9
"""

FULL_TRANSPORT = """
[experiment]
scenario = dissipative-transport

[chain]
sigma = 0.5
g = 2.0

[bath]
beta = 1.0
zeta = 0.05

[grid]
t_max = 100
dt = 1.0
"""

#: per scenario: config sections it never reads, and the keys to be reported
#: (ballistic's a = 30 would break the switch layout rule, which it does not read)
UNREAD_FIELDS = {
    "ballistic": ("[bath]\nbeta = 1\nzeta = 5\n[layout]\na = 30\nbranch = D\n",
                  ["beta", "zeta", "a", "branch"]),
    "localized": ("[bath]\nbeta = 1\nzeta = 0\n", ["beta", "zeta"]),
    "bloch": ("[layout]\nbranch = U\n", ["branch"]),
    "peak-scaling": ("[bath]\nbeta = 1\nzeta = 0.05\n[layout]\na = 3\n", ["beta", "zeta", "a"]),
    "dissipative-transport": ("[bath]\nbeta = 1\nzeta = 0.05\n[layout]\nbranch = D\n", ["branch"]),
    "cnot-superposed": ("[bath]\nbeta = 1\nzeta = 0.05\n[layout]\nbranch = U\n", ["branch"]),
}


class TestValidateConfig:
    def test_minimal_scenario_uses_defaults(self):
        config = validate_config("[experiment]\nscenario = ballistic\n")
        assert config.s == 20
        assert config.t_max == 40.0
        assert config.dt == 0.05
        assert config.ensemble_size == 1

    def test_switch_config_accepted(self):
        config = validate_config(FIG_STYLE_SWITCH)
        assert config.scenario == "cnot-classical"
        assert (config.s, config.a) == (22, 9)
        assert config.has_bath()
        assert config.t_max == 200.0  # scenario default

    def test_missing_beta_named(self):
        text = "[experiment]\nscenario = dissipative-transport\n[bath]\nzeta = 0.05\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("beta" in v for v in err.value.violations)

    def test_bad_dt(self):
        text = "[experiment]\nscenario = ballistic\n[grid]\ndt = -0.1\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any(v.startswith("dt") for v in err.value.violations)

    def test_all_violations_reported_together(self):
        text = """
[experiment]
scenario = cnot-superposed
ensemble_size = 0

[chain]
s = 22
sigma = -1

[grid]
dt = 0
"""
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        joined = "\n".join(err.value.violations)
        for name in ("sigma", "dt", "ensemble_size", "beta", "zeta"):
            assert name in joined
        assert len(err.value.violations) >= 5

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            validate_config("[experiment]\nscenario = warp-drive\n")

    def test_unknown_key_flagged(self):
        text = "[experiment]\nscenario = ballistic\n[chain]\nfoo = 1\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("foo" in v for v in err.value.violations)

    def test_layout_bounds(self):
        text = "[experiment]\nscenario = cnot-classical\n[chain]\ns = 10\n[layout]\na = 5\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any(v.startswith("a:") for v in err.value.violations)

    def test_negative_seed(self):
        # numpy's SeedSequence rejects a negative entropy only once the run starts
        assert validate_config("[experiment]\nscenario = ballistic\nseed = 0\n").seed == 0
        with pytest.raises(ConfigError) as err:
            validate_config("[experiment]\nscenario = ballistic\nseed = -1\n")
        assert err.value.violations == ["seed: must be >= 0, got -1"]

    def test_bath_must_come_together(self):
        text = "[experiment]\nscenario = cnot-classical\n[bath]\nbeta = 1.0\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("together" in v for v in err.value.violations)

    def test_peak_scaling_t_max_optional(self):
        config = validate_config("[experiment]\nscenario = peak-scaling\n")
        assert config.t_max is None

    def test_peak_scaling_rejects_disorder_and_tilt(self):
        text = "[experiment]\nscenario = peak-scaling\n[chain]\nsigma = 0.5\ng = 1.0\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any(v.startswith("sigma:") for v in err.value.violations)
        assert any(v.startswith("g:") for v in err.value.violations)
        clean = "[experiment]\nscenario = peak-scaling\n[chain]\nsigma = 0\ng = 0.0\n"
        assert validate_config(clean).sigma == 0.0

    @pytest.mark.parametrize("scenario", UNREAD_FIELDS)
    def test_unread_fields_flagged(self, scenario):
        # a field the scenario never reads would otherwise be silently ignored
        extra, keys = UNREAD_FIELDS[scenario]
        with pytest.raises(ConfigError) as err:
            validate_config(f"[experiment]\nscenario = {scenario}\n{extra}")
        assert sorted(v.split(":")[0] for v in err.value.violations) == sorted(keys)

    def test_switch_reads_its_fields(self):
        text = FIG_STYLE_SWITCH + "branch = D\n"
        config = validate_config(text)
        assert (config.beta, config.zeta, config.a, config.branch) == (1.0, 0.05, 9, "D")

    @pytest.mark.parametrize(
        "scenario, t_max, dt",
        [
            ("ballistic", 1, 5),
            ("ballistic", 10, 3),
            ("bloch", 0.04, 0.05),
            ("peak-scaling", 10, 3),
            ("ballistic", 1e300, 1e-300),  # t_max / dt overflows to inf
        ],
    )
    def test_t_max_not_whole_steps(self, scenario, t_max, dt):
        # the grid would step by t_max / round(t_max / dt), not by the recorded dt
        text = f"[experiment]\nscenario = {scenario}\n[grid]\nt_max = {t_max}\ndt = {dt}\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert [v.split(":")[0] for v in err.value.violations] == ["t_max"]

    @pytest.mark.parametrize(
        "scenario, fields",
        [
            ("ballistic", "[grid]\ndt = 0.3\n"),  # default t_max 40
            ("peak-scaling", "[grid]\ndt = 0.3\n"),  # default s = 50: scan window 85
            ("peak-scaling", "[chain]\ns = 21\n[grid]\ndt = 0.2\n"),  # scan window 41.5
        ],
        ids=["ballistic", "peak-scaling", "peak-scaling-s21"],
    )
    def test_default_t_max_not_whole_steps(self, scenario, fields):
        text = f"[experiment]\nscenario = {scenario}\n{fields}"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert [v.split(":")[0] for v in err.value.violations] == ["t_max"]

    @pytest.mark.parametrize("t_max", ["0", "-5"])
    @pytest.mark.parametrize("scenario", ["scenario = ballistic\n", ""], ids=["ballistic", "none"])
    def test_t_max_not_positive(self, scenario, t_max):
        # one t_max line, also from a file with no scenario, whose defaults are unknown
        text = f"[experiment]\n{scenario}[grid]\nt_max = {t_max}\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        found = [v for v in err.value.violations if v.startswith("t_max")]
        assert found == [f"t_max: must be > 0, got {float(t_max)}"]

    def test_scan_window_whole_steps(self):
        text = "[experiment]\nscenario = peak-scaling\n[chain]\ns = 20\n[grid]\ndt = 0.2\n"
        assert validate_config(text).t_max is None  # the runner scans 0 .. 40 in 200 steps

    @pytest.mark.parametrize("t_max, dt", [(40, 0.05), (0.3, 0.1), (5000, 0.5), (1, 1)])
    def test_t_max_whole_steps(self, t_max, dt):
        text = f"[experiment]\nscenario = ballistic\n[grid]\nt_max = {t_max}\ndt = {dt}\n"
        assert validate_config(text).t_max == t_max

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sigma", "nan"),
            ("g", "nan"),
            ("g", "-inf"),
            ("t_max", "inf"),
            ("dt", "nan"),
            ("beta", "inf"),
            ("zeta", "nan"),
        ],
    )
    def test_non_finite_field(self, key, value):
        # NaN fails every comparison, so range checks alone let it through
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", FULL_TRANSPORT, flags=re.M)
        assert validate_config(FULL_TRANSPORT).scenario == "dissipative-transport"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert err.value.violations == [f"{key}: must be finite, got {value!r}"]

    def test_non_numeric_field(self):
        text = "[experiment]\nscenario = ballistic\n[chain]\ns = twenty\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("s:" in v for v in err.value.violations)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_validates(path, capsys):
    assert main(["validate", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out
