import pytest

from openchain.config import ConfigError, validate_config

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

    def test_non_numeric_field(self):
        text = "[experiment]\nscenario = ballistic\n[chain]\ns = twenty\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("s:" in v for v in err.value.violations)
