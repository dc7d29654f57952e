import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from support import read_csv

import openchain
from openchain.chains import sample_disorder
from openchain.cli import main
from openchain.config import validate_config
from openchain.lindblad import time_grid
from openchain.runner import (
    aggregate_columns,
    realization_seed,
    run_realization,
    run_scenario,
    sweep,
)


def make_config(tmp_path, scenario, extra="", out="out"):
    return validate_config(
        f"[experiment]\nscenario = {scenario}\noutput = {tmp_path / out}\n{extra}"
    )


class TestRunScenario:
    def test_ballistic_row_count_and_columns(self, tmp_path):
        config = make_config(
            tmp_path, "ballistic", "[grid]\nt_max = 40\ndt = 0.1\n"
        )
        manifest = run_scenario(config)
        data = read_csv(tmp_path / "out" / "ballistic_r000.csv")
        assert list(data) == ["t", "mean_Q", "var_Q", "p_region"]
        assert data["t"].size == 401
        assert set(manifest["outputs"]) == {
            "ballistic_r000.csv",
            "ballistic_aggregate.csv",
        }

    def test_dissipative_columns(self, tmp_path):
        config = make_config(
            tmp_path,
            "dissipative-transport",
            "[bath]\nbeta = 1.0\nzeta = 0.05\n[grid]\nt_max = 50\ndt = 1\n",
        )
        run_scenario(config)
        data = read_csv(tmp_path / "out" / "dissipative-transport_r000.csv")
        assert list(data) == ["t", "mean_Q", "var_Q", "p_region"]

    def test_superposed_columns(self, tmp_path):
        config = make_config(
            tmp_path,
            "cnot-superposed",
            "[bath]\nbeta = 1.0\nzeta = 0.05\n[grid]\nt_max = 20\ndt = 1\n",
        )
        run_scenario(config)
        data = read_csv(tmp_path / "out" / "cnot-superposed_r000.csv")
        assert list(data) == [
            "t",
            "trace_UU",
            "trace_DD",
            "p_beyond_gate",
            "entropy",
            "bell_fidelity",
        ]

    def test_single_realization_aggregate_is_identity(self, tmp_path):
        config = make_config(
            tmp_path, "localized", "[grid]\nt_max = 20\ndt = 1\n"
        )
        run_scenario(config)
        single = read_csv(tmp_path / "out" / "localized_r000.csv")
        agg = read_csv(tmp_path / "out" / "localized_aggregate.csv")
        assert np.array_equal(agg["mean_Q_mean"], single["mean_Q"])
        assert np.array_equal(agg["mean_Q_q50"], single["mean_Q"])

    def test_aggregate_columns(self):
        t = np.arange(3.0)
        runs = [{"t": t, "x": np.array([1.0, 4.0, 2.0]) * k} for k in (1.0, 3.0, 2.0)]
        stack = np.stack([r["x"] for r in runs])
        agg = aggregate_columns(runs)
        assert agg["t"] is t
        assert np.array_equal(agg["x_mean"], stack.mean(axis=0))
        for tag, q in (("q25", 0.25), ("q50", 0.5), ("q75", 0.75)):
            assert np.array_equal(agg[f"x_{tag}"], np.quantile(stack, q, axis=0))
        # the quartiles partition a stacked copy, never a realization's column
        assert np.array_equal(runs[0]["x"], [1.0, 4.0, 2.0])
        with pytest.raises(ValueError, match="time grid"):
            aggregate_columns([runs[0], {"t": t + 1.0, "x": t}])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: arrays(
                np.float64,
                (n, 4),
                # NaN, signed zeros, subnormals and repeats, up to 1e±300 (no overflow)
                elements=st.sampled_from([0.0, -0.0, np.nan, 5e-324, -5e-324, 1.0, -1e300])
                | st.floats(-1e300, 1e300),
            )
        )
    )
    @example(np.array([[-0.0, 0.0, np.nan, 5e-324]]))
    @example(np.array([[0.0], [-0.0], [-0.0], [1.0]]))
    def test_aggregate_quartiles_are_numpys_bit_for_bit(self, stack):
        expected = np.quantile(stack, (0.25, 0.5, 0.75), axis=0)
        agg = aggregate_columns([{"x": row} for row in stack])
        for tag, want in zip(("q25", "q50", "q75"), expected):
            got = agg[f"x_{tag}"]
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_reproducible_and_thread_invariant(self, tmp_path):
        extra = "ensemble_size = 3\n[grid]\nt_max = 20\ndt = 1\n[chain]\nsigma = 0.5\n"
        config_a = make_config(tmp_path, "localized", extra, out="a")
        config_b = make_config(tmp_path, "localized", extra, out="b")
        run_scenario(config_a, workers=1)
        run_scenario(config_b, workers=2)
        for name in ["localized_r000.csv", "localized_r002.csv", "localized_aggregate.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_pool_no_larger_than_the_jobs(self, tmp_path, monkeypatch):
        # two realizations need two worker processes, whatever --workers asks for
        import concurrent.futures

        sizes = []
        real = concurrent.futures.ProcessPoolExecutor

        def recording_pool(*args, **kwargs):
            sizes.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        extra = "ensemble_size = 2\n[grid]\nt_max = 5\ndt = 1\n"
        run_scenario(make_config(tmp_path, "localized", extra), workers=6)
        assert sizes == [2]

    def test_manifest_contents(self, tmp_path):
        config = make_config(
            tmp_path,
            "localized",
            "seed = 7\nensemble_size = 2\n[grid]\nt_max = 10\ndt = 1\n",
        )
        run_scenario(config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["realization_seeds"] == [
            realization_seed(7, 0),
            realization_seed(7, 1),
        ]
        assert len(manifest["disorder"]) == 2
        assert len(manifest["disorder"][0]) == 20
        # the recorded disorder reads back bit-exactly as each realization's draw
        for r, recorded in enumerate(manifest["disorder"]):
            assert np.array_equal(recorded, sample_disorder(20, 0.5, realization_seed(7, r)))
        import hashlib

        for name, digest in manifest["outputs"].items():
            payload = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == digest

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_returns_the_manifest_it_writes(self, tmp_path, command):
        # the manifest is one dict: what run_scenario and sweep return is what they wrote
        config = make_config(tmp_path, "localized", "ensemble_size = 2\n[grid]\nt_max = 2\ndt = 1\n")
        manifest = run_scenario(config) if command == "run" else sweep(config, "sigma", [0.1, 0.5])
        assert manifest == json.loads((tmp_path / "out" / "manifest.json").read_text())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_manifest_records_the_numeric_stack(self, tmp_path, command):
        config = make_config(tmp_path, "ballistic", "[grid]\nt_max = 2\ndt = 1\n")
        if command == "run":
            run_scenario(config)
        else:
            sweep(config, "s", [6, 8])
        environment = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
        keys = {"python", "numpy", "blas", "blas_version", "blas_threads", "cpu_count"}
        assert set(environment) == keys
        assert all(environment[key] for key in keys)

    def test_manifest_reads_the_blas_thread_count(self):
        # a fresh process, since OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads it
        src = str(Path(openchain.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", "from openchain.runner import _numeric_environment as e; "
             "print(e()['blas_threads'])"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "1"

    def test_different_seeds_differ(self, tmp_path):
        extra = "[chain]\nsigma = 0.5\n[grid]\nt_max = 10\ndt = 1\n"
        run_scenario(make_config(tmp_path, "localized", "seed = 1\n" + extra, out="s1"))
        run_scenario(make_config(tmp_path, "localized", "seed = 2\n" + extra, out="s2"))
        a = (tmp_path / "s1" / "localized_r000.csv").read_text()
        b = (tmp_path / "s2" / "localized_r000.csv").read_text()
        assert a != b


class TestAllScenarios:
    @pytest.mark.parametrize(
        "scenario,extra",
        [
            ("ballistic", "[grid]\nt_max = 5\ndt = 1\n"),
            ("localized", "[grid]\nt_max = 5\ndt = 1\n"),
            ("bloch", "[grid]\nt_max = 5\ndt = 1\n"),
            (
                "dissipative-transport",
                "[bath]\nbeta = 1\nzeta = 0.05\n[grid]\nt_max = 5\ndt = 1\n",
            ),
            ("cnot-classical", "[grid]\nt_max = 5\ndt = 1\n"),
            (
                "cnot-classical",
                "[chain]\ng = 2\n[bath]\nbeta = 1\nzeta = 0.05\n"
                "[grid]\nt_max = 5\ndt = 1\n[layout]\nbranch = D\n",
            ),
            (
                "cnot-superposed",
                "[bath]\nbeta = 1\nzeta = 0.05\n[grid]\nt_max = 5\ndt = 1\n",
            ),
            ("peak-scaling", ""),
        ],
    )
    def test_scenario_produces_outputs(self, tmp_path, scenario, extra):
        manifest = run_scenario(make_config(tmp_path, scenario, extra))
        assert f"{scenario}_r000.csv" in manifest["outputs"]
        assert f"{scenario}_aggregate.csv" in manifest["outputs"]

    def test_long_grid_of_inexact_step(self, tmp_path):
        # beyond t = 4096 linspace rounds 0.1 steps to the float spacing 2**-40
        config = make_config(
            tmp_path, "cnot-classical", "[chain]\ns = 10\n[layout]\na = 3\n[grid]\nt_max = 5000\ndt = 0.1\n"
        )
        columns = run_realization(config, realization_seed(config.seed, 0))
        assert np.array_equal(columns["t"], time_grid(5000, 0.1))
        assert all(np.isfinite(values).all() for values in columns.values())


class TestSweep:
    def test_peak_scaling_rows(self, tmp_path):
        config = make_config(tmp_path, "peak-scaling")
        sweep(config, "s", [20, 30, 40])
        table = read_csv(tmp_path / "out" / "peak-scaling_sweep_s.csv")
        assert list(table) == ["s", "t_star", "p_star"]
        assert table["s"].tolist() == [20.0, 30.0, 40.0]
        # arrival time scales with the chain size
        assert np.all(np.diff(table["t_star"]) > 0)

    def test_single_value_matches_run_scenario(self, tmp_path):
        extra = "ensemble_size = 2\n[chain]\nsigma = 0.5\n[grid]\nt_max = 10\ndt = 1\n"
        config = make_config(tmp_path, "localized", extra)
        run_scenario(config)
        agg = read_csv(tmp_path / "out" / "localized_aggregate.csv")
        sweep(config, "sigma", [0.5])
        row = read_csv(tmp_path / "out" / "localized_sweep_sigma.csv")
        assert row["mean_Q"][0] == agg["mean_Q_mean"][-1]
        assert row["p_region"][0] == agg["p_region_mean"][-1]

    def test_unknown_parameter(self, tmp_path):
        with pytest.raises(ValueError):
            sweep(make_config(tmp_path, "ballistic"), "flux", [1.0])

    def test_byte_identical_across_runs(self, tmp_path):
        config_a = make_config(tmp_path, "peak-scaling", "seed = 5\n", out="a")
        config_b = make_config(tmp_path, "peak-scaling", "seed = 5\n", out="b")
        sweep(config_a, "s", [15, 25], workers=1)
        sweep(config_b, "s", [15, 25], workers=2)
        assert (tmp_path / "a" / "peak-scaling_sweep_s.csv").read_bytes() == (
            tmp_path / "b" / "peak-scaling_sweep_s.csv"
        ).read_bytes()

    def test_one_process_pool_per_sweep(self, tmp_path, monkeypatch):
        import concurrent.futures

        pools = []
        real = concurrent.futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        config = make_config(tmp_path, "peak-scaling", "ensemble_size = 2\n")
        sweep(config, "s", [10, 12, 14], workers=2)
        assert len(pools) == 1
        table = read_csv(tmp_path / "out" / "peak-scaling_sweep_s.csv")
        assert table["s"].tolist() == [10.0, 12.0, 14.0]

    def test_values_run_in_one_pool(self, tmp_path, monkeypatch):
        # one realization per value: the values themselves are the parallel jobs
        import concurrent.futures

        pools = []
        real = concurrent.futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        values = [10, 12, 14, 16]
        sweep(make_config(tmp_path, "peak-scaling", out="serial"), "s", values, workers=1)
        assert pools == []
        sweep(make_config(tmp_path, "peak-scaling", out="pooled"), "s", values, workers=2)
        assert len(pools) == 1
        assert (tmp_path / "serial" / "peak-scaling_sweep_s.csv").read_bytes() == (
            tmp_path / "pooled" / "peak-scaling_sweep_s.csv"
        ).read_bytes()


class TestCli:
    def write_config(self, tmp_path, text):
        path = tmp_path / "config.ini"
        path.write_text(text)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "[experiment]\nscenario = ballistic\n")
        assert main(["validate", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "[experiment]\nscenario = dissipative-transport\n"
        )
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "beta" in err and "zeta" in err

    def test_run_writes_files(self, tmp_path):
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = ballistic\noutput = {tmp_path / 'out'}\n"
            "[grid]\nt_max = 10\ndt = 0.5\n",
        )
        assert main(["run", path]) == 0
        assert (tmp_path / "out" / "ballistic_r000.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_sweep_cli(self, tmp_path):
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = peak-scaling\noutput = {tmp_path / 'out'}\n",
        )
        assert main(["sweep", path, "--vary", "s", "--values", "12,16"]) == 0
        table = read_csv(tmp_path / "out" / "peak-scaling_sweep_s.csv")
        assert table["s"].tolist() == [12.0, 16.0]

    def test_sweep_peak_scaling_sigma_exit_2(self, tmp_path, capsys):
        # the arrival peak ignores disorder, so such a sweep would write
        # identical rows
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = peak-scaling\noutput = {tmp_path / 'out'}\n",
        )
        assert main(["sweep", path, "--vary", "sigma", "--values", "0,0.5,2"]) == 2
        assert "peak-scaling" in capsys.readouterr().err
        assert not (tmp_path / "out" / "peak-scaling_sweep_sigma.csv").exists()

    def test_sweep_non_integer_s_exit_2(self, tmp_path, capsys):
        # s = 20.7 must not run (and be recorded) as a 20-site chain
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = peak-scaling\noutput = {tmp_path / 'out'}\n",
        )
        assert main(["sweep", path, "--vary", "s", "--values", "20.7,30.2"]) == 2
        assert "20.7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_uneven_scan_window_exit_2(self, tmp_path, capsys, monkeypatch):
        # s = 21 scans 0 .. 41.5 = 207.5 steps of 0.2, which would run on a 0.2005 step
        import openchain.runner as runner_mod

        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = peak-scaling\noutput = {tmp_path / 'out'}\n"
            "[chain]\ns = 20\n[grid]\ndt = 0.2\n",
        )
        assert main(["sweep", path, "--vary", "s", "--values", "20,22"]) == 0
        jobs = []
        monkeypatch.setattr(runner_mod, "_run_jobs", lambda batch, workers: jobs.append(batch))
        assert main(["sweep", path, "--vary", "s", "--values", "20,21,23"]) == 2
        assert "s = [21, 23]" in capsys.readouterr().err
        assert jobs == []

    @pytest.mark.parametrize("vary, value", [("beta", "nan"), ("zeta", "inf"), ("sigma", "nan")])
    def test_sweep_non_finite_value_exit_2(self, tmp_path, capsys, monkeypatch, vary, value):
        import openchain.runner as runner_mod

        jobs = []
        monkeypatch.setattr(runner_mod, "_run_jobs", lambda batch, workers: jobs.append(batch))
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = dissipative-transport\noutput = {tmp_path / 'out'}\n"
            "[bath]\nbeta = 1.0\nzeta = 0.05\n",
        )
        assert main(["sweep", path, "--vary", vary, "--values", f"1,{value}"]) == 2
        assert "finite" in capsys.readouterr().err
        assert jobs == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, vary, values, rule",
        [
            ("transport", "sigma", "0.5,-1", "sigma: must be >= 0, got -1.0"),
            ("transport", "beta", "1,0", "beta: must be > 0, got 0.0"),
            ("transport", "g", "-2", "g: must be >= 0, got -2.0"),
            ("transport", "s", "1", "s: must be >= 2, got 1"),
            ("cnot_superposed.ini", "s", "22,10", "a: need 1 <= a <= s - 6, got a=9, s=10"),
        ],
        ids=["sigma", "beta", "g", "s", "s-below-layout"],
    )
    def test_sweep_out_of_range_value_exit_2(
        self, tmp_path, capsys, monkeypatch, config, vary, values, rule
    ):
        # a value the config rules reject must stop the sweep before its first job,
        # not in a worker after the earlier values' ensembles have run
        import openchain.runner as runner_mod

        jobs = []
        monkeypatch.setattr(runner_mod, "_run_jobs", lambda batch, workers: jobs.append(batch))
        if config == "transport":
            text = (
                "[experiment]\nscenario = dissipative-transport\n"
                "[bath]\nbeta = 1.0\nzeta = 0.05\n"
            )
        else:
            text = (Path(__file__).resolve().parents[1] / "configs" / config).read_text()
        text = re.sub(r"^output = .*$", "", text, flags=re.M).replace(
            "[experiment]\n", f"[experiment]\noutput = {tmp_path / 'out'}\n"
        )
        path = self.write_config(tmp_path, text)
        assert main(["sweep", path, "--vary", vary, "--values", values]) == 2
        err = capsys.readouterr().err
        assert rule in err and f"{vary} = [" in err
        assert jobs == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--vary", "s", "--values", "10,12"]], ids=["run", "sweep"]
    )
    def test_workers_below_one_exit_2(self, tmp_path, capsys, command, workers):
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = ballistic\noutput = {tmp_path / 'out'}\n"
            "[grid]\nt_max = 1\ndt = 1\n",
        )
        assert main([command[0], path, *command[1:], "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_numeric_failure_exit_3(self, tmp_path, monkeypatch):
        # a degenerate spectrum reaches the rate construction and must map
        # to the numeric-failure exit code
        import openchain.runner as runner_mod
        from openchain.lindblad import DegenerateGapError

        def boom(config, workers=1):
            raise DegenerateGapError("degenerate gap")

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        monkeypatch.setattr("openchain.cli.run_scenario", boom)
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = ballistic\noutput = {tmp_path / 'out'}\n"
            "[grid]\nt_max = 5\ndt = 1\n",
        )
        assert main(["run", path]) == 3

    def test_out_of_memory_exit_3(self, tmp_path, monkeypatch, capsys):
        # a valid config whose grid or chain cannot fit in memory is a numeric
        # failure, reported in one line, not a traceback
        def too_large(config, workers=1):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000001,)")

        monkeypatch.setattr("openchain.cli.run_scenario", too_large)
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = ballistic\noutput = {tmp_path / 'out'}\n"
            "[grid]\nt_max = 1e12\ndt = 1\n",
        )
        assert main(["run", path]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"
        ]
        assert list(tmp_path.glob("out/*.csv")) == []

    def test_overflowing_tilt_exit_3(self, tmp_path, capsys):
        # a config that validates, but whose on-site energies overflow, is a
        # numeric failure, not a config or usage error: a tilt g*x past the
        # float range, or a disorder draw at sigma = 1e308 (seed 0); no CSV
        cases = {
            "bloch": ("g = 1e307", "tilt g=1e+307 on 20 sites"),
            "localized": ("s = 200\nsigma = 1e308", "disorder inf on 200 sites"),
        }
        for scenario, (chain, cause) in cases.items():
            path = self.write_config(
                tmp_path,
                f"[experiment]\nscenario = {scenario}\noutput = {tmp_path / scenario}\n"
                f"[chain]\n{chain}\n",
            )
            assert main(["validate", path]) == 0
            assert main(["run", path]) == 3
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"numeric failure: on-site energies overflow: {cause}"
            )
            assert list(tmp_path.glob(f"{scenario}/*.csv")) == []

    def test_negative_variance_exit_3(self, tmp_path, monkeypatch, capsys):
        # a variance below -1e-9 is a numeric failure of the read-out, not a
        # usage error
        from openchain import lindblad

        read_out = lindblad.read_out

        def negative_variance(rows, *args):
            out = read_out(rows, *args)
            if rows.shape[0] == 4:  # the rows x, y^2, y, region: <y^2> - <y>^2 < 0
                out[1] -= 1.0
            return out

        monkeypatch.setattr(lindblad, "read_out", negative_variance)
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = ballistic\noutput = {tmp_path / 'out'}\n"
            "[grid]\nt_max = 5\ndt = 1\n",
        )
        assert main(["run", path]) == 3
        assert "variance must be nonnegative" in capsys.readouterr().err
        assert list((tmp_path / "out").glob("*.csv")) == []

    @pytest.mark.parametrize("damage", ["truncated", "missing"])
    def test_broken_install_exit_4(self, tmp_path, monkeypatch, capsys, damage):
        # a csv_tables.bin of the wrong size, or none at all, is a broken
        # install, neither a usage error (2) nor a numeric failure (3), and no
        # CSV is written
        from openchain import series

        data = Path(series.__file__).with_name("csv_tables.bin").read_bytes()
        package = tmp_path / "package"
        package.mkdir()
        if damage == "truncated":
            (package / "csv_tables.bin").write_bytes(data[:-8])
        message = {
            "truncated": f"csv_tables.bin holds {len(data) - 8} bytes, expected {len(data)}",
            "missing": "csv_tables.bin cannot be read: No such file or directory",
        }[damage]
        monkeypatch.setattr(series, "__file__", str(package / "series.py"))
        series._tables.cache_clear()
        try:
            path = self.write_config(
                tmp_path,
                f"[experiment]\nscenario = ballistic\noutput = {tmp_path / 'out'}\n"
                "[grid]\nt_max = 5\ndt = 1\n",
            )
            assert main(["run", path]) == 4
            assert capsys.readouterr().err.splitlines()[-1] == f"broken install: {message}"
            assert list((tmp_path / "out").glob("*.csv")) == []
        finally:
            series._tables.cache_clear()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--vary", "s", "--values", "10,12"]])
    def test_non_finite_value_exit_3(self, tmp_path, monkeypatch, capsys, command):
        import openchain.runner as runner_mod

        def overflowing(config, seed):
            return {"t": np.array([0.0, 1.0]), "mean_Q": np.array([1.0, np.inf])}

        monkeypatch.setattr(runner_mod, "run_realization", overflowing)
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = ballistic\noutput = {tmp_path / 'out'}\n"
            "[grid]\nt_max = 1\ndt = 1\n",
        )
        assert main([command[0], path, *command[1:]]) == 3
        assert "mean_Q" in capsys.readouterr().err
        assert list((tmp_path / "out").glob("*.csv")) == []

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_aggregate_exit_3(self, tmp_path, monkeypatch, capsys):
        # finite realizations whose ensemble mean overflows
        import openchain.runner as runner_mod

        peaks = iter([1e308, 1.7e308])

        def finite(config, seed):
            return {"t": np.array([0.0, 1.0]), "mean_Q": np.array([1.0, next(peaks)])}

        monkeypatch.setattr(runner_mod, "run_realization", finite)
        path = self.write_config(
            tmp_path,
            f"[experiment]\nscenario = ballistic\nensemble_size = 2\noutput = {tmp_path / 'out'}\n"
            "[grid]\nt_max = 1\ndt = 1\n",
        )
        assert main(["run", path]) == 3
        assert "ballistic_aggregate.csv: column 'mean_Q_mean'" in capsys.readouterr().err
        assert list((tmp_path / "out").glob("*.csv")) == []
