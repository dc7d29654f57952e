import numpy as np
import pytest
from support import read_csv

from openchain.series import ObservableSeries, format_real, write_csv


class TestCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=1))
        cols = {
            "t": np.arange(5, dtype=float),
            "value": rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, 5),
        }
        path = tmp_path / "x.csv"
        write_csv(path, cols)
        back = read_csv(path)
        assert np.array_equal(back["value"], cols["value"])

    def test_seventeen_digits(self):
        assert format_real(np.pi) == "3.1415926535897931"
        assert [format_real(v) for v in (-0.0, 5e-324, 1e300, 100)] == [
            "-0",
            "4.9406564584124654e-324",
            "1.0000000000000001e+300",
            "100",
        ]

    def test_rows_match_per_cell_format(self, tmp_path):
        # the row-at-a-time writer must give exactly the bytes of one
        # format_real call per cell, special values and an integer column included
        rng = np.random.Generator(np.random.Philox(key=2))
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, 2.0**53 + 2]
        scales = 10.0 ** rng.integers(-300, 300, 200)
        reals = np.concatenate([special, rng.normal(size=200) * scales])
        cols = {
            "s": np.arange(reals.size, dtype=int) * 37 - 100,
            "x": reals,
            "bits": rng.integers(0, 2**64, reals.size, dtype=np.uint64).view(np.float64),
        }
        path = tmp_path / "x.csv"
        write_csv(path, cols)
        lines = ["s,x,bits"] + [
            ",".join(format_real(float(cols[n][i])) for n in cols) for i in range(reals.size)
        ]
        assert path.read_text() == "\n".join(lines) + "\n"
        assert "nan" in path.read_text() and "-inf" in path.read_text()
        assert path.read_text().splitlines()[1].startswith("-100,nan,")

    def test_header_order(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, {"b": np.zeros(1), "a": np.ones(1)})
        assert path.read_text().splitlines()[0] == "b,a"

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", {"a": np.zeros(2), "b": np.zeros(3)})


class TestObservableSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservableSeries([0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            ObservableSeries([0.0, 1.0], [1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            ObservableSeries([0.0, 1.0], [1.0, 1.0], [0.0, -1.0])

    def test_tiny_negative_variance_clipped(self):
        series = ObservableSeries([0.0, 1.0], [1.0, 1.0], [0.0, -1e-12])
        assert series.var_q[1] == 0.0

    def test_csv_label(self, tmp_path):
        series = ObservableSeries([0.0, 1.0], [1.0, 2.0], [0.0, 0.5], [0.1, 0.2])
        write_csv(tmp_path / "x.csv", series.columns(p_label="p_beyond_gate"))
        assert read_csv(tmp_path / "x.csv").keys() == {
            "t",
            "mean_Q",
            "var_Q",
            "p_beyond_gate",
        }
