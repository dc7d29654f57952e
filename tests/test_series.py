import hashlib
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import read_csv

from openchain.series import _CSV_BLOCK_ROWS, write_csv


def per_cell(value) -> str:
    """One 17-significant-digit format call per cell: the writer's byte reference."""
    return "%.17g" % value


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

    def test_seventeen_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, {"x": np.array([np.pi, -0.0, 5e-324, 1e300, 100])})
        assert path.read_text().splitlines()[1:] == [
            "3.1415926535897931",
            "-0",
            "4.9406564584124654e-324",
            "1.0000000000000001e+300",
            "100",
        ]

    def test_rows_match_per_cell_format(self, tmp_path):
        # the block-at-a-time writer must give exactly the bytes of one format
        # call per cell, special values and an integer column included, over
        # more than two blocks of rows and a partial last block
        rng = np.random.Generator(np.random.Philox(key=2))
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, 2.0**53 + 2]
        size = 2 * _CSV_BLOCK_ROWS + 90
        scales = 10.0 ** rng.integers(-300, 300, size)
        reals = np.concatenate([special, rng.normal(size=size) * scales])
        assert reals.size > 2 * _CSV_BLOCK_ROWS and reals.size % _CSV_BLOCK_ROWS
        cols = {
            "s": np.arange(reals.size, dtype=int) * 37 - 100,
            "x": reals,
            "bits": rng.integers(0, 2**64, reals.size, dtype=np.uint64).view(np.float64),
        }
        path = tmp_path / "x.csv"
        digest = write_csv(path, cols)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        lines = ["s,x,bits"] + [
            ",".join(per_cell(float(cols[n][i])) for n in cols) for i in range(reals.size)
        ]
        assert path.read_text() == "\n".join(lines) + "\n"
        assert "nan" in path.read_text() and "-inf" in path.read_text()
        assert path.read_text().splitlines()[1].startswith("-100,nan,")

    def test_empty_columns(self, tmp_path):
        path = tmp_path / "x.csv"
        digest = write_csv(path, {"a": np.zeros(0), "b": np.zeros(0)})
        assert path.read_bytes() == b"a,b\n"
        assert digest == hashlib.sha256(b"a,b\n").hexdigest()

    def test_header_order(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, {"b": np.zeros(1), "a": np.ones(1)})
        assert path.read_text().splitlines()[0] == "b,a"

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", {"a": np.zeros(2), "b": np.zeros(3)})


def assert_cells_match(tmp_path, values, columns: int = 1) -> None:
    """write_csv's cells of ``values`` (row-major in ``columns`` columns) equal one format call each."""
    grid = np.asarray(values, dtype=float).reshape(-1, columns)
    path = tmp_path / "cells.csv"
    write_csv(path, {f"c{j}": grid[:, j] for j in range(columns)})
    lines = [",".join(per_cell(v) for v in row) for row in grid.tolist()]
    assert path.read_text().splitlines()[1:] == lines


def powers_of_ten() -> np.ndarray:
    """The double nearest each power of ten from 1e-323 to 1e308."""
    return np.array([float(f"1e{k}") for k in range(-323, 309)])


class TestFormatter:
    """The numpy formatter against ``"%.17g" % x`` where its digits are hardest to get right."""

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = powers_of_ten()
        assert_cells_match(tmp_path, np.stack([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)], 1), 3)
        # the double nearest 1e-265 lies below 10**-265
        assert_cells_match(tmp_path, [1e-265])
        assert per_cell(1e-265) == "9.9999999999999998e-266"

    def test_notation_thresholds(self, tmp_path):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        assert_cells_match(tmp_path, np.concatenate([values, -values]), 2)
        assert [per_cell(v) for v in edges] == ["1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17"]

    def test_decade_carries(self, tmp_path):
        # doubles just below a power of ten whose 17 digits round up to it
        carries = [
            x for k, x in zip(range(-323, 309), powers_of_ten())
            if Fraction(x) < Fraction(10) ** k == Fraction(per_cell(x))
        ]
        assert len(carries) >= 10
        assert_cells_match(tmp_path, carries + [9.9999999999999999e16, 0.99999999999999999])

    @pytest.mark.parametrize("low, step", [(2.0**50, 0.25), (2.0**49, 0.125)])
    def test_exact_ties_round_half_even(self, tmp_path, low, step):
        # N + k/4 in [2**50, 2**51) and N + k/8 in [2**49, 2**50) lie exactly
        # half-way between two 17-digit decimals when k is odd
        rng = np.random.Generator(np.random.Philox(key=3))
        n = np.floor(low + rng.random(64) * low)
        values = (n[:, None] + step * np.arange(1 / step)).ravel()
        assert all(low <= v < 2 * low for v in values)
        assert_cells_match(tmp_path, np.concatenate([values, -values]), 4)

    def test_special_values(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=4))
        subnormals = rng.integers(1, 2**52, 30, dtype=np.uint64).view(np.float64)
        largest = np.finfo(float).max
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0), largest, -largest,
                   5e-324, -5e-324, np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0)]
        assert np.signbit(special[5]) and np.isnan(special[5])
        assert_cells_match(tmp_path, np.concatenate([special, subnormals, -subnormals]), 3)
        assert per_cell(special[5]) == "nan"

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(_CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1),
                                            st.integers(1, 6)), elements=st.floats(width=64)))
    def test_any_doubles_across_blocks(self, tmp_path_factory, table):
        # every table spans two or three blocks of rows
        assert_cells_match(tmp_path_factory.mktemp("cells"), table, table.shape[1])
