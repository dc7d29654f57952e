"""Time-series containers and their CSV serialization.

CSV files carry a header row, a fixed column order, and reals formatted with
17 significant digits so that values round-trip losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


_REAL_FORMAT = "%.17g"  # 17 significant digits round-trip every double
_CSV_BLOCK_ROWS = 256  # rows converted to Python floats at once: bounds the writer's memory


def format_real(value: float) -> str:
    return _REAL_FORMAT % value


def write_csv(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns (equal length) as CSV with 17-digit reals.

    One ``%`` format call per row, a block of rows at a time (bounded memory).
    """
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    if any(a.shape[0] != arrays[0].shape[0] for a in arrays):
        raise ValueError("all columns must have the same length")
    row = ",".join([_REAL_FORMAT] * len(arrays)) + "\n"
    with open(path, "w") as out:
        out.write(",".join(columns) + "\n")
        for start in range(0, arrays[0].shape[0], _CSV_BLOCK_ROWS):
            block = np.column_stack([a[start : start + _CSV_BLOCK_ROWS] for a in arrays])
            out.write("".join(row % tuple(r) for r in block.tolist()))


@dataclass
class ObservableSeries:
    """Aligned samples of position observables on a time grid.

    ``p_region`` is the probability of the scenario's target region (the last
    site for plain chains, the sites beyond the gate for switch circuits).
    """

    times: np.ndarray
    mean_q: np.ndarray
    var_q: np.ndarray
    p_region: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.mean_q = np.asarray(self.mean_q, dtype=float)
        self.var_q = np.asarray(self.var_q, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        n = self.times.size
        if self.mean_q.shape != (n,) or self.var_q.shape != (n,):
            raise ValueError("mean_q and var_q must align with times")
        if np.any(self.var_q < -1e-9):
            raise ValueError("variance must be nonnegative")
        self.var_q = np.maximum(self.var_q, 0.0)
        if self.p_region is not None:
            self.p_region = np.asarray(self.p_region, dtype=float)
            if self.p_region.shape != (n,):
                raise ValueError("p_region must align with times")

    @classmethod
    def from_site_probabilities(
        cls, times: np.ndarray, prob: np.ndarray, positions: np.ndarray, region: np.ndarray
    ) -> "ObservableSeries":
        """Moments of a (sites x T) distribution; ``region`` holds 0-based site rows."""
        x = np.asarray(positions, dtype=float)
        mean = x @ prob
        return cls(times, mean, (x**2) @ prob - mean**2, prob[region].sum(axis=0))

    def columns(self, p_label: str = "p_region") -> dict[str, np.ndarray]:
        cols = {"t": self.times, "mean_Q": self.mean_q, "var_Q": self.var_q}
        if self.p_region is not None:
            cols[p_label] = self.p_region
        return cols
