"""Time-series containers and their CSV serialization.

CSV files carry a header row, a fixed column order, and reals formatted with
17 significant digits so that values round-trip losslessly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


_REAL_FORMAT = "%.17g"  # 17 significant digits round-trip every double
_CSV_BLOCK_ROWS = 256  # rows converted to Python floats at once: bounds the writer's memory


def write_csv(path: str | Path, columns: dict[str, np.ndarray]) -> str:
    """Write named columns (equal length) as CSV with 17-digit reals; return the file's sha256.

    One ``%`` format call per block of rows (bounded memory). The digest is
    taken of the bytes as they are written, so the file is never read back.
    """
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    if any(a.shape[0] != arrays[0].shape[0] for a in arrays):
        raise ValueError("all columns must have the same length")
    row = ",".join([_REAL_FORMAT] * len(arrays)) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        text = ",".join(columns) + "\n"  # the header goes out with the first block
        for start in range(0, max(arrays[0].shape[0], 1), _CSV_BLOCK_ROWS):
            block = np.column_stack([a[start : start + _CSV_BLOCK_ROWS] for a in arrays])
            data = (text + (row * block.shape[0]) % tuple(block.ravel().tolist())).encode()
            digest.update(data)
            out.write(data)
            text = ""
    return digest.hexdigest()


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

    def columns(self, p_label: str = "p_region") -> dict[str, np.ndarray]:
        cols = {"t": self.times, "mean_Q": self.mean_q, "var_Q": self.var_q}
        if self.p_region is not None:
            cols[p_label] = self.p_region
        return cols
