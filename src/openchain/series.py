"""Time-series containers and their CSV serialization.

CSV files carry a header row, a fixed column order, and reals formatted with
17 significant digits so that values round-trip losslessly. Rows are formatted
in numpy a block at a time, and the bytes equal ``"%.17g" % x`` per cell: the
digits are correctly rounded (as in Adams, "Ryū revisited", OOPSLA 2019).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


_CSV_BLOCK_ROWS = 1024  # a block of rows formatted at once has at most this many rows
_CSV_BLOCK_CELLS = 4096  # and cells: about 1 MB of the formatter's temporaries
_X_MIN, _X_MAX = -325, 309  # floor(log10|x|) of every double, and one either side
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into halves whose products are exact
_WORD = np.dtype("<u8")  # eight bytes of a formatted cell; its NUL bytes are dropped


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """By X - _X_MIN: rows (hi, hi's halves, lo) and s, 10**(16 - X) ~ (hi + lo) * 2**s."""
    t, e = (1 << 1100) // 10 ** (_X_MAX - 16), -1100
    his, los, shifts = [], [], []
    for _ in range(_X_MAX - _X_MIN + 1):
        b = t.bit_length() - 106
        his.append(t >> (b + 53))
        los.append(t >> b & (1 << 53) - 1)
        shifts.append(e + b + 52)
        t *= 10
        if b > 64:
            t, e = t >> 64, e + 64
    hi, lo = np.array([his[::-1], los[::-1]], float) * [[2.0], [2.0**-52]]
    high = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.stack([hi, high, hi - high, lo], axis=1), np.array(shifts[::-1], np.int32)


@functools.cache
def _layout() -> tuple[np.ndarray, ...]:
    """Words that lay out a cell as ``%g`` does, and masks of the bytes to keep.

    A cell is six words: sign, "0.000" prefix, first digit and point; four of
    four digits, each followed by a point slot; exponent and separator. Returned:
    the words (digit groups, leads by X and first digit, tails by separator and
    X), each group's significant digits by word, p + 3 by X for p integer
    digits, and the masks by (significant digits, p + 3).
    """
    x_all = range(_X_MIN, _X_MAX + 1)

    def padded(chunks):  # each chunk NUL-padded to one word
        return np.frombuffer(b"".join(c.ljust(8, b"\0") for c in chunks), _WORD)

    pairs = np.frombuffer(b"".join(b"%d.%d." % divmod(i, 10) for i in range(100)), "<u4")
    groups = (pairs[:, None] | pairs.astype(_WORD) << np.uint64(32)).ravel()
    last = np.array([2 if i % 10 else 1 if i else -99 for i in range(100)], np.int16)
    sig = np.where(last > 0, last + 2, last[:, None]).ravel() + np.int16([[1], [5], [9], [13]])
    small = padded(b"\0" + b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in x_all)
    lead = (small[:, None] | padded(b"\0" * 6 + b"%d." % d for d in range(10))).ravel()
    # "e+XX" or "e+XXX" (a NUL hundreds digit below 100); nothing in fixed notation
    exp = padded((b"e%+04d" % x).replace(b"0", b"\0", abs(x) < 100) * (x < -4 or x > 16)
                 for x in x_all)
    tail = (exp | np.array([[ord(",") << 40], [ord("\n") << 40]], _WORD)).ravel()
    integer = np.full(len(x_all), 4)
    integer[-4 - _X_MIN : 17 - _X_MIN] = np.arange(21)
    n_sig, p = np.divmod(np.arange(18 * 21)[:, None], 21)
    p -= 3
    byte = np.arange(48)
    at = (byte - 6) // 2  # the digit a byte of words 0-4 holds, or follows
    point = (at == p - 1) & (n_sig > p)
    keep = (byte < 6) | (byte >= 40) | np.where(byte % 2 == 0, at < np.maximum(n_sig, p), point)
    words = np.concatenate([groups, lead, tail])
    return words, sig, integer, (keep * np.uint8(255)).view(_WORD)


_LEADS, _TAILS = 10000, 10000 + 10 * (_X_MAX - _X_MIN + 1)
_NAN_INF = np.frombuffer(b"\0" * 6 + b"nan" + b"\0" * 37 + b"inf" + b"\0" * 31, _WORD).reshape(2, 5)


def _scaled(ax: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ax * 10**(16 - X)`` as hi + lo, to about 2**-104, after an exact ``ax * 2**s``."""
    table, shift = _powers_of_ten()
    m = np.ldexp(ax, shift[xi])  # subnormals and huge values enter at a moderate size
    ten = np.take(table, xi, axis=0)
    hi = m * ten[:, 0]
    m_split = m * _SPLIT
    m_high = m_split - (m_split - m)
    m_low = m - m_high
    err = ((m_high * ten[:, 1] - hi) + m_high * ten[:, 2] + m_low * ten[:, 1]) + m_low * ten[:, 2]
    return hi, err + m * ten[:, 3]


def _digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 correctly rounded significant digits D of finite ``ax > 0``, and X - _X_MIN."""
    xi = np.floor(np.log10(ax)).astype(np.intp) - _X_MIN
    hi, lo = _scaled(ax, xi)
    off = (hi - 1e16) + lo  # in [0, 9e16) unless log10 missed a power of ten
    fix = np.flatnonzero((off < 0) | (off >= 9e16))
    if fix.size:
        xi[fix] += np.where(off[fix] < 0, -1, 1)
        hi[fix], lo[fix] = _scaled(ax[fix], xi[fix])
    step = np.rint(lo)
    d = hi.astype(np.int64) + step.astype(np.int64)
    for i in np.flatnonzero(np.abs(lo - step) > 0.5 - 1e-9):  # at or near a tie
        num, den = float(ax[i]).as_integer_ratio()
        k = 16 - _X_MIN - int(xi[i])
        num, den = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
        q, r = divmod(num, den)
        d[i] = q + (2 * r > den or (2 * r == den and q & 1))  # ties to even
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    xi[carry] += 1
    return d, xi


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a (rows, columns) block: ``"%.17g" % x`` per cell."""
    words_of, sig_of, integer, masks = _layout()
    x = block.ravel()
    finite = np.isfinite(x)
    nonzero = finite & (x != 0)
    d, xi = _digits(np.abs(np.where(nonzero, x, 1.0)))
    if not nonzero.all():
        d[~nonzero] = 0
        xi[~nonzero] = -_X_MIN  # zeros and non-finite cells lay out as a fixed "0"
    first, high, low = d // 10**16, d // 10**8 % 10**8, d % 10**8
    index = np.empty((x.size, 6), np.intp)
    np.divmod(high, 10**4, out=(index[:, 1], index[:, 2]))
    np.divmod(low, 10**4, out=(index[:, 3], index[:, 4]))
    sig = np.maximum(np.maximum(sig_of[0, index[:, 1]], sig_of[1, index[:, 2]]),
                     np.maximum(sig_of[2, index[:, 3]], sig_of[3, index[:, 4]]))
    index[:, 0] = xi * 10 + first + _LEADS
    index[:, 5] = xi + _TAILS
    index.reshape(block.shape + (6,))[:, -1, 5] += _X_MAX - _X_MIN + 1  # "\n" ends a row
    words = np.take(words_of, index)
    words &= np.take(masks, np.maximum(sig, 1) * 21 + integer[xi], axis=0)
    if not finite.all():
        words[~finite, :5] = _NAN_INF[np.isinf(x[~finite]).astype(np.intp)]
    words[:, 0] |= (np.signbit(x) & ~np.isnan(x)) * _WORD.type(ord("-"))
    return words.tobytes().translate(None, b"\0")


def write_csv(path: str | Path, columns: dict[str, np.ndarray]) -> str:
    """Write named columns (equal length) as CSV with 17-digit reals; return the file's sha256.

    Rows are formatted a block at a time (bounded memory). The digest is
    taken of the bytes as they are written, so the file is never read back.
    """
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    if any(a.shape[0] != arrays[0].shape[0] for a in arrays):
        raise ValueError("all columns must have the same length")
    step = max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_CELLS // len(arrays)))
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        data = (",".join(columns) + "\n").encode()  # the header goes out with the first block
        for start in range(0, max(arrays[0].shape[0], 1), step):
            data += _format_rows(np.column_stack([a[start : start + step] for a in arrays]))
            digest.update(data)
            out.write(data)
            data = b""
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
