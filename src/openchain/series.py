"""CSV serialization of named time-series columns.

CSV files carry a header row, a fixed column order, and reals formatted with
17 significant digits so that values round-trip losslessly. Rows are formatted
in numpy a block at a time, and the bytes equal ``"%.17g" % x`` per cell: the
digits are correctly rounded (as in Adams, "Ryū revisited", OOPSLA 2019).

The formatter's constant tables (powers of ten to about 2**-106, and the
words and byte masks that lay a cell out) are read from ``csv_tables.bin``
beside this module, once per process at its first write; ``tests/support.py``
builds the same tables with Python integers and byte strings, and the tests
hold the file to them bit for bit. Each ``write_csv`` call formats all of its
blocks in one workspace sized to the table (at most one block), filled in
place, so that no block allocates its own temporaries.
"""

from __future__ import annotations

import functools
import hashlib
import math
from pathlib import Path

import numpy as np


_CSV_BLOCK_ROWS = 1024  # a block of rows formatted at once has at most this many rows
_CSV_BLOCK_CELLS = 4096  # and cells: under 1 MB of workspace
_X_MIN, _X_MAX = -325, 309  # floor(log10|x|) of every double, and one either side
_XS = _X_MAX - _X_MIN + 1
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into halves whose products are exact
_WORD = np.dtype("<u8")  # eight bytes of a formatted cell; its NUL bytes are dropped
_LEADS, _TAILS = 10000, 10000 + 10 * _XS  # offsets of the lead and tail words
# the tables in the order of the data file: (dtype, shape) of each
_TABLE_LAYOUT = (
    ("<f8", (4, _XS)),  # 10**(16 - X) ~ (hi + lo) * 2**s: rows hi, hi's halves, lo
    ("<u8", (_TAILS + 2 * _XS,)),  # words: digit groups, leads, tails
    ("<u8", (4, 18 * 21)),  # byte masks of a cell's words 1-4
    ("<i8", (_XS,)),  # p + 3 by X, for p integer digits
    ("<i4", (_XS,)),  # the shift s by X
    ("<i2", (4, 10000)),  # 21 * significant digits through a digit group, by group
)
_PLANES = 20  # words of workspace per cell
# "nan" and "inf" in a cell's first five words; a sign goes in byte 0
_NAN_INF = np.frombuffer(b"\0nan" + b"\0" * 36 + b"\0inf" + b"\0" * 36, _WORD).reshape(2, 5)


class BrokenInstallError(RuntimeError):
    """The package's ``csv_tables.bin`` is missing, unreadable or not the size of its layout."""


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The formatter's tables, read from the package's ``csv_tables.bin``.

    All tables are indexed by X - _X_MIN, where X = floor(log10|x|). A cell is
    six words: sign, "0.000" prefix and first digit; four of four digits, each
    digit preceded by a point slot; exponent and separator. The words are the
    digit groups by value, the leads by (X, first digit) and the tails by
    (separator, X); the masks are by 21 * (significant digits) + p + 3. A
    file that is missing or cannot be read, or of any other size than the
    layout's, is a broken install and raises :class:`BrokenInstallError`.
    """
    try:
        raw = np.fromfile(Path(__file__).with_name("csv_tables.bin"), np.uint8)
    except OSError as exc:
        raise BrokenInstallError(f"csv_tables.bin cannot be read: {exc.strerror}") from None
    raw.flags.writeable = False
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in _TABLE_LAYOUT]
    if sum(sizes) != raw.size:
        raise BrokenInstallError(f"csv_tables.bin holds {raw.size} bytes, expected {sum(sizes)}")
    parts = zip(np.split(raw, np.cumsum(sizes)[:-1]), _TABLE_LAYOUT)
    return tuple(part.view(dtype).reshape(shape) for part, (dtype, shape) in parts)


def _scaled(ax: np.ndarray, xi: np.ndarray, floats: np.ndarray, shift: np.ndarray) -> None:
    """``ax * 10**(16 - X)`` as hi + lo, to about 2**-104, after an exact ``ax * 2**s``.

    ``floats`` has seven rows: hi, two of scratch, lo and three more of
    scratch; ``shift`` is scratch.
    """
    ten, _, _, _, shifts, _ = _tables()
    hi, t, u, lo, m, m_high, m_low = floats
    shifts.take(xi, out=shift, mode="clip")
    np.ldexp(ax, shift, out=m)  # subnormals and huge values enter at a moderate size
    ten.take(xi, axis=1, out=floats[:4], mode="clip")  # hi, its halves and lo of each cell
    hi *= m
    lo *= m
    np.multiply(m, _SPLIT, out=m_high)
    np.subtract(m_high, m, out=m_low)
    m_high -= m_low
    np.subtract(m, m_high, out=m_low)
    # lo = m lo_t + ((m_high hi_high - hi) + m_high hi_low + m_low hi_high) + m_low hi_low
    np.multiply(m_high, t, out=m)
    m -= hi
    t *= m_low
    m_high *= u
    m += m_high
    m += t
    u *= m_low
    m += u
    lo += m


def _exact(ax: float, xi: int) -> tuple[int, int]:
    """D and X - _X_MIN of a finite ``ax > 0`` in integers, from X - _X_MIN within one of ``xi``.

    D is ``ax * 10**(16 - X)`` rounded half to even; it may round up to 10**17.
    """
    num, den = ax.as_integer_ratio()
    while True:
        k = 16 - _X_MIN - xi
        top, bottom = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
        q, r = divmod(top, bottom)
        if 10**16 <= q < 10**17:
            return q + (2 * r > bottom or (2 * r == bottom and q & 1)), xi
        xi += 1 if q >= 10**17 else -1  # X was one off


def _format_rows(block: list[np.ndarray], work: np.ndarray) -> bytes:
    """The CSV rows of a block (equal-length column slices): ``"%.17g" % x`` per cell.

    ``work`` is the call's workspace, _PLANES words per cell of its largest
    block. Each block carves from it planes of its own size, one value of
    every cell each (cells by column, then row), so that every pass is
    contiguous; the words are laid out by cell only as they become bytes.
    """
    _, words_of, masks_of, integer, _, sig_of = _tables()
    rows, width = block[0].shape[0], len(block)
    n = rows * width
    planes = work[: _PLANES * n].reshape(_PLANES, n)
    ax, hi, _, _, lo, off, step, near = floats = planes[:8]  # |x| and seven of scratch
    xi, d, q, t, mi = planes[8:13].view(np.intp)
    index = planes[13:19].view(np.intp)
    sign, special = planes[19].view(bool).reshape(8, n)[:2]
    # views of planes while they are free
    shift = mi.view(np.int32)[:n]  # until the masks' row
    sig, other = floats[3].view(np.int16).reshape(4, n)[:2]  # from the digits to the words
    words = floats[2:].view(_WORD)  # once the digits are known
    masks = index[1:5].view(_WORD)  # once the words are gathered
    np.concatenate(block, out=ax)
    np.signbit(ax, out=sign)
    np.abs(ax, out=ax)
    plain = np.minimum.reduce(ax) > 0 and np.maximum.reduce(ax) < np.inf  # a nan fails both
    if not plain:
        nonfinite = np.flatnonzero(~np.isfinite(ax))
        inf = np.isinf(ax[nonfinite])
        np.logical_not((ax > 0) & (ax < np.inf), out=special)
        ax[special] = 2.0  # zeros and non-finite cells lay out as a fixed "0"
    np.log10(ax, out=off)
    np.floor(off, out=off)
    off -= _X_MIN
    np.copyto(xi, off, casting="unsafe")
    _scaled(ax, xi, floats[1:], shift)
    # the 17 digits D = hi + rint(lo); exact in Python integers where log10
    # missed a power of ten (hi + lo outside [1e16, 1e17)) or lo is near a tie.
    # A power of ten itself may come out a rounding below 1e16: down to
    # 1e16 - 0.04 its digits at X - 1 round up to 10**17 and carry back, so
    # D = 10**16 at X is already right
    np.subtract(hi, 1e16, out=off)
    off += lo
    np.rint(lo, out=step)
    np.copyto(d, hi, casting="unsafe")
    np.copyto(q, step, casting="unsafe")
    d += q
    np.subtract(lo, step, out=near)
    np.abs(near, out=near)
    if (np.minimum.reduce(off) < -0.04 or np.maximum.reduce(off) >= 9e16
            or np.maximum.reduce(near) > 0.5 - 1e-9):
        for i in np.flatnonzero((off < -0.04) | (off >= 9e16) | (near > 0.5 - 1e-9)):
            d[i], xi[i] = _exact(float(ax[i]), int(xi[i]))
    if np.maximum.reduce(d) == 10**17:
        carry = np.flatnonzero(d == 10**17)
        d[carry] = 10**16
        xi[carry] += 1
    if not plain:
        d[special] = 0
        xi[special] = -_X_MIN
    # the first digit and four groups of four digits, one division per level
    lead, *groups, tail = index
    np.floor_divide(d, 10**8, out=q)
    np.multiply(q, 10**8, out=t)
    d -= t  # the low eight digits
    np.floor_divide(d, 10**4, out=groups[2])
    np.multiply(groups[2], 10**4, out=t)
    np.subtract(d, t, out=groups[3])
    np.floor_divide(q, 10**8, out=d)  # the first digit
    np.multiply(d, 10**8, out=t)
    q -= t  # the high eight digits
    np.floor_divide(q, 10**4, out=groups[0])
    np.multiply(groups[0], 10**4, out=t)
    np.subtract(q, t, out=groups[1])
    # the masks' row: 21 * (significant digits) + p + 3
    sig_of[0].take(groups[0], out=sig, mode="clip")
    for g in range(1, 4):
        sig_of[g].take(groups[g], out=other, mode="clip")
        np.maximum(sig, other, out=sig)
    integer.take(xi, out=mi, mode="clip")
    mi += sig
    # the lead by (X, first digit) and the tail by (separator, X)
    np.multiply(xi, 10, out=lead)
    lead += d
    lead += _LEADS
    np.add(xi, _TAILS, out=tail)
    tail[-rows:] += _XS  # "\n" ends a row
    words_of.take(index, out=words, mode="clip")
    masks_of.take(mi, axis=1, out=masks, mode="clip")
    words[1:5] &= masks
    np.multiply(sign, ord("-"), out=t)
    words[0] |= t.view(_WORD)
    if not plain:
        words[:5, nonfinite] = _NAN_INF[inf.astype(np.intp)].T
        words[0, nonfinite[inf & sign[nonfinite]]] |= _WORD.type(ord("-"))
    return words.reshape(6, width, rows).transpose(2, 1, 0).tobytes().translate(None, b"\0")


def write_csv(path: str | Path, columns: dict[str, np.ndarray]) -> str:
    """Write named columns (equal length) as CSV with 17-digit reals; return the file's sha256.

    Rows are formatted a block at a time (bounded memory), all in one
    workspace. The digest is taken of the bytes as they are written, so the
    file is never read back.
    """
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    if any(a.shape[0] != arrays[0].shape[0] for a in arrays):
        raise ValueError("all columns must have the same length")
    rows = arrays[0].shape[0]
    _tables()  # a broken install raises here, before the file is opened
    step = max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_CELLS // len(arrays)))
    work = np.empty(_PLANES * min(step, rows) * len(arrays))
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        data = (",".join(columns) + "\n").encode()
        digest.update(data)
        out.write(data)
        for start in range(0, rows, step):
            data = _format_rows([a[start : start + step] for a in arrays], work)
            digest.update(data)
            out.write(data)
            del data  # not held while the next block is formatted
    return digest.hexdigest()
