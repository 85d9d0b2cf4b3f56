"""Numbers as CSV text bytes, computed on numpy arrays, byte for byte as ``format_cell``.

A non-whole float gets ``repr``'s digits: the shortest decimal that reads back as the
same double and, of those, the nearest, ties to even. They come from Schubfach
(Giulietti, "The Schubfach way to render doubles", 2020) on uint64 arrays, with integer
arithmetic only, so the bytes cannot depend on numpy's SIMD dispatch. Whole floats
below 1e16 and int64 values are written as integers.

Each value becomes one fixed-width uint8 row whose unused places hold ``PAD``, a byte
UTF-8 never produces, so ``bytes.translate(None, b"\\xff")`` of a frame of rows is text.
``write_lines`` lays the rows of number and text columns side by side in such frames.
"""

from __future__ import annotations

import functools

import numpy as np

from . import rng
from .rng import _M32, _S32, _mulhi

PAD = 0xFF
_U64 = np.uint64
_M63 = _U64((1 << 63) - 1)
_C_MIN = 1 << 52  # the hidden bit of a normal double's significand
_K_MIN = -324  # the smallest decimal exponent Schubfach meets
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
# a row: quote, sign, "0." and up to three zeros (2:7), 20 digit places before the point
# (7:27), the point (27), 20 digit places after it (28:48), "e" with the exponent's sign
# and digits (48:53), quote
_WIDTH = 54
# a column of whole numbers less than this far apart finds its distinct values without a sort
_TABLE_SPAN = 1 << 12


def _padded(texts: list) -> np.ndarray:
    """One row per byte string, all as wide as the longest, padded with ``PAD``."""
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join(t.ljust(width, b"\xff") for t in texts),
                         np.uint8).reshape(len(texts), width)


# _FOUR[g]: the four ASCII digits of 0 <= g < 10**4 as one uint32. _ENDS[j, g]: the
# places of a row up to its last nonzero digit, when that is in group g of places 4j..4j+3
_FOUR = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_FOUR = _FOUR.reshape(10000, 4).view(np.uint32)[:, 0]
_G = np.arange(10000, dtype=np.uint16)
_ENDS = (4 - (_G % 10 == 0) - (_G % 100 == 0) - (_G % 1000 == 0)).astype(np.uint8)
_ENDS = (np.arange(0, 20, 4, dtype=np.uint8)[:, None] + _ENDS) * (_G > 0)
# _SHOWN[21 * a + b]: of 20 digit places, PAD outside [a, b)
_SHOWN = np.where((np.arange(21)[:, None, None] <= np.arange(20))
                  & (np.arange(20) < np.arange(21)[:, None]), 0, PAD
                  ).astype(np.uint8).reshape(21 * 21, 20)
_PREFIXES = _padded([b"", b"0.", b"0.0", b"0.00", b"0.000"])
_EXPONENTS = _padded([b""] + [b"e%+03d" % x for x in range(-324, 309)])


@functools.cache
def _g(k: int) -> tuple[int, int]:
    """Schubfach's ``g = floor(10**-k / 2**r) + 1`` with ``2**125 <= g < 2**126``, as its
    high and low 63-bit halves; made with Python ints, only for the ``k`` that occur."""
    r = (-k * 913124641741 >> 38) - 125  # floor(-k log2 10) - 125
    g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
    return g >> 63, g & ((1 << 63) - 1)


def _rop(g1, g0, cp):
    """``g * cp / 2**127`` rounded to odd: its floor, with the low bit set when inexact.
    ``g1`` and ``g0`` are the 32-bit halves of g's two 63-bit halves."""
    z = ((((g1[1] << _S32) | g1[0]) * cp) >> _U64(1)) + _mulhi(*g0, cp)
    return (_mulhi(*g1, cp) + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) with ``|v| = digits * 10**exponent`` in ``repr``'s digits, for
    finite nonzero float64 ``values``; the digits may end in zeros."""
    bits = values.view(np.uint64)
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    c = (bits & _U64(_C_MIN - 1)) | np.where(biased > 0, _U64(_C_MIN), _U64(0))
    q = np.maximum(biased, 1) - 1075
    # the two smallest subnormals have too wide a rounding interval: scale them by 10
    tiny = c < _U64(3)
    c[tiny] *= _U64(10)
    regular = (c != _U64(_C_MIN)) | (biased == 1)
    # k = floor(log10(2**q)), or floor(log10(3/4 2**q)) where the spacing is irregular
    k = (q * 661971961083 - np.where(regular, 0, 274743187321)) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    table = np.zeros((-2 * _K_MIN, 2), dtype=np.uint64)
    for i in np.flatnonzero(np.bincount(k - _K_MIN)).tolist():
        table[i] = _g(i + _K_MIN)
    g1, g0 = ((g & _M32, g >> _S32) for g in np.take(table, k - _K_MIN, axis=0).T)

    cb = c << _U64(2)
    vb = _rop(g1, g0, cb << h)
    out = c & _U64(1)  # the interval's bounds are in it when c is even
    vbl = _rop(g1, g0, (cb - np.where(regular, _U64(2), _U64(1))) << h) + out
    vbr = _rop(g1, g0, (cb + _U64(2)) << h)
    s = vb >> _U64(2)
    # exactly one multiple of 10 in the interval: the one-digit-shorter candidate
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    shorter = upin != ((tp10 << _U64(2)) + out <= vbr)
    # else s or s + 1: the one in the interval, or the nearer, even on a tie
    t = s + _U64(1)
    uin = vbl <= s << _U64(2)
    mid = (s + t) << _U64(1)
    low = np.where(uin != ((t << _U64(2)) + out <= vbr), uin,
                   (vb < mid) | ((vb == mid) & (s & _U64(1) == 0)))
    digits = np.where(shorter, np.where(upin, sp10, tp10), np.where(low, s, t))
    return digits, k - tiny


def _rows(negative, digits, exponent, hit, notation: bool) -> np.ndarray:
    """Text rows of ``digits * 10**exponent`` (up to 19 digits), in fixed notation or, with
    ``notation``, in ``repr``'s: scientific when the point is over 16 places after the
    first digit or 3 before it. A text that holds the byte ``hit`` is quoted."""
    n = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    point = n + exponent
    sci = ((point > 16) | (point < -3)) & notation
    # the digits left-aligned after one leading zero, so 20 places hold 19 digits
    left = digits * _POW10[19 - n]
    groups = np.empty((len(digits), 5), dtype=np.uint32)
    end = np.zeros(len(digits), dtype=np.uint8)  # the places up to the last nonzero digit
    for j in range(4, -1, -1):
        rest = left // _U64(10000)
        group = (left - rest * _U64(10000)).astype(np.intp)
        groups[:, j] = np.take(_FOUR, group)
        end = np.maximum(end, np.take(_ENDS[j], group))
        left = rest

    lead = ~sci & (point <= 0)  # "0." and up to three zeros
    before = 1 + np.where(sci, 1, np.maximum(point, 0))
    rows = np.full((len(digits), _WIDTH), PAD, dtype=np.uint8)
    rows[:, 1] = np.where(negative, ord("-"), PAD)
    rows[:, 2:7] = np.take(_PREFIXES, np.where(lead, 1 - point, 0), axis=0)
    rows[:, 7:27] = groups.view(np.uint8) | np.take(_SHOWN, 21 + before, axis=0)
    rows[:, 27] = np.where(~lead & (end > before), ord("."), PAD)
    rows[:, 28:48] = groups.view(np.uint8) | np.take(_SHOWN, 21 * before + end, axis=0)
    rows[:, 48:53] = np.take(_EXPONENTS, np.where(sci, point + 324, 0), axis=0)
    if hit is not None:
        quoted = (rows == hit).any(axis=1)
        rows[quoted, 0] = rows[quoted, -1] = ord('"')
    return rows


def _value_rows(values: np.ndarray, hit, lone: bool) -> np.ndarray:
    if values.dtype.kind != "f":  # int64: abs(-2**63) wraps to itself, which is 2**63 unsigned
        return _rows(values < 0, np.abs(values).view(np.uint64), 0, hit, notation=False)
    empty = np.isnan(values)
    magnitude = np.where(empty, 0.0, np.abs(values))
    whole = (magnitude < 1e16) & (magnitude == np.trunc(magnitude))
    shown, exponent = shortest(np.where(whole, 1.0, magnitude))
    digits = np.where(whole, np.where(whole, magnitude, 0.0).astype(np.uint64), shown)
    rows = _rows(np.signbit(values) & (magnitude != 0), digits,
                 np.where(whole, 0, exponent), hit, notation=True)
    rows[empty] = PAD
    if lone:
        rows[empty, 0] = rows[empty, -1] = ord('"')
    return rows


def text_rows(values: np.ndarray, delimiter: str, lone: bool = False) -> np.ndarray:
    """Text rows of int64 or float64 ``values`` as ``format_cell`` writes them, with NaN
    missing: empty, or ``""`` when ``lone``. A text that holds the delimiter is quoted.
    Made in blocks of ``rng.BLOCK_ENTRIES`` values, so the arrays in between stay small."""
    hit = ord(delimiter) if delimiter in frozenset("0123456789.-+e") else None
    rows = np.empty((len(values), _WIDTH), dtype=np.uint8)
    for start in range(0, len(values), rng.BLOCK_ENTRIES):
        block = slice(start, start + rng.BLOCK_ENTRIES)
        rows[block] = _value_rows(values[block], hit, lone)
    return rows


class _Pieces:
    """A column's rows for a block of cells. A cell is a run of rows of ``pieces``, a table
    of ``PAD``-filled pieces, from ``first[cell]`` on, ``counts[first]`` long (or one, when
    ``counts`` is None). A block's rows are as many pieces wide as its longest run; a
    shorter run goes on with the table's last piece, all ``PAD``. The places that are
    ``PAD`` in every piece are dropped."""

    def __init__(self, pieces: np.ndarray, first: np.ndarray, counts: np.ndarray | None = None):
        self.pieces = np.compress(pieces.min(axis=0, initial=PAD) != PAD, pieces, axis=1)
        self.first, self.counts = first, counts

    def width(self, block: slice) -> int:
        runs = 1 if self.counts is None else np.take(self.counts, self.first[block]).max(initial=1)
        return self.pieces.shape[1] * int(runs)

    def rows(self, block: slice) -> np.ndarray:
        first = self.first[block]
        if self.counts is not None:
            places = np.arange(self.width(block) // self.pieces.shape[1])
            first = np.where(places < np.take(self.counts, first)[:, None],
                             first[:, None] + places, len(self.pieces) - 1)
        return np.take(self.pieces, first, axis=0).reshape(len(first), -1)


def _texts(texts: list, inverse: np.ndarray) -> _Pieces:
    """The rows of the UTF-8 ``texts`` that ``inverse`` picks, in pieces of up to 32 bytes,
    so one long text widens only the blocks it is in; texts no longer than that are one
    piece each, a table of them padded to the longest."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    size = int(np.clip(lengths.max(initial=0), 1, 32))
    counts = np.maximum(-(-lengths // size), 1)
    pieces = np.frombuffer(b"".join(t.ljust(n * size, b"\xff") for t, n in zip(
        texts, counts.tolist())) + b"\xff" * size, np.uint8).reshape(-1, size)
    first, runs = np.cumsum(counts) - counts, np.zeros(len(pieces), np.intp)
    runs[first] = counts
    return _Pieces(pieces, first[inverse].astype(np.min_scalar_type(len(pieces))),
                   runs if counts.max(initial=1) > 1 else None)


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A float64 column's distinct values, ascending with NaN last, and each cell's position
    among them, as ``np.unique(column, return_inverse=True)`` gives them. When the present
    values are whole numbers less than ``_TABLE_SPAN`` apart, they are counted in a table of
    offsets from the least, with no sort; a zero may then come out with the other sign."""
    low = float(np.fmin.reduce(column, initial=np.inf))
    high = float(np.fmax.reduce(column, initial=-np.inf))
    # whole numbers, so their offsets are exact: a fraction could round away in one
    if (high - low < _TABLE_SPAN and low.is_integer() and high.is_integer()
            and np.array_equal(column, np.trunc(column), equal_nan=True)):
        span = int(high - low)
        offsets = column - low
        offsets[np.isnan(column)] = span + 1  # the slot of NaN, after every value's
        slots = offsets.astype(np.intp)
        used = np.flatnonzero(np.bincount(slots, minlength=span + 2))
        values = used + low
        values[used > span] = np.nan
        if used[-1] == len(used) - 1:  # no slot below the last is empty
            return values, slots
        position = np.zeros(span + 2, dtype=np.intp)
        position[used] = np.arange(len(used))
        return values, position[slots]
    return np.unique(column, return_inverse=True)


def column_rows(columns: list, delimiter: str, lone: bool) -> list:
    """The rows of each float64 column, made as ``text_rows`` makes them. Equal floats
    format the same (``-0.0`` and ``0.0`` both as ``0``), so each column's distinct values
    are formatted once, and a block of cells gathers their rows."""
    # the positions are held for the whole write, so in the narrowest type that fits
    distinct = [(values, inverse.astype(np.min_scalar_type(len(values)), copy=False))
                for values, inverse in map(_distinct, columns)]
    rows = text_rows(np.concatenate([values for values, _ in distinct] + [np.empty(0)]),
                     delimiter, lone)
    ends = np.cumsum([len(values) for values, _ in distinct], dtype=np.intp)
    return [_Pieces(part, inverse)
            for part, (_, inverse) in zip(np.split(rows, ends[:-1]), distinct)]


def write_lines(handle, columns: list, n_rows: int, delimiter: str, lone: bool,
                cells: int, index: np.ndarray | None = None) -> None:
    """Write ``n_rows`` CSV lines to the binary ``handle``: the fields of ``index`` when
    given, then of each column (a float64 array, or distinct UTF-8 field texts and each
    cell's position among them), with ``delimiter`` between and CRLF after.

    Numbers are written as ``text_rows`` makes them. A block of lines is one frame of rows,
    of at most ``cells`` cells counting a cell as up to 32 bytes (or of one line), whose
    ``PAD`` places ``bytes.translate`` drops."""
    numbers = iter(column_rows([c for c in columns if isinstance(c, np.ndarray)], delimiter, lone))
    columns = [next(numbers) if isinstance(c, np.ndarray) else _texts(*c) for c in columns]
    if index is not None:
        order = np.arange(n_rows, dtype=np.min_scalar_type(n_rows))
        columns.insert(0, _Pieces(text_rows(index, delimiter), order))
    sep = delimiter.encode()
    step, start = max(1, cells // max(1, len(columns))), 0
    while start < n_rows:
        stop = min(start + step, n_rows)
        # halved while its frame is over the budget, so a long text widens few lines
        while ((stop - start) * sum(widths := [c.width(slice(start, stop)) for c in columns])
               > 32 * cells and stop - start > 1):
            stop = (start + stop) // 2
        template = sep.join(b"\xff" * width for width in widths) + b"\r\n"
        frame = np.tile(np.frombuffer(template, np.uint8), (stop - start, 1))
        starts = np.cumsum([0] + [width + len(sep) for width in widths]).tolist()
        for at, width, column in zip(starts, widths, columns):
            frame[:, at : at + width] = column.rows(slice(start, stop))
        handle.write(frame.tobytes().translate(None, b"\xff"))
        start = stop
