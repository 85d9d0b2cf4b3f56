"""Fitted numeric normalizations and categoric encodings.

Bases are fitted on training data only and replayed unchanged on later data.
Statistics use the population convention (divide by N). Missing entries are
excluded from all statistics; numeric application imputes missing to 0 after
scaling (the missing marker carries the information), and categoric
vocabularies give missing its own entry for encoding while keeping a zero
frequency so it never participates in noise replacement.
"""

import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from typing import Literal

import numpy as np

from .table import Cell, Coded, coded, numbers_of, sort_cells

NumericKind = Literal["zscore", "minmax", "retain"]
CategoricEncoding = Literal["ordinal", "boolean", "onehot", "binarized", "passthrough"]

UNKNOWN_CODE = 0  # reserved ordinal slot for values unseen in training


def column_as_floats(cells) -> tuple[np.ndarray, np.ndarray]:
    """(values, missing_mask); text and missing cells are masked, values 0-filled."""
    values = numbers_of(cells)
    missing = np.isnan(values)
    return np.where(missing, 0.0, values), missing


@dataclass
class NumericBasis:
    mean: float = 0.0
    std: float = 0.0
    min: float = 0.0
    max: float = 0.0
    kind: NumericKind = "zscore"


def moments(present: np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation (0, 0 when there are no values); where
    the squares overflow, computed on the values scaled by their largest magnitude."""
    if not len(present):
        return 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(present))
        std = float(np.sqrt(np.mean((present - mean) ** 2)))
    # a scale that is not finite means a value that is not: nothing to rescue
    if math.isfinite(std) or not math.isfinite(scale := float(np.max(np.abs(present)))):
        return mean, std
    mean, std = moments(present / scale)
    return mean * scale, std * scale


def fit_numeric(cells, kind: NumericKind) -> NumericBasis:
    values, missing = column_as_floats(cells)
    present = values[~missing]
    if len(present) == 0:
        return NumericBasis(kind=kind)
    mean, std = moments(present)
    return NumericBasis(
        mean=mean,
        std=std,
        min=float(np.min(present)),
        max=float(np.max(present)),
        kind=kind,
    )


def apply_numeric(basis: NumericBasis, cells) -> tuple[np.ndarray, np.ndarray]:
    """Scale a column on the fitted basis; returns (floats, missing_mask).

    zscore: (x - mean) / std, constant 0 when std is 0. minmax and retain:
    (x - min) / (max - min) clipped to [0, 1], constant 0.5 when degenerate.
    Missing entries come out as 0 after scaling. A cell far outside the fitted
    range overflows without a warning: to a z-score of +-inf, which the executor
    reports, or to a min-max value that clips to 0 or 1.
    """
    values, missing = column_as_floats(cells)
    if basis.kind == "zscore":
        if basis.std > 0.0:
            with np.errstate(over="ignore"):
                out = (values - basis.mean) / basis.std
        else:
            out = np.zeros_like(values)
    else:
        low, high = basis.min, basis.max
        if not math.isfinite(high - low):  # scaled by the largest magnitude instead
            scale = max(-low, high)
            values, low, high = values / scale, low / scale, high / scale
        span = high - low
        if span > 0.0:
            with np.errstate(over="ignore"):
                out = np.clip((values - low) / span, 0.0, 1.0)
        else:
            out = np.full_like(values, 0.5)
    out[missing] = 0.0
    return out, missing


@dataclass
class CategoricBasis:
    """Training vocabulary with frequencies.

    ``vocabulary`` holds the unique non-missing training values in
    deterministic order (numbers ascending, then text lexicographic).
    Ordinal codes are shifted by one: code 0 is the unknown slot for values
    unseen in training. When the training column contained missing entries,
    ``missing_code`` is the extra code len(vocabulary)+1.
    """

    vocabulary: list[str | float] = field(default_factory=list)
    frequencies: list[int] = field(default_factory=list)
    encoding: CategoricEncoding = "ordinal"
    missing_code: int | None = None

    @property
    def code_count(self) -> int:
        """Number of distinct codes including the unknown slot."""
        return len(self.vocabulary) + 1 + (1 if self.missing_code is not None else 0)

    def code_of(self, cell: Cell) -> int:
        return self._codes.get(cell, UNKNOWN_CODE)

    def value_of(self, code: int) -> Cell:
        if 1 <= code <= len(self.vocabulary):
            return self.vocabulary[code - 1]
        return None

    def __post_init__(self):
        # the code of each value and of missing; any other cell's is UNKNOWN_CODE
        self._codes = {value: i + 1 for i, value in enumerate(self.vocabulary)}
        if self.missing_code is not None:
            self._codes[None] = self.missing_code


def fit_categoric(cells, encoding: CategoricEncoding = "ordinal") -> CategoricBasis:
    column = coded(cells)
    rows = len(column)
    counts = np.bincount(column.codes, minlength=len(column.cells))
    first = np.full(len(counts), rows, dtype=np.intp)
    np.minimum.at(first, column.codes, np.arange(rows))
    # equal cells (the fields 0 and -0) count as the one the rows hold first
    folded = Counter()
    for code in np.argsort(first, kind="stable")[:np.count_nonzero(counts)]:
        folded[column.cells[code]] += int(counts[code])
    saw_missing = folded.pop(None, 0) > 0
    vocabulary = sort_cells(folded)
    frequencies = [folded[v] for v in vocabulary]
    missing_code = len(vocabulary) + 1 if saw_missing else None
    return CategoricBasis(
        vocabulary=vocabulary,
        frequencies=frequencies,
        encoding=encoding,
        missing_code=missing_code,
    )


def ordinal_codes(basis: CategoricBasis, cells) -> np.ndarray:
    """Each cell's ``code_of``, looked up once per distinct cell."""
    column = coded(cells)
    return np.fromiter(map(basis._codes.get, column.cells, repeat(UNKNOWN_CODE)), np.int64,
                       len(column.cells))[column.codes]


def binarized_width(basis: CategoricBasis) -> int:
    return max(1, math.ceil(math.log2(max(2, basis.code_count))))


def codes_to_bits(basis: CategoricBasis, codes: np.ndarray) -> np.ndarray:
    """(n, width) 0/1 matrix; row bits are the binary representation of the code."""
    shifts = np.arange(binarized_width(basis) - 1, -1, -1)
    return (np.asarray(codes, dtype=np.int64)[:, None] >> shifts) & 1


def bits_to_codes(basis: CategoricBasis, bits: np.ndarray) -> np.ndarray:
    shifts = np.arange(bits.shape[1] - 1, -1, -1)
    return np.bitwise_or.reduce(np.asarray(bits, dtype=np.int64) << shifts, axis=1)


def codes_to_onehot(basis: CategoricBasis, codes: np.ndarray) -> np.ndarray:
    """(n, |vocab| [+1 for missing]) activations; unknown rows are all zero."""
    width = basis.code_count - 1  # one column per real code, none for unknown
    codes = np.asarray(codes, dtype=np.int64)
    out = np.zeros((len(codes), width), dtype=np.int64)
    rows = np.flatnonzero(codes >= 1)
    out[rows, codes[rows] - 1] = 1
    return out


def onehot_to_codes(basis: CategoricBasis, columns: np.ndarray) -> np.ndarray:
    codes = np.zeros(len(columns), dtype=np.int64)
    hits = np.argmax(columns, axis=1)
    any_active = columns.max(axis=1) > 0
    codes[any_active] = hits[any_active] + 1
    return codes


def boolean_codes(basis: CategoricBasis, cells) -> np.ndarray:
    """Single 0/1 column for a two-value vocabulary.

    Missing and unseen values map to the more frequent training value's code
    (ties to code 0) since a boolean column has no spare slot.
    """
    fallback = int(len(basis.frequencies) == 2 and basis.frequencies[1] > basis.frequencies[0])
    codes = ordinal_codes(basis, cells)
    seen = (codes >= 1) & (codes <= len(basis.vocabulary))
    return np.where(seen, codes - 1, fallback)


# Each encoding's output columns from codes, (basis, codes) -> [column], and its
# codes from those columns, (basis, [column]) -> codes. A boolean column holds
# code - 1, and a passthrough column the vocabulary's values, coded by the codes 0 to
# len(vocabulary) + 1.
Codec = namedtuple("Codec", "encode decode")
CODECS = {
    "ordinal": Codec(lambda basis, codes: [codes],
                     lambda basis, columns: columns[0].astype(np.int64)),
    "boolean": Codec(lambda basis, codes: [codes - 1],
                     lambda basis, columns: columns[0].astype(np.int64) + 1),
    "onehot": Codec(lambda basis, codes: list(codes_to_onehot(basis, codes).T.copy()),
                    lambda basis, columns: onehot_to_codes(basis, np.column_stack(columns))),
    "binarized": Codec(lambda basis, codes: list(codes_to_bits(basis, codes).T.copy()),
                       lambda basis, columns: bits_to_codes(basis, np.column_stack(columns))),
    "passthrough": Codec(
        lambda basis, codes: [Coded(codes, np.array([None, *basis.vocabulary, None],
                                                    dtype=object))],
        lambda basis, columns: ordinal_codes(basis, columns[0])),
}


def apply_categoric(basis: CategoricBasis, cells) -> list[np.ndarray]:
    """Encode a column on the fitted basis; returns one array per output column."""
    if basis.encoding == "boolean":
        codes = boolean_codes(basis, cells) + 1
    else:
        codes = ordinal_codes(basis, cells)
    return CODECS[basis.encoding].encode(basis, codes)
