"""Tidy tabular container with typed cells, kind inference, and suffix naming.

Cells are one of: finite 64-bit float, text string, or missing (``None``).
Typing happens at ingestion: a field that parses as a finite float becomes a
number, empty fields (or configured sentinels) become missing, everything
else stays text.

Each column is stored as one read-only numpy array. A column whose cells are
all numbers or missing is a ``float64`` array with ``NaN`` for missing (cells
are never non-finite, so ``NaN`` is free to mean missing); any other column
is an ``object`` array of ``float | str | None``. ``row_index`` is an
``int64`` array. Python cells are made only at the edges: ``column()`` and
``row_index`` return lists, and ``write_csv`` formats each distinct value of a
column once. Tables are immutable after construction and safe to share;
transforms always build new columns.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import TableError

Cell = object  # float | str | None

DEFAULT_MISSING_SENTINELS = ("",)


class FeatureKind(str, Enum):
    NUMERIC = "numeric"
    BOOLEAN_CATEGORIC = "boolean_categoric"
    CATEGORIC = "categoric"


def parse_cell(text: str, missing_sentinels: Sequence[str] = DEFAULT_MISSING_SENTINELS) -> Cell:
    """Type a raw CSV field: sentinel -> missing, finite float -> number, else text."""
    if text in missing_sentinels:
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    # Numbers are finite 64-bit floats; 'nan'/'inf' spellings stay text so they
    # cannot poison fitted statistics.
    if math.isfinite(value):
        return value
    return text


def format_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        if cell.is_integer() and abs(cell) < 1e16:
            return str(int(cell))
        return repr(cell)
    return str(cell)


def _normalize_cell(value: Cell) -> Cell:
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TableError("non-finite numbers are not valid cells; use missing instead")
        return value
    raise TableError(f"unsupported cell type: {type(value).__name__}")


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the array itself when already read-only)."""
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


def _column_of_cells(cells: list) -> np.ndarray:
    """Column array of normalized cells: float64 when every cell is a number or missing."""
    if all(c is None or isinstance(c, float) for c in cells):
        return np.array(cells, dtype=np.float64)
    return np.array(cells, dtype=object)


def _as_column(values) -> np.ndarray:
    """Stored form of one column given as a numeric array or a sequence of cells."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        if values.ndim != 1:
            raise TableError("column arrays must be one-dimensional")
        column = values.astype(np.float64, copy=False)
        if np.isinf(column).any():
            raise TableError("non-finite numbers are not valid cells; use missing instead")
        return _frozen(column)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return _frozen(_column_of_cells([_normalize_cell(v) for v in values]))


def cells_of(column) -> list:
    """Python cells of a column array (``NaN`` reads as missing); other sequences as given."""
    if not isinstance(column, np.ndarray):
        return column
    cells = column.tolist()
    if column.dtype.kind == "f":
        for i in np.flatnonzero(np.isnan(column)).tolist():
            cells[i] = None
    return cells


def missing_of(column: np.ndarray) -> np.ndarray:
    """Boolean mask of the missing cells of a column array."""
    if column.dtype == object:
        return np.equal(column, None)
    return np.isnan(column)


class DataTable:
    """Ordered named columns of equal length plus stable integer row identifiers."""

    __slots__ = ("column_names", "_columns", "_index")

    def __init__(self, columns: dict, row_index: Sequence[int] | np.ndarray | None = None):
        names = list(columns)
        if len(set(names)) != len(names):
            raise TableError("duplicate column names")
        data: dict[str, np.ndarray] = {}
        n_rows = None
        for name in names:
            col = _as_column(columns[name])
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise TableError(
                    f"column {name!r} has {len(col)} rows, expected {n_rows}"
                )
            data[name] = col
        if n_rows is None:
            n_rows = 0
        if row_index is None:
            row_index = np.arange(n_rows, dtype=np.int64)
        try:
            index = np.asarray(row_index, dtype=np.int64)
        except OverflowError:
            raise TableError("row_index values must fit in 64 bits") from None
        if index.shape != (n_rows,):
            raise TableError("row_index length does not match column length")
        self.column_names = names
        self._columns = data
        self._index = _frozen(index)

    @property
    def n_rows(self) -> int:
        return len(self._index)

    @property
    def index(self) -> np.ndarray:
        """``row_index`` as a read-only int64 array."""
        return self._index

    @property
    def row_index(self) -> list[int]:
        return self._index.tolist()

    def array(self, name: str) -> np.ndarray:
        """The stored read-only column: float64 with NaN for missing, or object cells."""
        return self._columns[name]

    def column(self, name: str) -> list[Cell]:
        return cells_of(self._columns[name])

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def take(self, rows: Sequence[int]) -> "DataTable":
        """New table with the given positional rows, preserving row_index values."""
        rows = np.asarray(rows, dtype=np.intp)
        return DataTable._trusted({name: col[rows] for name, col in self._columns.items()},
                                self._index[rows])

    @classmethod
    def _trusted(cls, columns: dict, index: np.ndarray) -> "DataTable":
        """A table of column arrays already in stored form, of equal length, under unique
        names: taken as they are, with no normalizing or checks."""
        table = object.__new__(cls)
        table.column_names = list(columns)
        table._columns = {name: _frozen(col) for name, col in columns.items()}
        table._index = _frozen(index)
        return table

    def equals(self, other: "DataTable") -> bool:
        return (
            self.column_names == other.column_names
            and self.row_index == other.row_index
            and all(self.column(n) == other.column(n) for n in self.column_names)
        )

    def __repr__(self) -> str:
        return f"DataTable({len(self.column_names)} columns x {self.n_rows} rows)"


def _typed_column(fields: Sequence[str], sentinels) -> np.ndarray:
    """One column of CSV fields, typed by ``parse_cell``'s rules."""
    try:
        cells = [None if text in sentinels else float(text) for text in fields]
        values = np.array(cells, dtype=np.float64)
        if np.count_nonzero(np.isfinite(values)) + cells.count(None) == len(cells):
            return values
    except ValueError:
        pass
    # text, or 'nan'/'inf' spellings, which parse but stay text: each distinct field once
    typed = {text: parse_cell(text, sentinels) for text in set(fields)}
    return _column_of_cells(list(map(typed.__getitem__, fields)))


def load_csv(
    path,
    delimiter: str = ",",
    missing_sentinels: Sequence[str] = DEFAULT_MISSING_SENTINELS,
) -> DataTable:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise TableError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise TableError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise TableError(f"{path}: empty file (no header row)")
    names, body = rows[0], rows[1:]
    dupes = sorted(name for name, count in Counter(names).items() if count > 1)
    if dupes:
        raise TableError(f"{path}: duplicate headers: {', '.join(dupes)}")
    width = len(names)
    for number, row in enumerate(body, start=2):
        if len(row) != width:
            raise TableError(
                f"{path}: row {number} has {len(row)} fields, expected {width}"
            )
    fields = zip(*body) if body else ((),) * width
    sentinels = frozenset(missing_sentinels)
    columns = {name: _typed_column(col, sentinels) for name, col in zip(names, fields)}
    return DataTable._trusted(columns, np.arange(len(body), dtype=np.int64))


# cells per frame of rows, so the text never holds the whole table
_WRITE_BLOCK_CELLS = 1 << 14


def _field(text: str, delimiter: str) -> str:
    """``text`` as one CSV field under ``csv.writer``'s minimal quoting: quoted, with inner
    quotes doubled, when it holds the delimiter, a quote or a line break."""
    if delimiter in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _distinct_texts(column: np.ndarray, delimiter: str, empty: str) -> tuple:
    """Each distinct cell of an object column formatted as ``format_cell`` does and quoted,
    once, as UTF-8; and each cell's position among them."""
    cells = column.tolist()
    codes = {cell: code for code, cell in enumerate(dict.fromkeys(cells))}
    # the positions are held for the whole write, so in the narrowest type that fits
    inverse = np.fromiter(map(codes.__getitem__, cells), np.min_scalar_type(len(codes)), len(cells))
    return [(_field(format_cell(cell), delimiter) or empty).encode() for cell in codes], inverse


def write_csv(table: DataTable, path, delimiter: str = ",", include_row_index: bool = False) -> None:
    """Write RFC-4180-style CSV: CRLF line ends, fields quoted only when they must be,
    numbers as ``format_cell`` writes them, and missing cells as empty fields.

    The ``delimiter`` is one character. The row identifiers go first, under
    ``row_index``, or under ``suffixed_name("row", "index", ...)`` when a column
    already has that name.
    """
    from . import numtext

    names = table.column_names
    header = [suffixed_name("row", "index", names)] + names if include_row_index else names
    # csv.writer writes a row of one empty field as "", so it does not read as a blank line
    empty = '""' if len(header) == 1 else ""
    columns = [_distinct_texts(a, delimiter, empty) if a.dtype == object else a
               for a in map(table.array, names)]
    with open(path, "wb") as handle:
        handle.write((delimiter.join(_field(name, delimiter) or empty for name in header)
                      + "\r\n").encode())
        numtext.write_lines(handle, columns, table.n_rows, delimiter, len(header) == 1,
                            _WRITE_BLOCK_CELLS, table.index if include_row_index else None)


def infer_feature_kind(column: Iterable[Cell]) -> FeatureKind:
    """Kind from the multiset of non-missing values.

    All-numeric columns are numeric; otherwise a column with exactly two
    unique values is boolean; everything else (including all-missing) is
    categoric.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        if np.isnan(column).all():
            return FeatureKind.CATEGORIC
        return FeatureKind.NUMERIC
    seen = {value for value in cells_of(column) if value is not None}
    if not seen:
        return FeatureKind.CATEGORIC
    if all(isinstance(value, float) for value in seen):
        return FeatureKind.NUMERIC
    if len(seen) == 2:
        return FeatureKind.BOOLEAN_CATEGORIC
    return FeatureKind.CATEGORIC


def suffixed_name(base: str, category: str, existing: Iterable[str] = ()) -> str:
    """``base + '_' + category``; collisions with existing names get ``_1``, ``_2``, ..."""
    name = f"{base}_{category}"
    taken = set(existing)
    if name not in taken:
        return name
    counter = 1
    while f"{name}_{counter}" in taken:
        counter += 1
    return f"{name}_{counter}"


def sort_cells(values: Iterable[Cell]) -> list[Cell]:
    """Deterministic cell ordering: numbers first (ascending), then text."""
    return sorted(values, key=lambda v: (1, v) if isinstance(v, str) else (0, v))
