"""Tidy tabular container with typed cells, kind inference, and suffix naming.

Cells are one of: finite 64-bit float, text string, or missing (``None``).
Typing happens at ingestion: a field that parses as a finite float becomes a
number, empty fields (or configured sentinels) become missing, everything
else stays text.

A column whose cells are all numbers or missing is stored as a read-only
``float64`` array with ``NaN`` for missing (cells are never non-finite, so
``NaN`` is free to mean missing). Any other column is a ``Coded``: a code per
row into the column's distinct cells, as a dictionary-encoded column store
holds it. Rows move as codes, and work on cells is done once per distinct cell
and gathered by the codes. ``_first_seen`` is the one place a sequence is coded
cell by cell; ``load_csv`` codes a text column by its distinct fields.
``row_index`` is an ``int64`` array. Python cells are made only at the edges:
``array()`` gives a coded column's cells as an object array, and ``column()``
and ``row_index`` return lists. Tables are immutable after construction and
safe to share; transforms always build new columns.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from enum import Enum
from itertools import count, repeat
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


def _frozen(array):
    """A read-only view of ``array`` (the array itself when already read-only, or coded)."""
    if isinstance(array, np.ndarray) and array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


class Coded:
    """A column of cells as ``codes``, one integer per row, into ``cells``, an object array:
    row ``i`` holds ``cells[codes[i]]``. Equal cells may sit under two codes (the fields
    ``-0`` and ``0`` are two cells), and a cell no row holds may stay among ``cells``.
    Both arrays are read-only."""

    __slots__ = ("codes", "cells")

    def __init__(self, codes, cells: np.ndarray):
        self.codes = _frozen(np.asarray(codes, dtype=np.intp))
        self.cells = _frozen(cells)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> "Coded":
        """The given rows, moved as codes."""
        return Coded(self.codes[rows], self.cells)

    def tolist(self) -> list:
        return self.cells[self.codes].tolist()


def _first_seen(keys) -> tuple[np.ndarray, np.ndarray]:
    """The one pass that codes a sequence key by key, in C: where each distinct key of
    ``keys`` is first seen, in order, and each key's code, its position among those."""
    first: dict = {}
    seen = np.fromiter(map(first.setdefault, keys, count()), np.intp)
    at = np.fromiter(first.values(), np.intp, len(first))
    code_at = np.empty(len(seen), dtype=np.intp)
    code_at[at] = np.arange(len(at))
    return at, code_at[seen]


def _numeric(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "biuf"


def _array(column):
    """A column as it is when it is an array or coded; a sequence of cells as float64 when
    each cell is a number (not NaN) or missing, or else as an object array."""
    if isinstance(column, (np.ndarray, Coded)):
        return column
    cells = list(column)
    if all(c is None or isinstance(c, float) and c == c for c in cells):
        return np.array(cells, dtype=np.float64)
    return np.fromiter(cells, dtype=object, count=len(cells))


def coded(column) -> Coded:
    """A column as codes and distinct cells: a ``Coded`` as it is; a float array by the
    bits of its values, so -0.0 and 0.0 stay apart and NaN reads as missing; other cells
    by their type and text, so True, 1 and 1.0 take three codes."""
    column = _array(column)
    if isinstance(column, Coded):
        return column
    if column.dtype.kind == "f":
        values = column.astype(np.float64, copy=False)
        distinct, codes = np.unique(np.where(np.isnan(values), np.nan, values).view(np.uint64),
                                    return_inverse=True)
        cells = distinct.view(np.float64).astype(object)
        cells[np.isnan(distinct.view(np.float64))] = None
        return Coded(codes, cells)
    cells = column.tolist()
    at, codes = _first_seen(zip(map(type, cells), map(str, cells)))
    return Coded(codes, np.fromiter(map(cells.__getitem__, at.tolist()), dtype=object,
                                    count=len(at)))


def numbers_of(column) -> np.ndarray:
    """A column's cells as float64, with NaN for missing and text cells."""
    column = _array(column)
    if _numeric(column):
        return column.astype(np.float64, copy=False)
    column = coded(column)
    return np.array([c if isinstance(c, float) else np.nan for c in column.cells],
                    dtype=np.float64)[column.codes]


def as_stored(column, missing: np.ndarray | None = None):
    """``column`` in one of the two forms a table stores, with the rows ``missing`` marks
    as missing cells: numbers as float64 with NaN, other cells coded."""
    if _numeric(column):
        values = column.astype(np.float64, copy=False)
        return values if missing is None else np.where(missing, np.nan, values)
    column = coded(column)
    if missing is None:
        return column
    return Coded(np.where(missing, len(column.cells), column.codes), np.append(column.cells, None))


def _as_column(values):
    """Stored form of one column given as a numeric array, a ``Coded`` or a sequence of cells:
    float64 when every cell a row holds is a number or missing, else coded."""
    values = _array(values)
    if _numeric(values):
        if values.ndim != 1:
            raise TableError("column arrays must be one-dimensional")
        column = values.astype(np.float64, copy=False)
        if np.isinf(column).any():
            raise TableError("non-finite numbers are not valid cells; use missing instead")
        return _frozen(column)
    if not isinstance(values, Coded):  # cells a table holds are normalized; others once each
        values = coded(values)
        values = Coded(values.codes, np.array([_normalize_cell(c) for c in values.cells],
                                              dtype=object))
    numbers = np.fromiter(map(isinstance, values.cells, repeat((float, type(None)))), bool,
                          len(values.cells))
    return _frozen(numbers_of(values)) if numbers[values.codes].all() else values


def cells_of(column) -> list:
    """Python cells of a column (``NaN`` reads as missing)."""
    if not (isinstance(column, np.ndarray) and column.dtype.kind == "f"):
        return coded(column).tolist()
    cells = column.tolist()
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = None
    return cells


def missing_of(column) -> np.ndarray:
    """Boolean mask of the missing cells of a stored column."""
    if isinstance(column, Coded):
        return np.equal(column.cells, None)[column.codes]
    return np.isnan(column)


def put(column, rows: np.ndarray, part):
    """A copy of ``column`` whose ``rows`` hold the rows of ``part``, in order."""
    order = np.arange(len(column))
    order[rows] = len(column) + np.arange(len(part))
    return stacked([column, part])[order]


def stacked(parts: list):
    """One column of the parts' rows in order: numbers concatenated, or else codes into the
    parts' distinct cells, a dictionary that several parts share taken once."""
    if all(map(_numeric, parts)):
        return np.concatenate(parts)
    parts = [coded(part) for part in parts]
    dictionaries = {id(part.cells): part.cells for part in parts}
    starts = dict(zip(dictionaries, np.cumsum([0, *map(len, dictionaries.values())]).tolist()))
    codes = np.concatenate([part.codes + starts[id(part.cells)] for part in parts])
    # each cell object once: the copies augment stacks hold the same cells in new dictionaries
    cells = np.concatenate(list(dictionaries.values()))
    at, merged = _first_seen(map(id, cells))
    return Coded(merged[codes], cells[at])


class DataTable:
    """Ordered named columns of equal length plus stable integer row identifiers."""

    __slots__ = ("column_names", "_columns", "_index")

    def __init__(self, columns, row_index: Sequence[int] | np.ndarray | None = None):
        """``columns`` is a dict of name to cells, or (name, cells) pairs in order."""
        pairs = list(columns.items() if isinstance(columns, dict) else columns)
        data = dict(pairs)
        if len(data) != len(pairs):
            repeated = Counter(name for name, _ in pairs) - Counter(data.keys())
            raise TableError(f"duplicate column names: {sorted(repeated)}")
        n_rows = None
        for name, values in data.items():
            col = _as_column(values)
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
        self.column_names = list(data)
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
        """The column as a read-only array: float64 with NaN for missing, or object cells."""
        column = self._columns[name]
        return _frozen(column.cells[column.codes]) if isinstance(column, Coded) else column

    def data(self, name: str):
        """The stored column: float64 with NaN for missing, or a ``Coded``."""
        return self._columns[name]

    def column(self, name: str) -> list[Cell]:
        return cells_of(self._columns[name])

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def take(self, rows: Sequence[int]) -> "DataTable":
        """New table with the given positional rows, preserving row_index values."""
        rows = np.asarray(rows, dtype=np.intp)
        return DataTable({name: col[rows] for name, col in self._columns.items()},
                         self._index[rows])

    def equals(self, other: "DataTable") -> bool:
        return (
            self.column_names == other.column_names
            and self.row_index == other.row_index
            and all(self.column(n) == other.column(n) for n in self.column_names)
        )

    def __repr__(self) -> str:
        return f"DataTable({len(self.column_names)} columns x {self.n_rows} rows)"


def _typed_column(fields: Sequence[str], sentinels):
    """One column of CSV fields, typed by ``parse_cell``'s rules."""
    try:
        cells = [None if text in sentinels else float(text) for text in fields]
        values = np.array(cells, dtype=np.float64)
        if np.count_nonzero(np.isfinite(values)) + cells.count(None) == len(cells):
            return values
    except ValueError:
        pass
    # text, or 'nan'/'inf' spellings, which parse but stay text: coded by field, each
    # distinct field typed once
    at, codes = _first_seen(fields)
    return Coded(codes, np.array([parse_cell(fields[i], sentinels) for i in at.tolist()],
                                 dtype=object))


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
    return DataTable(columns)


# cells per frame of rows, so the text never holds the whole table
_WRITE_BLOCK_CELLS = 1 << 14


def _field(text: str, delimiter: str) -> str:
    """``text`` as one CSV field under ``csv.writer``'s minimal quoting: quoted, with inner
    quotes doubled, when it holds the delimiter, a quote or a line break."""
    if delimiter in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _distinct_texts(column: Coded, delimiter: str, empty: str) -> tuple:
    """Each distinct cell of a coded column formatted as ``format_cell`` does and quoted,
    once, as UTF-8; and the column's codes."""
    return ([(_field(format_cell(cell), delimiter) or empty).encode() for cell in column.cells],
            column.codes)


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
    columns = [_distinct_texts(a, delimiter, empty) if isinstance(a, Coded) else a
               for a in map(table.data, names)]
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
    column = coded(column)
    used = np.bincount(column.codes, minlength=len(column.cells)) > 0
    seen = {value for value in column.cells[used] if value is not None}
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
