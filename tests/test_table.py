import csv
import random
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnoise import numtext, rng
from tabnoise import table as table_module
from tabnoise.errors import TableError
from tabnoise.table import (
    DataTable,
    FeatureKind,
    format_cell,
    infer_feature_kind,
    load_csv,
    parse_cell,
    suffixed_name,
    write_csv,
)


def test_cell_typing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1.5,,x\n")
    table = load_csv(path)
    assert table.column("a") == [1.5]
    assert table.column("b") == [None]
    assert table.column("c") == ["x"]


def test_integer_text_parses_numeric():
    assert parse_cell("3") == 3.0
    assert isinstance(parse_cell("3"), float)


def test_non_finite_spellings_stay_text():
    assert parse_cell("nan") == "nan"
    assert parse_cell("inf") == "inf"


def test_header_only_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    table = load_csv(path)
    assert table.column_names == ["a", "b"]
    assert table.n_rows == 0


def test_duplicate_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,a\n1,2\n")
    with pytest.raises(TableError, match="duplicate"):
        load_csv(path)


def test_ragged_row_names_row_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(TableError, match="row 3"):
        load_csv(path)


def test_missing_written_as_empty_field(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(DataTable({"a": [1.0, None], "b": [2.0, 3.0]}), path)
    assert path.read_text() == "a,b\n1,2\n,3\n"
    back = load_csv(path)
    assert back.column("a") == [1.0, None]


def test_zero_row_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(DataTable({"a": [], "b": []}), path)
    table = load_csv(path)
    assert table.column_names == ["a", "b"]
    assert table.n_rows == 0


def _random_table(rng: random.Random) -> DataTable:
    n_cols = rng.randint(1, 5)
    n_rows = rng.randint(0, 12)
    columns = {}
    for c in range(n_cols):
        cells = []
        for _ in range(n_rows):
            pick = rng.random()
            if pick < 0.2:
                cells.append(None)
            elif pick < 0.6:
                cells.append(rng.uniform(-1e6, 1e6))
            else:
                cells.append("v" + str(rng.randint(0, 50)))
        columns[f"col{c}"] = cells
    return DataTable(columns)


def test_round_trip_property(tmp_path):
    rng = random.Random(20240817)
    for i in range(100):
        table = _random_table(rng)
        path = tmp_path / f"rt{i}.csv"
        write_csv(table, path)
        back = load_csv(path)
        assert back.column_names == table.column_names
        for name in table.column_names:
            assert back.column(name) == table.column(name)


def test_quoted_fields_round_trip(tmp_path):
    table = DataTable({"a": ['has,comma', 'has"quote', "line\nbreak"]})
    path = tmp_path / "q.csv"
    write_csv(table, path)
    assert load_csv(path).column("a") == table.column("a")


def test_infer_feature_kind():
    assert infer_feature_kind([1.0, 2.0, None]) is FeatureKind.NUMERIC
    assert infer_feature_kind(["y", "n", "y"]) is FeatureKind.BOOLEAN_CATEGORIC
    assert infer_feature_kind(["a", "b", "c"]) is FeatureKind.CATEGORIC
    assert infer_feature_kind([None, None]) is FeatureKind.CATEGORIC
    # pure function of the multiset of non-missing values
    assert infer_feature_kind(["n", "y", "y", None]) is FeatureKind.BOOLEAN_CATEGORIC


def test_suffixed_name_chaining():
    assert suffixed_name("column", "newt") == "column_newt"
    assert suffixed_name("column_newt", "bsor") == "column_newt_bsor"
    assert suffixed_name("x", "NArw") == "x_NArw"


def test_suffixed_name_collision():
    assert suffixed_name("column", "newt", {"column_newt"}) == "column_newt_1"
    assert suffixed_name("column", "newt", {"column_newt", "column_newt_1"}) == "column_newt_2"


def test_duplicate_column_names_rejected():
    with pytest.raises(TableError):
        DataTable({})  # fine
        raise TableError("unreached")
    table = DataTable({"a": [1.0]})
    assert table.n_rows == 1
    # a mapping cannot repeat a name, (name, cells) pairs can; each repeated name is listed
    with pytest.raises(TableError, match=r"^duplicate column names: \['a', 'b'\]$"):
        DataTable([("b", [1.0]), ("a", [2.0]), ("b", [3.0]), ("a", ["x"]), ("c", [4.0])])
    table = DataTable([("b", [1.0]), ("a", ["x"])], row_index=[7])
    assert table.column_names == ["b", "a"] and table.row_index == [7]
    assert table.column("a") == ["x"]


def test_unequal_columns_rejected():
    with pytest.raises(TableError, match="rows"):
        DataTable({"a": [1.0], "b": [1.0, 2.0]})


def test_row_index_preserved_by_take():
    table = DataTable({"a": [1.0, 2.0, 3.0]}, row_index=[10, 11, 12])
    sub = table.take([2, 0])
    assert sub.row_index == [12, 10]
    assert sub.column("a") == [3.0, 1.0]


# -- column arrays ---------------------------------------------------------------


def test_inf_in_float_array_rejected():
    with pytest.raises(TableError, match="non-finite"):
        DataTable({"a": np.array([1.0, np.inf])})
    with pytest.raises(TableError, match="non-finite"):
        DataTable({"a": np.array([-np.inf], dtype=np.float32)})


def test_nan_in_float_array_reads_as_missing():
    table = DataTable({"a": np.array([1.5, np.nan, -0.0])})
    assert table.column("a") == [1.5, None, -0.0]
    assert infer_feature_kind(table.array("a")) is FeatureKind.NUMERIC


def test_int_and_bool_inputs_become_floats():
    table = DataTable({
        "ints": np.array([1, -2, 3], dtype=np.int64),
        "bools": np.array([True, False, True]),
        "int_cells": [1, -2, True],
    })
    for name in ("ints", "bools", "int_cells"):
        assert table.array(name).dtype == np.float64
        assert all(type(c) is float for c in table.column(name))
    assert table.column("ints") == [1.0, -2.0, 3.0]
    assert table.column("bools") == [1.0, 0.0, 1.0]
    assert table.column("int_cells") == [1.0, -2.0, 1.0]


def test_storage_types():
    table = DataTable({"num": [1.0, None], "text": ["x", None], "none": [None, None]},
                      row_index=[7, 9])
    assert table.array("num").dtype == np.float64
    assert table.array("none").dtype == np.float64
    assert table.array("text").dtype == object
    assert table.index.dtype == np.int64
    assert table.row_index == [7, 9]
    assert table.column("text") == ["x", None]
    with pytest.raises(TableError, match="one-dimensional"):
        DataTable({"a": np.zeros((2, 2))})
    with pytest.raises(TableError, match="64 bits"):
        DataTable({"a": [1.0]}, row_index=[2**63])


def test_columns_are_read_only():
    source = np.array([1.0, 2.0, 3.0])
    table = DataTable({"a": source, "b": ["x", "y", None]})
    for view in (table.array("a"), table.array("b"), table.index,
                 table.take([2, 0]).array("a"), table.take([1]).array("b")):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = view[0]
    # the caller's array stays writable; the table holds a read-only view of it
    assert source.flags.writeable


def test_transform_leaves_input_table_unchanged():
    from tabnoise.pipeline import apply, fit
    from tabnoise.sampling import SamplingPlan

    table = DataTable({"num": np.array([1.0, np.nan, 3.0, -2.0]),
                       "cat": ["a", "b", None, "a"]})
    before = {name: table.column(name) for name in table.column_names}
    config = {"shuffletrain": False, "assigncat": {"DPsk": ["num"], "DPod": ["cat"]},
              "assignparam": {"default_assignparam": {"DPsk": {"flip_prob": 1.0},
                                                      "DPod": {"flip_prob": 1.0}}}}
    plan = SamplingPlan(sampling_type="sampling_seed", seeding_type="primary_seeds",
                        entropy_seeds=list(range(50)))
    fitted = fit(table, config, plan)
    apply(fitted.basis, table, "train", plan)
    assert {name: table.column(name) for name in table.column_names} == before


# -- coded columns ----------------------------------------------------------------


def _bits(cells) -> list:
    """Each cell with its type, a float as its bit pattern, so -0.0 and 0.0 differ."""
    return [(type(c), struct.pack("<d", c) if isinstance(c, float) else c) for c in cells]


_CODED_CELLS = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0]),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(["a", "b", "0", "-0", ""]), st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_CODED_CELLS, max_size=16),
       floats=st.lists(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 5e-324]), st.floats(
           allow_nan=False, allow_infinity=False)), max_size=8), data=st.data())
def test_coded_cells_gather_back_bit_for_bit(cells, floats, data):
    """Coding cells and gathering them back gives the same cells, each zero with its sign;
    take and stacked move codes and give the per-cell results, a float part's too."""
    column = table_module.coded(cells)
    assert _bits(column.tolist()) == _bits(cells)
    assert len(set(_bits(column.cells))) == len(column.cells)  # each distinct cell once
    rows = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=12) if cells
                     else st.just([]))
    assert _bits(column[np.array(rows, dtype=np.intp)].tolist()) == _bits([cells[r] for r in rows])
    table = DataTable({"c": cells})
    assert _bits(table.take(rows).column("c")) == _bits([cells[r] for r in rows])
    part = np.array([np.nan if c is None else c for c in floats], dtype=np.float64)
    for parts, want in (([part, column], floats + cells), ([column, part], cells + floats),
                        ([column, column[::-1]], cells + cells[::-1]),
                        ([table.data("c"), part], cells + floats)):
        assert _bits(table_module.cells_of(table_module.stacked(parts))) == _bits(want)


# -- CSV round trip against the cell-by-cell reference ------------------------------


def _write_rows_reference(table, path, include_row_index, delimiter=","):
    """The row-at-a-time writer: csv.writer and one format_cell call per cell."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        names = table.column_names
        index_name = suffixed_name("row", "index", names)
        writer.writerow([index_name] + names if include_row_index else names)
        cols = [table.column(n) for n in names]
        for i in range(table.n_rows):
            row = [format_cell(col[i]) for col in cols]
            if include_row_index:
                row = [str(table.row_index[i])] + row
            writer.writerow(row)


def _load_cells_reference(path, sentinels, delimiter=","):
    """The cell-by-cell loader: parse_cell on every field, in row order."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle, delimiter=delimiter))
    names, body = rows[0], rows[1:]
    columns = {name: [] for name in names}
    for row in body:
        for name, field in zip(names, row):
            columns[name].append(parse_cell(field, sentinels))
    return columns


def _typed(cells):
    """Cells compared with their type and sign: -0.0 differs from 0.0."""
    return [(type(c).__name__, repr(c)) for c in cells]


_SENTINELS = ("NA", "?", "nan", "-", "0")
_special_float = st.sampled_from([
    -0.0, 0.0, 1e16, -1e16, 1e16 - 2.0, 5e-324, -5e-324, 0.1 + 0.2, 3.0, -7.0, 2.0**53,
    2.0**53 + 2.0, 1e-5, 123456.789, 1.7976931348623157e308,
])
_float_cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _special_float,
                        st.integers(-10**6, 10**6).map(float))
_text_cell = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e400", " 1.5 ", "1_0", "x",
                     'a,b', 'say "hi"', "line\nbreak", "NA", "?", "-", "0", "a;b", "t\tab",
                     "1.5", "cr\r"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=6),
    # longer than a 32-byte piece of the writer's text table
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            min_size=20, max_size=70),
)
# few values, so the same cells recur across write blocks; sentinels among the text
_repeated_cell = st.sampled_from([-0.0, 0.0, 1.5, 1e16, "0", "NA", "a.b", 'q"', "x", ""])
_CELLS = {
    "float": _float_cell,
    "text": _text_cell,
    "mixed": st.one_of(_float_cell, _text_cell),
    "zeros": st.sampled_from([-0.0, 0.0]),
    "repeated": _repeated_cell,
}
# "row_index" and "row_index_1" push the written index column's name along
_header_name = st.sampled_from(["{}", "{},x", "{};y", "{}\tz", "{}.w", '{}"q', "{}\nn", "{}\r",
                                "row_index", "row_index_1"])


@st.composite
def _whole_cells(draw, n_rows):
    """A column of few whole numbers: less than ``numtext._TABLE_SPAN`` apart, which the
    writer counts without a sort, or just that far apart; with blanks and -0.0, sometimes
    with 1e308, -1e308 or 5e-324, which it sorts, and sometimes with only blanks."""
    low = draw(st.sampled_from([0.0, -0.0, -7.0, 3.0, -2.0**53, 1e15]))
    span = draw(st.sampled_from([1, 2, numtext._TABLE_SPAN - 1, numtext._TABLE_SPAN]))
    values = [low, low + 1.0, low + span, -0.0]
    values += draw(st.lists(st.sampled_from([1e308, -1e308, 5e-324]), max_size=1))
    cell = st.none() if draw(st.integers(0, 7)) == 0 else st.one_of(st.none(),
                                                                    st.sampled_from(values))
    return draw(st.lists(cell, min_size=n_rows, max_size=n_rows))


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 4))
    columns = {}
    for j in range(n_cols):
        kind = draw(st.sampled_from(sorted(_CELLS) + ["whole"]))
        cells = draw(_whole_cells(n_rows) if kind == "whole" else st.lists(
            st.one_of(st.none(), _CELLS[kind]), min_size=n_rows, max_size=n_rows))
        columns[draw(_header_name).format(f"{kind}{j}")] = cells
    if n_cols == 1 and draw(st.booleans()):
        # a lone column named "": its header row is one empty field
        columns = {"": cells}
    row_index = draw(st.lists(st.integers(-2**62, 2**62), min_size=n_rows, max_size=n_rows))
    return DataTable(columns, row_index=row_index)


@settings(max_examples=300, deadline=None)
@given(table=_tables(), include_row_index=st.booleans(),
       extra=st.lists(st.sampled_from(_SENTINELS), max_size=2),
       cells=st.sampled_from([1, 3, table_module._WRITE_BLOCK_CELLS]),
       delimiter=st.sampled_from([",", ";", "\t", ".", "-"]))
def test_csv_round_trip_matches_cell_reference(tmp_path_factory, table, include_row_index,
                                               extra, cells, delimiter):
    tmp = tmp_path_factory.mktemp("rt")
    expected, path = tmp / "reference.csv", tmp / "columnar.csv"
    _write_rows_reference(table, expected, include_row_index, delimiter)
    # a small cell budget splits the rows across several write blocks
    with mock.patch.object(table_module, "_WRITE_BLOCK_CELLS", cells):
        write_csv(table, path, delimiter=delimiter, include_row_index=include_row_index)
    assert path.read_bytes() == expected.read_bytes()

    sentinels = ("",) + tuple(extra)
    back = load_csv(path, delimiter=delimiter, missing_sentinels=sentinels)
    reference = _load_cells_reference(path, sentinels, delimiter)
    assert back.column_names == list(reference)
    for name in back.column_names:
        assert _typed(back.column(name)) == _typed(reference[name])
        if not include_row_index:
            assert back.row_index == list(range(table.n_rows))


@pytest.mark.parametrize("values, sorted_", [
    ([], True),
    ([np.nan, np.nan], True),
    ([1.0, np.nan, -0.0, 0.0, np.nan, 3.0, 1.0], False),
    ([0.0, numtext._TABLE_SPAN - 1.0, np.nan], False),
    ([0.0, float(numtext._TABLE_SPAN)], True),
    ([-2.0**60, -2.0**60 + 256.0, -2.0**60], False),
    ([0.0, 2.5, 1.0], True),
    ([1e308, -1e308, 1e308], True),
    ([5e-324, 0.0], True),
    ([0.0, -5.037520636642236e-270, -1.0], True),  # the fraction rounds away in its offset
])
def test_distinct_values_match_unique(values, sorted_):
    column = np.array(values, dtype=np.float64)
    want_values, want_inverse = np.unique(column, return_inverse=True)
    with mock.patch.object(numtext.np, "unique", wraps=np.unique) as unique:
        got_values, got_inverse = numtext._distinct(column.copy())
    assert unique.called == sorted_
    assert np.array_equal(got_values, want_values, equal_nan=True)  # -0.0 equals 0.0
    assert got_inverse.tolist() == want_inverse.tolist()


def test_signed_zeros_and_lone_empty_fields_written_as_csv_writer_does(tmp_path):
    cases = [
        (DataTable({"z": [-0.0, 0.0, None, -0.0, 0.0]}), False),
        (DataTable({"": [None, "x", None]}), False),
        (DataTable({"": ["", None]}, row_index=[3, 4]), True),
        (DataTable({}), True),
    ]
    for number, (table, include_row_index) in enumerate(cases):
        expected, path = tmp_path / f"ref{number}.csv", tmp_path / f"out{number}.csv"
        _write_rows_reference(table, expected, include_row_index)
        write_csv(table, path, include_row_index=include_row_index)
        assert path.read_bytes() == expected.read_bytes(), number
    assert (tmp_path / "out0.csv").read_bytes() == b"z\r\n0\r\n0\r\n\"\"\r\n0\r\n0\r\n"


def test_a_long_text_widens_only_the_lines_near_it(tmp_path):
    # each text is held once, in 32-byte pieces, and a frame is only as wide as its own
    # lines, so the peak stays a few frames; padding every distinct text to the column's
    # longest would hold 2,000 x 20,000 bytes
    texts = [f"t{i}" for i in range(2000)] + ["x" * 20000] + ["\u00e9" * 40, "yy"]
    table = DataTable({"a": texts, "b": np.arange(len(texts), dtype=np.float64) / 7})
    expected, path = tmp_path / "reference.csv", tmp_path / "columnar.csv"
    _write_rows_reference(table, expected, include_row_index=True)
    write_csv(table, path, include_row_index=True)
    tracemalloc.start()
    try:
        write_csv(table, path, include_row_index=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == expected.read_bytes()
    assert peak < 2 * 2**20


_FLOAT_EDGES = [-0.0, 0.0, 1e16, -1e16, 9999999999999998.0, -9999999999999998.0, 5e-324,
                -5e-324, 1.5, -2.0, 1e300, 0.1 + 0.2, float("nan")]


def _texts(rows):
    return [row.tobytes().translate(None, b"\xff").decode() for row in rows]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(_FLOAT_EDGES),
                                 st.floats(allow_nan=False, allow_infinity=False),
                                 st.integers(-10**17, 10**17).map(float)), max_size=30),
       delimiter=st.sampled_from([",", ".", "e", "-", "5", "+", ";"]),
       lone=st.booleans(), block=st.sampled_from([1, 3, rng.BLOCK_ENTRIES]))
def test_float_fields_match_format_cell(values, delimiter, lone, block):
    # the vectorized float formatting of write_csv against format_cell, one cell at a time;
    # two columns, formatted in blocks of `block` distinct values filled across them
    column = np.array(values + _FLOAT_EDGES, dtype=np.float64)
    columns = [column, -np.nextafter(column[::-1], 0.0)]
    empty = '""' if lone else ""
    with mock.patch.object(rng, "BLOCK_ENTRIES", block):
        formatted = numtext.column_rows(columns, delimiter, lone)
    for column, part in zip(columns, formatted):
        rows = part.rows(slice(None))
        assert rows.dtype == np.uint8 and rows.shape == (len(column), part.width(slice(None)))
        want = [table_module._field(format_cell(None if np.isnan(v) else v), delimiter)
                or empty for v in column.tolist()]
        assert _texts(rows) == want


_REPR_EDGES = [5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-4, 1e-5, 2e23,
               2.0**53 + 1, 9999999999999998.0, 0.1, 0.30000000000000004, 1e22, 1e23,
               123456789012345.67, 0.00012345678901234567, 5e-5]


@settings(max_examples=300, deadline=None)
@given(patterns=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_rows_match_repr_on_raw_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], _REPR_EDGES,
                             np.ldexp(1.0, np.arange(-1074, 1024, 97))])
    # format_cell is repr for every float but the whole ones below 1e16
    want = [format_cell(v) for v in values.tolist()]
    assert _texts(numtext.text_rows(values, ",")) == want
    assert all(text == repr(v) for text, v in zip(want, values.tolist())
               if not (v.is_integer() and abs(v) < 1e16))


def test_integer_rows_cover_int64():
    values = np.array([0, 7, -7, 10, -10, 2**63 - 1, -2**63, 10**18, -10**18], dtype=np.int64)
    assert _texts(numtext.text_rows(values, ",")) == [str(v) for v in values.tolist()]
    assert _texts(numtext.text_rows(values, "-")) == [
        f'"{v}"' if v < 0 else str(v) for v in values.tolist()]
