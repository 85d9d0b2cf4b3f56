import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnoise.encoders import (
    CODECS,
    apply_categoric,
    apply_numeric,
    binarized_width,
    bits_to_codes,
    boolean_codes,
    codes_to_bits,
    fit_categoric,
    fit_numeric,
    ordinal_codes,
)


def test_fit_zscore_population_std():
    basis = fit_numeric([0.0, 2.0, 4.0], "zscore")
    assert basis.mean == 2.0
    assert abs(basis.std - 1.632993) < 1e-5  # population convention


def test_fit_minmax_degenerate_single_value():
    basis = fit_numeric([5.0], "minmax")
    assert basis.min == 5.0 and basis.max == 5.0
    out, _ = apply_numeric(basis, [5.0, 7.0])
    assert np.all(out == 0.5)


def test_fit_minmax_range():
    basis = fit_numeric([1.0, 2.0, 3.0], "minmax")
    assert basis.min == 1.0 and basis.max == 3.0


def test_apply_zscore_formula():
    basis = fit_numeric([1.0, 3.0], "zscore")
    assert basis.mean == 2.0 and basis.std == 1.0
    out, _ = apply_numeric(basis, [3.0])
    assert out[0] == 1.0


def test_apply_minmax_midpoint_and_clipping():
    basis = fit_numeric([1.0, 3.0], "minmax")
    out, _ = apply_numeric(basis, [2.0, 5.0, -4.0])
    assert out[0] == 0.5
    assert out[1] == 1.0  # out-of-range test values clip
    assert out[2] == 0.0


def test_minmax_outputs_always_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(50):
        train = list(rng.normal(0, 10, size=8))
        test = list(rng.normal(0, 30, size=20))
        basis = fit_numeric(train, "minmax")
        out, _ = apply_numeric(basis, test)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_zscore_self_application_normalizes():
    rng = np.random.default_rng(12)
    train = list(rng.normal(3.0, 7.0, size=500))
    basis = fit_numeric(train, "zscore")
    out, _ = apply_numeric(basis, train)
    assert abs(np.mean(out)) < 1e-9
    assert abs(np.sqrt(np.mean((out - np.mean(out)) ** 2)) - 1.0) < 1e-9


def test_zero_variance_zscore_outputs_zero():
    basis = fit_numeric([4.0, 4.0], "zscore")
    out, _ = apply_numeric(basis, [4.0, 9.0])
    assert np.all(out == 0.0)


def test_missing_excluded_from_stats_and_imputed_zero():
    basis = fit_numeric([0.0, 2.0, None, 4.0], "zscore")
    assert basis.mean == 2.0
    out, missing = apply_numeric(basis, [2.0, None])
    assert out[1] == 0.0
    assert list(missing) == [False, True]


def test_test_application_uses_train_statistics_only():
    train = [0.0, 1.0, 2.0, 3.0]
    basis = fit_numeric(train, "zscore")
    shifted = [x + 100.0 for x in train]
    out, _ = apply_numeric(basis, shifted)
    expected = (np.array(shifted) - basis.mean) / basis.std
    assert np.allclose(out, expected)


def test_fit_categoric_counts():
    basis = fit_categoric(["a", "b", "a"])
    assert basis.vocabulary == ["a", "b"]
    assert basis.frequencies == [2, 1]
    assert basis.missing_code is None
    assert sum(basis.frequencies) == 3


def test_fit_categoric_missing_entry_excluded_from_frequencies():
    basis = fit_categoric(["a", None, "a"])
    assert basis.vocabulary == ["a"]
    assert basis.frequencies == [2]
    assert basis.missing_code == 2


def test_fit_categoric_two_values():
    basis = fit_categoric(["y", "n"], "boolean")
    assert len(basis.vocabulary) == 2


def test_fit_categoric_empty():
    basis = fit_categoric([])
    assert basis.vocabulary == []


def test_ordinal_lookup_oracle():
    basis = fit_categoric(["a", "b"])
    lookup = {"a": 1, "b": 2}
    for value, code in lookup.items():
        assert ordinal_codes(basis, [value])[0] == code
    assert ordinal_codes(basis, ["z"])[0] == 0  # unseen -> unknown slot


def test_encode_decode_identity_on_seen_values():
    values = ["red", "green", "blue", "green"]
    basis = fit_categoric(values)
    codes = ordinal_codes(basis, values)
    assert [basis.value_of(int(c)) for c in codes] == values


def test_binarized_width_three_values():
    basis = fit_categoric(["a", "b", "c"], "binarized")
    assert binarized_width(basis) == 2  # ceil(log2(4))
    arrays = apply_categoric(basis, ["a", "b", "c", "zzz"])
    assert len(arrays) == 2
    grid = np.column_stack(arrays)
    assert list(grid[3]) == [0, 0]  # unknown -> code 0


def test_binarized_round_trip():
    from tabnoise.encoders import bits_to_codes

    basis = fit_categoric(["a", "b", "c", "d", "e"], "binarized")
    codes = ordinal_codes(basis, ["a", "e", "c"])
    bits = codes_to_bits(basis, codes)
    assert np.array_equal(bits_to_codes(basis, bits), codes)


def test_onehot_columns():
    basis = fit_categoric(["a", "b", "c"], "onehot")
    arrays = apply_categoric(basis, ["b", "zzz"])
    grid = np.column_stack(arrays)
    assert grid.shape == (2, 3)
    assert list(grid[0]) == [0, 1, 0]
    assert list(grid[1]) == [0, 0, 0]


def test_boolean_codes():
    basis = fit_categoric(["n", "y", "y"], "boolean")
    codes = boolean_codes(basis, ["n", "y", None])
    assert list(codes[:2]) == [0, 1]
    assert codes[2] == 1  # missing falls back to the more frequent value


# codes each encoding's columns can hold: a boolean column has no slot for
# unknown or missing cells, and a passthrough column reads unknown as missing
_CODE_RANGES = {"boolean": (1, 2), "passthrough": (1, 3)}


@pytest.mark.parametrize("encoding", sorted(CODECS))
def test_codecs_decode_what_they_encode(encoding):
    basis = fit_categoric(["a", None, "b", "a"], encoding)  # codes 1-2, missing code 3
    first, last = _CODE_RANGES.get(encoding, (0, 3))
    codes = np.arange(first, last + 1)
    codec = CODECS[encoding]
    assert codec.decode(basis, codec.encode(basis, codes)).tolist() == codes.tolist()
    # an encoded column, unseen and missing cells too, is re-encoded as it was
    columns = apply_categoric(basis, ["b", "zzz", None, "a"])
    again = codec.encode(basis, codec.decode(basis, columns))
    assert [c.tolist() for c in again] == [c.tolist() for c in columns]


def test_numeric_vocabulary_sorts_before_text():
    basis = fit_categoric([3.0, "b", 1.0, "a"])
    assert basis.vocabulary == [1.0, 3.0, "a", "b"]


def _boolean_codes_by_cell(basis, cells):
    """One cell at a time: missing and unseen cells take the fallback code."""
    fallback = 1 if len(basis.frequencies) == 2 and basis.frequencies[1] > basis.frequencies[0] else 0
    out = []
    for cell in cells:
        code = basis.code_of(cell)
        seen = cell is not None and code >= 1 and code != basis.missing_code
        out.append(code - 1 if seen else fallback)
    return out


def _bits_by_shift(codes, width):
    return [[(int(c) >> (width - 1 - bit)) & 1 for bit in range(width)] for c in codes]


_cell = st.sampled_from(["y", "n", "maybe", None, 1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(train=st.lists(_cell, max_size=12), cells=st.lists(_cell, max_size=12))
def test_vectorized_codes_match_cell_loops(train, cells):
    basis = fit_categoric(train, "binarized")
    codes = ordinal_codes(basis, cells)
    width = binarized_width(basis)
    bits = codes_to_bits(basis, codes)
    assert bits.shape == (len(cells), width)
    assert bits.tolist() == _bits_by_shift(codes, width)
    assert bits_to_codes(basis, bits).tolist() == codes.tolist()
    if len(basis.vocabulary) <= 2:
        boolean = fit_categoric(train, "boolean")
        assert boolean_codes(boolean, cells).tolist() == _boolean_codes_by_cell(boolean, cells)
