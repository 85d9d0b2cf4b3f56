import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnoise import pipeline
from tabnoise.encoders import column_as_floats
from tabnoise.errors import BasisFormatError, ConfigError, SchemaError, TableError, TabnoiseError
from tabnoise.pipeline import (
    KIND_PARAMS,
    MAX_AUGMENT_COUNT,
    NOISE_KINDS,
    _TRANSFORMS,
    AugmentSpec,
    _Group,
    _group_cells,
    _group_floats,
    apply,
    apply_with_stats,
    augment,
    fit,
    load_basis,
    orig_headers_mode,
    save_basis,
)
from tabnoise.sampling import SAMPLING_TYPES, SamplingPlan, StreamManager
from tabnoise.table import DataTable, write_csv
from tabnoise.trees import _NOISE_STEMS, _PARAM_TYPES, ROOT_PREFIX_POLICY, builtin_catalog


def _plan(seeds=None, **kwargs):
    kwargs.setdefault("sampling_type", "sampling_seed")
    kwargs.setdefault("seeding_type", "primary_seeds")
    return SamplingPlan(entropy_seeds=seeds or list(range(200)), **kwargs)


def _numeric_table(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return DataTable({"num": list(rng.normal(0, 2, size=n))})


def _mixed_table(n=30, seed=1):
    rng = np.random.default_rng(seed)
    cats = ["red", "green", "blue"]
    return DataTable(
        {
            "num": list(rng.normal(5, 3, size=n)),
            "cat": [cats[i] for i in rng.integers(0, 3, size=n)],
            "flag": [("y" if b else "n") for b in rng.integers(0, 2, size=n)],
            "label": [float(v) for v in rng.integers(0, 2, size=n)],
        }
    )


def test_powertransform_dp1_assignments():
    table = _mixed_table()
    res = fit(table, {"labels_column": "label", "powertransform": "DP1",
                      "shuffletrain": False}, _plan())
    plans = res.basis.column_plans
    assert plans["num"].root == "DPnb"
    assert plans["cat"].root == "DP10"
    assert plans["flag"].root == "DPbn"
    assert plans["label"].root == "excl"  # labels never receive noise


def test_powertransform_dp2_assignments():
    table = _mixed_table()
    res = fit(table, {"powertransform": "DP2", "shuffletrain": False}, _plan())
    assert res.basis.column_plans["num"].root == "DPrt"
    assert res.basis.column_plans["cat"].root == "DPod"


def test_assigncat_on_label_rejected():
    table = _mixed_table()
    with pytest.raises(ConfigError, match="label"):
        fit(table, {"labels_column": "label", "assigncat": {"DPnb": ["label"]}})


def test_assigncat_missing_column_rejected():
    with pytest.raises(ConfigError, match="ghost"):
        fit(_numeric_table(), {"assigncat": {"DPnb": ["ghost"]}})


def test_assigncat_unknown_category_rejected():
    with pytest.raises(ConfigError, match="DPxx"):
        fit(_numeric_table(), {"assigncat": {"DPxx": ["num"]}})


def test_shuffletrain_false_preserves_order():
    table = _numeric_table(n=15)
    res = fit(table, {"shuffletrain": False, "assigncat": {"excl": ["num"]}}, _plan())
    assert res.train.row_index == list(range(15))
    assert res.train.column("num_excl") == table.column("num")


def test_shuffletrain_permutes_rows():
    table = _numeric_table(n=50)
    res = fit(table, {"assigncat": {"excl": ["num"]}}, _plan())
    assert sorted(res.train.row_index) == list(range(50))
    assert res.train.row_index != list(range(50))


def test_validation_split_and_train_basis():
    rng = np.random.default_rng(3)
    table = DataTable({"num": list(rng.normal(10, 4, size=100))})
    res = fit(table, {"validation_ratio": 0.2, "shuffletrain": False,
                      "assigncat": {"nmbr": ["num"]}}, _plan())
    assert res.train.n_rows == 80
    assert res.validation.n_rows == 20
    assert len(res.basis.validation_row_index) == 20

    # stored statistics must match a recomputation on train-minus-validation rows
    val_rows = set(res.basis.validation_row_index)
    kept = [v for i, v in enumerate(table.column("num")) if i not in val_rows]
    mean = float(np.mean(kept))
    std = float(np.sqrt(np.mean((np.array(kept) - mean) ** 2)))
    step = res.basis.column_plans["num"].steps[0]
    assert step.payload["numeric_basis"].mean == mean
    assert step.payload["numeric_basis"].std == std

    # validation prepared on the train basis: values use train statistics
    val_values = res.validation.column("num_nmbr")
    expected = [(table.column("num")[i] - mean) / std for i in sorted(val_rows)]
    assert val_values == pytest.approx(expected)


@pytest.mark.parametrize("prepare", [
    lambda config, basis, short: apply(basis, short, "test", _plan()),
    lambda config, basis, short: fit(_mixed_table(), config, _plan(), test=short),
    lambda config, basis, short: augment(basis, short, AugmentSpec(1), _plan()),
], ids=["apply", "fit_test", "augment"])
def test_apply_missing_column_listed(prepare):
    config = {"powertransform": "DP1", "labels_column": "label"}
    res = fit(_mixed_table(), config, _plan())
    short = DataTable({"num": [1.0]})
    with pytest.raises(SchemaError, match="^data is missing fitted schema columns: cat, flag$"):
        prepare(config, res.basis, short)


def test_apply_label_column_optional():
    res = fit(_mixed_table(), {"powertransform": "DP1", "labels_column": "label"}, _plan())
    unlabeled = DataTable(
        {"num": [1.0], "cat": ["red"], "flag": ["y"]}
    )
    out = apply(res.basis, unlabeled, "test", _plan())
    assert not any(c.startswith("label") for c in out.column_names)


def test_apply_extra_columns_warn_and_ignored():
    res = fit(_numeric_table(), {"assigncat": {"nmbr": ["num"]}}, _plan())
    table = DataTable({"num": [1.0], "bonus": [2.0]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = apply(res.basis, table, "test", _plan())
    assert any("bonus" in str(w.message) for w in caught)
    assert "bonus" not in out.column_names


def test_augment_checks_the_schema_once():
    res = fit(_numeric_table(), {"assigncat": {"nmbr": ["num"]}}, _plan())
    table = DataTable({"num": [1.0, 2.0], "bonus": [2.0, 3.0]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = augment(res.basis, table, AugmentSpec.from_literal("2"), _plan())
    assert [str(w.message) for w in caught] == ["ignoring columns not in fitted schema: bonus"]
    assert out.n_rows == 6 and "bonus" not in out.column_names


def test_traindata_mode_semantics_dp():
    table = _numeric_table(n=40, seed=5)
    config = {
        "shuffletrain": False,
        "assigncat": {"DPnb": ["num"]},
        "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 1.0, "sigma": 2.0}}},
    }
    res = fit(table, config, _plan())
    baseline = apply(res.basis, table, "test_no_noise", _plan())
    # DP: noise on train mode only
    modes_fire = {"train": True, "test": False, "train_no_noise": False, "test_no_noise": False}
    for mode, fires in modes_fire.items():
        out = apply(res.basis, table, mode, _plan())
        same = out.column("num_DPnbe_DPnb") == baseline.column("num_DPnbe_DPnb")
        assert same != fires, mode


def test_phase_symmetry_of_encodings():
    table = _mixed_table()
    res = fit(table, {"powertransform": "DB1", "labels_column": "label"}, _plan())
    a = apply(res.basis, table, "train_no_noise", _plan())
    b = apply(res.basis, table, "test_no_noise", _plan())
    assert a.column_names == b.column_names
    for name in a.column_names:
        assert a.column(name) == b.column(name)


def test_same_seeds_same_output():
    table = _mixed_table()
    config = {"powertransform": "DB1", "labels_column": "label", "shuffletrain": False}
    out1 = apply(fit(table, config, _plan()).basis, table, "test", _plan())
    out2 = apply(fit(table, config, _plan()).basis, table, "test", _plan())
    for name in out1.column_names:
        assert out1.column(name) == out2.column(name)


def test_dt_train_mode_equals_noiseless():
    table = _mixed_table()
    config = {"assigncat": {"DTnb": ["num"], "DTod": ["cat"]}, "shuffletrain": False}
    res = fit(table, config, _plan())
    noisy = apply(res.basis, table, "train", _plan())
    clean = apply(res.basis, table, "train_no_noise", _plan())
    for name in noisy.column_names:
        assert noisy.column(name) == clean.column(name)


def test_db_equals_dp_on_train_and_dt_on_test():
    table = _numeric_table(n=25, seed=8)
    plans = {}
    for root in ("DPnb", "DTnb", "DBnb"):
        config = {"assigncat": {root: ["num"]}, "shuffletrain": False,
                  "assignparam": {"default_assignparam": {root: {"flip_prob": 0.5}}}}
        res = fit(table, config, _plan())
        plans[root] = res.basis
    db_train = apply(plans["DBnb"], table, "train", _plan())
    dp_train = apply(plans["DPnb"], table, "train", _plan())
    assert db_train.column("num_DBnbe_DBnb") == dp_train.column("num_DPnbe_DPnb")
    db_test = apply(plans["DBnb"], table, "test", _plan())
    dt_test = apply(plans["DTnb"], table, "test", _plan())
    assert db_test.column("num_DBnbe_DBnb") == dt_test.column("num_DTnbe_DTnb")


def test_worked_example_via_config():
    table = DataTable({"column": [1.0, 2.0, 3.0, None, 10.0], "other": [1.0] * 5})
    config = {
        "shuffletrain": False,
        "processdict": {"newt": {"functionpointer": "nmbr"}},
        "transformdict": {
            "newt": {
                "parents": ["newt"],
                "siblings": [],
                "auntsuncles": [],
                "cousins": ["NArw"],
                "children": [],
                "niecesnephews": [],
                "coworkers": [],
                "friends": ["bsor"],
            }
        },
        "assigncat": {"newt": ["column"], "excl": ["other"]},
    }
    res = fit(table, config, _plan())
    assert res.basis.column_plans["column"].output_columns == [
        "column_newt",
        "column_newt_bsor",
        "column_NArw",
    ]


def test_bincount_parameter_reaches_stdbins():
    table = DataTable({"column": list(np.linspace(-3, 3, 50))})
    config = {
        "shuffletrain": False,
        "processdict": {"newt": {"functionpointer": "nmbr"}},
        "transformdict": {"newt": {"parents": ["newt"], "friends": ["bsor"]}},
        "assigncat": {"newt": ["column"]},
        "assignparam": {"bsor": {"column": {"bincount": 7}}},
    }
    res = fit(table, config, _plan())
    step = res.basis.column_plans["column"].steps[1]
    assert step.category == "bsor" and step.payload["bincount"] == 7
    bins = res.train.column("column_newt_bsor")
    assert set(bins) <= set(float(b) for b in range(7))
    # odd bincount: the center bin straddles the mean
    center = bins[len(bins) // 2]
    assert center == 3.0


@pytest.mark.parametrize("bincount", [2, 3, 6, 7, 40, 41])
def test_stdbins_codes_match_list_edges(bincount):
    values = np.random.default_rng(28).normal(0.3, 1.7, size=400)
    table = DataTable({"column": list(values)})
    config = {"shuffletrain": False, "assigncat": {"bsor": ["column"]},
              "assignparam": {"bsor": {"column": {"bincount": bincount}}}}
    res = fit(table, config, _plan())
    payload = res.basis.column_plans["column"].steps[0].payload
    mean, std = payload["mean"], payload["std"]
    # the edges as a list of Python floats, one per pair of neighbouring bins
    if bincount % 2:
        offsets = [k + 0.5 for k in range(-(bincount // 2), bincount // 2)]
    else:
        offsets = list(range(-(bincount // 2 - 1), bincount // 2))
    want = np.digitize(values, np.array([mean + std * k for k in offsets]))
    assert res.train.column("column_bsor") == [float(code) for code in want]


def test_stdbins_on_a_zero_spread_column_puts_every_row_in_the_middle_bin():
    config = {"shuffletrain": False, "assigncat": {"bsor": ["column"]},
              "assignparam": {"bsor": {"column": {"bincount": 7}}}}
    res = fit(DataTable({"column": [2.5] * 9}), config, _plan())
    assert res.basis.column_plans["column"].steps[0].payload["std"] == 0.0
    assert res.train.column("column_bsor") == [3.0] * 9
    later = apply(res.basis, DataTable({"column": [-40.0, 2.5, 1e6]}))
    assert later.column("column_bsor") == [3.0] * 3


def test_noise_augment_draws_no_shuffle_of_the_rows_it_replaces(monkeypatch):
    tags = []
    utility_sampler = StreamManager.utility_sampler

    def recorded(manager, tag):
        tags.append(tag)
        return utility_sampler(manager, tag)

    monkeypatch.setattr(StreamManager, "utility_sampler", recorded)
    fit(_numeric_table(), {"noise_augment": 1}, _plan())
    assert tags == ["augment_shuffle"]
    tags.clear()
    fit(_numeric_table(), {}, _plan())
    assert tags == ["shuffle"]


def test_composed_noise_profiles():
    # two gated injections with different scales stacked on one normalization
    table = _numeric_table(n=200, seed=9)
    config = {
        "shuffletrain": False,
        "processdict": {
            "DPn3": {"functionpointer": "nmbr"},
            "DPnb2": {"functionpointer": "DPnb",
                      "defaultparams": {"sigma": 0.05, "flip_prob": 0.5}},
        },
        "transformdict": {
            "DPnb": {"parents": ["DPn3"], "cousins": ["NArw"], "coworkers": ["DPnb2"]},
            "DPn3": {"parents": ["DPn3"], "children": ["DPnb"]},
        },
        "assignparam": {"default_assignparam": {"DPnb": {"sigma": 0.5, "flip_prob": 0.0001}}},
        "assigncat": {"DPnb": ["num"]},
    }
    res = fit(table, config, _plan())
    names = res.basis.column_plans["num"].output_columns
    assert names == ["num_DPn3_DPnb_DPnb2", "num_NArw"]
    clean = apply(res.basis, table, "train_no_noise", _plan())
    noisy = apply(res.basis, table, "train", _plan())
    changed = sum(
        a != b for a, b in zip(noisy.column(names[0]), clean.column(names[0]))
    )
    assert changed > 50  # the second profile flips half the entries


def test_zero_noise_equivalence_quick():
    table = _mixed_table()
    zero = {"global_assignparam": {"flip_prob": 0.0, "test_flip_prob": 0.0}}
    res_noise = fit(table, {"assigncat": {"DPnb": ["num"], "DPod": ["cat"]},
                            "assignparam": zero, "shuffletrain": False}, _plan())
    res_plain = fit(table, {"assigncat": {"nmbr": ["num"], "ord3": ["cat"]},
                            "shuffletrain": False}, _plan())
    assert res_noise.train.column("num_DPnbe_DPnb") == res_plain.train.column("num_nmbr")
    assert res_noise.train.column("cat_DPode_DPod") == res_plain.train.column("cat_ord3")


def test_dpne_rescales_by_train_std():
    rng = np.random.default_rng(10)
    values = list(rng.normal(0, 10.0, size=4000))
    table = DataTable({"num": values})
    config = {
        "shuffletrain": False,
        "assigncat": {"DPne": ["num"]},
        "assignparam": {"default_assignparam": {"DPne": {"flip_prob": 1.0}}},
    }
    res = fit(table, config, _plan())
    train_std = res.basis.column_plans["num"].steps[1].payload["train_std"]
    assert abs(train_std - 10.0) < 0.5
    out = res.train.column("num_DPnee_DPne")
    deltas = np.array(out) - np.array(values)
    observed = float(np.std(deltas))
    assert abs(observed - 0.06 * train_std) < 0.03  # sigma scaled by feature std


def test_missing_cells_never_perturbed():
    table = DataTable({"num": [1.0, None, 3.0, None, 5.0] * 10})
    config = {"shuffletrain": False, "assigncat": {"DPnb": ["num"]},
              "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 1.0}}}}
    res = fit(table, config, _plan())
    out = res.train.column("num_DPnbe_DPnb")
    marker = res.train.column("num_NArw")
    for value, miss in zip(out, marker):
        if miss == 1.0:
            assert value == 0.0  # imputed, untouched by noise


_NUMERIC_STEMS = ("nb", "mm", "rt", "ne")
_FLIP_STEMS = ("bn", "od", "oh", "10", "pc")


def _cells(table: DataTable | None) -> list | None:
    return table and [(name, table.column(name)) for name in table.column_names]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stem=st.sampled_from(_NUMERIC_STEMS + _FLIP_STEMS + ("se", "sk")),
       prefix=st.sampled_from(["DP", "DT", "DB"]), swap=st.booleans(),
       blanks=st.lists(st.booleans(), min_size=10, max_size=30), seed=st.integers(0, 2**16),
       sampling_type=st.sampled_from(SAMPLING_TYPES))
def test_missing_cells_never_perturbed_by_any_noise_stem(tmp_path_factory, stem, prefix, swap,
                                                         blanks, seed, sampling_type):
    """Under every sampling type, noise leaves missing cells alone; fit is deterministic,
    and a saved and loaded basis applies as the fitted one."""
    rng = np.random.default_rng(seed)
    if stem in _NUMERIC_STEMS:
        values = [float(v) for v in rng.normal(0, 1, size=len(blanks))]
    else:
        vocabulary = "ab" if stem == "bn" else "abc"
        values = [vocabulary[v] for v in rng.integers(0, len(vocabulary), size=len(blanks))]
    blanks[:2] = [False, False]  # at least two training values
    table = DataTable({"x": [None if blank else v for v, blank in zip(values, blanks)]})
    params = {"flip_prob": 0.9, "test_flip_prob": 0.9}
    if swap and stem in _FLIP_STEMS:
        params["swap_noise"] = True
    config = {"shuffletrain": False, "assigncat": {prefix + stem: ["x"]},
              "assignparam": {prefix + stem: {"x": params}}}

    def plan():  # a bank that bulk_seeds does not run dry
        return _plan(list(range(2000)), sampling_type=sampling_type)

    fitted, again = fit(table, config, plan()), fit(table, config, plan())
    assert [_cells(fitted.train), _cells(fitted.validation)] == [
        _cells(again.train), _cells(again.validation)]
    paths = [tmp_path_factory.mktemp("basis") / "basis.json" for _ in range(2)]
    save_basis(fitted.basis, paths[0])
    save_basis(again.basis, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    basis, loaded = fitted.basis, load_basis(paths[0])
    for mode in ("train", "test"):
        noisy = apply(basis, table, mode, plan())
        assert _cells(apply(loaded, table, mode, plan())) == _cells(noisy)
        clean = apply(basis, table, f"{mode}_no_noise", plan())
        assert noisy.column_names == clean.column_names
        for name in noisy.column_names:
            pairs = zip(noisy.column(name), clean.column(name), blanks)
            assert [(a, b) for a, b, blank in pairs if blank and a != b] == [], (mode, name)


# Finite floats at the edges of the format: the largest, the smallest subnormal, a signed
# zero, and magnitudes whose squares (past 1e154) or spreads overflow.
_EDGE_FLOATS = [1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0, 1e155, -1e155, 3e200, 1.5, -2.0]
_FINITE_ROOTS = ("nmbr", "mnmx", "retn", "exclf", "excl", "bsor") + tuple(
    prefix + stem for prefix in ROOT_PREFIX_POLICY for stem in _NOISE_STEMS)
_EDGE_COLUMN = "edge_col"


def _prepared_csv(table: DataTable, folder) -> bytes:
    write_csv(table, folder / "out.csv")
    return (folder / "out.csv").read_bytes()


def _named_error(call):
    """``call()``, or None when it raises a ``TabnoiseError``, which must name the column."""
    try:
        return call()
    except TabnoiseError as exc:
        assert _EDGE_COLUMN in str(exc), exc
        return None


# a short column warns that flip or swap noise is a no-op; a RuntimeWarning still fails
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(root=st.sampled_from(_FINITE_ROOTS), sampling_type=st.sampled_from(SAMPLING_TYPES),
       cells=st.lists(st.one_of(st.none(), st.sampled_from(_EDGE_FLOATS),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=1, max_size=24),
       flip=st.sampled_from([None, 0.5, 1.0]), sigma=st.sampled_from([None, 0.5, 3.0]),
       swap=st.booleans())
def test_finite_cells_in_give_finite_cells_out(tmp_path_factory, root, sampling_type, cells,
                                               flip, sigma, swap):
    """Every present input cell gives a present, finite cell in each output column, in every
    mode, or the command raises a TabnoiseError naming the column; fit is deterministic, and
    a saved and loaded basis applies as the fitted one."""
    table = DataTable({_EDGE_COLUMN: cells})
    accepted = KIND_PARAMS[builtin_catalog().resolve_entry(root)[0]]
    params = {name: value for name, value in (
        ("flip_prob", flip), ("test_flip_prob", flip), ("sigma", sigma), ("test_sigma", sigma),
        ("swap_noise", swap)) if name in accepted and value is not None}
    config = {"shuffletrain": False, "assigncat": {root: [_EDGE_COLUMN]},
              "assignparam": {root: {_EDGE_COLUMN: params}}}

    def plan():  # a bank that bulk_seeds does not run dry
        return _plan(list(range(2000)), sampling_type=sampling_type)

    fitted = _named_error(lambda: fit(table, config, plan()))
    if fitted is None:
        return
    present = [cell is not None for cell in cells]
    outputs = fitted.basis.plan_for(_EDGE_COLUMN).output_columns
    prepared = {"fit": fitted.train}
    for mode in pipeline.TRAINDATA_MODES:
        prepared[mode] = _named_error(lambda: apply(fitted.basis, table, mode, plan()))
    for mode, out in prepared.items():
        for name in outputs if out is not None else ():
            bad = [cell for cell, keep in zip(out.column(name), present)
                   if keep and not (isinstance(cell, (int, float)) and math.isfinite(cell))]
            assert bad == [], (mode, name)

    folder = tmp_path_factory.mktemp("finite")
    again = fit(table, config, plan())
    assert _prepared_csv(fitted.train, folder) == _prepared_csv(again.train, folder)
    save_basis(fitted.basis, folder / "a.json")
    save_basis(again.basis, folder / "b.json")
    assert (folder / "a.json").read_bytes() == (folder / "b.json").read_bytes()
    loaded = load_basis(folder / "a.json")
    for mode, out in prepared.items():
        if mode != "fit" and out is not None:
            reloaded = apply(loaded, table, mode, plan())
            assert _prepared_csv(reloaded, folder) == _prepared_csv(out, folder), mode


# every root the catalog defines, the encoders' own trees included
_CATALOG_ROOTS = tuple(sorted(builtin_catalog()._trees))
_FUZZ_CELLS = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(["a", "b", "x y", "0", "-0", "1.5"]),
                        st.integers(-3, 3), st.booleans())


@st.composite
def _fuzz_cases(draw):
    """A 1-3 column table, one root and its flip, swap and protected_feature per column,
    and a sampling type."""
    n = draw(st.integers(1, 12))
    names = [f"c{j}" for j in range(draw(st.integers(1, 3)))]
    table = DataTable({name: draw(st.lists(_FUZZ_CELLS, min_size=n, max_size=n))
                       for name in names})
    assigncat, assignparam = {}, {}
    for name in names:
        root = draw(st.sampled_from(_CATALOG_ROOTS))
        accepted = KIND_PARAMS[builtin_catalog().resolve_entry(root)[0]]
        options = (("flip_prob", st.sampled_from([0.5, 1.0])), ("swap_noise", st.booleans()),
                   ("protected_feature", st.sampled_from(names)))
        params = {key: draw(values) for key, values in options
                  if key in accepted and draw(st.booleans())}
        assigncat.setdefault(root, []).append(name)
        assignparam.setdefault(root, {})[name] = params
    config = {"shuffletrain": draw(st.booleans()),
              "validation_ratio": draw(st.sampled_from([0.0, 0.25])),
              "assigncat": assigncat, "assignparam": assignparam}
    return table, config, draw(st.sampled_from(SAMPLING_TYPES))


def _or_error(call):
    """``call()``, or None when it raises a ``TabnoiseError``."""
    try:
        return call()
    except TabnoiseError:
        return None


# a short column warns that flip or swap noise is a no-op; a RuntimeWarning still fails
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fuzz_cases())
def test_random_tables_and_roots_prepare_deterministically(tmp_path_factory, case):
    """Over random small tables of floats, texts, small ints, bools and blanks, with any root:
    every call succeeds or raises a TabnoiseError, two fits write the same bytes, a saved and
    loaded basis applies to the same bytes in every mode, and augment runs."""
    table, config, sampling_type = case

    def plan():  # a bank that bulk_seeds does not run dry
        return _plan(list(range(2000)), sampling_type=sampling_type)

    fitted = _or_error(lambda: fit(table, config, plan()))
    if fitted is None:
        return
    folder = tmp_path_factory.mktemp("fuzz")
    again = fit(table, config, plan())
    assert _prepared_csv(fitted.train, folder) == _prepared_csv(again.train, folder)
    save_basis(fitted.basis, folder / "a.json")
    save_basis(again.basis, folder / "b.json")
    assert (folder / "a.json").read_bytes() == (folder / "b.json").read_bytes()
    loaded = load_basis(folder / "a.json")
    for mode in pipeline.TRAINDATA_MODES:
        out = _or_error(lambda: apply(fitted.basis, table, mode, plan()))
        if out is not None:
            reloaded = apply(loaded, table, mode, plan())
            assert _prepared_csv(reloaded, folder) == _prepared_csv(out, folder), mode
    copies = augment(fitted.basis, table, AugmentSpec(1), plan())
    assert copies.n_rows == 2 * table.n_rows


def test_save_load_round_trip(tmp_path):
    table = _mixed_table()
    res = fit(table, {"powertransform": "DP1", "labels_column": "label",
                      "shuffletrain": False}, _plan())
    path = tmp_path / "basis.json"
    save_basis(res.basis, path)
    loaded = load_basis(path)
    out1 = apply(res.basis, table, "test", _plan())
    out2 = apply(loaded, table, "test", _plan())
    for name in out1.column_names:
        assert out1.column(name) == out2.column(name)


def test_save_deterministic_bytes(tmp_path):
    res = fit(_mixed_table(), {"powertransform": "DP1", "labels_column": "label",
                               "shuffletrain": False}, _plan())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_basis(res.basis, p1)
    save_basis(res.basis, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_wrong_version_rejected(tmp_path):
    res = fit(_numeric_table(), {"assigncat": {"nmbr": ["num"]}}, _plan())
    path = tmp_path / "basis.json"
    save_basis(res.basis, path)
    data = json.loads(path.read_text())
    data["format_version"] = "tabnoise-basis/999"
    path.write_text(json.dumps(data))
    with pytest.raises(BasisFormatError, match="version"):
        load_basis(path)


def test_load_corrupt_file_rejected(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text("{not json")
    with pytest.raises(BasisFormatError):
        load_basis(path)


def test_augment_integer_count():
    table = _numeric_table(n=50, seed=11)
    config = {"shuffletrain": False, "assigncat": {"DPnb": ["num"]},
              "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 1.0}}}}
    res = fit(table, config, _plan())
    out = augment(res.basis, table, AugmentSpec(count=2, all_noisy=False), _plan())
    assert out.n_rows == 150
    clean = apply(res.basis, table, "train_no_noise", _plan())
    clean_by_index = dict(zip(clean.row_index, clean.column("num_DPnbe_DPnb")))
    # copy 1 (row_index offset by 50) is the noiseless duplicate
    matches = 0
    for idx, value in zip(out.row_index, out.column("num_DPnbe_DPnb")):
        if clean_by_index[idx % 50] == value:
            matches += 1
    assert matches == 50


def test_augment_float_count_all_noisy():
    table = _numeric_table(n=40, seed=12)
    config = {"shuffletrain": False, "assigncat": {"DPnb": ["num"]},
              "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 1.0}}}}
    res = fit(table, config, _plan())
    out = augment(res.basis, table, AugmentSpec(count=2, all_noisy=True), _plan())
    assert out.n_rows == 120
    clean = apply(res.basis, table, "train_no_noise", _plan())
    clean_by_index = dict(zip(clean.row_index, clean.column("num_DPnbe_DPnb")))
    matches = sum(
        clean_by_index[idx % 40] == value
        for idx, value in zip(out.row_index, out.column("num_DPnbe_DPnb"))
    )
    assert matches == 0


def test_augment_count_zero_is_prepared_set():
    table = _numeric_table(n=10, seed=13)
    res = fit(table, {"shuffletrain": False, "assigncat": {"excl": ["num"]}}, _plan())
    out = augment(res.basis, table, AugmentSpec(count=0), _plan())
    assert out.n_rows == 10


def test_augment_duplicates_differ_pairwise():
    table = _numeric_table(n=30, seed=14)
    config = {"shuffletrain": False, "assigncat": {"DPnb": ["num"]},
              "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 1.0}}}}
    res = fit(table, config, _plan())
    out = augment(res.basis, table, AugmentSpec(count=2, all_noisy=True), _plan())
    by_copy = {0: {}, 1: {}, 2: {}}
    for idx, value in zip(out.row_index, out.column("num_DPnbe_DPnb")):
        by_copy[idx // 30][idx % 30] = value
    assert by_copy[0] != by_copy[1]
    assert by_copy[1] != by_copy[2]


def test_augment_stacks_masked_numbers_with_text_copy():
    # mask noise on every present cell turns the noisy copies into numbers,
    # while the noiseless copy keeps the column's text and missing cells
    table = DataTable({"a": ["x", 1.0, None, 2.0]})
    config = {"shuffletrain": False, "assigncat": {"DPsk": ["a"]},
              "assignparam": {"default_assignparam": {"DPsk": {"flip_prob": 1.0,
                                                               "mask_value": 5.0}}}}
    res = fit(table, config, _plan())
    out = augment(res.basis, table, AugmentSpec(count=2), _plan())
    assert out.row_index == list(range(12))
    masked = [5.0, 5.0, None, 5.0]
    assert out.column("a_DPske_DPsk") == masked + ["x", 1.0, None, 2.0] + masked


def test_augment_spec_literal_parsing():
    assert AugmentSpec.from_literal("2") == AugmentSpec(count=2, all_noisy=False)
    assert AugmentSpec.from_literal("2.0") == AugmentSpec(count=2, all_noisy=True)
    with pytest.raises(ConfigError):
        AugmentSpec.from_literal("2.5")
    with pytest.raises(ConfigError):
        AugmentSpec.from_literal("-1")


def test_augment_spec_count_is_bounded():
    assert AugmentSpec(count=MAX_AUGMENT_COUNT).count == MAX_AUGMENT_COUNT
    for count in (-1, MAX_AUGMENT_COUNT + 1):
        with pytest.raises(ConfigError, match=f"between 0 and {MAX_AUGMENT_COUNT}"):
            AugmentSpec(count=count)


def _augmented_ids(row_index, count):
    table = DataTable({"x": [0.5, 1.5, 2.5][: len(row_index)]}, row_index=row_index)
    res = fit(table, {"shuffletrain": False}, _plan())
    return augment(res.basis, table, AugmentSpec(count), _plan()).row_index


def test_augment_strides_negative_row_ids_apart():
    # the stride counts from the smallest id, so no copy's ids meet another's
    assert _augmented_ids([-5, -3, -1], 2) == [-5, -3, -1, 0, 2, 4, 5, 7, 9]


@pytest.mark.parametrize("row_index", [[0, 2**61], [0, 2**62]])
def test_augment_row_ids_past_int64_raise_table_error(row_index):
    with pytest.raises(TableError, match="^augment: the row identifiers of copy 3 would not fit"):
        _augmented_ids(row_index, 3)
    assert max(_augmented_ids([0, 2**61], 2)) == 3 * 2**61 + 2


def test_assigncat_string_is_its_one_element_list():
    table = _mixed_table()
    string = fit(table, {"shuffletrain": False, "assigncat": {"DPod": "cat"}}, _plan())
    listed = fit(table, {"shuffletrain": False, "assigncat": {"DPod": ["cat"]}}, _plan())
    assert string.basis.column_plans["cat"].root == "DPod"
    assert asdict(string.basis) == asdict(listed.basis)
    assert string.train.equals(listed.train)


def test_orig_headers_skips_a_label_later_data_lacks():
    table = DataTable({"a": [1.0, 2.0, 3.0], "b": ["x", "y", "x"], "label": [0.0, 1.0, 0.0]})
    config = {"shuffletrain": False, "labels_column": "label",
              "assigncat": {"DTne": ["a"], "DTse": ["b"]}}
    res = fit(table, config, _plan())
    later = DataTable({"a": [4.0, 5.0], "b": ["y", "x"]})
    restored = orig_headers_mode(apply(res.basis, later, "test", _plan()), res.basis)
    assert restored.column_names == ["a", "b"]
    assert restored.column("b") == ["y", "x"]


def test_orig_headers_round_trip():
    table = DataTable({"a": [1.0, 2.0], "b": ["x", "y"], "c": [5.0, 6.0]})
    config = {"shuffletrain": False,
              "assigncat": {"DTne": ["a"], "DTse": ["b"], "excl": ["c"]}}
    res = fit(table, config, _plan())
    restored = orig_headers_mode(res.train, res.basis)
    assert restored.column_names == ["a", "b", "c"]
    assert restored.column("b") == ["x", "y"]


def test_orig_headers_rejects_multi_column_plans():
    table = _mixed_table()
    res = fit(table, {"powertransform": "DP1", "labels_column": "label",
                      "shuffletrain": False}, _plan())
    with pytest.raises(ConfigError, match="one-to-one"):
        orig_headers_mode(res.train, res.basis)


def test_orig_headers_rejects_a_column_no_plan_makes():
    res = fit(DataTable({"a": [1.0, 2.0]}), {"shuffletrain": False, "assigncat": {"excl": ["a"]}},
              _plan())
    prepared = DataTable({"a_excl": [1.0, 2.0], "zz": [3.0, 4.0]})
    with pytest.raises(ConfigError) as info:
        orig_headers_mode(prepared, res.basis)
    assert str(info.value) == ("original headers require a one-to-one plan; "
                               "unmapped outputs: ['zz']")


def test_excl_only_plan_identity():
    table = DataTable({"a": [1.0, None, 3.0], "b": ["x", "", "z"]})
    res = fit(table, {"shuffletrain": False, "assigncat": {"excl": ["a", "b"]}}, _plan())
    restored = orig_headers_mode(res.train, res.basis)
    assert restored.column("a") == table.column("a")
    assert restored.column("b") == table.column("b")


def test_sampling_seed_consumption_matches_report():
    table = _mixed_table()
    config = {"powertransform": "DB1", "labels_column": "label", "shuffletrain": False}
    res = fit(table, config, _plan())
    report = res.basis.seed_report
    # fit without validation or test data consumes exactly the train-phase ops
    assert res.ops_executed == report.sampling_seed_total_train
    _, stats = apply_with_stats(res.basis, table, "test", _plan())
    assert stats["ops_executed"] == report.sampling_seed_total_test
    _, stats = apply_with_stats(res.basis, table, "train", _plan())
    assert stats["ops_executed"] == report.sampling_seed_total_train


def test_transform_seed_totals():
    table = _mixed_table()
    config = {"powertransform": "DP1", "labels_column": "label", "shuffletrain": False}
    plan = SamplingPlan(sampling_type="transform_seed", seeding_type="primary_seeds",
                        entropy_seeds=list(range(50)))
    res = fit(table, config, plan)
    assert res.basis.seed_report.transform_seed_total == 3  # num, cat, flag
    assert res.seeds_consumed == 3
    _, stats = apply_with_stats(res.basis, table, "test", plan)
    assert stats["seeds_consumed"] == 3  # same independent of phase configuration


def test_protected_feature_through_pipeline():
    rng = np.random.default_rng(15)
    n = 3000
    groups = ["a"] * (n // 2) + ["b"] * (n // 2)
    values = np.concatenate([rng.normal(0, 2.0, n // 2), rng.normal(0, 0.5, n // 2)])
    table = DataTable({"num": list(values), "grp": groups})
    config = {
        "shuffletrain": False,
        "assigncat": {"DPne": ["num"], "excl": ["grp"]},
        "assignparam": {"default_assignparam": {
            "DPne": {"flip_prob": 1.0, "protected_feature": "grp",
                     "rescale_sigmas": False, "sigma": 1.0},
        }},
    }
    res = fit(table, config, _plan())
    out = np.array(res.train.column("num_DPnee_DPne"))
    deltas = out - values
    std_a = float(np.std(deltas[: n // 2]))
    std_b = float(np.std(deltas[n // 2:]))
    ratio = std_a / std_b
    expected = float(np.std(values[: n // 2])) / float(np.std(values[n // 2:]))
    assert abs(ratio - expected) / expected < 0.1


@pytest.mark.parametrize("root", ["DPne", "DPod"])
def test_protected_feature_naming_no_training_column_rejected_at_fit(root):
    table = DataTable({"x": [1.0, 2.0, 3.0, 4.0], "grp": ["a", "b", "a", "b"]})
    config = {"assigncat": {root: ["x"]},
              "assignparam": {root: {"x": {"protected_feature": "nope"}}}}
    with pytest.raises(SchemaError, match="^column 'nope' required by a fitted transform is "
                                          "absent$"):
        fit(table, config, _plan())


def test_unknown_traindata_mode_rejected():
    res = fit(_numeric_table(), {"assigncat": {"excl": ["num"]}}, _plan())
    with pytest.raises(ConfigError, match="mode"):
        apply(res.basis, _numeric_table(), "validation", _plan())


def test_builtin_categories_resolve_to_every_declared_kind():
    catalog = builtin_catalog()
    kinds = {catalog.resolve_entry(category)[0] for category in catalog._process}
    assert kinds == _TRANSFORMS.keys()


def test_accepted_parameters_are_config_parameters():
    for kind, (*_, accepted) in _TRANSFORMS.items():
        assert set(accepted) <= _PARAM_TYPES.keys(), kind


def test_noise_kinds_are_the_kinds_with_resolved_parameters():
    resolved = {kind for kind, (_, _, payload, _) in _TRANSFORMS.items()
                if "resolved" in payload.__annotations__}
    assert set(NOISE_KINDS) == resolved


@st.composite
def _groups(draw):
    n = draw(st.integers(0, 12))
    cells = st.one_of(
        st.lists(st.floats(), min_size=n, max_size=n).map(
            lambda values: np.array(values, dtype=np.float64)),
        st.lists(st.integers(-3, 9), min_size=n, max_size=n).map(
            lambda codes: np.array(codes, dtype=np.int64)),
        st.lists(st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.none()),
                 min_size=n, max_size=n).map(lambda cells: np.array(cells, dtype=object)),
    )
    missing = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return _Group([draw(cells)], missing)


@settings(max_examples=200, deadline=None)
@given(_groups())
def test_group_floats_agree_with_group_cells_outside_missing_rows(group):
    """Both readings mask the same rows and agree on every other row; in a row
    only ``missing`` marks, ``_group_floats`` keeps a derived number (a code)."""
    values, missing = _group_floats(group)
    cell_values, cell_missing = column_as_floats(_group_cells(group))
    assert np.array_equal(missing, cell_missing)
    assert np.array_equal(values[~missing], cell_values[~missing])
    assert not cell_values[cell_missing].any()
    data = group.columns[0]
    if data.dtype != object:
        kept = group.missing & ~np.isnan(data.astype(np.float64))
        assert np.array_equal(values[kept], data[kept].astype(np.float64))


def test_a_step_taking_an_undeclared_operation_raises(monkeypatch):
    """The executor checks each sampler checkout against the operations the step
    declares; here every noise step declares one operation fewer than it takes."""
    declared = pipeline._noise_ops
    monkeypatch.setattr(pipeline, "_noise_ops", lambda *args: declared(*args)[:-1])
    with pytest.raises(RuntimeError, match=r"^transform num#1 took sampling operations "
                                           r"\['mask', 'noise'\], but declares \['mask'\]$"):
        fit(_numeric_table(), {"assigncat": {"DPnb": ["num"]}}, _plan())


def test_stdbins_after_ordinal_bins_the_missing_code():
    """A missing row of an ordinal column holds the missing code (4 here), and
    stdbins bins that code; reading the codes as cells would bin 0.0 instead."""
    table = DataTable({"c": ["a", "b", None, "c", "a", None]})
    config = {
        "shuffletrain": False,
        "processdict": {"myord": {"functionpointer": "ord3"},
                        "mybins": {"functionpointer": "bsor"}},
        "transformdict": {"myroot": {"parents": ["myord"]}, "myord": {"coworkers": ["mybins"]}},
        "assigncat": {"myroot": ["c"]},
    }
    res = fit(table, config, _plan())
    assert res.train.column("c_myord_mybins") == [2.0, 3.0, 5.0, 4.0, 2.0, 5.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("distribution", ["normal", "laplace", "uniform"])
@pytest.mark.parametrize("root", ["DPnb", "DPmm", "DBne", "DBrt"])
def test_a_noise_scale_near_the_largest_float_overflows_without_a_warning(root, distribution):
    """The config range of sigma, [0, inf], admits 1e308: a draw at that scale overflows
    to inf without a numpy warning, and the executor's non-finite check reports it."""
    params = {"sigma": 1e308, "test_sigma": 1e308, "flip_prob": 1.0, "test_flip_prob": 1.0,
              "noisedistribution": distribution, "test_noisedistribution": distribution}
    config = {"assigncat": {root: ["num"]}, "assignparam": {root: {"num": params}}}
    for sampling_type in ("sampling_seed", "bulk_seeds"):
        plan = _plan(list(range(2000)), sampling_type=sampling_type)
        try:
            apply(fit(_numeric_table(), config, plan).basis, _numeric_table(), "test", plan)
        except TableError as exc:
            assert "gives a non-finite number" in str(exc)


def test_load_basis_with_a_non_finite_number_rejected(tmp_path):
    # json.load reads the non-standard NaN token as a float: a basis number must be finite
    res = fit(_numeric_table(), {"assigncat": {"DPnb": ["num"]}}, _plan())
    path = tmp_path / "basis.json"
    save_basis(res.basis, path)
    data = json.loads(path.read_text())
    steps = data["column_plans"]["num"]["steps"]
    idx = next(i for i, step in enumerate(steps) if step["kind"] == "noise_numeric")
    steps[idx]["payload"]["train_std"] = float("nan")
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    with pytest.raises(BasisFormatError, match=rf"^basis\.column_plans\.num\.steps\[{idx}\]"
                                               r"\.payload\.train_std: expected a number"):
        load_basis(path)


@pytest.mark.parametrize("sampling_type", ["sampling_seed", "bulk_seeds"])
@pytest.mark.parametrize("root, params", [("DPse", {}), ("DPod", {"swap_noise": True})])
def test_swap_noise_partners_of_present_rows_are_present(sampling_type, root, params):
    # every third cell blank and every present row activated: a partner drawn over all
    # rows would write a third of the present cells blank
    cells = [None if i % 3 == 0 else float(i % 7) for i in range(30)]
    config = {"shuffletrain": False, "assigncat": {root: ["x"]},
              "assignparam": {root: {"x": {"flip_prob": 1.0, **params}}}}
    res = fit(DataTable({"x": cells}), config, _plan(sampling_type=sampling_type))
    name = res.basis.plan_for("x").steps[1].output_columns[0]
    out = res.train.array(name)
    present = np.array([c is not None for c in cells])
    if root == "DPse":  # the cells themselves
        assert not np.isnan(out[present]).any() and np.isnan(out[~present]).all()
        assert out[present].tolist() != [c for c in cells if c is not None]
    else:  # ordinal codes: the missing code only in the missing rows
        basis = res.basis.plan_for("x").steps[0].payload["categoric_basis"]
        assert (out == basis.missing_code).tolist() == (~present).tolist()


def _below_encoder(encoder, root):
    """A 20-row column ``c`` (every fifth cell blank) under ``encoder``, with ``root`` below it."""
    table = DataTable({"c": [None if i % 5 == 0 else "abc"[i % 3] for i in range(20)]})
    config = {"shuffletrain": False,
              "processdict": {"enc": {"functionpointer": encoder}, "nz": {"functionpointer": root}},
              "transformdict": {"encroot": {"parents": ["enc"]}, "enc": {"children": ["nz"]}},
              "assigncat": {"encroot": ["c"]}}
    return table, config


@pytest.mark.parametrize("encoder, width", [("onht", 4), ("1010", 3)])
@pytest.mark.parametrize("root, kind", [("DPnb", "noise_numeric"), ("DPmm", "noise_scaled"),
                                        ("DPne", "noise_numeric"), ("DPse", "noise_swap"),
                                        ("DPsk", "noise_mask"), ("nmbr", "zscore")])
def test_a_one_column_step_below_a_multi_column_encoder_is_rejected(encoder, width, root, kind):
    # every kind but a flip and a missing marker reads one column; below a one-hot or
    # binarized encoding it once kept the first column and dropped the others silently
    table, config = _below_encoder(encoder, root)
    with pytest.raises(ConfigError) as info:
        fit(table, config, _plan())
    assert str(info.value) == (f"transform c#1: a {kind} step reads one column, "
                               f"and 'c_enc' makes {width}")


def test_a_missing_marker_below_a_multi_column_encoder_marks_the_blank_rows():
    table, config = _below_encoder("onht", "NArw")
    res = fit(table, config, _plan())
    assert res.basis.plan_for("c").output_columns == ["c_enc_nz"]
    assert res.train.column_names == ["c_enc_nz"]
    assert res.train.column("c_enc_nz") == [int(i % 5 == 0) for i in range(20)]


@pytest.mark.parametrize("count", [0, 2, 5])
def test_augment_applies_each_step_above_noise_once(monkeypatch, count):
    """An encoder with no noise step upstream gives every copy the same arrays, so one
    augment applies it once; an encoder below a noise step runs for each copy."""
    rng = np.random.default_rng(5)
    table = DataTable({
        "n": [None if i % 5 == 0 else v for i, v in enumerate(rng.normal(size=40).tolist())],
        "c": [None if i % 7 == 0 else "abc"[i % 3] for i in range(40)],
        "m": rng.normal(size=40).tolist(),
    })
    config = {
        "shuffletrain": False,
        "processdict": {"nzenc": {"functionpointer": "nmbr"}, "nzb": {"functionpointer": "DPnb"},
                        "lvl": {"functionpointer": "ord3"}},
        "transformdict": {"nzroot": {"parents": ["nzenc"], "cousins": ["NArw"]},
                          "nzenc": {"children": ["nzb"]}, "nzb": {"children": ["lvl"]}},
        "assigncat": {"DPnb": ["n"], "DPod": ["c"], "nzroot": ["m"]},
        "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 0.5},
                                                "nzb": {"flip_prob": 0.5}}},
    }
    res = fit(table, config, _plan())
    calls = {"apply_numeric": 0, "apply_categoric": 0}
    for name in calls:
        def counted(*args, _apply=getattr(pipeline, name), _name=name):
            calls[_name] += 1
            return _apply(*args)
        monkeypatch.setattr(pipeline, name, counted)
    out = augment(res.basis, table, AugmentSpec(count=count), _plan())
    assert out.n_rows == 40 * (count + 1)
    # n's and m's z-scores; c's ordinal codes, and the codes of m's noised values per copy
    assert calls == {"apply_numeric": 2, "apply_categoric": 1 + (count + 1)}
