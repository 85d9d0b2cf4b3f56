"""The JSON walker, and what it guarantees for configs and saved bases."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Literal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabnoise
from tabnoise.cli import main
from tabnoise.errors import BasisFormatError, ConfigError, TabnoiseError
from tabnoise.noise import ParamDraw
from tabnoise.pipeline import MAX_AUGMENT_COUNT, FitConfig, apply, fit, load_basis, save_basis
from tabnoise.sampling import SamplingPlan
from tabnoise.schema import typed
from tabnoise.table import DataTable, load_csv

# -- the walker ------------------------------------------------------------------------


def test_walker_names_the_json_path():
    hint = dict[str, list[float | None]]
    assert typed(hint, {"a": [1, None, 2.5]}, "x", ConfigError) == {"a": [1, None, 2.5]}
    with pytest.raises(ConfigError, match=r"^x\.a\[1\]: expected a number or null, got 'y'$"):
        typed(hint, {"a": [1, "y"]}, "x", ConfigError)
    with pytest.raises(BasisFormatError, match=r"^x: expected an object, got \[\]$"):
        typed(hint, [], "x", BasisFormatError)


def test_walker_scalars_literals_and_unions():
    assert typed(float, 3, "x", ConfigError) == 3  # an integer is a number
    for hint, value in ((float, True), (int, 1.5), (bool, 0), (str, None),
                        (Literal["a", "b"], "c"), (float | list[float] | ParamDraw, "s")):
        with pytest.raises(ConfigError, match="^x: expected "):
            typed(hint, value, "x", ConfigError)
    draw = {"distribution": "uniform", "low": 0.1}
    assert typed(float | list[float] | ParamDraw, draw, "x", ConfigError) == draw
    with pytest.raises(ConfigError, match=r"^x: missing keys \['distribution'\]$"):
        typed(float | list[float] | ParamDraw, {"low": 0.1}, "x", ConfigError)
    with pytest.raises(ConfigError, match=r"^x: unknown keys \['lo'\]$"):
        typed(ParamDraw, {"distribution": "normal", "lo": 0.1}, "x", ConfigError)


def test_walker_builds_dataclasses_with_every_field():
    cfg = typed(FitConfig, {**asdict(FitConfig()), "powertransform": "DB2"}, "config", ConfigError)
    assert isinstance(cfg, FitConfig) and cfg.powertransform == "DB2"
    with pytest.raises(ConfigError, match=r"^config: missing keys \['validation_ratio', "):
        typed(FitConfig, {"labels_column": None}, "config", ConfigError)


# -- configs ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(key=st.sampled_from([f.name for f in fields(FitConfig)]), value=_JSON)
def test_any_json_under_a_config_key_raises_only_config_error(key, value):
    table = DataTable({"num": [0.5, 1.5, 2.0, 4.0], "cat": ["a", "b", "a", "c"]})
    plan = SamplingPlan(sampling_type="sampling_seed", seeding_type="primary_seeds",
                        entropy_seeds=list(range(100)))
    try:
        fit(table, {key: value}, plan)
    except ConfigError:
        pass


def test_noise_augment_above_the_maximum_raises_before_fitting():
    table = DataTable({"num": [0.5, 1.5, 2.0, 4.0], "cat": ["a", "b", "a", "c"]})
    plan = SamplingPlan(sampling_type="sampling_seed", seeding_type="primary_seeds",
                        entropy_seeds=list(range(100)))
    with pytest.raises(ConfigError, match=r"^config\.noise_augment: .* between 0 and 1000$"):
        fit(table, {"noise_augment": 67313210866122}, plan)
    assert fit(table, {"noise_augment": MAX_AUGMENT_COUNT}, plan).train.n_rows == 4 * 1001


# -- saved bases -----------------------------------------------------------------------

_STEMS = ("nb", "mm", "rt", "ne", "bn", "od", "oh", "10", "pc", "se", "sk")
_PROTECTABLE = ("nb", "mm", "rt", "ne", "bn", "od", "oh", "10", "pc")
_RANDOMIZED = {
    "flip_prob": st.sampled_from([[0.1, 0.4], {"distribution": "uniform", "low": 0.2,
                                                "high": 0.6}]),
    "sigma": st.sampled_from([[0.05, 0.3], {"distribution": "uniform", "low": 0.19,
                                             "high": 0.21}]),
}


def _task(n: int, seed: int) -> DataTable:
    rng = np.random.default_rng(seed)
    return DataTable({
        "x": [float(v) for v in rng.normal(0, 1, size=n)],
        "c": [str(v) for v in rng.integers(0, 2, size=n)],
        "seg": [str(v) for v in rng.integers(0, 3, size=n)],
    })


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), stem=st.sampled_from(_STEMS), prefix=st.sampled_from(["DP", "DT", "DB"]),
       protected=st.booleans(), retain=st.booleans(), seed=st.integers(0, 2**16))
def test_saved_basis_applies_as_the_fitted_one(tmp_path_factory, data, stem, prefix, protected,
                                               retain, seed):
    root = prefix + stem
    params = {"retain_basis": retain}
    if protected and stem in _PROTECTABLE:
        params["protected_feature"] = "seg"
    param = data.draw(st.sampled_from(sorted(_RANDOMIZED)))
    if param == "flip_prob" or stem not in ("se", "sk", "bn", "od", "oh", "10", "pc"):
        params[param] = data.draw(_RANDOMIZED[param])
    column = "c" if stem in ("bn", "od", "oh", "10", "pc", "se", "sk") else "x"
    config = {"assigncat": {root: [column]}, "assignparam": {root: {column: params}},
              "validation_ratio": 0.2}
    seeds = [seed + k for k in range(3000)]

    def plan():
        return SamplingPlan(sampling_type="sampling_seed", seeding_type="primary_seeds",
                            entropy_seeds=seeds)

    fitted = fit(_task(40, seed), config, plan())
    path = tmp_path_factory.mktemp("basis") / "basis.json"
    save_basis(fitted.basis, path)
    loaded = load_basis(path)
    again = path.with_name("again.json")
    save_basis(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    test = _task(25, seed + 1)
    for mode in ("train", "test"):
        assert apply(loaded, test, mode, plan()).equals(apply(fitted.basis, test, mode, plan()))


_FUZZ_VALUES = (None, "x", -1, [], {}, 1e300)


@pytest.fixture(scope="module")
def fitted_dir(tmp_path_factory):
    """A 40-row fit with every kind of noise step, its basis and its inputs; the one-hot
    column ``c1`` has blank cells, so its basis has a missing code."""
    work = tmp_path_factory.mktemp("fuzz")
    rows = [f"{i * 0.37 % 5:.3f},{(i * 7) % 11 / 10:.2f},{'abcd'[i % 4] if i % 5 else ''},"
            f"{'yn'[i % 3 == 0]},{'uvw'[i % 3]},{i % 6},{i * 1.5:.1f},{'pq'[i % 2]},{i % 2}\n"
            for i in range(40)]
    (work / "train.csv").write_text("n1,n2,c1,b1,s1,k1,n3,p,label\n" + "".join(rows))
    (work / "seeds.txt").write_text("".join(f"{i}\n" for i in range(3000)))
    (work / "config.json").write_text(json.dumps({
        "labels_column": "label", "validation_ratio": 0.1,
        "assigncat": {"DBnb": ["n1"], "DBmm": ["n2"], "DBoh": ["c1"], "DBbn": ["b1"],
                      "DBse": ["s1"], "DBsk": ["k1"], "bsor": ["n3"], "excl": ["p"]},
        "assignparam": {"DBnb": {"n1": {"protected_feature": "p", "sigma": [0.05, 0.2]}},
                        "DBoh": {"c1": {"protected_feature": "p", "flip_prob": [0.1, 0.3]}}},
        "sampling_dict": {"sampling_type": "sampling_seed", "seeding_type": "primary_seeds"},
    }))
    assert main(["fit", str(work / "train.csv"), "--config", str(work / "config.json"),
                 "--out-dir", str(work / "out"), "--entropy-seeds", str(work / "seeds.txt")]) == 0
    return work


def _json_paths(node, prefix=()):
    if prefix:
        yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _at(node, path: tuple):
    for key in path:
        node = node[key]
    return node


def _mutated(basis: dict, path: tuple, value) -> dict:
    data = copy.deepcopy(basis)
    _at(data, path[:-1])[path[-1]] = value
    return data


def _transform_args(work: Path, basis: Path) -> list:
    return ["transform", str(basis), str(work / "train.csv"), "--out", str(work / "o.csv"),
            "--entropy-seeds", str(work / "seeds.txt")]


def _base_edits(basis: dict):
    """(path, value) that sets a step's input_base or output_base to each base of its plan:
    the input column or a step's output."""
    for column, plan in basis["column_plans"].items():
        bases = [plan["input_column"]] + [step["output_base"] for step in plan["steps"]]
        for idx in range(len(plan["steps"])):
            for key in ("input_base", "output_base"):
                for base in bases:
                    yield ("column_plans", column, "steps", idx, key), base


def test_malformed_basis_exits_2_without_exception(fitted_dir):
    # a value of the schema's type (a number for a number) is a valid basis, and exits 0
    basis = json.loads((fitted_dir / "out" / "basis.json").read_text())
    cases = [(path, value) for path in _json_paths(basis) for value in _FUZZ_VALUES]
    edits = [(path, value, (0, 2)) for path, value in random.Random(0).sample(cases, 150)]
    # a base set to any other base of its plan is not the plan its root makes
    edits += [(path, value, (0,) if value == _at(basis, path) else (2,))
              for path, value in _base_edits(basis)]
    codes = []
    for path, value, allowed in edits:
        target = fitted_dir / "mutated.json"
        target.write_text(json.dumps(_mutated(basis, path, value)))
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(_transform_args(fitted_dir, target)))
        assert codes[-1] in allowed, (path, value)
    assert codes.count(2) > len(codes) // 2


def test_malformed_basis_no_traceback_on_stderr(fitted_dir):
    basis = json.loads((fitted_dir / "out" / "basis.json").read_text())
    path = ("column_plans", "n1", "steps", 1, "payload", "train_std")
    target = fitted_dir / "subprocess.json"
    target.write_text(json.dumps(_mutated(basis, path, "x")))
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "tabnoise.cli",
                           *_transform_args(fitted_dir, target)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "basis.column_plans.n1.steps[1].payload.train_std: expected a number" in proc.stderr
    assert "Traceback" not in proc.stderr


def _leaves(node):
    """(path, value) of every node that is not a mapping: numbers, strings, lists, nulls."""
    for path in _json_paths(node):
        value = _at(node, path)
        if not isinstance(value, dict):
            yield path, value


def _leaf_kind(value) -> str:
    if isinstance(value, list):
        return "strings" if any(isinstance(item, str) for item in value) else "numbers"
    return "string" if isinstance(value, str) else "number"


@pytest.fixture(scope="module")
def edit_leaf(fitted_dir):
    """A function of hypothesis data: the fitted basis with one leaf of a step's payload
    replaced. The leaves outside the payloads name columns and steps, which the fuzz
    above covers. Half of the values keep the leaf's kind (a number, a string, or a list
    of either), so many edits pass the type check; strings come from the basis itself
    (names, kinds, cells) or are short text. An edit inside a categoric basis is made
    in half the cases to every step of the plan that holds one, as a flip step must keep
    its input's basis."""
    basis = json.loads((fitted_dir / "out" / "basis.json").read_text())
    leaves = {}
    for path, value in _leaves(basis):
        if "payload" in path:
            leaves.setdefault(_leaf_kind(value), []).append(path)
    names = sorted({key for path in _json_paths(basis) for key in path if isinstance(key, str)}
                   | {value for _, value in _leaves(basis) if isinstance(value, str)})
    numbers = st.one_of(st.integers(-1, 9), st.floats(-1e3, 1e3))
    strings = st.one_of(st.sampled_from(names), st.text(max_size=2))
    values = {"number": numbers, "string": strings, "numbers": st.lists(numbers, max_size=6),
              "strings": st.lists(strings, max_size=6)}

    def edit(data) -> dict:
        kind = data.draw(st.sampled_from(sorted(leaves)))
        path = data.draw(st.sampled_from(leaves[kind]))
        if data.draw(st.booleans()):
            kind = data.draw(st.sampled_from(sorted(values)))
        value = data.draw(values[kind])
        edited = _mutated(basis, path, value)
        if "categoric_basis" in path and data.draw(st.booleans()):
            tail = path[path.index("payload"):]
            for step in _at(edited, path[:3]):
                if "categoric_basis" in step["payload"]:
                    _at(step, tail[:-1])[tail[-1]] = copy.deepcopy(value)
        return edited

    # a function, so a failing example's report stays short
    return edit


@pytest.mark.filterwarnings("ignore::UserWarning")  # the CLI logs these as warnings
@settings(max_examples=800, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_edited_basis_transforms_or_raises_a_tabnoise_error(fitted_dir, edit_leaf, data):
    """One leaf of a payload in a basis with protected numeric and flip steps replaced by
    a number, a list or a string: loading the edited basis and preparing a table on it in
    train and test mode succeeds or raises a ``TabnoiseError``, the one kind of failure
    the CLI reports in one line."""
    target = fitted_dir / "edited.json"
    target.write_text(json.dumps(edit_leaf(data)))
    table = load_csv(fitted_dir / "train.csv")
    try:
        edited = load_basis(target)
        for mode in ("train", "test"):
            apply(edited, table, mode, SamplingPlan(sampling_type="sampling_seed",
                                                    seeding_type="primary_seeds",
                                                    entropy_seeds=list(range(3000))))
    except TabnoiseError:
        pass
