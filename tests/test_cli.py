import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import tabnoise
from tabnoise import cli
from tabnoise.cli import main
from tabnoise.errors import BasisFormatError, ConfigError, TableError
from tabnoise.noise import MAX_BINCOUNT
from tabnoise.pipeline import MAX_AUGMENT_COUNT, fit, load_basis
from tabnoise.sampling import SamplingPlan
from tabnoise.table import load_csv, write_csv


@pytest.fixture()
def workdir(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text(
        "num,cat,label\n"
        + "".join(f"{i * 0.5},{'red' if i % 3 else 'blue'},{i % 2}\n" for i in range(20))
    )
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("".join(f"{i}\n" for i in range(500)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "labels_column": "label",
        "powertransform": "DP1",
        "shuffletrain": False,
        "sampling_dict": {"sampling_type": "sampling_seed",
                          "seeding_type": "primary_seeds"},
    }))
    return tmp_path


def _fit(workdir, extra=()):
    return main([
        "fit", str(workdir / "train.csv"),
        "--config", str(workdir / "config.json"),
        "--out-dir", str(workdir / "out"),
        "--entropy-seeds", str(workdir / "seeds.txt"),
        *extra,
    ])


def test_fit_writes_artifacts(workdir):
    assert _fit(workdir) == 0
    out = workdir / "out"
    assert (out / "train.out.csv").exists()
    assert (out / "basis.json").exists()
    assert (out / "seed_report.json").exists()
    report = json.loads((out / "seed_report.json").read_text())
    assert "bulk_seeds_total_train" in report


def test_fit_validation_file_when_ratio_set(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["validation_ratio"] = 0.2
    (workdir / "config.json").write_text(json.dumps(config))
    assert _fit(workdir) == 0
    assert (workdir / "out" / "val.out.csv").exists()


def _with_config(workdir, **values):
    config = json.loads((workdir / "config.json").read_text())
    config.update(values)
    (workdir / "config.json").write_text(json.dumps(config))


def test_noise_augment_leaves_validation_rows_out(workdir):
    _with_config(workdir, validation_ratio=0.25, noise_augment=1)
    assert _fit(workdir) == 0
    out = workdir / "out"
    validation = set(load_csv(out / "val.out.csv").column("row_index"))
    assert len(validation) == 5
    kept = set(map(float, range(20))) - validation
    # augment strides each copy's row identifiers by the largest kept one plus one
    stride = max(kept) + 1
    train_ids = load_csv(out / "train.out.csv").column("row_index")
    assert len(train_ids) == 2 * len(kept)
    assert {i % stride for i in train_ids} == kept


def test_library_fit_writes_the_noise_augment_rows_fit_writes(workdir):
    _with_config(workdir, validation_ratio=0.25, noise_augment=2)
    assert _fit(workdir) == 0
    config = json.loads((workdir / "config.json").read_text())
    plan = SamplingPlan(entropy_seeds=list(range(500)), **config.pop("sampling_dict"))
    result = fit(load_csv(workdir / "train.csv"), config, plan)
    assert result.train.n_rows == 3 * (20 - 5)
    write_csv(result.train, workdir / "library.csv", include_row_index=True)
    assert (workdir / "library.csv").read_bytes() == (workdir / "out" / "train.out.csv").read_bytes()


def test_fit_reads_seed_file_once(workdir):
    _with_config(workdir, validation_ratio=0.25, noise_augment=2)
    with mock.patch.object(cli, "read_seed_file", wraps=cli.read_seed_file) as read:
        assert _fit(workdir) == 0
    assert read.call_count == 1


def test_effective_configuration_logged_only_when_verbose(workdir):
    argv = ["fit", str(workdir / "train.csv"), "--config", str(workdir / "config.json"),
            "--out-dir", str(workdir / "out"), "--entropy-seeds", str(workdir / "seeds.txt")]
    for flags, logged in (([], False), (["-v"], True)):
        code, err = _run_cli(*flags, *argv)
        assert code == 0
        assert ("INFO tabnoise: effective configuration: {" in err) == logged, err


def test_verbose_flag_holds_under_a_configured_root_logger(workdir):
    # basicConfig does nothing once the root logger has a handler, as in a library caller
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    logging.getLogger().addHandler(handler)
    library = logging.getLogger("tabnoise")
    argv = ["fit", str(workdir / "train.csv"), "--config", str(workdir / "config.json"),
            "--out-dir", str(workdir / "out"), "--entropy-seeds", str(workdir / "seeds.txt")]
    try:
        for caller_level in (logging.NOTSET, logging.DEBUG):
            library.setLevel(caller_level)
            for flags, logged in (([], False), (["-v"], True), ([], False)):
                stream.seek(0)
                stream.truncate()
                assert main([*flags, *argv]) == 0
                assert ("effective configuration: {" in stream.getvalue()) == logged
                assert library.level == caller_level  # the caller's level comes back
    finally:
        logging.getLogger().removeHandler(handler)
        library.setLevel(logging.NOTSET)


def test_fit_bad_assigncat_exit_2(workdir, caplog):
    config = json.loads((workdir / "config.json").read_text())
    config["assigncat"] = {"DPnb": ["missing_column"]}
    (workdir / "config.json").write_text(json.dumps(config))
    assert _fit(workdir) == 2
    assert any("missing_column" in r.message for r in caplog.records)


def test_fit_missing_file_exit_1(workdir):
    code = main(["fit", str(workdir / "nope.csv"), "--out-dir", str(workdir / "out")])
    assert code == 1


def test_fit_rerun_byte_identical(workdir):
    assert _fit(workdir) == 0
    first = (workdir / "out" / "train.out.csv").read_bytes()
    first_basis = (workdir / "out" / "basis.json").read_bytes()
    assert _fit(workdir) == 0
    assert (workdir / "out" / "train.out.csv").read_bytes() == first
    assert (workdir / "out" / "basis.json").read_bytes() == first_basis


def test_transform_roundtrip(workdir):
    _fit(workdir)
    out = workdir / "prepared.csv"
    code = main([
        "transform", str(workdir / "out" / "basis.json"), str(workdir / "train.csv"),
        "--out", str(out),
        "--config", str(workdir / "config.json"),
        "--entropy-seeds", str(workdir / "seeds.txt"),
    ])
    assert code == 0
    table = load_csv(out)
    assert table.n_rows == 20
    assert "num_DPnbe_DPnb" in table.column_names


def test_transform_default_mode_is_test(workdir):
    # DP roots inject no test noise: default mode output equals test_no_noise
    _fit(workdir)
    paths = []
    for mode_args in ([], ["--traindata", "test_no_noise"]):
        out = workdir / f"prepared{len(paths)}.csv"
        main([
            "transform", str(workdir / "out" / "basis.json"), str(workdir / "train.csv"),
            "--out", str(out),
            "--config", str(workdir / "config.json"),
            "--entropy-seeds", str(workdir / "seeds.txt"),
            *mode_args,
        ])
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_transform_missing_column_exit_2(workdir, caplog):
    _fit(workdir)
    short = workdir / "short.csv"
    short.write_text("num,label\n1.0,0\n")
    code = main([
        "transform", str(workdir / "out" / "basis.json"), str(short),
        "--out", str(workdir / "x.csv"),
    ])
    assert code == 2
    assert any("cat" in r.message for r in caplog.records)


def test_transform_non_boolean_orig_headers_exit_2(workdir, caplog):
    _fit(workdir)
    _with_config(workdir, orig_headers="yes")
    code = main([
        "transform", str(workdir / "out" / "basis.json"), str(workdir / "train.csv"),
        "--out", str(workdir / "x.csv"),
        "--config", str(workdir / "config.json"),
    ])
    assert code == 2
    assert any("orig_headers" in r.message for r in caplog.records)
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("values, message", [
    ({"entropy_seeds": [-1]}, "config.entropy_seeds: entropy seeds must be nonnegative integers"),
    ({"sampling_dict": {"sampling_type": "bogus"}},
     "config.sampling_dict.sampling_type: expected one of 'default', 'bulk_seeds', "
     "'sampling_seed', 'transform_seed', got 'bogus'"),
    ({"sampling_dict": {"stochastic_count_safety_factor": -1}},
     "config.sampling_dict.stochastic_count_safety_factor: must be in [0, 1]"),
])
def test_bad_seed_bank_or_sampling_dict_exit_2(workdir, caplog, values, message):
    _with_config(workdir, **values)
    assert _fit(workdir) == 2
    assert [r.message for r in caplog.records if r.levelno >= logging.ERROR] == [message]
    assert not (workdir / "out").exists()


def test_transform_repeated_batches_consistent_basis(workdir):
    _fit(workdir)
    outputs = []
    for batch in range(2):
        out = workdir / f"batch{batch}.csv"
        main([
            "transform", str(workdir / "out" / "basis.json"), str(workdir / "train.csv"),
            "--out", str(out),
            "--config", str(workdir / "config.json"),
            "--entropy-seeds", str(workdir / "seeds.txt"),
        ])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_report_rescaling(workdir, capsys):
    _fit(workdir)
    code = main([
        "seed-report", str(workdir / "out" / "basis.json"),
        "--rows-train", "500",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["report"]
    expected = -(-report["bulk_seeds_total_train"] * 500 // report["rowcount_basis_train"])
    assert payload["sampling_type"]["bulk_seeds"]["train"] == expected
    assert "test" not in payload["sampling_type"]["bulk_seeds"]  # omitted at 0 rows


@pytest.mark.parametrize("flags, named", [
    (("--rows-train", "-500", "--rows-test", "-100"), "--rows-train: must be nonnegative"),
    (("--rows-test", "-100"), "--rows-test: must be nonnegative"),
])
def test_seed_report_negative_rows_exit_2(workdir, caplog, flags, named):
    _fit(workdir)
    code, errors = _main_errors(caplog, ("seed-report", str(workdir / "out" / "basis.json"),
                                         *flags))
    assert code == 2
    assert len(errors) == 1 and named in errors[0]


@pytest.mark.parametrize("flags, named", [
    (("--numeric", "-1", "--categoric", "3"), "n_numeric: must be nonnegative, got -1"),
    (("--categoric", "-2"), "n_categoric: must be nonnegative, got -2"),
    (("--task-seed", "-3"), "seed: must be nonnegative, got -3"),
])
def test_sweep_negative_count_or_seed_exit_2(workdir, caplog, flags, named):
    code, errors = _main_errors(caplog, ("sweep", "--grid", "0", "--reps", "1", "--rows", "20",
                                         "--test-rows", "10", *flags,
                                         "--out", str(workdir / "curves.csv")))
    assert code == 2
    assert len(errors) == 1 and named in errors[0]
    assert not (workdir / "curves.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (("--grid", "x"), "'x' is not a number"),
    (("--grid", ","), "'' is not a number"),
    (("--grid", ""), "'' is not a number"),
    (("--grid", "nan"), "expected a number, got nan"),
    (("--grid", "-1"), "-1.0 is outside [0, inf]"),
    (("--axis", "flip_prob", "--grid", "0.5,1.5"), "1.5 is outside [0, 1]"),
])
def test_sweep_bad_grid_exit_2(workdir, caplog, flags, message):
    assert _main_errors(caplog, ("sweep", "--reps", "1", "--rows", "20", "--test-rows", "10",
                                 *flags, "--out", str(workdir / "curves.csv"))) == \
        (2, [f"ERROR tabnoise: --grid: {message}"])
    assert not (workdir / "curves.csv").exists()


def test_seed_report_zero_noise_plan(workdir, tmp_path, capsys):
    config = json.loads((workdir / "config.json").read_text())
    del config["powertransform"]
    (workdir / "config.json").write_text(json.dumps(config))
    assert _fit(workdir) == 0
    main(["seed-report", str(workdir / "out" / "basis.json"),
          "--rows-train", "100", "--rows-test", "100"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["sampling_type"]["bulk_seeds"]["train"] == 0
    assert payload["report"]["transform_seed_total"] == 0


def test_augment_counts(workdir):
    _fit(workdir)
    out = workdir / "aug.csv"
    code = main([
        "augment", str(workdir / "out" / "basis.json"), str(workdir / "train.csv"),
        "--count", "2", "--out", str(out),
        "--config", str(workdir / "config.json"),
        "--entropy-seeds", str(workdir / "seeds.txt"),
    ])
    assert code == 0
    assert load_csv(out).n_rows == 60


def test_augment_warns_when_given_the_rows_fit_held_out(workdir):
    _with_config(workdir, validation_ratio=0.25)
    assert _fit(workdir) == 0
    held_out = json.loads((workdir / "out" / "basis.json").read_text())["validation_row_index"]
    assert len(held_out) == 5
    # the rows before the last held-out one: that one is missing
    lines = (workdir / "train.csv").read_text().splitlines(keepends=True)
    (workdir / "fewer.csv").write_text("".join(lines[: max(held_out) + 1]))
    for name, warned in (("train.csv", True), ("fewer.csv", False)):
        code, err = _run_cli("augment", str(workdir / "out" / "basis.json"), str(workdir / name),
                             "--count", "1", "--out", str(workdir / f"aug_{name}"),
                             "--config", str(workdir / "config.json"),
                             "--entropy-seeds", str(workdir / "seeds.txt"))
        assert code == 0
        assert ("WARNING tabnoise: augment: the input holds all 5 rows that fit held out "
                "for validation" in err) == warned, err


def test_augment_count_zero_passthrough(workdir):
    _fit(workdir)
    out = workdir / "aug0.csv"
    main([
        "augment", str(workdir / "out" / "basis.json"), str(workdir / "train.csv"),
        "--count", "0", "--out", str(out),
        "--config", str(workdir / "config.json"),
        "--entropy-seeds", str(workdir / "seeds.txt"),
    ])
    assert load_csv(out).n_rows == 20


def test_augment_float_literal(workdir):
    _fit(workdir)
    out = workdir / "augf.csv"
    code = main([
        "augment", str(workdir / "out" / "basis.json"), str(workdir / "train.csv"),
        "--count", "2.0", "--out", str(out),
        "--config", str(workdir / "config.json"),
        "--entropy-seeds", str(workdir / "seeds.txt"),
    ])
    assert code == 0
    assert load_csv(out).n_rows == 60


def test_sweep_writes_curves(workdir):
    out = workdir / "curves.csv"
    code = main([
        "sweep", "--axis", "sigma", "--grid", "0,0.5", "--scenarios", "test",
        "--reps", "2", "--rows", "60", "--test-rows", "30",
        "--numeric", "2", "--categoric", "0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two grid points


def test_unknown_config_key_exit_2(workdir, caplog):
    (workdir / "config.json").write_text(json.dumps({"not_a_key": 1}))
    assert _fit(workdir) == 2
    assert any("not_a_key" in r.message for r in caplog.records)


def test_stdout_reserved_for_reports(workdir, capsys):
    _fit(workdir)
    assert capsys.readouterr().out == ""


def test_missing_sentinel_flag(workdir):
    data = workdir / "na.csv"
    data.write_text("num,cat,label\nNA,red,0\n2.0,blue,1\n3.0,red,0\n4.0,blue,1\n")
    code = main([
        "fit", str(data),
        "--config", str(workdir / "config.json"),
        "--out-dir", str(workdir / "out_na"),
        "--entropy-seeds", str(workdir / "seeds.txt"),
        "--missing-sentinel", "NA",
    ])
    assert code == 0
    prepared = load_csv(workdir / "out_na" / "train.out.csv")
    assert prepared.column("num_NArw")[0] == 1.0  # NA ingested as missing


def _run_cli(*argv):
    """The CLI in a fresh interpreter, so a traceback would reach stderr: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "tabnoise.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def _main_errors(caplog, command) -> tuple:
    """The CLI in-process: (exit code, its ERROR records as the stderr lines they log). An
    exception other than the CLI's own errors reaches the test as it would reach stderr."""
    caplog.clear()
    code = main(list(command))
    return code, [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records
                  if r.levelno >= logging.ERROR]


def test_transform_basis_missing_key_exit_2(workdir, caplog):
    basis = workdir / "basis.json"
    basis.write_text(json.dumps({"format_version": "tabnoise-basis/1"}))
    code, errors = _main_errors(caplog, ("transform", str(basis), str(workdir / "train.csv"),
                                         "--out", str(workdir / "x.csv")))
    assert code == 2
    assert len(errors) == 1 and "input_columns" in errors[0]
    assert not (workdir / "x.csv").exists()


def _transform_bad(workdir):
    """``transform`` of the edited basis ``bad.json`` on the training table, to ``x.csv``."""
    return ("transform", str(workdir / "bad.json"), str(workdir / "train.csv"),
            "--out", str(workdir / "x.csv"))


@pytest.mark.parametrize("steps, edit, path", [
    # the boolean step and its flip both claim a passthrough vocabulary
    ([0, 1], ("categoric_basis", "encoding", "passthrough"),
     "cat.steps[0].payload.categoric_basis.encoding"),
    # the flip reads boolean columns as ordinal codes
    ([1], ("encoding", None, "ordinal"), "cat.steps[1].payload.categoric_basis.encoding"),
])
def test_transform_basis_encoding_not_its_steps_exit_2(workdir, caplog, steps, edit, path):
    assert _fit(workdir) == 0
    basis = json.loads((workdir / "out" / "basis.json").read_text())
    plan = basis["column_plans"]["cat"]
    assert [plan["steps"][i]["kind"] for i in (0, 1)] == ["boolean", "noise_flip"]
    key, sub, value = edit
    for i in steps:
        if sub is None:
            plan["steps"][i]["payload"][key] = value
        else:
            plan["steps"][i]["payload"][key][sub] = value
    (workdir / "bad.json").write_text(json.dumps(basis))
    code, errors = _main_errors(caplog, _transform_bad(workdir))
    assert code == 2
    assert len(errors) == 1 and path in errors[0]
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("column, steps, key, edit, path", [
    # a boolean basis, in the step and in its flip, with a third value
    ("cat", [0, 1], "categoric_basis",
     {"vocabulary": ["blue", "green", "red"], "frequencies": [7, 1, 13]},
     "cat.steps[0].payload.categoric_basis.vocabulary"),
    # a zscore step whose basis claims min-max scaling
    ("num", [0], "numeric_basis", {"kind": "minmax"}, "num.steps[0].payload.numeric_basis.kind"),
])
def test_transform_basis_not_its_kind_exit_2(workdir, caplog, column, steps, key, edit, path):
    assert _fit(workdir) == 0
    basis = json.loads((workdir / "out" / "basis.json").read_text())
    plan = basis["column_plans"][column]
    assert plan["steps"][0]["kind"] == {"cat": "boolean", "num": "zscore"}[column]
    for i in steps:
        plan["steps"][i]["payload"][key].update(edit)
    (workdir / "bad.json").write_text(json.dumps(basis))
    code, errors = _main_errors(caplog, _transform_bad(workdir))
    assert code == 2
    assert len(errors) == 1 and path in errors[0]
    assert not (workdir / "x.csv").exists()


def test_transform_basis_protected_payload_naming_no_column_exit_2(workdir, caplog):
    _with_config(workdir, assignparam={"DPnb": {"num": {"protected_feature": "cat"}}})
    assert _fit(workdir) == 0
    basis = json.loads((workdir / "out" / "basis.json").read_text())
    step = basis["column_plans"]["num"]["steps"][1]
    assert step["kind"] == "noise_numeric" and "protected" in step["payload"]
    step["payload"]["resolved"]["protected_feature"] = None
    (workdir / "bad.json").write_text(json.dumps(basis))
    code, errors = _main_errors(caplog, _transform_bad(workdir))
    assert code == 2
    assert len(errors) == 1
    assert "num.steps[1].payload.resolved.protected_feature" in errors[0]
    assert not (workdir / "x.csv").exists()


def _bsor_config(workdir, bincount):
    config = json.loads((workdir / "config.json").read_text())
    config.update(assigncat={"bsor": ["num"]},
                  assignparam={"bsor": {"num": {"bincount": bincount}}})
    (workdir / "config.json").write_text(json.dumps(config))


def test_fit_bincount_above_bound_exit_2(workdir, caplog):
    _bsor_config(workdir, MAX_BINCOUNT + 1)
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1
    assert "config.assignparam.bsor.num.bincount" in errors[0] and str(MAX_BINCOUNT) in errors[0]
    assert not (workdir / "out").exists()


def test_transform_basis_bincount_above_bound_exit_2(workdir, caplog):
    _bsor_config(workdir, MAX_BINCOUNT)
    assert _fit(workdir) == 0
    basis = json.loads((workdir / "out" / "basis.json").read_text())
    step = basis["column_plans"]["num"]["steps"][0]
    assert step["kind"] == "stdbins"
    step["payload"]["bincount"] = 10**9
    (workdir / "bad.json").write_text(json.dumps(basis))
    code, errors = _main_errors(caplog, _transform_bad(workdir))
    assert code == 2
    assert len(errors) == 1 and "num.steps[0].payload.bincount" in errors[0]
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("command", ["fit", "augment"])
def test_table_missing_a_fitted_column_exit_2(workdir, caplog, command):
    assert _fit(workdir) == 0
    short = workdir / "short.csv"
    short.write_text("num,label\n1.0,0\n2.0,1\n")
    args = {"fit": ["fit", str(workdir / "train.csv"), "--test", str(short),
                    "--config", str(workdir / "config.json"), "--out-dir", str(workdir / "o")],
            "augment": ["augment", str(workdir / "out" / "basis.json"), str(short),
                        "--count", "1", "--out", str(workdir / "aug.csv")]}[command]
    code, errors = _main_errors(caplog, (*args, "--entropy-seeds", str(workdir / "seeds.txt")))
    assert code == 2
    assert len(errors) == 1 and "data is missing fitted schema columns: cat" in errors[0]
    assert not (workdir / "o").exists() and not (workdir / "aug.csv").exists()


def test_augment_non_numeric_count_exit_2(workdir, caplog):
    assert _fit(workdir) == 0
    code, errors = _main_errors(caplog, ("augment", str(workdir / "out" / "basis.json"),
                                         str(workdir / "train.csv"), "--count", "abc",
                                         "--out", str(workdir / "aug.csv"),
                                         "--entropy-seeds", str(workdir / "seeds.txt")))
    assert code == 2
    assert len(errors) == 1 and "abc" in errors[0]
    assert not (workdir / "aug.csv").exists()


def test_augment_count_above_the_maximum_exit_2(workdir, caplog):
    assert _fit(workdir) == 0
    code, errors = _main_errors(caplog, ("augment", str(workdir / "out" / "basis.json"),
                                         str(workdir / "train.csv"),
                                         "--count", str(MAX_AUGMENT_COUNT + 1),
                                         "--out", str(workdir / "aug.csv"),
                                         "--entropy-seeds", str(workdir / "seeds.txt")))
    assert code == 2
    assert len(errors) == 1 and f"between 0 and {MAX_AUGMENT_COUNT}" in errors[0]
    assert not (workdir / "aug.csv").exists()


@pytest.mark.parametrize("key", ["validation_ratio", "noise_augment"])
def test_fit_non_numeric_config_value_exit_2(workdir, caplog, key):
    config = json.loads((workdir / "config.json").read_text())
    config[key] = "x"
    (workdir / "config.json").write_text(json.dumps(config))
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1 and key in errors[0]
    assert not (workdir / "out").exists()  # rejected before anything is fitted


@pytest.mark.parametrize("key, value", [
    ("assigncat", "x"), ("assigncat", {"DPnb": 3}), ("assigncat", {"DPnb": [["num"]]}),
    ("assignparam", "x"),
    ("assignparam", {"DPnb": 1}), ("assignparam", {"DPnb": {"num": 1}}),
    ("transformdict", 1), ("processdict", {"x": 1}), ("powertransform", 5),
    ("sampling_dict", "x"),
    ("processdict", {"mynb": {"functionpointer": "DPnb", "defaultparams": "x"}}),
    ("transformdict", {"mynb": {"parents": 5}}),
    ("sampling_dict", {"extra_seed_generator": "PCG65"}),
    ("sampling_dict", {"sampling_typ": "bulk_seeds"}),
    ("sampling_dict", {"stochastic_count_safety_factor": "x"}),
    ("sampling_dict", {"sampling_generator": ["PCG64"]}),
    ("entropy_seeds", "123"),
    ("delimiter", ";;"), ("delimiter", 5),
    ("missing_sentinels", "NA"), ("missing_sentinels", 5),
    ("shuffletrain", "no"), ("orig_headers", "yes"),
    ("delimiter", '"'), ("delimiter", "\r"), ("delimiter", "\n"),
    ("assignparam", {"DPnb": {"num": {"sigma": "x"}}}),
    ("assignparam", {"DPbn": {"cat": {"flip_prob": "0.5"}}}),
    ("assignparam", {"DPbn": {"cat": {"weighted": "no"}}}),
    ("assignparam", {"DPnb": {"num": {"sigma": [0.1, "x"]}}}),
    ("assignparam", {"bsor": {"num": {"bincount": "x"}}}),
    ("processdict", {"DPnb": {"functionpointer": "bsor", "defaultparams": {"bincount": "x"}}}),
    ("assignparam", {"DPnb": {"num": {"sigma": [0.1, -0.2]}}}),
    ("assignparam", {"DPnb": {"num": {"test_sigma": {"distribution": "laplace"}}}}),
    ("assignparam", {"DPbn": {"cat": {"test_flip_prob": [0.5, 1.5]}}}),
    ("assignparam", {"DPbn": {"cat": {"flip_prob": {"distribution": "uniform", "high": 2.0}}}}),
    ("assignparam", {"DPbn": {"cat": {"flip_prob": 1.5}}}),
    ("assignparam", {"DPnb": {"num": {"sigma": -0.2}}}),
    ("processdict", {"mybins": {"functionpointer": "bsor", "defaultparam": {"bincount": 3}}}),
    ("processdict", {"mybins": {"functionpointer": "bsor", "transform": "zscore"}}),
])
def test_fit_malformed_config_section_exit_2(workdir, caplog, key, value):
    _with_config(workdir, **{key: value})
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1 and key in errors[0]
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("sampling_type", ["sampling_seed", "bulk_seeds"])
def test_seed_at_or_above_2_128_exit_2(workdir, caplog, sampling_type):
    config = json.loads((workdir / "config.json").read_text())
    config["sampling_dict"]["sampling_type"] = sampling_type
    (workdir / "config.json").write_text(json.dumps(config))
    (workdir / "seeds.txt").write_text("".join(f"{2**130 + i}\n" for i in range(2000)))
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1 and "2**128" in errors[0]
    assert not (workdir / "out").exists()


def test_boolean_root_on_three_values_exit_2(workdir, caplog):
    config = json.loads((workdir / "config.json").read_text())
    config["assigncat"] = {"bnry": ["cat"]}
    (workdir / "train.csv").write_text(
        "num,cat,label\n" + "".join(f"{i},{'abc'[i % 3]},{i % 2}\n" for i in range(12)))
    (workdir / "config.json").write_text(json.dumps(config))
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1 and "'cat'" in errors[0] and "boolean" in errors[0]
    assert not (workdir / "out").exists()


def test_normal_draw_for_flip_prob_exit_2_before_sampling(workdir, caplog):
    """A normal draw can leave [0, 1]: the config check rejects it for every seed bank,
    where a fit or a later preparation used to fail only when a draw left it."""
    (workdir / "train.csv").write_text(
        "num,cat,label\n" + "".join(f"{i * 0.25},{'ab'[i % 2]},{i % 2}\n" for i in range(200)))
    draw = {"distribution": "normal", "mu": 0.5, "sigma": 0.6}
    _with_config(workdir, assigncat={"DBnb": ["num"]},
                 assignparam={"DBnb": {"num": {"flip_prob": draw, "retain_basis": False}}})
    with mock.patch("tabnoise.pipeline.StreamManager", side_effect=AssertionError("sampled")):
        assert _fit(workdir) == 2
    assert "config.assignparam.DBnb.num.flip_prob.distribution: a normal draw" in caplog.text
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name", ["flip_prob", "mu"])
def test_fit_empty_candidate_list_exit_2(workdir, caplog, name):
    (workdir / "train.csv").write_text("x\n1\n2\n3\n4\n")
    _with_config(workdir, labels_column=None, assigncat={"DBnb": ["x"]},
                 assignparam={"DBnb": {"x": {name: []}}})
    assert _fit_errors(workdir, caplog) == (2, [
        f"ERROR tabnoise: config.assignparam.DBnb.x.{name}: "
        "candidate list for parameter randomization is empty"])
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("part, name, value, message", [
    ("resolved", "flip_prob", 1.5, "resolved.flip_prob: 1.5 is outside [0, 1]"),
    ("params_raw", "flip_prob", [0.1, 1.7], "params_raw.flip_prob[1]: 1.7 is outside [0, 1]"),
    ("params_raw", "flip_prob", [],
     "params_raw.flip_prob: candidate list for parameter randomization is empty"),
    ("resolved", "sigma", -1, "resolved.sigma: -1 is outside [0, inf]"),
    ("params_raw", "flip_prob", {"distribution": "normal", "mu": 0.5},
     "params_raw.flip_prob.distribution: a normal draw can leave [0, 1]; use a list or a "
     "uniform draw"),
    ("params_raw", "flip_prob", {"distribution": "uniform", "mu": 0.9, "sigma": 0.01},
     "params_raw.flip_prob: a uniform draw does not read ['mu', 'sigma']"),
    ("params_raw", "mu", {"distribution": "normal", "sigma": -2},
     "params_raw.mu.sigma: -2 is outside [0, inf]"),
])
def test_basis_noise_parameter_out_of_range_exit_2(workdir, caplog, part, name, value, message):
    """A noise parameter in a basis keeps its config range: ``load_basis`` names it, so
    ``transform`` and ``seed-report`` exit 2 with that one line."""
    basis = _numeric_fit(workdir, "DBnb", [0.5 * i for i in range(12)])
    data = json.loads(basis.read_text())
    step = data["column_plans"]["x"]["steps"][1]
    assert step["kind"] == "noise_numeric"
    step["payload"][part][name] = value
    basis.write_text(json.dumps(data))
    message = f"basis.column_plans.x.steps[1].payload.{message}"
    with pytest.raises(BasisFormatError) as caught:
        load_basis(basis)
    assert str(caught.value) == message
    for command in (("transform", str(basis), str(workdir / "train.csv"),
                     "--out", str(workdir / "prepared.csv")), ("seed-report", str(basis))):
        assert _main_errors(caplog, command) == (2, [f"ERROR tabnoise: {message}"])
    assert not (workdir / "prepared.csv").exists()


def _basis_commands(workdir, basis):
    """transform, augment and seed-report on ``basis`` and the training table."""
    seeds = ("--entropy-seeds", str(workdir / "seeds.txt"))
    return (("transform", str(basis), str(workdir / "train.csv"),
             "--out", str(workdir / "prepared.csv"), "--traindata", "train", *seeds),
            ("augment", str(basis), str(workdir / "train.csv"), "--count", "1",
             "--out", str(workdir / "prepared.csv"), *seeds),
            ("seed-report", str(basis)))


@pytest.mark.parametrize("entries", [1, 2, 4, 5])
def test_basis_protected_segment_table_not_one_frequency_per_value_exit_2(workdir, caplog,
                                                                          entries):
    """A protected flip step holds one frequency per vocabulary value in each segment's
    table; a table of another length once broadcast silently (1 entry) or ended in a
    traceback (2, 4 or 5 entries on 3 values)."""
    (workdir / "train.csv").write_text(
        "c,g\n" + "".join(f"{'abc'[i % 3]},{'xy'[i % 2]}\n" for i in range(12)))
    _with_config(workdir, labels_column=None, assigncat={"DPod": ["c"]},
                 assignparam={"DPod": {"c": {"protected_feature": "g"}}})
    assert _fit(workdir) == 0
    basis = workdir / "out" / "basis.json"
    data = json.loads(basis.read_text())
    step = data["column_plans"]["c"]["steps"][1]
    assert step["kind"] == "noise_flip" and len(step["payload"]["protected"]
                                                ["segment_frequencies"]["x"]) == 3
    step["payload"]["protected"]["segment_frequencies"]["x"] = [1.0] * entries
    basis.write_text(json.dumps(data))
    message = ("basis.column_plans.c.steps[1].payload.protected.segment_frequencies.x: not one "
               "frequency per value")
    for command in _basis_commands(workdir, basis):
        assert _main_errors(caplog, command) == (2, [f"ERROR tabnoise: {message}"])
    assert not (workdir / "prepared.csv").exists()


@pytest.mark.parametrize("missing_code", [99, 1, 0])
def test_basis_categoric_missing_code_not_the_fits_exit_2(workdir, caplog, missing_code):
    """A categoric basis's missing code is null or one past its vocabulary, the two values
    the fit writes; 99 once ended ``transform`` of a blank cell in a traceback, and 1
    encoded the blank silently as the first vocabulary value."""
    (workdir / "train.csv").write_text(
        "c,g\n" + "".join(f"{'abc'[i % 3] if i % 4 else ''},{i}\n" for i in range(12)))
    _with_config(workdir, labels_column=None, assigncat={"DPoh": ["c"]})
    assert _fit(workdir) == 0
    basis = workdir / "out" / "basis.json"
    data = json.loads(basis.read_text())
    steps = data["column_plans"]["c"]["steps"]
    assert [step["kind"] for step in steps[:2]] == ["onehot", "noise_flip"]
    for step in steps[:2]:
        assert step["payload"]["categoric_basis"]["missing_code"] == 4
        step["payload"]["categoric_basis"]["missing_code"] = missing_code
    basis.write_text(json.dumps(data))
    message = (f"basis.column_plans.c.steps[0].payload.categoric_basis.missing_code: "
               f"{missing_code} is neither null nor 4")
    for command in _basis_commands(workdir, basis):
        assert _main_errors(caplog, command) == (2, [f"ERROR tabnoise: {message}"])
    assert not (workdir / "prepared.csv").exists()


@pytest.mark.parametrize("output_base", ["num", "num_DPnbe"])
def test_basis_step_output_base_not_new_exit_2(workdir, caplog, output_base):
    """A step writes the base its root's walk makes, not the input column or an earlier
    step's output; either once ended ``transform`` in a traceback."""
    assert _fit(workdir) == 0
    basis = workdir / "out" / "basis.json"
    data = json.loads(basis.read_text())
    steps = data["column_plans"]["num"]["steps"]
    assert [step["output_base"] for step in steps[:2]] == ["num_DPnbe", "num_DPnbe_DPnb"]
    steps[1]["output_base"] = output_base
    basis.write_text(json.dumps(data))
    message = (f"basis.column_plans.num.steps[1].output_base: {output_base!r} is not "
               "'num_DPnbe_DPnb', as root 'DPnb' makes it")
    for command in _basis_commands(workdir, basis):
        assert _main_errors(caplog, command) == (2, [f"ERROR tabnoise: {message}"])
    assert not (workdir / "prepared.csv").exists()


def _delete_noise_step(basis):
    plan = basis["column_plans"]["num"]
    del plan["steps"][1]
    plan["output_columns"] = ["num_DPnbe", "num_NArw"]


_NUM = "basis.column_plans.num"


@pytest.mark.parametrize("edit, message", [
    (lambda basis: basis["column_plans"]["num"].update(root="nosuchroot"),
     f"{_NUM}.root: unknown root category: 'nosuchroot'"),
    (lambda basis: basis["column_plans"]["cat"]["steps"][1].update(category="DBod"),
     "basis.column_plans.cat.steps[1].category: 'DBod' is not 'DPod', as root 'DPod' makes it"),
    (_delete_noise_step,
     f"{_NUM}.steps[1].category: 'NArw' is not 'DPnb', as root 'DPnb' makes it"),
    (lambda basis: basis["column_plans"]["num"]["output_columns"].reverse(),
     f"{_NUM}.output_columns: ['num_NArw', 'num_DPnbe_DPnb'] is not ['num_DPnbe_DPnb', "
     "'num_NArw'], as root 'DPnb' makes it"),
    (lambda basis: basis["column_plans"]["num"]["output_columns"].pop(),
     f"{_NUM}.output_columns: ['num_DPnbe_DPnb'] is not ['num_DPnbe_DPnb', 'num_NArw'], as "
     "root 'DPnb' makes it"),
    (lambda basis: basis["column_plans"].update({"0extra": basis["column_plans"]["num"]}),
     "basis.column_plans: plans for ['0extra', 'cat', 'label', 'num'], not one for each input "
     "column, ['cat', 'label', 'num']"),
    (lambda basis: basis["input_columns"].append("num"),
     "basis.column_plans: plans for ['cat', 'label', 'num'], not one for each input column, "
     "['cat', 'label', 'num', 'num']"),
    (lambda basis: basis["processdict"].update(mybins={"functionpointer": "bsor",
                                                       "defaultparam": {"bincount": 3}}),
     "basis.processdict.mybins: unknown keys ['defaultparam']"),
    (lambda basis: basis["transformdict"].update(newt={"stepparents": ["newt"]}),
     "basis.transformdict.newt: unknown keys ['stepparents']"),
], ids=["root", "category", "noise-step-deleted", "outputs-reordered", "outputs-truncated",
        "plan-not-an-input", "input-repeated", "processdict", "transformdict"])
def test_basis_plan_not_the_walk_of_its_root_exit_2(workdir, caplog, edit, message):
    """Each plan is the one ``fit`` makes from its root, with the catalog of the basis's own
    ``transformdict`` and ``processdict``, and each input column has one plan; each edit
    here once loaded and prepared with exit 0."""
    _with_config(workdir, assigncat={"DPnb": ["num"], "DPod": ["cat"]})
    assert _fit(workdir) == 0
    basis = workdir / "out" / "basis.json"
    data = json.loads(basis.read_text())
    assert data["column_plans"]["num"]["output_columns"] == ["num_DPnbe_DPnb", "num_NArw"]
    assert data["column_plans"]["cat"]["steps"][1]["category"] == "DPod"
    edit(data)
    basis.write_text(json.dumps(data))
    for command in _basis_commands(workdir, basis):
        assert _main_errors(caplog, command) == (2, [f"ERROR tabnoise: {message}"])
    assert not (workdir / "prepared.csv").exists()


def test_an_output_name_made_twice_exit_2(workdir, caplog):
    """A multi-column step names its columns ``<base>_<j>``, which another input column may
    hold; ``fit`` once exited 0 and wrote 5 columns, not 6: the raw numbers replaced the
    one-hot column of that name."""
    (workdir / "train.csv").write_text(
        "c,c_onht_0\n" + "".join(f"{'abc'[i % 3]},{i}\n" for i in range(12)))
    _with_config(workdir, labels_column=None, assigncat={"onht": ["c"], "NArw": ["c_onht_0"]})
    message = "duplicate column names: ['c_onht_0']"
    assert _fit_errors(workdir, caplog) == (2, [f"ERROR tabnoise: {message}"])
    assert not (workdir / "out").exists()
    config = json.loads((workdir / "config.json").read_text())
    plan = SamplingPlan(entropy_seeds=list(range(500)), **config.pop("sampling_dict"))
    with pytest.raises(TableError) as caught:
        fit(load_csv(workdir / "train.csv"), config, plan)
    assert str(caught.value) == message


def _insert_zscore_step(basis):
    """Put a ``vnum`` zscore step between the ordinal step and the flip step of ``c``, with
    the catalog, the bases and the output columns the walk of ``vcat`` then makes."""
    basis["processdict"]["vnum"] = {"functionpointer": "nmbr"}
    basis["transformdict"].update(vord={"children": ["vnum"]}, vnum={"children": ["vflip"]})
    plan = basis["column_plans"]["c"]
    flip = plan["steps"][1]
    flip.update(input_base="c_vord_vnum", output_base="c_vord_vnum_vflip",
                output_columns=["c_vord_vnum_vflip"])
    plan["steps"].insert(1, {"category": "vnum", "kind": "zscore", "input_base": "c_vord",
                             "output_base": "c_vord_vnum", "output_columns": ["c_vord_vnum"],
                             "payload": {"numeric_basis": {"mean": 2.0, "std": 0.8,
                                                           "min": 1.0, "max": 3.0,
                                                           "kind": "zscore"}}})
    plan["output_columns"] = ["c_vord_vnum_vflip"]


def test_basis_flip_below_a_step_with_no_vocabulary_exit_2(workdir, caplog):
    """A flip step's input must be encoded on its vocabulary. A numeric step's output is
    encoded on none, so ``fit`` rejects a flip below one; a basis with a zscore step edited
    in between once loaded and wrote codes decoded from z-scores with exit 0."""
    (workdir / "train.csv").write_text("c\n" + "".join(f"{'abc'[i % 3]}\n" for i in range(12)))
    catalog = {"transformdict": {"vcat": {"parents": ["vord"]}, "vord": {"children": ["vflip"]}},
               "processdict": {"vord": {"functionpointer": "ord3"},
                               "vflip": {"functionpointer": "DPod"}}}
    _with_config(workdir, labels_column=None, assigncat={"vcat": ["c"]}, **catalog)
    assert _fit(workdir) == 0
    basis = workdir / "out" / "basis.json"
    data = json.loads(basis.read_text())
    assert [step["category"] for step in data["column_plans"]["c"]["steps"]] == ["vord", "vflip"]
    _insert_zscore_step(data)
    basis.write_text(json.dumps(data))
    message = "basis.column_plans.c.steps[2].payload.categoric_basis: differs from its input's"
    for command in _basis_commands(workdir, basis):
        assert _main_errors(caplog, command) == (2, [f"ERROR tabnoise: {message}"])
    assert not (workdir / "prepared.csv").exists()
    # fit of the same structure is rejected too
    with pytest.raises(ConfigError, match="flip noise requires an upstream categoric"):
        fit(load_csv(workdir / "train.csv"), {"assigncat": {"vcat": ["c"]},
                                              "transformdict": data["transformdict"],
                                              "processdict": data["processdict"]})


def _numeric_fit(workdir, root, train):
    """Fit one numeric column ``x`` under ``root``."""
    (workdir / "train.csv").write_text("x\n" + "".join(f"{v!r}\n" for v in train))
    _with_config(workdir, labels_column=None, assigncat={root: ["x"]})
    assert _fit(workdir) == 0
    return workdir / "out" / "basis.json"


def test_transform_to_a_non_finite_zscore_exit_2_naming_the_step_and_row(workdir, caplog):
    basis = _numeric_fit(workdir, "nmbr", [1.0, 1.001, 0.999, 1.0])  # std about 7e-4
    (workdir / "later.csv").write_text("x\n1.0\n1e308\n")
    code, errors = _main_errors(caplog, ("transform", str(basis), str(workdir / "later.csv"),
                                         "--out", str(workdir / "prepared.csv")))
    assert code == 2
    assert len(errors) == 1
    assert "transform x#0" in errors[0] and "'x_nmbr'" in errors[0] and "row 1" in errors[0]
    assert not (workdir / "prepared.csv").exists()


def test_transform_far_above_a_minmax_range_clips_to_one_without_a_warning(workdir):
    basis = _numeric_fit(workdir, "mnmx", [-1e308, 1e300])
    (workdir / "later.csv").write_text("x\n1.7e308\n")
    assert main(["transform", str(basis), str(workdir / "later.csv"),
                 "--out", str(workdir / "prepared.csv")]) == 0
    assert load_csv(workdir / "prepared.csv").column("x_mnmx") == [1.0]


def _fit_errors(workdir, caplog):
    """``fit`` of the workdir's table, config and seeds, in-process (see ``_main_errors``)."""
    return _main_errors(caplog, ("fit", str(workdir / "train.csv"),
                                 "--config", str(workdir / "config.json"),
                                 "--out-dir", str(workdir / "out"),
                                 "--entropy-seeds", str(workdir / "seeds.txt")))


@pytest.mark.parametrize("name", ["config.json", "train.csv", "seeds.txt"])
def test_fit_non_utf8_input_exit_2(workdir, caplog, name):
    path = workdir / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1 and str(path) in errors[0]
    assert not (workdir / "out").exists()


def test_fit_csv_field_over_size_limit_exit_2(workdir, caplog):
    path = workdir / "train.csv"
    path.write_text("num,cat,label\n1,a,0\n2," + "b" * (csv.field_size_limit() + 1) + ",1\n")
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1 and f"{path}: line 3: field larger" in errors[0]
    assert not (workdir / "out").exists()


def test_import_leaves_numpy_random_unloaded():
    # the word streams load numpy.random on first use, not at CLI start-up
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    probe = ("import sys, numpy; numpy_loads = 'numpy.random' in sys.modules; "
             "import tabnoise.cli; print(numpy_loads, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    numpy_loads, loaded = proc.stdout.split()
    if numpy_loads == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert loaded == "False"


def test_import_leaves_harness_unloaded():
    # only the sweep command needs the synthetic-task harness
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    probe = "import sys, tabnoise.cli; print('tabnoise.harness' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == ["False"]


def test_import_leaves_numtext_unloaded():
    # the CSV number writer loads with the first write_csv call, not at CLI start-up
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    probe = "import sys, tabnoise.cli; print('tabnoise.numtext' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == ["False"]


def test_index_header_skips_a_row_index_column(workdir):
    (workdir / "ids.csv").write_text(
        "row_index,x,label\n" + "".join(f"{9 - i},{i * 0.25},{i % 2}\n" for i in range(10)))
    (workdir / "ids.json").write_text(json.dumps({
        "labels_column": "label", "orig_headers": True, "shuffletrain": False,
        "assigncat": {"excl": ["row_index", "x"]}}))
    out = workdir / "ids"
    assert main(["fit", str(workdir / "ids.csv"), "--config", str(workdir / "ids.json"),
                 "--out-dir", str(out), "--entropy-seeds", str(workdir / "seeds.txt")]) == 0
    lines = (out / "train.out.csv").read_text().splitlines()
    assert lines[:2] == ["row_index_1,row_index,x,label", "0,9,0,0"]
    # the written file reads back as a later batch of the same schema
    with pytest.warns(UserWarning, match="^ignoring columns not in fitted schema: row_index_1$"):
        code = main(["transform", str(out / "basis.json"), str(out / "train.out.csv"),
                     "--config", str(workdir / "ids.json"), "--out", str(workdir / "again.csv")])
    assert code == 0
    again = (workdir / "again.csv").read_text().splitlines()
    assert again[0] == "row_index_1,row_index,x,label" and again[1:] == lines[1:]


# A table whose floats come from fixed bit patterns, so it is the same under every SIMD
# dispatch; it is written once per dispatch and the bytes compared.
_DISPATCH_PROBE = """
import hashlib, sys
import numpy as np
from tabnoise.table import DataTable, write_csv
probe = np.log(np.arange(1, 4097) / 4097.0)
bits = (np.arange(1, 20001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(2)
values = bits.view(np.float64)
values = values[np.isfinite(values)]
table = DataTable({"a": values, "b": -values[::-1] / 7.0, "c": np.round(values * 0) + 3.0})
write_csv(table, sys.argv[1], include_row_index=True)
print(hashlib.sha256(probe.tobytes()).hexdigest())
"""


def test_written_bytes_do_not_depend_on_the_simd_dispatch(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for name, disabled in (("default", None), ("avx2", "X86_V4 AVX512_ICL AVX512_SPR")):
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        path = tmp_path / f"{name}.csv"
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE, str(path)],
                              capture_output=True, text=True, env=env, check=True)
        runs.append((proc.stdout.strip(), path.read_bytes()))
    if runs[0][0] == runs[1][0]:
        pytest.skip("disabling AVX-512 did not change numpy's log kernel on this CPU")
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("root, param, value", [
    ("DPnb", "mu", math.nan), ("DPsk", "mask_value", math.nan), ("DPnb", "mu", math.inf),
])
def test_fit_non_finite_config_number_exit_2(workdir, caplog, root, param, value):
    """``json.load`` reads the non-standard ``NaN`` and ``Infinity`` tokens as floats. A
    config number must be finite, so the config check names it before anything is fitted."""
    (workdir / "train.csv").write_text("x\n1\n2\n3\n4\n")
    _with_config(workdir, labels_column=None, assigncat={root: ["x"]},
                 assignparam={root: {"x": {"flip_prob": 1.0, param: value}}})
    assert ("Infinity" if value == math.inf else "NaN") in (workdir / "config.json").read_text()
    code, errors = _fit_errors(workdir, caplog)
    assert code == 2
    assert len(errors) == 1 and f"config.assignparam.{root}.x.{param}: expected" in errors[0]
    assert not (workdir / "out").exists()
