"""Command-line surface: fit, transform, seed-report, augment, sweep.

Configuration comes from a JSON file whose sections mirror the library
parameter names (assigncat, assignparam, powertransform, shuffletrain,
orig_headers, noise_augment, transformdict, processdict, entropy_seeds,
sampling_dict). Command-line flags override config-file values and the
effective configuration is echoed to the log.

Exit codes: 0 success, 1 I/O failure, 2 configuration or validation error.
stdout carries only requested artifacts (reports); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from typing import TypedDict

import numpy as np

from .errors import ConfigError, TabnoiseError
from .noise import check_param
from .pipeline import (
    TRAINDATA_MODES,
    AugmentSpec,
    FitConfig,
    apply,
    augment,
    fit,
    load_basis,
    orig_headers_mode,
    save_basis,
)
from .rng import PackedSeeds
from .sampling import (
    SAMPLING_TYPES,
    SamplingPlan,
    read_seed_file,
    rescale_budget,
    write_seed_report,
)
from .schema import typed
from .table import load_csv, write_csv

log = logging.getLogger("tabnoise")

_FIT_KEYS = {f.name for f in fields(FitConfig)}
_SAMPLING_KEYS = {f.name for f in fields(SamplingPlan)} - {"entropy_seeds", "os_material"}


# the config keys the CLI reads itself; FitConfig checks the others
_CliConfig = TypedDict("_CliConfig", {"entropy_seeds": list[int], "sampling_dict": dict,
                                      "delimiter": str, "missing_sentinels": list[str]},
                       total=False)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise TabnoiseError(f"{path}: invalid JSON config: {exc}") from exc
    own = {k: v for k, v in typed(dict, config, "config", ConfigError).items() if k not in _FIT_KEYS}
    typed(_CliConfig, own, "config", ConfigError)
    return config


def _sampling_plan(config: dict, args) -> SamplingPlan:
    sampling = dict(config.get("sampling_dict", {}))
    unknown = set(sampling) - _SAMPLING_KEYS
    if unknown:
        raise ConfigError(f"config.sampling_dict: unknown keys {sorted(unknown)}")
    try:
        seeds = PackedSeeds(config.get("entropy_seeds", []))
    except ValueError as exc:
        raise ConfigError(f"config.entropy_seeds: {exc}") from None
    if getattr(args, "entropy_seeds", None):
        seeds = read_seed_file(args.entropy_seeds)
    if getattr(args, "sampling_type", None):
        sampling["sampling_type"] = args.sampling_type
    try:
        return SamplingPlan(entropy_seeds=seeds, **sampling)
    except ConfigError as exc:  # it names the option
        raise ConfigError(f"config.sampling_dict.{exc}") from None


def _fit_config(config: dict) -> FitConfig:
    fit_keys = {k: v for k, v in config.items() if k in _FIT_KEYS}
    return FitConfig.from_dict(fit_keys)


def _echo_effective(config: dict, args) -> None:
    if not log.isEnabledFor(logging.INFO):  # the JSON of a large seed bank takes a while
        return
    effective = dict(config)
    for key in ("traindata", "sampling_type", "entropy_seeds", "count"):
        value = getattr(args, key, None)
        if value is not None:
            effective[f"--{key.replace('_', '-')}"] = str(value)
    log.info("effective configuration: %s", json.dumps(effective, sort_keys=True, default=str))


def _load_table(path, config: dict, args):
    delimiter = config.get("delimiter", ",")
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise ConfigError("config.delimiter: must be one character, not a quote or a line break")
    sentinels = config.get("missing_sentinels", [])
    sentinels = sentinels + (getattr(args, "missing_sentinel", None) or [])
    if "" not in sentinels:
        sentinels.insert(0, "")
    return load_csv(path, delimiter=delimiter, missing_sentinels=tuple(sentinels))


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    _echo_effective(config, args)
    cfg = _fit_config(config)
    plan = _sampling_plan(config, args)
    train = _load_table(args.train, config, args)
    test = _load_table(args.test, config, args) if args.test else None
    result = fit(train, cfg, plan, test=test)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = (("train.out.csv", result.train), ("val.out.csv", result.validation),
               ("test.out.csv", result.test))
    for name, prepared in outputs:
        if prepared is not None:
            if cfg.orig_headers:
                prepared = orig_headers_mode(prepared, result.basis)
            write_csv(prepared, out_dir / name, include_row_index=True)
    save_basis(result.basis, out_dir / "basis.json")
    write_seed_report(result.basis.seed_report, out_dir / "seed_report.json")
    log.info("wrote outputs to %s", out_dir)
    return 0


def cmd_transform(args) -> int:
    config = _load_config(args.config)
    _echo_effective(config, args)
    orig_headers = args.orig_headers or _fit_config(config).orig_headers
    basis = load_basis(args.basis)
    plan = _sampling_plan(config, args)
    table = _load_table(args.data, config, args)
    prepared = apply(basis, table, args.traindata, plan)
    if orig_headers:
        prepared = orig_headers_mode(prepared, basis)
    write_csv(prepared, args.out, include_row_index=True)
    log.info("wrote %s", args.out)
    return 0


def cmd_seed_report(args) -> int:
    for flag, rows in (("--rows-train", args.rows_train), ("--rows-test", args.rows_test)):
        if rows < 0:
            raise ConfigError(f"{flag}: must be nonnegative, got {rows}")
    basis = load_basis(args.basis)
    report = basis.seed_report
    budgets = {
        "sampling_type": {
            "bulk_seeds": {},
            "sampling_seed": {
                "train": report.sampling_seed_total_train,
                "test": report.sampling_seed_total_test,
            },
            "transform_seed": {"total": report.transform_seed_total},
        },
        "report": asdict(report),
    }
    bulk = budgets["sampling_type"]["bulk_seeds"]
    if args.rows_train:
        bulk["train"] = rescale_budget(
            report.bulk_seeds_total_train, report.rowcount_basis_train, args.rows_train
        )
    if args.rows_test:
        bulk["test"] = rescale_budget(
            report.bulk_seeds_total_test, report.rowcount_basis_test, args.rows_test
        )
    print(json.dumps(budgets, indent=2, sort_keys=True))
    return 0


def cmd_augment(args) -> int:
    config = _load_config(args.config)
    _echo_effective(config, args)
    basis = load_basis(args.basis)
    plan = _sampling_plan(config, args)
    table = _load_table(args.train, config, args)
    held_out = basis.validation_row_index
    if held_out and np.isin(held_out, table.index).all():
        log.warning("augment: the input holds all %d rows that fit held out for validation; "
                    "they are augmented too", len(held_out))
    spec = AugmentSpec.from_literal(args.count)
    out = augment(basis, table, spec, plan)
    write_csv(out, args.out, include_row_index=True)
    log.info("wrote %d rows to %s", out.n_rows, args.out)
    return 0


def _grid_value(item: str, axis: str) -> float:
    """One ``--grid`` item as a finite number in ``axis``'s range (see ``check_param``)."""
    try:
        value = float(item)
    except ValueError:
        raise ConfigError(f"--grid: {item!r} is not a number") from None
    check_param(axis, typed(float, value, "--grid", ConfigError), "--grid", ConfigError)
    return value


def cmd_sweep(args) -> int:
    # the harness loads only for this command, not at every start-up
    from .harness import SweepSpec, SyntheticTask, emit_curves, run_sweep

    task = SyntheticTask(
        seed=args.task_seed,
        n_rows=args.rows,
        n_test_rows=args.test_rows,
        n_numeric=args.numeric,
        n_categoric=args.categoric,
    )
    sweep = SweepSpec(
        axis=args.axis,
        grid=[_grid_value(item, args.axis) for item in args.grid.split(",")],
        scenarios=args.scenarios.split(","),
        reps=args.reps,
    )
    log.info("sweep: axis=%s grid=%s scenarios=%s reps=%d",
             sweep.axis, sweep.grid, sweep.scenarios, sweep.reps)
    results = run_sweep(task, sweep)
    emit_curves(results, args.out)
    log.info("wrote %s", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabnoise",
        description="Fit/apply tabular preprocessing with seeded stochastic perturbations",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options fit, transform and augment share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON configuration file")
    shared.add_argument("--entropy-seeds", help="newline-delimited integer seed file")
    shared.add_argument("--missing-sentinel", action="append",
                        help="treat this field value as missing on ingestion (repeatable; "
                             "default: empty field only)")
    shared.add_argument("--sampling-type", choices=SAMPLING_TYPES)

    p_fit = sub.add_parser("fit", parents=[shared],
                           help="fit on training data and write prepared outputs")
    p_fit.add_argument("train", help="training CSV path")
    p_fit.add_argument("--test", help="optional test CSV prepared on the train basis")
    p_fit.add_argument("--out-dir", required=True, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_tr = sub.add_parser("transform", parents=[shared],
                          help="prepare additional data on a fitted basis")
    p_tr.add_argument("basis", help="basis JSON path")
    p_tr.add_argument("data", help="data CSV path")
    p_tr.add_argument("--out", required=True, help="output CSV path")
    p_tr.add_argument("--traindata", default="test", choices=TRAINDATA_MODES,
                      help="treat the data as train or test, optionally without noise")
    p_tr.add_argument("--orig-headers", action="store_true",
                      help="restore original column headers (one-to-one plans only)")
    p_tr.set_defaults(func=cmd_transform)

    p_rep = sub.add_parser("seed-report", help="print entropy seed budgets")
    p_rep.add_argument("basis", help="basis JSON path")
    p_rep.add_argument("--rows-train", type=int, default=0,
                       help="rescale the train budget to this row count")
    p_rep.add_argument("--rows-test", type=int, default=0,
                       help="rescale the test budget to this row count (0 omits it)")
    p_rep.set_defaults(func=cmd_seed_report)

    p_aug = sub.add_parser("augment", parents=[shared],
                           help="concatenate freshly-noised training duplicates")
    p_aug.add_argument("basis", help="basis JSON path")
    p_aug.add_argument("train", help="training CSV path")
    p_aug.add_argument("--count", required=True,
                       help="duplicate count; integer literal keeps one duplicate noiseless, "
                            "float literal (e.g. 2.0) makes all duplicates noisy")
    p_aug.add_argument("--out", required=True, help="output CSV path")
    p_aug.set_defaults(func=cmd_augment)

    p_sw = sub.add_parser("sweep", help="run the synthetic sensitivity harness")
    p_sw.add_argument("--axis", default="sigma", choices=("sigma", "flip_prob"))
    p_sw.add_argument("--grid", default="0,0.06,0.3,1.0", help="comma-separated values")
    p_sw.add_argument("--scenarios", default="train,test,traintest")
    p_sw.add_argument("--reps", type=int, default=20)
    p_sw.add_argument("--rows", type=int, default=600)
    p_sw.add_argument("--test-rows", type=int, default=300)
    p_sw.add_argument("--numeric", type=int, default=4)
    p_sw.add_argument("--categoric", type=int, default=2)
    p_sw.add_argument("--task-seed", type=int, default=0)
    p_sw.add_argument("--out", required=True, help="curves CSV path")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    saved = log.level  # -v holds under a configured root too, for this call only
    log.setLevel(logging.WARNING - 10 * min(args.verbose, 2))
    try:
        with warnings.catch_warnings():  # a warning is one line on the log, as an error is
            warnings.showwarning = lambda message, *_: log.warning("%s", message)
            return args.func(args)
    except TabnoiseError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 1
    finally:
        log.setLevel(saved)


if __name__ == "__main__":
    sys.exit(main())
