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
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import TabnoiseError
from .harness import SweepSpec, SyntheticTask, emit_curves, run_sweep
from .pipeline import (
    AugmentSpec,
    FitConfig,
    apply,
    augment,
    fit,
    load_basis,
    orig_headers_mode,
    save_basis,
)
from .sampling import (
    GENERATOR_NAMES,
    GeneratorSpec,
    SamplingPlan,
    read_seed_file,
    rescale_budget,
    write_seed_report,
)
from .table import load_csv, write_csv

log = logging.getLogger("tabnoise")

_FIT_KEYS = {f.name for f in fields(FitConfig)}
_CLI_CONFIG_KEYS = _FIT_KEYS | {
    "entropy_seeds", "sampling_dict", "delimiter", "missing_sentinels",
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TabnoiseError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(config, dict):
        raise TabnoiseError(f"{path}: config must be a JSON object")
    unknown = set(config) - _CLI_CONFIG_KEYS
    if unknown:
        raise TabnoiseError(f"{path}: unknown config keys: {sorted(unknown)}")
    return config


def _sampling_plan(config: dict, args) -> SamplingPlan:
    sampling = config.get("sampling_dict") or {}
    if not isinstance(sampling, dict):
        raise TabnoiseError("sampling_dict must be a JSON object")
    sampling = dict(sampling)
    seeds = config.get("entropy_seeds") or []
    if getattr(args, "entropy_seeds", None):
        seeds = read_seed_file(args.entropy_seeds)
    if getattr(args, "sampling_type", None):
        sampling["sampling_type"] = args.sampling_type
    kwargs = {
        "sampling_type": sampling.get("sampling_type", "default"),
        "entropy_seeds": seeds,
    }
    if sampling.get("seeding_type"):
        kwargs["seeding_type"] = sampling["seeding_type"]
    if "stochastic_count_safety_factor" in sampling:
        kwargs["stochastic_count_safety_factor"] = sampling["stochastic_count_safety_factor"]
    generator = sampling.get("sampling_generator")
    if generator:
        if generator not in GENERATOR_NAMES:
            raise TabnoiseError(f"unknown sampling_generator: {generator!r}")
        kwargs["sampling_generator"] = GeneratorSpec(kind=GENERATOR_NAMES[generator])
    extra = sampling.get("extra_seed_generator")
    if extra:
        kwargs["extra_seed_generator"] = "off" if extra == "off" else GENERATOR_NAMES.get(extra, extra)
    return SamplingPlan(**kwargs)


def _fit_config(config: dict) -> FitConfig:
    fit_keys = {k: v for k, v in config.items() if k in _FIT_KEYS}
    return FitConfig.from_dict(fit_keys)


def _echo_effective(config: dict, args) -> None:
    effective = dict(config)
    for key in ("traindata", "sampling_type", "entropy_seeds", "count"):
        value = getattr(args, key, None)
        if value is not None:
            effective[f"--{key.replace('_', '-')}"] = str(value)
    log.info("effective configuration: %s", json.dumps(effective, sort_keys=True, default=str))


def _load_table(path, config: dict, args):
    sentinels = list(config.get("missing_sentinels", []))
    sentinels.extend(getattr(args, "missing_sentinel", None) or [])
    if "" not in sentinels:
        sentinels.insert(0, "")
    return load_csv(path, delimiter=config.get("delimiter", ","),
                    missing_sentinels=tuple(sentinels))


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
    prepared_train = result.train
    if cfg.noise_augment:
        spec = AugmentSpec.from_literal(str(cfg.noise_augment))
        if spec.count:
            log.info("noise_augment: preparing %d duplicates", spec.count)
            # the duplicates come from the rows left after the validation split
            kept = np.flatnonzero(~np.isin(train.index, result.basis.validation_row_index))
            prepared_train = augment(result.basis, train.take(kept), spec, plan)
    outputs = (("train.out.csv", prepared_train), ("val.out.csv", result.validation),
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
    basis = load_basis(args.basis)
    plan = _sampling_plan(config, args)
    table = _load_table(args.data, config, args)
    prepared = apply(basis, table, args.traindata, plan)
    if args.orig_headers or config.get("orig_headers"):
        prepared = orig_headers_mode(prepared, basis)
    write_csv(prepared, args.out, include_row_index=True)
    log.info("wrote %s", args.out)
    return 0


def cmd_seed_report(args) -> int:
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
        "report": report.to_dict(),
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
    spec = AugmentSpec.from_literal(args.count)
    out = augment(basis, table, spec, plan)
    write_csv(out, args.out, include_row_index=True)
    log.info("wrote %d rows to %s", out.n_rows, args.out)
    return 0


def cmd_sweep(args) -> int:
    task = SyntheticTask(
        seed=args.task_seed,
        n_rows=args.rows,
        n_test_rows=args.test_rows,
        n_numeric=args.numeric,
        n_categoric=args.categoric,
    )
    sweep = SweepSpec(
        axis=args.axis,
        grid=[float(v) for v in args.grid.split(",")],
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

    p_fit = sub.add_parser("fit", help="fit on training data and write prepared outputs")
    p_fit.add_argument("train", help="training CSV path")
    p_fit.add_argument("--config", help="JSON configuration file")
    p_fit.add_argument("--test", help="optional test CSV prepared on the train basis")
    p_fit.add_argument("--out-dir", required=True, help="output directory")
    p_fit.add_argument("--entropy-seeds", help="newline-delimited integer seed file")
    p_fit.add_argument("--missing-sentinel", action="append",
                       help="treat this field value as missing on ingestion (repeatable; "
                            "default: empty field only)")
    p_fit.add_argument("--sampling-type",
                       choices=("default", "bulk_seeds", "sampling_seed", "transform_seed"))
    p_fit.set_defaults(func=cmd_fit)

    p_tr = sub.add_parser("transform", help="prepare additional data on a fitted basis")
    p_tr.add_argument("basis", help="basis JSON path")
    p_tr.add_argument("data", help="data CSV path")
    p_tr.add_argument("--out", required=True, help="output CSV path")
    p_tr.add_argument("--config", help="JSON configuration file (sampling sections)")
    p_tr.add_argument("--traindata", default="test",
                      choices=("test", "train", "train_no_noise", "test_no_noise"),
                      help="treat the data as train or test, optionally without noise")
    p_tr.add_argument("--entropy-seeds", help="newline-delimited integer seed file")
    p_tr.add_argument("--missing-sentinel", action="append",
                      help="treat this field value as missing on ingestion (repeatable)")
    p_tr.add_argument("--sampling-type",
                      choices=("default", "bulk_seeds", "sampling_seed", "transform_seed"))
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

    p_aug = sub.add_parser("augment", help="concatenate freshly-noised training duplicates")
    p_aug.add_argument("basis", help="basis JSON path")
    p_aug.add_argument("train", help="training CSV path")
    p_aug.add_argument("--count", required=True,
                       help="duplicate count; integer literal keeps one duplicate noiseless, "
                            "float literal (e.g. 2.0) makes all duplicates noisy")
    p_aug.add_argument("--out", required=True, help="output CSV path")
    p_aug.add_argument("--config", help="JSON configuration file (sampling sections)")
    p_aug.add_argument("--entropy-seeds", help="newline-delimited integer seed file")
    p_aug.add_argument("--missing-sentinel", action="append",
                       help="treat this field value as missing on ingestion (repeatable)")
    p_aug.add_argument("--sampling-type",
                       choices=("default", "bulk_seeds", "sampling_seed", "transform_seed"))
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
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except TabnoiseError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
