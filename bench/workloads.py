"""Workload definitions, seeded input generation and output checks.

Each workload is built so that one layer of tabnoise dominates its run; the
reasons are recorded in ``bench/README.md``. Inputs come from
``tabnoise.harness.generate_task`` plus this module's own seeded blanking
and seed-bank writer, so the program only ever sees the generated files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tabnoise.harness import SyntheticTask, generate_task

COMMANDS = ("fit", "transform", "augment")
AUGMENT_COUNT = 2
VALIDATION_RATIO = 0.1

# output file (relative to the run directory) -> command that wrote it
OUTPUT_FILES = {
    "fit/train.out.csv": "fit",
    "fit/val.out.csv": "fit",
    "fit/test.out.csv": "fit",
    "fit/basis.json": "fit",
    "fit/seed_report.json": "fit",
    "transform.csv": "transform",
    "augment.csv": "augment",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_test: int
    n_numeric: int
    n_categoric: int
    n_seeds: int
    config: dict = field(hash=False)
    blank_share: float = 0.0

    @property
    def sampling_type(self) -> str:
        return self.config["sampling_dict"]["sampling_type"]

    def rows_written(self) -> int:
        """Rows the three commands write: fit (train+val+test), transform, augment."""
        return (self.n_train + self.n_test) + self.n_test + (AUGMENT_COUNT + 1) * self.n_train


def _config(powertransform: str, sampling_type: str, **extra) -> dict:
    return {
        "labels_column": "label",
        "powertransform": powertransform,
        "validation_ratio": VALIDATION_RATIO,
        "sampling_dict": {"sampling_type": sampling_type, "seeding_type": "primary_seeds"},
        **extra,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide_dp1",
            n_train=3000, n_test=1500, n_numeric=8, n_categoric=3, n_seeds=4096,
            config=_config("DP1", "sampling_seed"),
            blank_share=0.05,
        ),
        Workload(
            name="scaled_db2",
            n_train=3000, n_test=4000, n_numeric=2, n_categoric=2, n_seeds=4096,
            config=_config(
                "DB2", "sampling_seed",
                assignparam={
                    "default_assignparam": {"DBod": {"flip_prob": 0.3, "test_flip_prob": 0.3}},
                    "DBod": {"c0": {"protected_feature": "c1"}},
                },
            ),
        ),
        Workload(
            name="bulk_db1",
            n_train=1500, n_test=750, n_numeric=4, n_categoric=2, n_seeds=200_000,
            config=_config("DB1", "bulk_seeds"),
        ),
    )
}

# Row counts for the benchmark's own smoke tests; seed banks stay large enough.
TINY = {"n_train": 60, "n_test": 30}


def sized(workload: Workload, size: str) -> Workload:
    """The workload at ``full`` size, or cut down to ``tiny`` for smoke tests."""
    if size == "tiny":
        return replace(workload, **TINY, n_seeds=min(workload.n_seeds, 20_000))
    return workload


# -- inputs --------------------------------------------------------------------


def _format(cell) -> str:
    if cell is None:
        return ""
    return repr(cell) if isinstance(cell, float) else str(cell)


def _write_table(path: Path, columns: dict) -> None:
    names = list(columns)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(zip(*([_format(c) for c in columns[n]] for n in names)))


def generate_inputs(workload: Workload, seed: int, run_dir: Path) -> dict:
    """Write train.csv, test.csv, seeds.txt and config.json; return their paths."""
    run_dir.mkdir(parents=True, exist_ok=True)
    task = SyntheticTask(seed=seed, n_rows=workload.n_train, n_test_rows=workload.n_test,
                         n_numeric=workload.n_numeric, n_categoric=workload.n_categoric)
    train, test = generate_task(task)
    rng = np.random.default_rng([seed, sum(workload.name.encode())])
    paths = {}
    for label, table in (("train", train), ("test", test)):
        columns = {}
        for name in table.column_names:
            cells = list(table.column(name))
            if workload.blank_share and name != task.label_column:
                for row in np.flatnonzero(rng.random(len(cells)) < workload.blank_share):
                    cells[row] = None
            columns[name] = cells
        paths[label] = run_dir / f"{label}.csv"
        _write_table(paths[label], columns)
    bank = rng.integers(0, 2**31 - 1, size=workload.n_seeds)
    paths["seeds"] = run_dir / "seeds.txt"
    paths["seeds"].write_text("\n".join(map(str, bank.tolist())) + "\n", encoding="utf-8")
    paths["config"] = run_dir / "config.json"
    paths["config"].write_text(json.dumps(workload.config, sort_keys=True), encoding="utf-8")
    return paths


def command_argvs(inputs: dict, out_dir: Path) -> dict:
    """The argv of each CLI command; outputs land under ``out_dir``."""
    common = ["--config", str(inputs["config"]), "--entropy-seeds", str(inputs["seeds"])]
    return {
        "fit": ["fit", str(inputs["train"]), "--test", str(inputs["test"]),
                "--out-dir", str(out_dir / "fit"), *common],
        "transform": ["transform", str(out_dir / "fit" / "basis.json"), str(inputs["test"]),
                      "--out", str(out_dir / "transform.csv"), *common],
        "augment": ["augment", str(out_dir / "fit" / "basis.json"), str(inputs["train"]),
                    "--count", str(AUGMENT_COUNT), "--out", str(out_dir / "augment.csv"),
                    *common],
    }


# -- output checks -------------------------------------------------------------


def digests(out_dir: Path) -> dict:
    """sha256 of every output file; a missing file digests to None."""
    out = {}
    for rel in OUTPUT_FILES:
        path = out_dir / rel
        out[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def _read_rows(path: Path) -> tuple[list, list]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_invariants(workload: Workload, out_dir: Path) -> dict:
    """Structural checks on one repetition's outputs: command -> list of problems."""
    problems = {command: [] for command in COMMANDS}
    for rel, command in OUTPUT_FILES.items():
        if not (out_dir / rel).is_file():
            problems[command].append(f"{rel} missing")

    n_val = math.floor(VALIDATION_RATIO * workload.n_train)
    expected_rows = {
        "fit/train.out.csv": workload.n_train - n_val,
        "fit/val.out.csv": n_val,
        "fit/test.out.csv": workload.n_test,
        "transform.csv": workload.n_test,
        "augment.csv": (AUGMENT_COUNT + 1) * workload.n_train,
    }
    for rel, rows in expected_rows.items():
        if not (out_dir / rel).is_file():
            continue
        command = OUTPUT_FILES[rel]
        header, body = _read_rows(out_dir / rel)
        if len(body) != rows:
            problems[command].append(f"{rel} has {len(body)} rows, expected {rows}")
        if any(len(row) != len(header) for row in body):
            problems[command].append(f"{rel} has rows of the wrong width")
        elif workload.config["powertransform"] == "DB2":
            problems[command].extend(_unit_interval_problems(rel, header, body))

    fit_test, transformed = out_dir / "fit/test.out.csv", out_dir / "transform.csv"
    if workload.config["powertransform"].startswith("DP") and fit_test.is_file() \
            and transformed.is_file() and fit_test.read_bytes() != transformed.read_bytes():
        # DP roots never inject at test time, so transform replays fit's test output
        problems["transform"].append("transform.csv differs from fit/test.out.csv")
    return problems


def _unit_interval_problems(rel: str, header: list, body: list) -> list:
    scaled = [j for j, name in enumerate(header) if name.endswith("_DBrt")]
    if not scaled:
        return [f"{rel} has no DBrt columns"]
    for j in scaled:
        for row in body:
            try:
                inside = not row[j] or 0.0 <= float(row[j]) <= 1.0
            except ValueError:
                inside = False
            if not inside:
                return [f"{rel} column {header[j]} leaves [0, 1]: {row[j]!r}"]
    return []
