"""Desk-scale sensitivity harness.

Generates a reproducible synthetic classification task, runs a deterministic
logistic-regression model (full-batch gradient descent, fixed learning rate
0.1, 500 iterations), and sweeps a noise parameter over injection scenarios:

- ``train``: noise to training features only (DP-prefixed roots)
- ``test``: noise to inference features only (DT)
- ``traintest``: noise to both (DB)

Sweeping ``sigma`` scales the numeric noise distribution while categoric
flips stay off, so the zero grid point anchors all scenarios to identical
metrics under matched seeds. Sweeping ``flip_prob`` drives the injection
ratio of every noise transform with the numeric scale held fixed.

Single runs are noisy by construction; trend claims should be made over
repetitions (the sign test helper is provided for one-sided comparisons).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .encoders import column_as_floats
from .errors import ConfigError
from .pipeline import apply, fit
from .rng import Pcg64Stream, StreamSampler, mix_seed
from .sampling import SamplingPlan
from .table import Coded, DataTable

SCENARIO_PREFIX = {"train": "DP", "test": "DT", "traintest": "DB"}

_CATEGORY_LEVELS = np.array(["A", "B", "C", "D", "E"], dtype=object)


@dataclass
class SyntheticTask:
    seed: int = 0
    n_rows: int = 600
    n_test_rows: int = 300
    n_numeric: int = 4
    n_categoric: int = 2
    label_column: str = "label"

    def __post_init__(self):
        if self.n_rows < 1 or self.n_test_rows < 1:
            raise ConfigError("task sizes must be at least 1")
        for name in ("seed", "n_numeric", "n_categoric"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be nonnegative, got {getattr(self, name)}")
        if self.n_numeric + self.n_categoric < 1:
            raise ConfigError("task needs at least one feature")


@dataclass
class SweepSpec:
    axis: str = "sigma"
    grid: list = field(default_factory=lambda: [0.0, 0.06, 0.3, 1.0])
    scenarios: list = field(default_factory=lambda: ["train", "test", "traintest"])
    reps: int = 20

    def __post_init__(self):
        if self.axis not in ("sigma", "flip_prob"):
            raise ConfigError(f"unknown sweep axis: {self.axis!r}")
        if not self.grid:
            raise ConfigError("sweep grid must be nonempty")
        unknown = set(self.scenarios) - set(SCENARIO_PREFIX)
        if unknown:
            raise ConfigError(f"unknown scenarios: {sorted(unknown)}")


def generate_task(spec: SyntheticTask) -> tuple[DataTable, DataTable]:
    """(train, test) tables with mixed features and a linear-logit binary label."""
    state, seq = mix_seed(b"synthetic-task", [spec.seed])
    sampler = StreamSampler(Pcg64Stream(state, seq))
    total = spec.n_rows + spec.n_test_rows

    weights = sampler.normals(spec.n_numeric, 0.0, 1.5) if spec.n_numeric else np.zeros(0)
    effects = [
        sampler.normals(len(_CATEGORY_LEVELS), 0.0, 1.0) for _ in range(spec.n_categoric)
    ]

    logit = np.zeros(total)
    columns: dict = {}
    for j in range(spec.n_numeric):
        latent = sampler.normals(total, 0.0, 1.0)
        logit += weights[j] * latent
        columns[f"x{j}"] = latent
    for k in range(spec.n_categoric):
        picks = sampler.bounded_ints(total, len(_CATEGORY_LEVELS))
        logit += effects[k][picks]
        columns[f"c{k}"] = Coded(picks, _CATEGORY_LEVELS)
    noise = sampler.normals(total, 0.0, 0.8)
    labels = (logit + noise > 0.0).astype(np.float64)
    columns[spec.label_column] = labels

    def slice_table(lo, hi):
        return DataTable({name: column[lo:hi] for name, column in columns.items()},
                         row_index=np.arange(lo, hi))

    return slice_table(0, spec.n_rows), slice_table(spec.n_rows, total)


def train_logistic(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent; deterministic given its inputs."""
    n, _ = features.shape
    design = np.column_stack([np.ones(n), features])
    weights = np.zeros(design.shape[1])
    for _ in range(500):
        z = design @ weights
        prob = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
        gradient = design.T @ (prob - labels) / n
        weights -= 0.1 * gradient
    return weights


def predict_proba(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    design = np.column_stack([np.ones(len(features)), features])
    z = design @ weights
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


def accuracy_score(labels: np.ndarray, probs: np.ndarray) -> float:
    return float(np.mean((probs >= 0.5) == (labels > 0.5)))


def auc_score(labels: np.ndarray, probs: np.ndarray) -> float:
    """Rank-based AUC with midranks for ties; 0.5 for degenerate labels."""
    positive = labels > 0.5
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    # a tie block at sorted positions i..j gets the midrank (i + j) / 2 + 1
    _, block, counts = np.unique(probs, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts) - 1
    ranks = (0.5 * (ends - counts + 1 + ends) + 1.0)[block]
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: P(at least `wins` successes | fair coin), ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n


def _sweep_config(task: SyntheticTask, scenario: str, axis: str, value: float) -> dict:
    prefix = SCENARIO_PREFIX[scenario]
    numeric_cat = prefix + "nb"
    categoric_cat = prefix + "oh"
    assigncat: dict = {}
    if task.n_numeric:
        assigncat[numeric_cat] = [f"x{j}" for j in range(task.n_numeric)]
    if task.n_categoric:
        assigncat[categoric_cat] = [f"c{k}" for k in range(task.n_categoric)]
    # the other numeric parameter is held at flip_prob 0.5 or sigma 1.0
    if axis == "sigma":
        numeric_params = {"sigma": value, "test_sigma": value,
                          "flip_prob": 0.5, "test_flip_prob": 0.5}
        categoric_params = {"flip_prob": 0.0, "test_flip_prob": 0.0}
    else:
        numeric_params = {"sigma": 1.0, "test_sigma": 1.0,
                          "flip_prob": value, "test_flip_prob": value}
        categoric_params = {"flip_prob": value, "test_flip_prob": value}
    default_assignparam = {numeric_cat: numeric_params}
    if task.n_categoric:
        default_assignparam[categoric_cat] = categoric_params
    return {
        "labels_column": task.label_column,
        "shuffletrain": False,
        "assigncat": assigncat,
        "assignparam": {"default_assignparam": default_assignparam},
    }


def _rep_seeds(base_seed: int, rep: int) -> np.ndarray:
    state, seq = mix_seed(b"sweep-rep", [base_seed, rep])
    return Pcg64Stream(state, seq).words(4096) & np.uint64(2**31 - 1)


def _features_and_labels(prepared: DataTable, label_column: str):
    label_name = None
    for name in prepared.column_names:
        if name.startswith(label_column + "_"):
            label_name = name
            break
    if label_name is None:
        raise ConfigError(f"prepared data has no label column for {label_column!r}")
    features = [n for n in prepared.column_names if n != label_name]
    matrix = np.column_stack([column_as_floats(prepared.data(n))[0] for n in features])
    labels = column_as_floats(prepared.data(label_name))[0]
    return matrix, labels


def run_sweep(task: SyntheticTask, sweep: SweepSpec) -> list[dict]:
    """One result row per (scenario, grid value, repetition).

    Repetition r uses the same task seed and entropy seeds across every
    scenario and grid value, so differences reflect only the injected noise.
    """
    results = []
    for rep in range(sweep.reps):
        rep_task = replace(task, seed=task.seed + rep)
        train_table, test_table = generate_task(rep_task)
        seeds = _rep_seeds(task.seed, rep)

        def plan():
            return SamplingPlan(sampling_type="sampling_seed", seeding_type="primary_seeds",
                                entropy_seeds=seeds)

        for value in sweep.grid:
            for scenario in sweep.scenarios:
                config = _sweep_config(rep_task, scenario, sweep.axis, value)
                fitted = fit(train_table, config, plan())
                prepared_test = apply(fitted.basis, test_table, "test", plan())
                train_x, train_y = _features_and_labels(fitted.train, task.label_column)
                test_x, test_y = _features_and_labels(prepared_test, task.label_column)
                weights = train_logistic(train_x, train_y)
                probs = predict_proba(weights, test_x)
                results.append(
                    {
                        "scenario": scenario,
                        "value": value,
                        "rep": rep,
                        "accuracy": accuracy_score(test_y, probs),
                        "auc": auc_score(test_y, probs),
                    }
                )
    return results


def emit_curves(results: list[dict], path) -> None:
    """Mean and standard error per (scenario, grid value), 6-decimal fixed point."""
    if not results:
        raise ConfigError("no sweep results to emit")
    grouped: dict = {}
    for row in results:
        grouped.setdefault((row["scenario"], row["value"]), []).append(row)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["scenario", "value", "n",
             "accuracy_mean", "accuracy_stderr", "auc_mean", "auc_stderr"]
        )
        for scenario, value in sorted(grouped, key=lambda k: (k[0], k[1])):
            rows = grouped[(scenario, value)]
            n = len(rows)
            line = [scenario, f"{value:.6f}", str(n)]
            for metric in ("accuracy", "auc"):
                values = np.array([r[metric] for r in rows])
                mean = float(np.mean(values))
                stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                line.extend([f"{mean:.6f}", f"{stderr:.6f}"])
            writer.writerow(line)
