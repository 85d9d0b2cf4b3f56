import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnoise.errors import ConfigError
from tabnoise.harness import (
    SweepSpec,
    SyntheticTask,
    auc_score,
    emit_curves,
    generate_task,
    run_sweep,
    sign_test_p,
)


def test_same_seed_same_task():
    a_train, a_test = generate_task(SyntheticTask(seed=7, n_rows=50, n_test_rows=20))
    b_train, b_test = generate_task(SyntheticTask(seed=7, n_rows=50, n_test_rows=20))
    assert a_train.equals(b_train)
    assert a_test.equals(b_test)


def test_different_seed_different_task():
    a, _ = generate_task(SyntheticTask(seed=1, n_rows=50, n_test_rows=20))
    b, _ = generate_task(SyntheticTask(seed=2, n_rows=50, n_test_rows=20))
    assert not a.equals(b)


def test_numeric_only_task():
    train, _ = generate_task(SyntheticTask(seed=3, n_rows=30, n_test_rows=10,
                                           n_numeric=3, n_categoric=0))
    assert train.column_names == ["x0", "x1", "x2", "label"]


def test_single_row_task_valid():
    train, test = generate_task(SyntheticTask(seed=4, n_rows=1, n_test_rows=1))
    assert train.n_rows == 1 and test.n_rows == 1


def test_labels_are_binary():
    train, _ = generate_task(SyntheticTask(seed=5, n_rows=200, n_test_rows=10))
    assert set(train.column("label")) <= {0.0, 1.0}


def _auc_by_tie_scan(labels, probs):
    """Rank-sum AUC with midranks found by scanning tie blocks in sorted order."""
    positive = labels > 0.5
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(probs, kind="mergesort")
    ranks = np.empty(len(probs), dtype=np.float64)
    sorted_probs = probs[order]
    i = 0
    while i < len(probs):
        j = i
        while j + 1 < len(probs) and sorted_probs[j + 1] == sorted_probs[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.booleans(),
                               st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])
                               | st.floats(0.0, 1.0)),
                     min_size=1, max_size=40))
def test_auc_score_matches_tie_scan(rows):
    labels = np.array([float(label) for label, _ in rows])
    probs = np.array([prob for _, prob in rows])
    assert auc_score(labels, probs) == _auc_by_tie_scan(labels, probs)


def test_auc_score_oracle():
    labels = np.array([0, 0, 1, 1], dtype=float)
    probs = np.array([0.1, 0.4, 0.35, 0.8])
    # one discordant pair of four: AUC = 3/4
    assert auc_score(labels, probs) == pytest.approx(0.75)
    assert auc_score(labels, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)


def test_sign_test_values():
    assert sign_test_p(10, 0) == pytest.approx(2.0**-10)
    assert sign_test_p(0, 0) == 1.0
    assert sign_test_p(5, 5) > 0.5


def test_zero_grid_point_anchors_scenarios():
    task = SyntheticTask(seed=11, n_rows=80, n_test_rows=40, n_numeric=2, n_categoric=1)
    sweep = SweepSpec(axis="sigma", grid=[0.0], scenarios=["train", "test", "traintest"],
                      reps=2)
    results = run_sweep(task, sweep)
    by_rep = {}
    for row in results:
        by_rep.setdefault(row["rep"], []).append((row["accuracy"], row["auc"]))
    for rep, metrics in by_rep.items():
        assert len(set(metrics)) == 1, f"rep {rep} scenarios disagree at zero noise"


def test_total_information_destruction_near_chance():
    # flip_prob 1.0 on categoric-only features: accuracy falls toward chance
    task = SyntheticTask(seed=12, n_rows=300, n_test_rows=200, n_numeric=0, n_categoric=3)
    sweep = SweepSpec(axis="flip_prob", grid=[0.0, 1.0], scenarios=["test"], reps=3)
    results = run_sweep(task, sweep)
    clean = np.mean([r["accuracy"] for r in results if r["value"] == 0.0])
    wrecked = np.mean([r["accuracy"] for r in results if r["value"] == 1.0])
    assert clean > 0.65
    assert wrecked < clean - 0.05
    assert wrecked < 0.65


def test_sweep_reproducible():
    task = SyntheticTask(seed=13, n_rows=60, n_test_rows=30, n_numeric=2, n_categoric=0)
    sweep = SweepSpec(axis="sigma", grid=[0.3], scenarios=["test"], reps=2)
    a = run_sweep(task, sweep)
    b = run_sweep(task, sweep)
    assert a == b


def test_emit_curves_single_point(tmp_path):
    path = tmp_path / "curves.csv"
    emit_curves([{"scenario": "test", "value": 0.1, "rep": 0,
                  "accuracy": 0.5, "auc": 0.5}], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "test" and row[2] == "1"
    assert row[4] == "0.000000"  # stderr 0 when n = 1


def test_emit_curves_formatting_and_stability(tmp_path):
    results = [
        {"scenario": "test", "value": 0.5, "rep": r, "accuracy": 0.25, "auc": 0.75}
        for r in range(3)
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_curves(results, p1)
    emit_curves(results, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "0.250000" in p1.read_text()


def test_emit_curves_empty_rejected(tmp_path):
    with pytest.raises(ConfigError):
        emit_curves([], tmp_path / "c.csv")


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(axis="temperature")
    with pytest.raises(ConfigError):
        SweepSpec(grid=[])
    with pytest.raises(ConfigError):
        SweepSpec(scenarios=["validation"])
