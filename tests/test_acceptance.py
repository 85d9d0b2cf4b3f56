"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline. Every tolerance is pinned here; nothing is deferred.
"""

import contextlib
import sys

import numpy as np

from tabnoise.encoders import apply_numeric, fit_numeric
from tabnoise.errors import SeedExhaustedError
from tabnoise.noise import (
    adjust_noise_mean,
    sample_bernoulli_mask,
    sample_noise,
    scale_noise_minmax,
    weighted_flip,
)
from tabnoise.pipeline import (
    KIND_PARAMS,
    AugmentSpec,
    apply,
    apply_with_stats,
    augment,
    fit,
    save_basis,
)
from tabnoise.rng import NOISE_DISTRIBUTIONS, Pcg64Stream, StreamSampler, mix_seed
from tabnoise.sampling import SamplingPlan, rescale_budget
from tabnoise.table import DataTable, write_csv
from tabnoise.trees import ParamAssignments, builtin_catalog, resolve_params


@contextlib.contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number:2d}: {text}", file=sys.stdout, flush=True)
        raise
    print(f"PASS criterion {number:2d}: {text}", file=sys.stdout, flush=True)


def _sampler(seed: int) -> StreamSampler:
    state, seq = mix_seed(None, [seed])
    return StreamSampler(Pcg64Stream(state, seq))


def _plan(seeds=None):
    return SamplingPlan(sampling_type="sampling_seed", seeding_type="primary_seeds",
                        entropy_seeds=seeds or list(range(4096)))


# -- 1: zero-noise equivalence ---------------------------------------------------

_ROOT_TWINS = {
    "DPnb": "nmbr", "DPmm": "mnmx", "DPrt": "retn", "DPbn": "bnry",
    "DPod": "ord3", "DPoh": "onht", "DP10": "1010", "DPne": "exclf",
    "DPpc": "pvoc", "DPse": "excl", "DPsk": "excl",
}

_NUMERIC_ROOTS = {"DPnb", "DPmm", "DPrt", "DPne", "DPse", "DPsk"}


def _random_fixture_table(rng, n_rows=12):
    columns = {}
    for root in _ROOT_TWINS:
        name = f"f_{root}"
        if root in _NUMERIC_ROOTS:
            cells = [float(v) for v in rng.normal(0, 3, size=n_rows)]
        elif root == "DPbn":
            cells = [("y" if v else "n") for v in rng.integers(0, 2, size=n_rows)]
        else:
            levels = ["a", "b", "c", "d"]
            cells = [levels[v] for v in rng.integers(0, 4, size=n_rows)]
        for i in range(n_rows):
            if rng.random() < 0.08:
                cells[i] = None
        columns[name] = cells
    return DataTable(columns)


def test_criterion_1_zero_noise_equivalence():
    with criterion(1, "flip_prob=0 output bit-identical to noiseless encodings, 50 tables"):
        rng = np.random.default_rng(101)
        zero = {"global_assignparam": {"flip_prob": 0.0, "test_flip_prob": 0.0}}
        for _ in range(50):
            table = _random_fixture_table(rng)
            noisy_cfg = {
                "shuffletrain": False,
                "assigncat": {root: [f"f_{root}"] for root in _ROOT_TWINS},
                "assignparam": zero,
            }
            plain_cfg = {
                "shuffletrain": False,
                "assigncat": {},
            }
            for root, twin in _ROOT_TWINS.items():
                plain_cfg["assigncat"].setdefault(twin, []).append(f"f_{root}")
            noisy = fit(table, noisy_cfg, _plan()).train
            plain = fit(table, plain_cfg, _plan()).train
            noisy_by_col = {}
            plain_by_col = {}
            for root in _ROOT_TWINS:
                col = f"f_{root}"
                noisy_plan = [noisy.column(n) for n in _fit_outputs(noisy, col)]
                plain_plan = [plain.column(n) for n in _fit_outputs(plain, col)]
                assert len(noisy_plan) == len(plain_plan), (root, col)
                for a, b in zip(noisy_plan, plain_plan):
                    assert a == b, f"{root} differs from {twin} at flip_prob 0"


def _fit_outputs(prepared: DataTable, input_col: str):
    return [n for n in prepared.column_names if n == input_col or n.startswith(input_col + "_")]


# -- 2: range retention -----------------------------------------------------------


def test_criterion_2_range_retention():
    with criterion(2, "10^6 scaled injections land in [0,1], zero violations"):
        sampler = _sampler(202)
        rng = np.random.default_rng(202)
        per_dist = 1_000_000 // len(NOISE_DISTRIBUTIONS) + 1
        total = 0
        for dist in NOISE_DISTRIBUTIONS:
            minmax = rng.uniform(0.0, 1.0, size=per_dist)
            mu = float(rng.uniform(-3.0, 3.0))
            sigma = float(rng.uniform(0.0, 3.0))
            noise = sample_noise(sampler, dist, mu, sigma, per_dist)
            injected = minmax + scale_noise_minmax(noise, minmax)
            assert np.all(injected >= 0.0), dist
            assert np.all(injected <= 1.0), dist
            total += per_dist
        assert total >= 1_000_000


# -- 3: mean adjustment ------------------------------------------------------------


def test_criterion_3_mean_adjustment():
    with criterion(3, "adjusted scaled-noise mean |m| <= 1e-3; unadjusted skewed >= 5e-4"):
        rng = np.random.default_rng(303)
        uniform_feature = rng.uniform(0.0, 1.0, size=20_000)
        mu_adj, degenerate = adjust_noise_mean(
            uniform_feature, 0.0, 0.03, "normal", _sampler(304)
        )
        assert not degenerate
        draws = 1_000_000
        panel = np.tile(uniform_feature, draws // len(uniform_feature) + 1)[:draws]
        noise = sample_noise(_sampler(305), "normal", mu_adj, 0.03, draws)
        adjusted_mean = float(np.mean(scale_noise_minmax(noise, panel)))
        assert abs(adjusted_mean) <= 1e-3

        skewed = rng.beta(2, 8, size=20_000)
        panel_skewed = np.tile(skewed, draws // len(skewed) + 1)[:draws]
        raw = sample_noise(_sampler(306), "normal", 0.0, 0.03, draws)
        unadjusted_mean = float(np.mean(scale_noise_minmax(raw, panel_skewed)))
        assert abs(unadjusted_mean) >= 5e-4


# -- 4: weighted flip frequencies ---------------------------------------------------


def test_criterion_4_weighted_flip_frequencies():
    with criterion(4, "50/30/20 vocabulary: alternates at 0.60/0.40 +/- 0.01 over 1e5 flips"):
        codes = np.ones(100_000, dtype=np.int64)  # flipping the majority class
        weights = np.array([50.0, 30.0, 20.0])
        mask = np.ones(100_000, dtype=np.int8)
        out = weighted_flip(codes, 3, weights, mask, _sampler(404))
        share_b = float(np.mean(out == 2))
        share_c = float(np.mean(out == 3))
        assert abs(share_b - 0.60) <= 0.01
        assert abs(share_c - 0.40) <= 0.01


# -- 5: injection-formula defaults ---------------------------------------------------


def test_criterion_5_injection_defaults():
    with criterion(5, "DPnb defaults: perturbed fraction 0.03 +/- 0.002, std 0.06 +/- 0.003"):
        catalog = builtin_catalog()
        kind, defaults = catalog.resolve_entry("DPnb")
        assert kind == "noise_numeric"
        assert defaults["flip_prob"] == 0.03
        assert defaults["sigma"] == 0.06
        assert defaults["mu"] == 0.0
        assert defaults["noisedistribution"] == "normal"

        n = 1_000_000
        rng = np.random.default_rng(505)
        raw = rng.normal(0, 5, size=n)
        basis = fit_numeric(list(raw), "zscore")
        scaled, missing = apply_numeric(basis, list(raw))
        mask = sample_bernoulli_mask(_sampler(506), n, defaults["flip_prob"], missing)
        active = np.flatnonzero(mask)
        noise = sample_noise(_sampler(507), defaults["noisedistribution"],
                             defaults["mu"], defaults["sigma"], len(active))
        injected = scaled.copy()
        injected[active] += noise
        perturbed = injected != scaled
        fraction = float(np.mean(perturbed))
        assert abs(fraction - 0.03) <= 0.002
        deltas = injected[perturbed] - scaled[perturbed]
        assert abs(float(np.std(deltas)) - 0.06) <= 0.003


# -- 6: train/test semantics truth table ----------------------------------------------


def test_criterion_6_traindata_truth_table():
    with criterion(6, "3 prefixes x 4 modes: noise fires exactly per the policy table"):
        rng = np.random.default_rng(606)
        table = DataTable({"num": list(rng.normal(0, 1, size=30))})
        fires_expected = {
            ("DP", "train"): True, ("DP", "test"): False,
            ("DP", "train_no_noise"): False, ("DP", "test_no_noise"): False,
            ("DT", "train"): False, ("DT", "test"): True,
            ("DT", "train_no_noise"): False, ("DT", "test_no_noise"): False,
            ("DB", "train"): True, ("DB", "test"): True,
            ("DB", "train_no_noise"): False, ("DB", "test_no_noise"): False,
        }
        for prefix in ("DP", "DT", "DB"):
            root = prefix + "nb"
            config = {
                "shuffletrain": False,
                "assigncat": {root: ["num"]},
                "assignparam": {"default_assignparam": {root: {"flip_prob": 1.0,
                                                               "test_flip_prob": 1.0}}},
            }
            basis = fit(table, config, _plan()).basis
            name = f"num_{root}e_{root}"
            baseline = apply(basis, table, "test_no_noise", _plan()).column(name)
            for mode in ("train", "test", "train_no_noise", "test_no_noise"):
                out = apply(basis, table, mode, _plan()).column(name)
                fired = out != baseline
                assert fired == fires_expected[(prefix, mode)], (prefix, mode)


# -- 7: seed accounting ------------------------------------------------------------------


def test_criterion_7_seed_accounting():
    with criterion(7, "bulk budget survives 200 trials; op counts exact; rescaling exact"):
        # the proportional rescaling example: 300 at basis 100 -> 1500 at 500 rows
        assert rescale_budget(300, 100, 500) == 1500

        rng = np.random.default_rng(707)
        basis_table = DataTable({"num": list(rng.normal(0, 1, size=50))})
        for trial in range(200):
            flip = float(rng.uniform(0.4, 0.6))
            config = {
                "shuffletrain": False,
                "assigncat": {"DTnb": ["num"]},
                "assignparam": {"default_assignparam": {"DTnb": {"test_flip_prob": flip}}},
            }
            fitted = fit(basis_table, config, _plan())
            report = fitted.basis.seed_report
            n_new = int(rng.integers(2000, 4000))
            budget = rescale_budget(report.bulk_seeds_total_test,
                                    report.rowcount_basis_test, n_new)
            seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=budget)]
            new_table = DataTable({"num": list(rng.normal(0, 1, size=n_new))})
            plan = SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=seeds,
                                extra_seed_generator="off")
            try:
                apply(fitted.basis, new_table, "test", plan)
            except SeedExhaustedError:
                raise AssertionError(f"trial {trial}: budget {budget} exhausted")

        # sampling_seed consumption equals counted sampling operations exactly
        mixed = DataTable({
            "num": list(rng.normal(0, 1, size=40)),
            "cat": [str(v) for v in rng.integers(0, 4, size=40)],
        })
        config = {"shuffletrain": False, "assigncat": {"DBnb": ["num"], "DBod": ["cat"]}}
        fitted = fit(mixed, config, _plan())
        report = fitted.basis.seed_report
        assert fitted.ops_executed == report.sampling_seed_total_train
        _, stats = apply_with_stats(fitted.basis, mixed, "test", _plan())
        assert stats["ops_executed"] == report.sampling_seed_total_test
        assert stats["seeds_consumed"] == report.sampling_seed_total_test


# -- 8: determinism -----------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical primary seeds give byte-identical CSVs; one flip differs"):
        rng = np.random.default_rng(808)
        table = DataTable({
            "num": list(rng.normal(0, 1, size=50)),
            "cat": [str(v) for v in rng.integers(0, 3, size=50)],
        })
        config = {
            "shuffletrain": True,
            "assigncat": {"DBnb": ["num"], "DBod": ["cat"]},
            "assignparam": {"global_assignparam": {"flip_prob": 0.5, "test_flip_prob": 0.5}},
        }

        def run(seeds, tag):
            fitted = fit(table, config, _plan(seeds))
            prepared = apply(fitted.basis, table, "test", _plan(seeds))
            augmented = augment(fitted.basis, table, AugmentSpec(2), _plan(seeds))
            paths = []
            for name, out in (("train", fitted.train), ("test", prepared), ("aug", augmented)):
                path = tmp_path / f"{tag}_{name}.csv"
                write_csv(out, path, include_row_index=True)
                paths.append(path)
            basis_path = tmp_path / f"{tag}_basis.json"
            save_basis(fitted.basis, basis_path)
            paths.append(basis_path)
            return [p.read_bytes() for p in paths]

        seeds = list(range(4096))
        assert run(seeds, "a") == run(seeds, "b")
        flipped = list(seeds)
        flipped[0] = 999_999
        assert run(seeds, "c") != run(flipped, "d")


# -- 9: family tree worked example and precedence -----------------------------------------


def test_criterion_9_family_tree():
    with criterion(9, "worked example yields exactly the three columns; precedence resolves"):
        table = DataTable({"column": [1.0, 2.0, 3.0, None, 10.0]})
        config = {
            "shuffletrain": False,
            "processdict": {"newt": {"functionpointer": "nmbr"}},
            "transformdict": {
                "newt": {"parents": ["newt"], "cousins": ["NArw"], "friends": ["bsor"]}
            },
            "assigncat": {"newt": ["column"]},
        }
        fitted = fit(table, config, _plan())
        assert fitted.basis.column_plans["column"].output_columns == [
            "column_newt", "column_newt_bsor", "column_NArw",
        ]
        assert set(fitted.train.column_names) == {
            "column_newt", "column_newt_bsor", "column_NArw",
        }

        assignments = ParamAssignments.from_config({
            "global_assignparam": {"testnoise": True},
            "default_assignparam": {"DPod": {"flip_prob": 0.05}},
            "DPmm": {"targetcolumn": {"sigma": 0.02}},
        })
        catalog = builtin_catalog()
        _, mm_defaults = catalog.resolve_entry("DPmm")
        mm = resolve_params("DPmm", "targetcolumn", "targetcolumn_DPmme", assignments,
                            mm_defaults, KIND_PARAMS["noise_scaled"])
        assert mm["sigma"] == 0.02
        assert mm["testnoise"] is True
        _, od_defaults = catalog.resolve_entry("DPod")
        od = resolve_params("DPod", "othercolumn", "othercolumn_DPode", assignments,
                            od_defaults, KIND_PARAMS["noise_flip"])
        assert od["flip_prob"] == 0.05
        assert od["testnoise"] is True


# -- 10: protected rescaling ----------------------------------------------------------------


def test_criterion_10_protected_rescaling():
    with criterion(10, "segment stds 2.0/0.5: injected noise std ratio 4.0 +/- 5%"):
        rng = np.random.default_rng(1010)
        per_segment = 100_000
        values = np.concatenate([
            rng.normal(0.0, 2.0, size=per_segment),
            rng.normal(0.0, 0.5, size=per_segment),
        ])
        groups = ["a"] * per_segment + ["b"] * per_segment
        table = DataTable({"num": list(values), "grp": groups})
        config = {
            "shuffletrain": False,
            "assigncat": {"DPne": ["num"], "excl": ["grp"]},
            "assignparam": {"default_assignparam": {"DPne": {
                "flip_prob": 1.0, "sigma": 1.0, "rescale_sigmas": False,
                "protected_feature": "grp",
            }}},
        }
        fitted = fit(table, config, _plan())
        out = np.array(fitted.train.column("num_DPnee_DPne"))
        deltas = out - values
        ratio = float(np.std(deltas[:per_segment]) / np.std(deltas[per_segment:]))
        assert abs(ratio - 4.0) / 4.0 <= 0.05


# -- 11: augment arithmetic ------------------------------------------------------------------


def test_criterion_11_augment_arithmetic():
    with criterion(11, "count 2 on 100 rows: 300 rows, exactly 100 noiseless; 2.0: none"):
        rng = np.random.default_rng(1111)
        table = DataTable({"num": list(rng.normal(0, 1, size=100))})
        config = {
            "shuffletrain": True,
            "assigncat": {"DPnb": ["num"]},
            "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 1.0}}},
        }
        fitted = fit(table, config, _plan())
        clean = apply(fitted.basis, table, "train_no_noise", _plan())
        clean_by_index = dict(zip(clean.row_index, clean.column("num_DPnbe_DPnb")))

        def matches(augmented):
            return sum(
                clean_by_index[idx % 100] == value
                for idx, value in zip(augmented.row_index,
                                      augmented.column("num_DPnbe_DPnb"))
            )

        int_out = augment(fitted.basis, table, AugmentSpec(2, all_noisy=False), _plan())
        assert int_out.n_rows == 300
        assert matches(int_out) == 100

        float_out = augment(fitted.basis, table, AugmentSpec(2, all_noisy=True), _plan())
        assert float_out.n_rows == 300
        assert matches(float_out) == 0


# -- 12: sensitivity trend ---------------------------------------------------------------------


def test_criterion_12_sensitivity_trend():
    from tabnoise.harness import SweepSpec, SyntheticTask, run_sweep, sign_test_p

    with criterion(12, "test-only sigma sweep: accuracy non-increasing (sign test p<0.05)"):
        task = SyntheticTask(seed=1212, n_rows=400, n_test_rows=200,
                             n_numeric=4, n_categoric=1)
        grid = [0.0, 0.06, 0.3, 1.0]
        sweep = SweepSpec(axis="sigma", grid=grid, scenarios=["test"], reps=20)
        results = run_sweep(task, sweep)
        by_value = {v: [] for v in grid}
        for row in results:
            by_value[row["value"]].append(row["accuracy"])
        means = [float(np.mean(by_value[v])) for v in grid]
        for lo, hi in zip(means, means[1:]):
            assert hi <= lo + 0.01, f"means increased along the grid: {means}"
        wins = sum(a > b for a, b in zip(by_value[0.0], by_value[1.0]))
        losses = sum(a < b for a, b in zip(by_value[0.0], by_value[1.0]))
        assert sign_test_p(wins, losses) < 0.05

        anchor = SweepSpec(axis="sigma", grid=[0.0],
                           scenarios=["train", "test", "traintest"], reps=20)
        anchor_results = run_sweep(task, anchor)
        by_rep = {}
        for row in anchor_results:
            by_rep.setdefault(row["rep"], set()).add((row["accuracy"], row["auc"]))
        assert all(len(metrics) == 1 for metrics in by_rep.values())


# -- 13: no leakage ------------------------------------------------------------------------------


def test_criterion_13_no_leakage():
    with criterion(13, "stored statistics match recomputation on train-minus-validation rows"):
        rng = np.random.default_rng(1313)
        for split in range(20):
            n = int(rng.integers(40, 120))
            table = DataTable({
                "num": list(rng.normal(10, 4, size=n)),
                "cat": [str(v) for v in rng.integers(0, 5, size=n)],
            })
            config = {
                "shuffletrain": True,
                "validation_ratio": 0.25,
                "assigncat": {"DPnb": ["num"], "DPod": ["cat"]},
            }
            fitted = fit(table, config, _plan([split * 31 + k for k in range(2048)]))
            excluded = set(fitted.basis.validation_row_index)
            kept_rows = [i for i in range(n) if i not in excluded]
            kept_num = [table.column("num")[i] for i in kept_rows]
            mean = float(np.mean(kept_num))
            std = float(np.sqrt(np.mean((np.array(kept_num) - mean) ** 2)))
            payload = fitted.basis.column_plans["num"].steps[0].payload["numeric_basis"]
            assert payload.mean == mean
            assert payload.std == std
            assert payload.min == min(kept_num)
            assert payload.max == max(kept_num)

            counts: dict = {}
            for i in kept_rows:
                value = table.column("cat")[i]
                counts[value] = counts.get(value, 0) + 1
            cat_payload = fitted.basis.column_plans["cat"].steps[0].payload["categoric_basis"]
            stored = dict(zip(cat_payload.vocabulary, cat_payload.frequencies))
            assert stored == counts
