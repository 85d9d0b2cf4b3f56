import numpy as np

from tabnoise.pipeline import apply, apply_with_stats, fit
from tabnoise.rng import Pcg64Stream, mix_seed
from tabnoise.sampling import GeneratorSpec, SamplingPlan
from tabnoise.table import DataTable


def _plan(seeds=None, **kwargs):
    kwargs.setdefault("sampling_type", "sampling_seed")
    kwargs.setdefault("seeding_type", "primary_seeds")
    return SamplingPlan(entropy_seeds=seeds or list(range(500)), **kwargs)


def test_onehot_flip_changes_activation_sets():
    rng = np.random.default_rng(30)
    cats = ["a", "b", "c", "d"]
    table = DataTable({"cat": [cats[v] for v in rng.integers(0, 4, size=200)]})
    config = {
        "shuffletrain": False,
        "assigncat": {"DPoh": ["cat"]},
        "assignparam": {"default_assignparam": {"DPoh": {"flip_prob": 1.0}}},
    }
    res = fit(table, config, _plan())
    names = [n for n in res.train.column_names if "DPoh" in n]
    assert len(names) == 4
    grid = np.column_stack([res.train.column(n) for n in names])
    # flips preserve one-hot structure: exactly one activation per row
    assert np.all(grid.sum(axis=1) == 1.0)
    clean = apply(res.basis, table, "train_no_noise", _plan())
    clean_grid = np.column_stack([clean.column(n) for n in names])
    changed = np.any(grid != clean_grid, axis=1)
    assert changed.all()  # current value excluded: every flip changes the set


def test_binarized_flip_preserves_code_space():
    rng = np.random.default_rng(31)
    cats = ["a", "b", "c"]
    table = DataTable({"cat": [cats[v] for v in rng.integers(0, 3, size=300)]})
    config = {
        "shuffletrain": False,
        "assigncat": {"DP10": ["cat"]},
        "assignparam": {"default_assignparam": {"DP10": {"flip_prob": 1.0}}},
    }
    res = fit(table, config, _plan())
    names = [n for n in res.train.column_names if "DP10" in n]
    grid = np.column_stack([res.train.column(n) for n in names]).astype(int)
    codes = (grid[:, 0] << 1) | grid[:, 1]
    assert set(codes) <= {1, 2, 3}  # flips land on training vocabulary codes


def test_swap_noise_flag_on_multicolumn_encoding():
    rng = np.random.default_rng(32)
    cats = ["a", "b", "c", "d"]
    cells = [cats[v] for v in rng.integers(0, 4, size=400)]
    table = DataTable({"cat": cells})
    config = {
        "shuffletrain": False,
        "assigncat": {"DPoh": ["cat"]},
        "assignparam": {"default_assignparam": {"DPoh": {"flip_prob": 1.0,
                                                          "swap_noise": True}}},
    }
    res = fit(table, config, _plan())
    names = [n for n in res.train.column_names if "DPoh" in n]
    grid = np.column_stack([res.train.column(n) for n in names])
    assert np.all(grid.sum(axis=1) == 1.0)
    # swapped activations follow the batch distribution, so every level appears
    codes = np.argmax(grid, axis=1)
    assert set(codes) == {0, 1, 2, 3}


def test_direct_flip_boolean_path():
    table = DataTable({"flag": ["y", "n"] * 50})
    config = {
        "shuffletrain": False,
        "assigncat": {"DPbn": ["flag"]},
        "assignparam": {"default_assignparam": {"DPbn": {"flip_prob": 1.0,
                                                          "direct_flip": True}}},
    }
    res = fit(table, config, _plan())
    out = np.array(res.train.column("flag_DPbne_DPbn"))
    clean = np.array(apply(res.basis, table, "train_no_noise", _plan())
                     .column("flag_DPbne_DPbn"))
    assert np.all(out == 1.0 - clean)  # abs(x - 1) flips every activation
    # direct flip consumes only the mask operation
    report = res.basis.seed_report
    assert report.sampling_seed_total_train == 1


def test_weighted_boolean_equivalent_to_flip():
    table = DataTable({"flag": ["y"] * 80 + ["n"] * 20})
    config = {
        "shuffletrain": False,
        "assigncat": {"DPbn": ["flag"]},
        "assignparam": {"default_assignparam": {"DPbn": {"flip_prob": 1.0}}},
    }
    res = fit(table, config, _plan())
    out = np.array(res.train.column("flag_DPbne_DPbn"))
    clean = np.array(apply(res.basis, table, "train_no_noise", _plan())
                     .column("flag_DPbne_DPbn"))
    # two-value vocabulary: the weighted alternate set is a singleton
    assert np.all(out == 1.0 - clean)


def test_randomized_param_retained_basis():
    table = DataTable({"num": [float(i) for i in range(40)]})
    config = {
        "shuffletrain": False,
        "assigncat": {"DBnb": ["num"]},
        "assignparam": {"default_assignparam": {"DBnb": {
            "sigma": [0.01, 0.5, 2.0], "retain_basis": True, "flip_prob": 1.0,
        }}},
    }
    res = fit(table, config, _plan())
    step = res.basis.column_plans["num"].steps[1]
    assert step.payload["randomized_fields"] == ["sigma"]
    fitted_sigma = step.payload["resolved"]["sigma"]
    assert fitted_sigma in (0.01, 0.5, 2.0)
    # retained: two applications draw identical noise
    a = apply(res.basis, table, "test", _plan())
    b = apply(res.basis, table, "test", _plan())
    assert a.column("num_DBnbe_DBnb") == b.column("num_DBnbe_DBnb")


def test_randomized_param_resampled_without_retention():
    table = DataTable({"num": [float(i) for i in range(40)]})
    config = {
        "shuffletrain": False,
        "assigncat": {"DBnb": ["num"]},
        "assignparam": {"default_assignparam": {"DBnb": {
            "sigma": [0.01, 5.0], "retain_basis": False, "flip_prob": 1.0,
        }}},
    }
    res = fit(table, config, _plan())
    report = res.basis.seed_report
    # re-resolution adds one sampling operation per randomized field at apply
    _, stats = apply_with_stats(res.basis, table, "test", _plan())
    assert stats["ops_executed"] == report.sampling_seed_total_test
    assert report.sampling_seed_total_test == 3  # resolve + mask + noise


def test_external_generator_drop_in():
    class CountingSource:
        def __init__(self):
            self.calls = 0
            state, seq = mix_seed(b"external", [7])
            self.inner = Pcg64Stream(state, seq)

        def next_word(self):
            self.calls += 1
            return self.inner.next_word()

    source = CountingSource()
    plan = SamplingPlan(
        sampling_generator=GeneratorSpec(kind="external", external=source),
        os_material=b"fixed",
    )
    table = DataTable({"num": [float(i) for i in range(30)]})
    config = {"shuffletrain": False, "assigncat": {"DPnb": ["num"]},
              "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 0.5}}}}
    res = fit(table, config, plan)
    assert source.calls > 30  # the external word stream fed the sampling
    noisy = res.train.column("num_DPnbe_DPnb")
    clean = apply(res.basis, table, "train_no_noise", _plan()).column("num_DPnbe_DPnb")
    assert noisy != clean


def test_mersenne_generator_through_pipeline():
    plan = SamplingPlan(sampling_generator=GeneratorSpec(kind="mersenne"),
                        sampling_type="sampling_seed", seeding_type="primary_seeds",
                        entropy_seeds=list(range(100)))
    table = DataTable({"num": [float(i) for i in range(30)]})
    config = {"shuffletrain": False, "assigncat": {"DPnb": ["num"]},
              "assignparam": {"default_assignparam": {"DPnb": {"flip_prob": 1.0}}}}
    res = fit(table, config, plan)
    clean = apply(res.basis, table, "train_no_noise", plan).column("num_DPnbe_DPnb")
    assert res.train.column("num_DPnbe_DPnb") != clean


def test_test_phase_uses_test_parameters():
    rng = np.random.default_rng(33)
    table = DataTable({"num": list(rng.normal(0, 1, size=4000))})
    config = {
        "shuffletrain": False,
        "assigncat": {"DBnb": ["num"]},
        "assignparam": {"default_assignparam": {"DBnb": {
            "flip_prob": 1.0, "test_flip_prob": 1.0, "sigma": 1.0, "test_sigma": 0.1,
        }}},
    }
    res = fit(table, config, _plan())
    clean = np.array(apply(res.basis, table, "test_no_noise", _plan()).column("num_DBnbe_DBnb"))
    train_out = np.array(apply(res.basis, table, "train", _plan()).column("num_DBnbe_DBnb"))
    test_out = np.array(apply(res.basis, table, "test", _plan()).column("num_DBnbe_DBnb"))
    train_std = float(np.std(train_out - clean))
    test_std = float(np.std(test_out - clean))
    assert abs(train_std - 1.0) < 0.05
    assert abs(test_std - 0.1) < 0.01


def test_scaled_roots_keep_unit_interval_through_pipeline():
    rng = np.random.default_rng(34)
    table = DataTable({"num": list(rng.normal(50, 20, size=2000))})
    for root in ("DPmm", "DPrt"):
        config = {
            "shuffletrain": False,
            "assigncat": {root: ["num"]},
            "assignparam": {"default_assignparam": {root: {"flip_prob": 1.0,
                                                            "sigma": 5.0}}},
        }
        res = fit(table, config, _plan())
        out = np.array(res.train.column(f"num_{root}e_{root}"))
        assert np.all(out >= 0.0) and np.all(out <= 1.0), root
        # out-of-range test values clip then stay in range under injection
        shifted = DataTable({"num": list(rng.normal(500, 100, size=500))})
        prepared = apply(res.basis, shifted, "train", _plan())
        values = np.array(prepared.column(f"num_{root}e_{root}"))
        assert np.all(values >= 0.0) and np.all(values <= 1.0), root


def test_all_missing_column_never_noised():
    table = DataTable({"void": [None] * 20, "num": [float(i) for i in range(20)]})
    res = fit(table, {"powertransform": "DP1", "shuffletrain": False}, _plan())
    assert res.basis.column_plans["void"].kind == "categoric"
    step = res.basis.column_plans["void"].steps[0]
    assert step.payload["categoric_basis"].vocabulary == []
    narw = res.train.column("void_NArw")
    assert all(v == 1.0 for v in narw)


def test_zero_row_fit():
    table = DataTable({"a": [], "b": []})
    res = fit(table, {"shuffletrain": False, "assigncat": {"excl": ["a", "b"]}}, _plan())
    assert res.train.n_rows == 0
    out = apply(res.basis, DataTable({"a": [1.0], "b": ["x"]}), "test", _plan())
    assert out.n_rows == 1


def test_suffix_collision_with_existing_column():
    table = DataTable({"x": [1.0, None], "x_NArw": [5.0, 6.0]})
    res = fit(table, {"shuffletrain": False,
                      "assigncat": {"nmbr": ["x"], "excl": ["x_NArw"]}}, _plan())
    names = res.train.column_names
    assert "x_NArw_1" in names  # the marker disambiguates away from the real column
    assert "x_NArw_excl" in names


def test_default_sampling_type_runs_without_seeds():
    table = DataTable({"num": [float(i) for i in range(20)]})
    plan = SamplingPlan(os_material=b"fixed")
    config = {"shuffletrain": False, "assigncat": {"DPnb": ["num"]}}
    res = fit(table, config, plan)
    assert res.train.n_rows == 20


def test_sigma_zero_mu_zero_bit_identical():
    # the numeric zero-noise path: sigma 0 with mu 0 leaves every cell untouched
    rng = np.random.default_rng(35)
    table = DataTable({"num": list(rng.normal(3, 2, size=60))})
    for root in ("DPnb", "DPmm", "DPrt", "DPne"):
        config = {
            "shuffletrain": False,
            "assigncat": {root: ["num"]},
            "assignparam": {"default_assignparam": {root: {
                "flip_prob": 1.0, "sigma": 0.0, "test_sigma": 0.0, "mu": 0.0,
            }}},
        }
        res = fit(table, config, _plan())
        name = f"num_{root}e_{root}"
        clean = apply(res.basis, table, "train_no_noise", _plan())
        assert res.train.column(name) == clean.column(name), root


def test_swap_noise_flag_on_binarized_encoding():
    rng = np.random.default_rng(36)
    cats = ["a", "b", "c"]
    table = DataTable({"cat": [cats[v] for v in rng.integers(0, 3, size=300)]})
    config = {
        "shuffletrain": False,
        "assigncat": {"DP10": ["cat"]},
        "assignparam": {"default_assignparam": {"DP10": {"flip_prob": 1.0,
                                                          "swap_noise": True}}},
    }
    res = fit(table, config, _plan())
    names = [n for n in res.train.column_names if "DP10" in n]
    grid = np.column_stack([res.train.column(n) for n in names]).astype(int)
    codes = (grid[:, 0] << 1) | grid[:, 1]
    assert set(codes) <= {1, 2, 3}  # swapped codes come from rows of the batch


def test_swap_noise_on_passthrough_vocabulary_moves_unseen_values():
    # a swap trades cells, so a row drawing one the vocabulary lacks takes it as it is
    config = {
        "shuffletrain": False,
        "assigncat": {"DPpc": ["cat"]},
        "assignparam": {"default_assignparam": {"DPpc": {"flip_prob": 1.0,
                                                          "swap_noise": True}}},
    }
    res = fit(DataTable({"cat": ["a", "b", "a", "b"]}), config, _plan(list(range(50))))
    table = DataTable({"cat": ["zz", "a", "b", "zz", "a", "b", "a", "b"]})
    out = apply(res.basis, table, "train", _plan(list(range(50)))).column("cat_DPpce_DPpc")
    assert set(out) <= {"a", "b", "zz"}, out


def test_db_scaled_root_matches_dt_under_bulk_seeding():
    # phase-keyed calibration: a DB-scaled root's test output matches the DT
    # twin cell-exact under bulk primary seeding
    rng = np.random.default_rng(37)
    table = DataTable({"num": list(rng.normal(10, 3, size=40))})

    def bulk_plan():
        return SamplingPlan(sampling_type="bulk_seeds",
                            entropy_seeds=list(range(5000)))

    bases = {}
    for root in ("DBmm", "DTmm"):
        config = {"shuffletrain": False, "assigncat": {root: ["num"]},
                  "assignparam": {"default_assignparam": {root: {"flip_prob": 0.5}}}}
        bases[root] = fit(table, config, bulk_plan()).basis
    db_payload = bases["DBmm"].column_plans["num"].steps[1].payload
    dt_payload = bases["DTmm"].column_plans["num"].steps[1].payload
    assert db_payload["mu_adjusted_test"] == dt_payload["mu_adjusted_test"]
    db_out = apply(bases["DBmm"], table, "test", bulk_plan())
    dt_out = apply(bases["DTmm"], table, "test", bulk_plan())
    assert db_out.column("num_DBmme_DBmm") == dt_out.column("num_DTmme_DTmm")
