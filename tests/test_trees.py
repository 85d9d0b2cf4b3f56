import pytest

from tabnoise.errors import ConfigError
from tabnoise.pipeline import KIND_PARAMS
from tabnoise.schema import typed
from tabnoise.trees import (
    ParamAssignments,
    ProcessSpec,
    ROOT_PREFIX_POLICY,
    TransformCatalog,
    TreeSpec,
    apply_root_category,
    builtin_catalog,
    resolve_params,
)


class _Ref:
    def __init__(self, base):
        self.base = base


def _trace_executor(log):
    def executor(category, ref):
        out = _Ref(f"{ref.base}_{category}")
        log.append((category, ref.base, out.base))
        return out

    return executor


def _bases(refs):
    return [r.base for r in refs]


def test_worked_example_tree():
    catalog = TransformCatalog(
        {"newt": {"parents": ["newt"], "cousins": ["NArw"], "friends": ["bsor"]}}, {}
    )
    log = []
    refs = apply_root_category(catalog, "newt", _Ref("column"), _trace_executor(log))
    assert _bases(refs) == ["column_newt", "column_newt_bsor", "column_NArw"]


def test_cousins_only_root_retains_input():
    catalog = TransformCatalog({"markers": {"cousins": ["NArw"]}}, {})
    refs = apply_root_category(catalog, "markers", _Ref("x"), _trace_executor([]))
    assert _bases(refs) == ["x", "x_NArw"]


def test_coworkers_replace_downstream():
    # encoder upstream, noise replacing it downstream through coworkers
    catalog = TransformCatalog({"root": {"parents": ["enc"], "cousins": ["NArw"]},
                                "enc": {"parents": ["enc"], "coworkers": ["noise"]}}, {})
    refs = apply_root_category(catalog, "root", _Ref("x"), _trace_executor([]))
    assert _bases(refs) == ["x_enc_noise", "x_NArw"]


def test_generation_chaining_with_children():
    # children act as downstream parents: replace, with further offspring
    catalog = TransformCatalog({"root": {"parents": ["a"]},
                                "a": {"parents": ["a"], "children": ["b"]},
                                "b": {"parents": ["b"], "coworkers": ["c"]}}, {})
    refs = apply_root_category(catalog, "root", _Ref("x"), _trace_executor([]))
    assert _bases(refs) == ["x_a_b_c"]


def test_supplement_primitives_retain_their_input():
    catalog = TransformCatalog({"root": {"siblings": ["s"], "cousins": ["k"]}}, {})
    refs = apply_root_category(catalog, "root", _Ref("x"), _trace_executor([]))
    # siblings and cousins supplement: input survives, outputs appended
    assert _bases(refs) == ["x", "x_s", "x_k"]


def test_unknown_root_category_named_in_error():
    catalog = TransformCatalog({}, {})
    with pytest.raises(ConfigError, match="nope"):
        apply_root_category(catalog, "nope", _Ref("x"), _trace_executor([]))


def test_cycle_guarded_by_depth_limit():
    catalog = TransformCatalog({"loop": {"parents": ["loop"], "children": ["loop"]}}, {})
    with pytest.raises(ConfigError, match="depth"):
        apply_root_category(catalog, "loop", _Ref("x"), _trace_executor([]))


def test_unknown_primitive_rejected():
    with pytest.raises(ConfigError) as caught:
        builtin_catalog().update_from_config({"newt": {"parents": [], "stepparents": ["x"]}},
                                             None)
    assert str(caught.value) == "config.transformdict.newt: unknown keys ['stepparents']"


# -- process entries and functionpointer ------------------------------------------


def test_functionpointer_resolution_merges_defaults():
    catalog = TransformCatalog({}, {
        "base": {"transform": "noise_numeric", "defaultparams": {"sigma": 0.06, "mu": 0.0}},
        "derived": {"functionpointer": "base", "defaultparams": {"sigma": 0.5}},
    })
    kind, defaults = catalog.resolve_entry("derived")
    assert kind == "noise_numeric"
    assert defaults == {"sigma": 0.5, "mu": 0.0}


def test_functionpointer_chain():
    catalog = TransformCatalog({}, {"a": {"transform": "zscore", "defaultparams": {}},
                                    "b": {"functionpointer": "a"},
                                    "c": {"functionpointer": "b"}})
    assert catalog.resolve_entry("c")[0] == "zscore"


def test_functionpointer_cycle_detected():
    catalog = TransformCatalog({}, {"a": {"functionpointer": "b"},
                                    "b": {"functionpointer": "a"}})
    with pytest.raises(ConfigError, match="cycle"):
        catalog.resolve_entry("a")


def test_unknown_category_in_chain():
    catalog = TransformCatalog({}, {"a": {"functionpointer": "ghost"}})
    with pytest.raises(ConfigError, match="ghost"):
        catalog.resolve_entry("a")


def test_config_processdict_requires_functionpointer():
    catalog = builtin_catalog()
    with pytest.raises(ConfigError) as caught:
        catalog.update_from_config(None, {"newt": {"defaultparams": {}}})
    assert str(caught.value) == "config.processdict.newt: missing keys ['functionpointer']"


# -- parameter precedence -----------------------------------------------------------


def _assignments():
    return ParamAssignments.from_config(
        {
            "global_assignparam": {"testnoise": True},
            "default_assignparam": {"DPod": {"flip_prob": 0.05}},
            "DPmm": {"targetcolumn": {"sigma": 0.02}},
        }
    )


def test_precedence_global_plus_default():
    params = resolve_params(
        "DPod", "anycol", "anycol_DPode_DPod", _assignments(),
        {"flip_prob": 0.03, "testnoise": False}, KIND_PARAMS["noise_flip"],
    )
    assert params["flip_prob"] == 0.05
    assert params["testnoise"] is True


def test_precedence_per_column_overrides_default():
    params = resolve_params(
        "DPmm", "targetcolumn", "targetcolumn_DPmme", _assignments(),
        {"sigma": 0.03}, KIND_PARAMS["noise_scaled"],
    )
    assert params["sigma"] == 0.02


def test_precedence_no_assignments_gives_defaults():
    params = resolve_params(
        "DPnb", "c", "c_DPnbe", ParamAssignments(), {"sigma": 0.06},
        KIND_PARAMS["noise_numeric"],
    )
    assert params == {"sigma": 0.06}


def test_derived_column_key_beats_input_column_key():
    assignments = ParamAssignments.from_config(
        {"cat": {"col": {"sigma": 0.1}, "col_enc": {"sigma": 0.9}}}
    )
    params = resolve_params("cat", "col", "col_enc", assignments, {},
                            KIND_PARAMS["noise_numeric"])
    assert params["sigma"] == 0.9


def test_global_unknown_parameter_silently_ignored():
    assignments = ParamAssignments.from_config(
        {"global_assignparam": {"bincount": 7, "testnoise": True}}
    )
    params = resolve_params("DPnb", "c", "c_e", assignments, {},
                            KIND_PARAMS["noise_numeric"])
    assert "bincount" not in params
    assert params["testnoise"] is True


def test_category_specific_unknown_parameter_rejected():
    assignments = ParamAssignments.from_config(
        {"default_assignparam": {"DPnb": {"bincount": 7}}}
    )
    with pytest.raises(ConfigError, match="bincount"):
        resolve_params("DPnb", "c", "c_e", assignments, {}, KIND_PARAMS["noise_numeric"])


def test_per_column_unknown_parameter_rejected():
    assignments = ParamAssignments.from_config({"DPnb": {"c": {"wat": 1}}})
    with pytest.raises(ConfigError, match="wat"):
        resolve_params("DPnb", "c", "c_e", assignments, {}, KIND_PARAMS["noise_numeric"])


def test_each_strict_level_names_itself_in_its_message():
    assignments = ParamAssignments.from_config({
        "default_assignparam": {"DPnb": {"wat": 1}},
        "DPmm": {"c": {"wat": 1}},
        "DPrt": {"c_e": {"wat": 1}},
    })
    cases = [("DPnb", "parameter 'wat' is not accepted by category 'DPnb'"),
             ("DPmm", "parameter 'wat' is not accepted by category 'DPmm' (column 'c')"),
             ("DPrt", "parameter 'wat' is not accepted by category 'DPrt' (column 'c_e')")]
    for category, message in cases:
        with pytest.raises(ConfigError) as caught:
            resolve_params(category, "c", "c_e", assignments, {}, KIND_PARAMS["noise_scaled"])
        assert str(caught.value) == message


@pytest.mark.parametrize("params, message", [
    ({"test_flip_prob": [0.5, 1.5]}, "test_flip_prob[1]: 1.5 is outside [0, 1]"),
    ({"flip_prob": {"distribution": "uniform", "high": 2.0}},
     "flip_prob.high: 2.0 is outside [0, 1]"),
    ({"flip_prob": 1.5}, "flip_prob: 1.5 is outside [0, 1]"),
    ({"sigma": {"distribution": "uniform", "low": -1.0}}, "sigma.low: -1.0 is outside [0, inf]"),
    ({"flip_prob": {"distribution": "normal", "mu": 0.5}},
     "flip_prob.distribution: a normal draw can leave [0, 1]; use a list or a uniform draw"),
    ({"flip_prob": {"distribution": "uniform", "mu": 0.9, "sigma": 0.01}},
     "flip_prob: a uniform draw does not read ['mu', 'sigma']"),
    ({"mu": {"distribution": "normal", "sigma": -2}}, "mu.sigma: -2 is outside [0, inf]"),
    ({"sigma": {"distribution": "laplace", "low": 0.0}},
     "sigma: a laplace draw does not read ['low']"),
])
def test_range_check_messages(params, message):
    with pytest.raises(ConfigError) as caught:
        ParamAssignments.from_config({"DPbn": {"cat": params}})
    assert str(caught.value) == f"config.assignparam.DPbn.cat.{message}"


# -- builtin catalog -------------------------------------------------------------------


def test_builtin_noise_roots_structure():
    catalog = builtin_catalog()
    # z-score encoding upstream, gated distribution noise as downstream replace
    kind, defaults = catalog.resolve_entry("DPnb")
    assert kind == "noise_numeric"
    assert defaults["sigma"] == 0.06 and defaults["flip_prob"] == 0.03
    assert catalog.resolve_entry("DPnbe")[0] == "zscore"
    tree = catalog.tree("DPnb")
    assert tree["parents"] == ["DPnbe"] and tree["cousins"] == ["NArw"]
    assert catalog.tree("DPnbe")["coworkers"] == ["DPnb"]


def test_builtin_swap_and_passthrough():
    catalog = builtin_catalog()
    assert catalog.resolve_entry("DPse")[0] == "noise_swap"
    assert catalog.resolve_entry("DPsee")[0] == "passthrough"
    assert catalog.resolve_entry("excl")[0] == "passthrough"
    # passthrough roots carry no missing markers
    assert catalog.tree("DPse").get("cousins", []) == []
    assert catalog.tree("excl").get("cousins", []) == []
    assert catalog.tree("excl")["auntsuncles"] == ["excl"]


def test_builtin_prefix_policy_flags():
    catalog = builtin_catalog()
    for stem in ("nb", "mm", "od", "se", "sk"):
        for prefix, (trainnoise, testnoise) in ROOT_PREFIX_POLICY.items():
            _, defaults = catalog.resolve_entry(prefix + stem)
            assert defaults["trainnoise"] is trainnoise, prefix + stem
            assert defaults["testnoise"] is testnoise, prefix + stem


def test_builtin_table_defaults():
    catalog = builtin_catalog()
    _, mm = catalog.resolve_entry("DPmm")
    assert mm["sigma"] == 0.03 and mm["test_sigma"] == 0.02
    assert mm["rescale_sigmas"] is True and mm["noise_scaling_bias_offset"] is True
    _, od = catalog.resolve_entry("DPod")
    assert od["flip_prob"] == 0.03 and od["test_flip_prob"] == 0.01
    assert od["weighted"] is True
    _, sk = catalog.resolve_entry("DPsk")
    assert sk["mask_value"] == 0.0
    _, ne = catalog.resolve_entry("DPne")
    assert ne["rescale_sigmas"] is True and ne["sigma"] == 0.06
    _, oh = catalog.resolve_entry("DPoh")
    assert oh["swap_noise"] is False


def test_builtin_entries_have_the_config_form():
    """A builtin tree is a TreeSpec, and a builtin entry a ProcessSpec with ``transform``
    in place of ``functionpointer`` where it names a transform kind."""
    catalog = builtin_catalog()
    for category, tree in catalog._trees.items():
        assert typed(TreeSpec, tree, category, ConfigError) == tree
    for category, entry in catalog._process.items():
        assert ("transform" in entry) != ("functionpointer" in entry), category
        # each key ProcessSpec holds, with transform read as the functionpointer
        as_config = {"functionpointer" if key == "transform" else key: value
                     for key, value in entry.items()}
        assert typed(ProcessSpec, as_config, category, ConfigError) == as_config
