"""Transform composition via family-tree primitives.

A root category assigned to an input column names a family tree. The four
upstream primitives run against the input column in fixed order; the two
offspring-bearing ones then recurse into the applied category's own tree,
where the downstream primitives play the corresponding upstream roles:

    primitive      applied to   column action  downstream offspring
    parents        input        replace        yes
    siblings       input        supplement     yes
    auntsuncles    input        replace        no
    cousins        input        supplement     no
    children       offspring    replace        yes
    niecesnephews  offspring    supplement     yes
    coworkers      offspring    replace        no
    friends        offspring    supplement     no

An output survives into the returned column set unless a replace-action
primitive was applied to it. Entries within one primitive list execute left
to right; recursion is capped to guard against cyclic definitions.

Process entries bind categories to transform kinds, which ``pipeline``
declares, directly or through ``functionpointer`` inheritance, with
``defaultparams`` at the lowest precedence of the five-level parameter
assignment scheme.
"""

from dataclasses import dataclass, field
from typing import TypedDict

from .errors import ConfigError
from .noise import PARAM_HINTS, check_param
from .schema import typed

UPSTREAM_PRIMITIVES = (
    ("parents", True, True),
    ("siblings", False, True),
    ("auntsuncles", True, False),
    ("cousins", False, False),
)

DOWNSTREAM_PRIMITIVES = (
    ("children", True, True),
    ("niecesnephews", False, True),
    ("coworkers", True, False),
    ("friends", False, False),
)

PRIMITIVE_NAMES = tuple(name for name, _, _ in UPSTREAM_PRIMITIVES + DOWNSTREAM_PRIMITIVES)

ROOT_PREFIX_POLICY = {
    "DP": (True, False),  # noise to train only
    "DT": (False, True),  # noise to test only
    "DB": (True, True),  # noise to both
}

DEPTH_LIMIT = 32

# a family tree as a config's transformdict entry writes it
TreeSpec = TypedDict("TreeSpec", {name: list[str] for name in PRIMITIVE_NAMES}, total=False)


class ProcessSpec(TypedDict("_Pointer", {"functionpointer": str}), total=False):
    """A process entry as a config's processdict entry writes it; a builtin entry
    has ``transform``, a transform kind, in place of ``functionpointer``."""

    defaultparams: dict


# each parameter's configured value; the parameters of NoiseSpec plus bincount
_PARAM_TYPES = {**PARAM_HINTS, "bincount": int}


def _checked_params(params, where: str) -> dict:
    """A copy of ``params`` with each value of a ``_PARAM_TYPES`` name checked against
    its type and by ``check_param``.

    Names it does not list are kept: ``resolve_params`` decides on them.
    """
    for name, value in typed(dict, params, where, ConfigError).items():
        if name in _PARAM_TYPES:
            typed(_PARAM_TYPES[name], value, f"{where}.{name}", ConfigError)
            check_param(name, value, f"{where}.{name}", ConfigError)
    return dict(params)


class TransformCatalog:
    """Category definitions: family trees and process entries, by category."""

    def __init__(self, trees: dict[str, TreeSpec], process: dict[str, ProcessSpec]):
        self._trees, self._process = trees, process

    def has_root(self, category: str) -> bool:
        return category in self._trees

    def tree(self, category: str) -> TreeSpec:
        try:
            return self._trees[category]
        except KeyError:
            raise ConfigError(f"unknown root category: {category!r}") from None

    def resolve_entry(self, category: str) -> tuple[str, dict]:
        """(transform kind, merged defaultparams), chasing functionpointers."""
        chain = []
        current = category
        while True:
            entry = self._process.get(current)
            if entry is None:
                raise ConfigError(f"unknown transform category: {current!r}")
            chain.append(entry)
            if "transform" in entry:
                break
            current = entry["functionpointer"]
            if len(chain) > DEPTH_LIMIT:
                raise ConfigError(f"functionpointer cycle at {category!r}")
        kind = chain[-1]["transform"]
        defaults: dict = {}
        for entry in reversed(chain):
            defaults.update(entry.get("defaultparams", {}))
        return kind, defaults

    def update_from_config(self, transformdict: dict | None, processdict: dict | None,
                           prefix: str = "config") -> None:
        """Apply user ``transformdict``/``processdict`` sections found at ``prefix``.

        Config-declared categories inherit an existing transform through
        ``functionpointer``.
        """
        for category, spec in (processdict or {}).items():
            where = f"{prefix}.processdict.{category}"
            entry = typed(ProcessSpec, spec, where, ConfigError)
            entry["defaultparams"] = _checked_params(entry.get("defaultparams", {}),
                                                     f"{where}.defaultparams")
            self._process[category] = entry
        for category, spec in (transformdict or {}).items():
            self._trees[category] = typed(TreeSpec, spec, f"{prefix}.transformdict.{category}",
                                          ConfigError)


def apply_root_category(catalog: TransformCatalog, root: str, input_ref, executor):
    """Evaluate a root category's tree; returns surviving output refs in order.

    ``executor(category, ref)`` applies one tree category to an upstream ref
    and returns the output ref; the walker handles ordering, recursion, and
    replace/supplement column retention.
    """
    return _walk(catalog, catalog.tree(root), UPSTREAM_PRIMITIVES, input_ref, executor, 0)


def _walk(catalog: TransformCatalog, tree: TreeSpec, primitives, ref, executor, depth: int):
    """Run ``primitives`` of ``tree`` on ``ref``; offspring walk their own trees'
    downstream primitives, one level deeper."""
    results = []
    retained = True
    for name, replaces, offspring in primitives:
        for category in tree.get(name, ()):
            out_ref = executor(category, ref)
            if replaces:
                retained = False
            if not offspring:
                results.append(out_ref)
                continue
            if depth >= DEPTH_LIMIT:
                raise ConfigError(
                    f"family tree recursion exceeded depth {DEPTH_LIMIT} at {category!r}; "
                    "check for cyclic definitions"
                )
            results.extend(_walk(catalog, catalog._trees.get(category, {}),
                                 DOWNSTREAM_PRIMITIVES, out_ref, executor, depth + 1))
    if retained:
        results.insert(0, ref)
    return results


@dataclass
class ParamAssignments:
    """The assignparam structure: global, per-category defaults, per-column."""

    global_assignparam: dict = field(default_factory=dict)
    default_assignparam: dict = field(default_factory=dict)
    per_category: dict = field(default_factory=dict)

    @classmethod
    def from_config(cls, assignparam: dict | None) -> "ParamAssignments":
        """The parsed config section, each value type-checked (see ``_checked_params``)."""
        out = cls()
        for key, value in (assignparam or {}).items():
            where = f"config.assignparam.{key}"
            if key == "global_assignparam":
                out.global_assignparam = _checked_params(value, where)
                continue
            entries = {name: _checked_params(params, f"{where}.{name}")
                       for name, params in typed(dict, value, where, ConfigError).items()}
            if key == "default_assignparam":
                out.default_assignparam = entries
            else:
                out.per_category[key] = entries
        return out


def resolve_params(
    category: str,
    input_column: str,
    derived_column: str,
    assignments: ParamAssignments,
    defaults: dict,
    accepted: tuple,
) -> dict:
    """Merge parameters by precedence (lowest to highest): transform defaults,
    global_assignparam, default_assignparam for the category, the category as
    applied to the input column, the category as applied to the derived
    column with suffix appenders.

    Unknown names are dropped silently at the global level and rejected at
    the category-specific levels.
    """
    merged = dict(defaults)
    merged.update((k, v) for k, v in assignments.global_assignparam.items() if k in accepted)
    per_column = assignments.per_category.get(category, {})
    levels = [(assignments.default_assignparam.get(category, {}), "")]
    levels += [(per_column.get(column) or {}, f" (column {column!r})")
               for column in dict.fromkeys((input_column, derived_column))]
    for params, where in levels:
        for key, value in params.items():
            if key not in accepted:
                raise ConfigError(f"parameter {key!r} is not accepted by category "
                                  f"{category!r}{where}")
            merged[key] = value
    return merged


# -- builtin catalog ---------------------------------------------------------

_ENCODER_ROOTS = {
    "nmbr": "zscore",
    "mnmx": "minmax",
    "retn": "retain",
    "bnry": "boolean",
    "ord3": "ordinal",
    "onht": "onehot",
    "1010": "binarized",
    "excl": "passthrough",
    "exclf": "passthrough_float",
    "pvoc": "passthrough_vocab",
}

# Table-default params shared by the stems of each noise kind
_NUMERIC_DEFAULTS = {"flip_prob": 0.03, "mu": 0.0, "test_mu": 0.0, "noisedistribution": "normal",
                     "test_noisedistribution": "normal", "retain_basis": False,
                     "protected_feature": None}
_SCALED_DEFAULTS = {**_NUMERIC_DEFAULTS, "sigma": 0.03, "test_sigma": 0.02,
                    "rescale_sigmas": True, "noise_scaling_bias_offset": True}
_FLIP_DEFAULTS = {"flip_prob": 0.03, "test_flip_prob": 0.01, "weighted": True,
                  "test_weighted": True, "retain_basis": False, "protected_feature": None}
_ROW_DEFAULTS = {"flip_prob": 0.03, "test_flip_prob": 0.01, "retain_basis": False}

# stem -> (upstream encoder category, noise transform kind, Table-default params)
_NOISE_STEMS = {
    "nb": ("nmbr", "noise_numeric",
           {**_NUMERIC_DEFAULTS, "sigma": 0.06, "test_sigma": 0.03, "rescale_sigmas": False}),
    "mm": ("mnmx", "noise_scaled", _SCALED_DEFAULTS),
    "rt": ("retn", "noise_scaled", _SCALED_DEFAULTS),
    "bn": ("bnry", "noise_flip", _FLIP_DEFAULTS),
    "od": ("ord3", "noise_flip", _FLIP_DEFAULTS),
    "oh": ("onht", "noise_flip", {**_FLIP_DEFAULTS, "swap_noise": False}),
    "10": ("1010", "noise_flip", {**_FLIP_DEFAULTS, "swap_noise": False}),
    "ne": ("exclf", "noise_numeric",
           {**_NUMERIC_DEFAULTS, "sigma": 0.06, "test_sigma": 0.03, "rescale_sigmas": True}),
    "pc": ("pvoc", "noise_flip", _FLIP_DEFAULTS),
    "se": ("excl", "noise_swap", _ROW_DEFAULTS),
    "sk": ("excl", "noise_mask", {**_ROW_DEFAULTS, "mask_value": 0.0}),
}

# Passthrough-style stems keep original data untouched apart from noise:
# their trees carry no missing-data marker aggregation.
_PASSTHROUGH_STEMS = ("ne", "pc", "se", "sk")


def builtin_catalog() -> TransformCatalog:
    trees, process = {}, {}
    for category, kind in _ENCODER_ROOTS.items():
        process[category] = {"transform": kind}
        if category in ("excl", "exclf", "pvoc"):
            trees[category] = {"auntsuncles": [category]}
        else:
            trees[category] = {"parents": [category], "cousins": ["NArw"]}
    process["NArw"] = {"transform": "missing_marker"}
    trees["NArw"] = {"cousins": ["NArw"]}
    process["bsor"] = {"transform": "stdbins", "defaultparams": {"bincount": 6}}
    trees["bsor"] = {"parents": ["bsor"], "cousins": ["NArw"]}

    for stem, (encoder, kind, table_defaults) in _NOISE_STEMS.items():
        for prefix, (trainnoise, testnoise) in ROOT_PREFIX_POLICY.items():
            root = prefix + stem
            enc = root + "e"
            flags = {"trainnoise": trainnoise, "testnoise": testnoise}
            if prefix == "DP":
                process[root] = {"transform": kind, "defaultparams": {**table_defaults, **flags}}
            else:
                # DT/DB inherit the DP entry via functionpointer with flag overrides
                process[root] = {"functionpointer": "DP" + stem, "defaultparams": flags}
            process[enc] = {"functionpointer": encoder}
            narw = [] if stem in _PASSTHROUGH_STEMS else ["NArw"]
            trees[root] = {"parents": [enc], "cousins": narw}
            trees[enc] = {"parents": [enc], "coworkers": [root]}
    return TransformCatalog(trees, process)
