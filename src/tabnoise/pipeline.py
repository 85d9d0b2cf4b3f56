"""Fit/apply orchestration: schema resolution, splits, noise semantics, persistence.

``fit`` resolves a root category per input column (explicit assignment wins
over automation), removes validation rows before any statistic is computed,
fits every column's transform tree on the remaining training rows, and emits
the prepared training set with train-phase noise (with ``noise_augment``, its
duplicates, as ``augment`` makes them). The returned basis holds
everything needed to prepare later data with no access to the training set:
fitted statistics, resolved parameters, applied steps, and the seed report.

Every transform kind is declared once, in ``_TRANSFORMS``: ``fit`` learns a
step's payload from the training rows, ``apply`` computes the step's output
from that payload alone, and the kind lists the parameters it accepts.
Fitting and every later preparation run a column's steps through one
executor, which names each step's outputs and, when fitting, fits each
payload just before applying it.

``apply`` replays the recorded steps on new data. The traindata mode crossed
with each transform's train/test flags decides where noise fires:

    mode            noise applied
    train           transforms flagged trainnoise, with train parameters
    test            transforms flagged testnoise, with test parameters
    train_no_noise  none (encodings identical to train mode)
    test_no_noise   none (encodings identical to test mode)
"""

import json
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Literal, TypedDict

import numpy as np

from .encoders import (
    CODECS,
    CategoricBasis,
    CategoricEncoding,
    NumericBasis,
    apply_categoric,
    apply_numeric,
    column_as_floats,
    fit_categoric,
    fit_numeric,
    moments,
)
from .errors import BasisFormatError, ConfigError, SchemaError, TableError
from .noise import (
    NOISE_FLAG_FIELDS,
    NoiseSpec,
    ProtectedBasis,
    RawParams,
    ResolvedParams,
    adjust_noise_mean,
    check_param,
    fit_protected_categoric,
    fit_protected_numeric,
    flip_boolean_direct,
    inject_numeric,
    is_randomized_param,
    mask_noise,
    param_support,
    protected_ratio_vector,
    protected_weight_matrix,
    resolve_param,
    rescale_sigma_passthrough,
    sample_bernoulli_mask,
    sample_noise,
    scale_noise_minmax,
    swap_noise,
    weighted_flip,
)
from .rng import fisher_yates
from .sampling import SamplingPlan, SeedReport, StreamManager, compute_seed_report
from .schema import json_fields, typed
from .table import DataTable, as_stored, infer_feature_kind, missing_of, put, stacked, suffixed_name
from .trees import ParamAssignments, apply_root_category, builtin_catalog, resolve_params

BASIS_FORMAT_VERSION = "tabnoise-basis/1"

# duplicates one augmentation may make: each is a full preparation of the table
MAX_AUGMENT_COUNT = 1000

TRAINDATA_MODES = ("test", "train", "train_no_noise", "test_no_noise")

# Root categories applied under automation, by feature kind.
_AUTOMATION_BASE = {"numeric": "nmbr", "boolean_categoric": "bnry", "categoric": "1010"}
_POWERTRANSFORM_STEMS = {
    "1": {"numeric": "nb", "boolean_categoric": "bn", "categoric": "10"},
    "2": {"numeric": "rt", "boolean_categoric": "bn", "categoric": "od"},
}
PowerTransform = Literal["DP1", "DP2", "DT1", "DT2", "DB1", "DB2"]


@dataclass
class AugmentSpec:
    """Duplicate count for noise augmentation.

    Integer-typed counts prepare one duplicate without noise; float-typed
    counts (``all_noisy``) prepare every duplicate with noise.
    """

    count: int
    all_noisy: bool = False

    def __post_init__(self):
        if not 0 <= self.count <= MAX_AUGMENT_COUNT:
            raise ConfigError(f"augment count must be between 0 and {MAX_AUGMENT_COUNT}")

    @classmethod
    def from_literal(cls, text: str) -> "AugmentSpec":
        try:
            value = float(text)
            valid = value >= 0 and value == int(value)
        except (ValueError, OverflowError):
            valid = False
        if not valid:
            raise ConfigError(f"augment count must be a nonnegative integer, got {text!r}")
        is_float = any(ch in text for ch in ".eE")
        return cls(count=int(value), all_noisy=is_float)


@dataclass
class FitConfig:
    labels_column: str | None = None
    validation_ratio: float = 0.0
    powertransform: PowerTransform | None = None
    shuffletrain: bool = True
    orig_headers: bool = False
    assigncat: dict[str, str | list[str]] = field(default_factory=dict)
    # checked entry by entry when fit reads them (see trees)
    assignparam: dict[str, dict] = field(default_factory=dict)
    transformdict: dict[str, dict] = field(default_factory=dict)
    processdict: dict[str, dict] = field(default_factory=dict)
    noise_augment: float = 0

    @classmethod
    def from_dict(cls, config: dict | None) -> "FitConfig":
        # keys the config leaves out take their defaults
        cfg = typed(cls, {**asdict(cls()), **(config or {})}, "config", ConfigError)
        if not 0.0 <= cfg.validation_ratio < 1.0:
            raise ConfigError("config.validation_ratio: must be in [0, 1)")
        try:
            AugmentSpec.from_literal(str(cfg.noise_augment))
        except ConfigError as exc:
            raise ConfigError(f"config.noise_augment: {exc}") from None
        return cfg


@dataclass
class AppliedStep:
    category: str
    kind: str
    input_base: str
    output_base: str
    output_columns: list[str]
    payload: dict  # as the kind declares it in _TRANSFORMS


@dataclass
class ColumnPlan:
    input_column: str
    root: str
    kind: str  # feature kind
    steps: list[AppliedStep] = field(default_factory=list)
    output_columns: list[str] = field(default_factory=list)


@dataclass
class TransformBasis:
    """Everything fitted: schema, per-column plans, resolved params, seed report."""

    format_version: str = BASIS_FORMAT_VERSION
    input_columns: list[str] = field(default_factory=list)
    label_column: str | None = None
    column_plans: dict[str, ColumnPlan] = field(default_factory=dict)
    seed_report: SeedReport = field(default_factory=SeedReport)
    shuffletrain: bool = True
    validation_ratio: float = 0.0
    validation_row_index: list[int] = field(default_factory=list)
    transformdict: dict[str, dict] = field(default_factory=dict)  # as the config wrote them
    processdict: dict[str, dict] = field(default_factory=dict)

    def plan_for(self, column: str) -> ColumnPlan:
        return self.column_plans[column]

    def required_columns(self) -> list:
        required = [c for c in self.input_columns if c != self.label_column]
        for step in self.noise_steps().values():  # only noise payloads name a protected feature
            protected = step.payload["resolved"].get("protected_feature")
            if protected and protected not in required:
                required.append(protected)
        return required

    def noise_steps(self) -> dict:
        """The noise steps by transform key, column#step, in column order."""
        return {_transform_key(column, idx): step for column in sorted(self.column_plans)
                for idx, step in enumerate(self.column_plans[column].steps)
                if step.kind in NOISE_KINDS}


@dataclass
class FitResult:
    train: DataTable
    validation: DataTable | None
    test: DataTable | None
    basis: TransformBasis
    ops_executed: int = 0
    seeds_consumed: int = 0


def _transform_key(column: str, step_index: int) -> str:
    return f"{column}#{step_index}"


# -- working groups ----------------------------------------------------------


@dataclass
class _Group:
    """A step's output arrays, unnamed: cells as a table stores them, or derived
    floats or codes whose missing rows only ``missing`` marks."""

    columns: list  # [np.ndarray | Coded]
    missing: np.ndarray  # bool mask: source cell missing or not usable
    basis: CategoricBasis | None = None  # the vocabulary the columns encode (_vocabulary_of)
    preserve_missing: bool = False


def _group_cells(group: _Group):
    """The column as a table stores cells, with the rows ``missing`` marks missing."""
    return as_stored(group.columns[0], group.missing)


def _group_floats(group: _Group) -> tuple[np.ndarray, np.ndarray]:
    """(values, missing) of the column; text and missing cells are masked and 0-filled."""
    values, missing = column_as_floats(group.columns[0])
    return values, group.missing | missing


def _single(data, missing, preserve=False) -> _Group:
    return _Group([data], np.asarray(missing, dtype=bool), preserve_missing=preserve)


def _output_names(base: str, count: int) -> list:
    return [base] if count == 1 else [f"{base}_{j}" for j in range(count)]


# -- execution context -------------------------------------------------------


def _phase(mode: str) -> str:
    return "train" if mode in ("train", "train_no_noise") else "test"


class _Ctx:
    def __init__(self, manager: StreamManager, mode: str, table: DataTable, fitting: bool):
        self.manager = manager
        self.mode = mode
        self.cells = table.data  # a column of the table being prepared, by name
        self.rows = table.index
        self.fitting = fitting
        self.step, self.key = None, ""  # the running AppliedStep and its key, column#step
        # the step's declared operation names (None while its payload is fitted), and those taken
        self.declared: list | None = []
        self.taken: list = []

    def sampler(self, op: str):
        """The sampler for the step's next operation, ``op`` as ``_noise_ops`` names it."""
        self.taken.append(op)
        self.check()
        return self.manager.sampler(self.key, op)

    def check(self, done: bool = False) -> None:
        """Raise unless the operations taken start (or, when ``done``, are) the declared ones."""
        taken, declared = self.taken, self.declared
        if declared is not None and (taken != declared[:len(taken)]
                                     or done and len(taken) != len(declared)):
            raise RuntimeError(f"transform {self.key} took sampling operations {taken}, "
                               f"but declares {declared}")


# -- noise parameter plumbing ------------------------------------------------

_NOISE_FIELD_ORDER = tuple(f.name for f in fields(NoiseSpec))


def _resolved(ctx: _Ctx, params: dict, raw: dict, names) -> dict:
    """``params``, with each name in ``names`` resolved from ``raw``, in order, one
    ``resolve`` operation each."""
    return {**params, **{name: resolve_param(raw[name], ctx.sampler("resolve")) for name in names}}


# The draw each noise kind makes over a mask's activations; noise_flip picks its own.
_KIND_DRAWS = {"noise_numeric": "noise", "noise_scaled": "noise", "noise_swap": "swap"}


def _noise_ops(kind: str, payload: dict, mode: str, fitting: bool, rows: int) -> list:
    """The sampling operations a noise step runs in a traindata mode, in draw order.

    The executor checks out a sampler for exactly these (``_Ctx.sampler``),
    and the seed report sums them. Each is (name, entries, stochastic):
    ``entries`` are the entries sampled at ``rows`` rows, which is the step's
    ``bulk_seeds`` budget, and ``stochastic`` marks a count that varies with
    the mask. In order:

    - ``resolve``: one per randomized parameter when fitting, and again in a
      later preparation that fires, unless ``retain_basis``;
    - ``calibrate:<phase>``: when fitting, the two rounds of each phase whose
      noise mean was calibrated; they draw from a substream, not the bank;
    - ``mask``: one Bernoulli draw per row, when noise fires in the mode;
    - the kind's draw over the activations: ``noise`` (numeric kinds),
      ``swap``, or for flip noise ``flip`` (weighted), ``swap``, or none for
      ``direct_flip``, which skips the draw only on a boolean encoding.
    """
    spec = NoiseSpec(**payload["resolved"])
    resolves = [("resolve", 1, False)] * len(payload.get("randomized_fields", []))
    ops = []
    if fitting:
        ops += resolves
        for phase in ("train", "test"):
            if payload.get(f"mu_adjusted_{phase}") is not None:
                ops += [(f"calibrate:{phase}", 0, False)] * 2
    pp = spec.phase_params(_phase(mode))
    if mode.endswith("no_noise") or not pp["fires"]:
        return ops
    flip_prob = pp["flip_prob"]
    if not fitting and not spec.retain_basis:
        ops += resolves
        flip_prob = _top_flip_prob(spec, payload, _phase(mode))
    ops.append(("mask", rows, False))
    draw = _KIND_DRAWS.get(kind)
    if kind == "noise_flip" and not (spec.direct_flip and payload["encoding"] == "boolean"):
        draw = "swap" if spec.swap_noise else "flip"
    if draw:
        ops.append((draw, rows * flip_prob, True))
    return ops


def _top_flip_prob(spec: NoiseSpec, payload: dict, phase: str) -> float:
    """The largest flip probability that re-resolving the payload can give ``phase``:
    the top over every pair of values ``flip_prob`` and ``test_flip_prob`` can resolve
    to (see ``param_support``), which ``check_param`` holds in [0, 1]."""
    def support(name):
        randomized = name in payload.get("randomized_fields", [])
        value = payload["params_raw"][name] if randomized else getattr(spec, name)
        return [candidate for _, candidate in param_support(value)]

    return max(replace(spec, flip_prob=f, test_flip_prob=t).phase_params(phase)["flip_prob"]
               for f in support("flip_prob") for t in support("test_flip_prob"))


def _draw_mask(ctx: _Ctx, payload: dict, missing: np.ndarray):
    """(spec, phase params, Bernoulli mask) when the step declares a mask, else None.

    Outside of fit, the randomized parameters the step declares are first
    re-resolved with fresh sampling.
    """
    if "mask" not in ctx.declared:
        return None
    again = not ctx.fitting and "resolve" in ctx.declared
    spec = NoiseSpec(**_resolved(ctx, payload["resolved"], payload["params_raw"],
                                 payload["randomized_fields"] if again else ()))
    pp = spec.phase_params(_phase(ctx.mode))
    mask = sample_bernoulli_mask(ctx.sampler("mask"), len(missing), pp["flip_prob"], missing)
    return spec, pp, mask


# -- transforms: fit(ctx, group, params) -> payload and -------------------------
# -- apply(ctx, payload, group) -> output group, whose arrays the executor names -


def _no_payload(ctx, group, params):
    return {}


def _fit_numeric(kind, ctx, group, params):
    return {"numeric_basis": fit_numeric(_group_cells(group), kind)}


def _apply_numeric(ctx, payload, group):
    values, missing = apply_numeric(payload["numeric_basis"], _group_cells(group))
    return _single(values, missing)


def _fit_categoric(encoding, ctx, group, params):
    basis = fit_categoric(_group_cells(group), encoding)
    if encoding == "boolean" and len(basis.vocabulary) > 2:
        raise ConfigError(f"column {ctx.step.input_base!r} has {len(basis.vocabulary)} distinct "
                          "training values; a boolean encoding takes at most 2")
    return {"categoric_basis": basis}


def _apply_categoric(ctx, payload, group):
    basis = payload["categoric_basis"]
    cells = _group_cells(group)
    return _Group(apply_categoric(basis, cells), missing_of(cells))


def _apply_passthrough(ctx, payload, group):
    """The cells unchanged."""
    cells = _group_cells(group)
    return _single(cells, missing_of(cells), preserve=True)


def _apply_passthrough_float(ctx, payload, group):
    values, missing = _group_floats(group)
    return _single(values, missing, preserve=True)


def _fit_stdbins(ctx, group, params):
    bincount = int(params.get("bincount", 6))
    values, missing = _group_floats(group)
    mean, std = moments(values[~missing])
    return {"mean": mean, "std": std, "bincount": bincount}


def _apply_stdbins(ctx, payload, group):
    values, missing = _group_floats(group)
    mean, std, bincount = payload["mean"], payload["std"], payload["bincount"]
    if std > 0.0:
        half = bincount // 2
        # one edge between each pair of bins; an odd count centres a bin on the mean
        offsets = np.arange(-half, half) + 0.5 if bincount % 2 else np.arange(1 - half, half)
        with np.errstate(over="ignore"):  # an edge past the largest float is above every value
            codes = np.digitize(values, mean + std * offsets)
    else:
        codes = np.full(len(values), bincount // 2, dtype=np.int64)
    return _single(codes.astype(np.int64), missing)


def _apply_missing_marker(ctx, payload, group):
    marker = group.missing.astype(np.int64)
    return _single(marker, np.zeros(len(marker), dtype=bool))


def _fit_noise(extra, ctx: _Ctx, group: _Group, params: dict) -> dict:
    """A noise step's payload: the fields every kind shares, the kind's own (``extra``), then
    its protected feature's segments when it names one (the spread of the values per segment,
    or with a vocabulary, its frequencies). Randomized parameters are resolved once, one
    operation each; their raw values are kept so later preparations can re-resolve them."""
    raw = {k: params[k] for k in _NOISE_FIELD_ORDER if k in params}
    randomized = [name for name, value in raw.items()
                  if name not in NOISE_FLAG_FIELDS and is_randomized_param(value)]
    payload = {"resolved": _resolved(ctx, raw, raw, randomized), "params_raw": raw,
               "randomized_fields": randomized}
    payload.update(extra(ctx, group, payload))
    protected = payload["resolved"].get("protected_feature")
    if protected:
        cells, basis = ctx.cells(protected), payload.get("categoric_basis")
        payload["protected"] = (
            fit_protected_numeric(*_group_floats(group), cells) if basis is None
            else fit_protected_categoric(_decode(group, basis), len(basis.vocabulary), cells))
    return payload


def _train_std(ctx, group, payload):
    values, missing = _group_floats(group)
    return {"train_std": moments(values[~missing])[1]}


def _calibration(ctx, group, payload):
    spec = NoiseSpec(**payload["resolved"])
    flip_randomized = {"flip_prob", "test_flip_prob"} & set(payload["randomized_fields"])
    values, missing = _group_floats(group)
    panel = values[~missing]
    calibrated = dict(mu_adjusted_train=None, mu_adjusted_test=None,
                      adjust_degenerate_train=False, adjust_degenerate_test=False)
    if spec.noise_scaling_bias_offset and spec.rescale_sigmas and len(panel):
        for phase in ("train", "test"):
            pp = spec.phase_params(phase)
            # calibration is skipped for phases that can never inject
            if not pp["fires"] or not (flip_randomized or pp["flip_prob"] > 0.0):
                continue
            mu_adj, degenerate = adjust_noise_mean(
                panel, pp["mu"], pp["sigma"], pp["noisedistribution"],
                lambda p=phase: ctx.sampler(f"calibrate:{p}"),
            )
            calibrated[f"mu_adjusted_{phase}"] = mu_adj
            calibrated[f"adjust_degenerate_{phase}"] = degenerate
    return calibrated


def _vocabulary(ctx, group, payload):
    basis = group.basis
    if basis is None:
        raise ConfigError(
            "flip noise requires an upstream categoric encoding with a fitted vocabulary"
        )
    return {"categoric_basis": basis, "encoding": basis.encoding}


def _apply_noise_numeric(scaled: bool, ctx, payload, group):
    """Numeric noise on the masked rows.

    ``noise_numeric`` adds the drawn noise, its sigma rescaled by the training
    standard deviation under ``rescale_sigmas``; ``noise_scaled`` (``scaled``)
    draws around the calibrated noise mean and shrinks the noise so values
    stay in [0, 1]. Protected segment ratios scale the noise first.
    """
    out, missing = _group_floats(group)
    drawn = _draw_mask(ctx, payload, missing)
    if drawn is not None:
        spec, pp, mask = drawn
        mu, sigma = pp["mu"], pp["sigma"]
        if scaled:
            adjusted = payload.get(f"mu_adjusted_{_phase(ctx.mode)}")
            mu = mu if adjusted is None else adjusted
        elif spec.rescale_sigmas:
            sigma = rescale_sigma_passthrough(sigma, payload["train_std"])
        active = np.flatnonzero(mask)
        noise = sample_noise(ctx.sampler("noise"), pp["noisedistribution"], mu, sigma, len(active))
        if "protected" in payload:
            cells = ctx.cells(payload["resolved"]["protected_feature"])
            noise = noise * protected_ratio_vector(payload["protected"], cells, active)
        if scaled:
            noise = scale_noise_minmax(noise, out[active])
        out = inject_numeric(out, mask, noise)
    return _single(out, missing, preserve=group.preserve_missing)


def _decode(group: _Group, basis: CategoricBasis) -> np.ndarray:
    return CODECS[basis.encoding].decode(basis, group.columns)


def _apply_noise_cells(ctx, payload, group):
    """Noise on the masked rows. A swap trades the rows of every column, so a cell the
    vocabulary lacks moves as it is; mask noise sets them to ``mask_value``; a flip draws
    new codes, and only the rows whose code changed are encoded anew."""
    flip, columns = ctx.step.kind == "noise_flip", group.columns
    drawn = _draw_mask(ctx, payload, group.missing)
    if drawn is not None and "swap" in ctx.declared:
        # the rows' positions are swapped, and each column's rows move by them
        order = swap_noise(np.arange(len(group.missing)), drawn[2], ctx.sampler("swap"),
                           group.missing)
        columns = [data[order] for data in columns]
    elif drawn is not None and not flip:
        columns = [mask_noise(columns[0], drawn[2], drawn[0].mask_value)]
    elif drawn is not None:
        _, pp, mask = drawn
        basis = payload["categoric_basis"]
        codes = _decode(group, basis)
        n = len(codes)
        if "flip" in ctx.declared:
            sampler = ctx.sampler("flip")
            vocab_size = len(basis.vocabulary)
            if pp["weighted"]:
                weights = np.asarray(basis.frequencies, dtype=np.float64)
            else:
                weights = np.ones(vocab_size, dtype=np.float64)
            segment_weights = None
            if "protected" in payload and pp["weighted"]:
                cells = ctx.cells(payload["resolved"]["protected_feature"])
                segment_weights = protected_weight_matrix(payload["protected"], weights, cells, n)
            new_codes = weighted_flip(codes, vocab_size, weights, mask, sampler, segment_weights)
        else:  # a direct flip, which only a boolean encoding declares
            new_codes = flip_boolean_direct(codes - 1, mask) + 1
        flipped = np.flatnonzero(new_codes != codes)
        if len(flipped):
            encoded = CODECS[basis.encoding].encode(basis, new_codes[flipped])
            columns = [put(data, flipped, new) for data, new in zip(columns, encoded)]
    return _Group(columns, group.missing, preserve_missing=group.preserve_missing)


# -- payloads: the keys each kind's fit returns, as basis.json holds them ------

_Empty = TypedDict("_Empty", {})
_Numeric = TypedDict("_Numeric", {"numeric_basis": NumericBasis})
_Categoric = TypedDict("_Categoric", {"categoric_basis": CategoricBasis})
_Stdbins = TypedDict("_Stdbins", {"mean": float, "std": float, "bincount": int})
_NoiseFields = TypedDict("_NoiseFields", {"resolved": ResolvedParams, "params_raw": RawParams,
                                          "randomized_fields": list[str]})


class _Noise(_NoiseFields, total=False):
    protected: ProtectedBasis  # only for a protected_feature


class _NoiseNumeric(_Noise):
    train_std: float


class _NoiseScaled(_Noise):
    mu_adjusted_train: float | None
    mu_adjusted_test: float | None
    adjust_degenerate_train: bool
    adjust_degenerate_test: bool


class _NoiseFlip(_Noise):
    categoric_basis: CategoricBasis
    encoding: CategoricEncoding


# categoric kind -> the encoding of the basis its fit makes
_KIND_ENCODINGS = {"boolean": "boolean", "ordinal": "ordinal", "onehot": "onehot",
                   "binarized": "binarized", "passthrough_vocab": "passthrough"}
# parameters every noise kind accepts, and the noise shape the numeric kinds add
_NOISE_PARAMS = ("trainnoise", "testnoise", "flip_prob", "test_flip_prob", "retain_basis")
_SHAPE_PARAMS = ("sigma", "test_sigma", "mu", "test_mu", "noisedistribution",
                 "test_noisedistribution", "rescale_sigmas", "protected_feature")
# kind -> (fit, apply, payload, accepted parameters); a category-specific
# assignment of any other parameter is a configuration error
_TRANSFORMS = {
    **{kind: (partial(_fit_numeric, kind), _apply_numeric, _Numeric, ())
       for kind in ("zscore", "minmax", "retain")},
    **{kind: (partial(_fit_categoric, encoding),
              _apply_passthrough if encoding == "passthrough" else _apply_categoric, _Categoric,
              ()) for kind, encoding in _KIND_ENCODINGS.items()},
    "passthrough": (_no_payload, _apply_passthrough, _Empty, ()),
    "passthrough_float": (_no_payload, _apply_passthrough_float, _Empty, ()),
    "stdbins": (_fit_stdbins, _apply_stdbins, _Stdbins, ("bincount",)),
    "missing_marker": (_no_payload, _apply_missing_marker, _Empty, ()),
    "noise_numeric": (partial(_fit_noise, _train_std), partial(_apply_noise_numeric, False),
                      _NoiseNumeric, _NOISE_PARAMS + _SHAPE_PARAMS),
    "noise_scaled": (partial(_fit_noise, _calibration), partial(_apply_noise_numeric, True),
                     _NoiseScaled, _NOISE_PARAMS + _SHAPE_PARAMS + ("noise_scaling_bias_offset",)),
    "noise_flip": (partial(_fit_noise, _vocabulary), _apply_noise_cells, _NoiseFlip,
                   _NOISE_PARAMS + ("weighted", "test_weighted", "direct_flip", "swap_noise",
                                    "protected_feature")),
    "noise_swap": (partial(_fit_noise, _no_payload), _apply_noise_cells, _Noise, _NOISE_PARAMS),
    "noise_mask": (partial(_fit_noise, _no_payload), _apply_noise_cells, _Noise,
                   _NOISE_PARAMS + ("mask_value",)),
}
KIND_PARAMS = {kind: accepted for kind, (*_, accepted) in _TRANSFORMS.items()}
# noise steps: the kinds that take the noise flags
NOISE_KINDS = tuple(kind for kind, accepted in KIND_PARAMS.items() if "trainnoise" in accepted)


def _vocabulary_of(kind: str, payload: dict, upstream: CategoricBasis | None):
    """The vocabulary a step's output encodes: its payload's, else a noise step's input's."""
    return payload.get("categoric_basis") or (upstream if kind in NOISE_KINDS else None)


# -- one executor for fit and apply --------------------------------------------


def _automation_root(kind: str, powertransform: str | None) -> str:
    if powertransform is None:
        return _AUTOMATION_BASE[kind]
    prefix, digit = powertransform[:2], powertransform[2:]
    return prefix + _POWERTRANSFORM_STEMS[digit][kind]


def _label_root(kind: str) -> str:
    return "excl" if kind == "numeric" else "ord3"


def _structure(catalog, assignments, column, root, kind, used_names):
    """Structural pass over a column's family tree, before anything is fitted or sampled.

    Returns the plan's step skeleton (the fitting run fills in payloads and
    output columns) and, for that run, each step's resolved params and the
    bases of the surviving outputs. ``load_basis`` checks each plan against it.
    """
    plan = ColumnPlan(input_column=column, root=root, kind=kind)
    params = []

    def executor(category, in_base):
        tkind, defaults = catalog.resolve_entry(category)
        params.append(resolve_params(category, column, in_base, assignments, defaults,
                                     KIND_PARAMS[tkind]))
        out_base = suffixed_name(in_base, category, used_names)
        used_names.add(out_base)
        plan.steps.append(AppliedStep(category, tkind, in_base, out_base, [], {}))
        return out_base

    surviving = apply_root_category(catalog, root, column, executor)
    return plan, (params, surviving)


def _run_column(ctx: _Ctx, plan: ColumnPlan, column, fitting, shared: dict) -> list:
    """Run a column's steps in order; returns its output columns as (name, array).

    Every kind but a flip (which decodes every encoded column) and a missing marker
    (which reads only the missing rows) reads one column, and raises a ``ConfigError``
    on a wider input. The executor names each step's outputs, checks them against the
    basis and keeps them as the step finishes. A step that gives a NaN or an infinity in
    a present row of a float column raises a ``TableError`` that names the step
    and the row. With ``fitting`` (the structural pass's params and surviving
    bases), each step's payload is fitted just before the step is applied, and
    the plan records its output column names.

    ``shared`` maps each base that no noise step is upstream of to its group and
    written columns: the input's missing mask, the encoders and the markers.
    They draw nothing and give the same arrays in every preparation of one
    table, so a base already there is taken as it is, and one made here is added.
    """
    params, surviving = fitting or (None, None)
    if plan.input_column not in shared:
        shared[plan.input_column] = (_Group([column], missing_of(column)),
                                     {plan.input_column: column})
    groups = {base: group for base, (group, _) in shared.items()}
    written = {name: data for _, outputs in shared.values() for name, data in outputs.items()}
    noisy = set()  # the outputs of noise steps and of the steps below them
    for idx, step in enumerate(plan.steps):
        if step.output_base in groups:
            continue
        fit_fn, apply_fn, _, _ = _TRANSFORMS[step.kind]
        ctx.step, ctx.key = step, _transform_key(plan.input_column, idx)
        in_group = groups[step.input_base]
        if len(in_group.columns) > 1 and step.kind not in ("noise_flip", "missing_marker"):
            raise ConfigError(f"transform {ctx.key}: a {step.kind} step reads one column, "
                              f"and {step.input_base!r} makes {len(in_group.columns)}")
        noise = step.kind in NOISE_KINDS
        ctx.taken, ctx.declared = [], None if noise and params is not None else []
        if params is not None:
            step.payload = fit_fn(ctx, in_group, params[idx])
        if noise:
            ctx.declared = [op for op, _, _ in _noise_ops(step.kind, step.payload, ctx.mode,
                                                          ctx.fitting, len(column))]
        out = groups[step.output_base] = apply_fn(ctx, step.payload, in_group)
        out.basis = _vocabulary_of(step.kind, step.payload, in_group.basis)
        ctx.check(done=True)
        names = _output_names(step.output_base, len(out.columns))
        if params is not None:
            step.output_columns = names
        elif names != step.output_columns:
            raise BasisFormatError(f"transform {ctx.key} does not make the output columns the "
                                   f"basis lists, {step.output_columns}")
        for name, data in zip(names, out.columns):
            if (isinstance(data, np.ndarray) and data.dtype.kind == "f"
                    and len(bad := np.flatnonzero(~np.isfinite(data) & ~out.missing))):
                raise TableError(f"transform {ctx.key} gives a non-finite number in column "
                                 f"{name!r} at row {ctx.rows[bad[0]]}")
            # a derived number in a missing row is kept unless the group preserves missing cells
            written[name] = as_stored(data, out.missing) if out.preserve_missing else data
        if noise or step.input_base in noisy:
            noisy.add(step.output_base)
        else:
            shared[step.output_base] = (out, {name: written[name] for name in names})
    if surviving is not None:
        plan.output_columns = _output_columns(plan.steps, surviving)
    return [(name, written[name]) for name in plan.output_columns]


def _output_columns(steps: list, surviving: list) -> list:
    """A plan's output columns: the columns of each surviving base, in order."""
    outputs = {step.output_base: step.output_columns for step in steps}
    return [name for base in surviving for name in outputs.get(base, [base])]


def _prepare(basis: TransformBasis, table: DataTable, mode: str, manager: StreamManager,
             fitting: dict | None = None, shared: dict | None = None) -> DataTable:
    """Prepare a table on the basis; ``fitting`` maps each column to its structural pass.

    Outside of fit, the table must hold every column the basis requires; the
    columns it does not know are ignored with a warning. ``shared`` holds, by
    input column, what an earlier preparation of the same table computed
    without noise (see ``_run_column``); when it holds anything, that
    preparation has checked the columns. ``DataTable`` rejects an output name made twice.
    """
    if mode not in TRAINDATA_MODES:
        raise ConfigError(f"unknown traindata mode: {mode!r}")
    shared = {} if shared is None else shared
    if fitting is None and not shared:
        required = basis.required_columns()
        missing = sorted(c for c in required if not table.has_column(c))
        if missing:
            raise SchemaError(f"data is missing fitted schema columns: {', '.join(missing)}")
        known = set(basis.input_columns) | set(required)
        extra = [c for c in table.column_names if c not in known]
        if extra:
            warnings.warn(f"ignoring columns not in fitted schema: {', '.join(extra)}")
    manager.register(basis.noise_steps())
    ctx = _Ctx(manager, mode, table, fitting=fitting is not None)
    # the label is optional in later data
    present = [c for c in basis.input_columns if c != basis.label_column or table.has_column(c)]
    outputs = {col: _run_column(ctx, basis.plan_for(col), table.data(col),
                                fitting and fitting[col], shared.setdefault(col, {}))
               for col in sorted(present)}
    return DataTable([pair for col in present for pair in outputs[col]], row_index=table.index)


# -- fitting -----------------------------------------------------------------


def fit(
    train: DataTable,
    config: dict | FitConfig | None = None,
    plan: SamplingPlan | None = None,
    test: DataTable | None = None,
) -> FitResult:
    cfg = config if isinstance(config, FitConfig) else FitConfig.from_dict(config)
    plan = plan or SamplingPlan()
    catalog = builtin_catalog()
    catalog.update_from_config(cfg.transformdict, cfg.processdict)
    assignments = ParamAssignments.from_config(cfg.assignparam)

    if cfg.labels_column is not None and not train.has_column(cfg.labels_column):
        raise ConfigError(f"labels_column {cfg.labels_column!r} not found in training data")
    assigned_roots: dict[str, str] = {}
    for category, columns in cfg.assigncat.items():
        if isinstance(columns, str):
            columns = [columns]
        if not catalog.has_root(category):
            raise ConfigError(f"assigncat names unknown root category {category!r}")
        for col in columns:
            if not train.has_column(col):
                raise ConfigError(f"assigncat targets missing column {col!r}")
            if col == cfg.labels_column:
                raise ConfigError(
                    f"assigncat may not target the label column {col!r}; labels never receive noise"
                )
            assigned_roots[col] = category

    manager = StreamManager(plan)

    # validation rows come out before anything is fitted
    n = train.n_rows
    k_val = int(n * cfg.validation_ratio + 1e-9)
    val_positions = np.zeros(0, dtype=np.intp)
    if k_val > 0:
        # the first k_val steps of a forward Fisher-Yates over the row positions
        sampler = manager.utility_sampler("validation_split")
        partners = sampler.bounded_each(np.arange(n, n - k_val, -1)) + np.arange(k_val)
        val_positions = np.sort(fisher_yates(n, range(k_val), partners)[:k_val])
    positions = np.delete(np.arange(n), val_positions)
    # statistics are fitted in original row order (keeps recomputation exact);
    # the shuffle permutes the prepared output at the end
    train_sub = train.take(positions)
    val_sub = train.take(val_positions) if k_val else None

    used_names: set = set(train.column_names)
    plans: dict[str, ColumnPlan] = {}
    fitting: dict[str, tuple] = {}
    for col in sorted(train.column_names):
        kind = infer_feature_kind(train_sub.data(col)).value
        if col == cfg.labels_column:
            root = _label_root(kind)
        else:
            root = assigned_roots.get(col) or _automation_root(kind, cfg.powertransform)
        plans[col], fitting[col] = _structure(catalog, assignments, col, root, kind, used_names)
        for params in fitting[col][0]:
            protected = params.get("protected_feature")
            if protected and not train.has_column(protected):
                raise SchemaError(f"column {protected!r} required by a fitted transform is absent")

    basis = TransformBasis(
        input_columns=list(train.column_names),
        label_column=cfg.labels_column,
        column_plans=plans,
        shuffletrain=cfg.shuffletrain,
        validation_ratio=cfg.validation_ratio,
        validation_row_index=train.index[val_positions].tolist(),
        transformdict=cfg.transformdict,
        processdict=cfg.processdict,
    )
    prepared_train = _prepare(basis, train_sub, "train", manager, fitting)
    spec = AugmentSpec.from_literal(str(cfg.noise_augment))
    # with noise_augment, augment's rows replace these, shuffled by augment itself
    if cfg.shuffletrain and prepared_train.n_rows > 1 and not spec.count:
        order = manager.utility_sampler("shuffle").shuffled(prepared_train.n_rows)
        prepared_train = prepared_train.take(order)

    n_train_basis = len(positions)
    n_test_basis = test.n_rows if test is not None else n_train_basis
    # the seed report sums each noise step's operations: fitting, then a test preparation
    steps = basis.noise_steps().values()
    ops = [(phase, entries, stochastic) for step in steps
           for phase, rows in (("train", n_train_basis), ("test", n_test_basis))
           for _, entries, stochastic in _noise_ops(step.kind, step.payload, phase,
                                                    phase == "train", rows)]
    basis.seed_report = compute_seed_report(ops, len(steps), n_train_basis, n_test_basis,
                                            plan.stochastic_count_safety_factor)

    prepared_val = None
    if val_sub is not None:
        prepared_val = _prepare(basis, val_sub, "test", manager)
    prepared_test = None
    if test is not None:
        prepared_test = _prepare(basis, test, "test", manager)
    if spec.count:  # the duplicates come from the rows left after the validation split
        prepared_train = augment(basis, train_sub, spec, plan)

    return FitResult(
        train=prepared_train,
        validation=prepared_val,
        test=prepared_test,
        basis=basis,
        ops_executed=manager.ops_executed,
        seeds_consumed=manager.seeds_consumed,
    )


# -- application --------------------------------------------------------------


def apply(
    basis: TransformBasis,
    table: DataTable,
    mode: str = "test",
    plan: SamplingPlan | None = None,
) -> DataTable:
    prepared, _ = apply_with_stats(basis, table, mode, plan)
    return prepared


def apply_with_stats(
    basis: TransformBasis,
    table: DataTable,
    mode: str = "test",
    plan: SamplingPlan | None = None,
) -> tuple[DataTable, dict]:
    manager = StreamManager(plan or SamplingPlan())
    prepared = _prepare(basis, table, mode, manager)
    stats = {"ops_executed": manager.ops_executed, "seeds_consumed": manager.seeds_consumed}
    return prepared, stats


def augment(
    basis: TransformBasis,
    table: DataTable,
    spec: AugmentSpec,
    plan: SamplingPlan | None = None,
) -> DataTable:
    """(count+1) copies of the prepared training data, each with fresh noise.

    Integer-typed counts make the first duplicate the no-noise copy. The
    concatenation is collectively shuffled when the fitted configuration has
    shuffling enabled. Copy ``k`` adds ``k * (max + 1 - min(min, 0))`` to the
    row identifiers, so no two copies share one; a ``TableError`` is raised
    when the last copy's would not fit in 64 bits.
    """
    manager = StreamManager(plan or SamplingPlan())
    low, high = (int(table.index.min()), int(table.index.max())) if table.n_rows else (0, -1)
    stride = high + 1 - min(low, 0)
    if max(high, 0) + spec.count * stride > np.iinfo(np.int64).max:
        raise TableError(f"augment: the row identifiers of copy {spec.count} would not fit "
                         "in 64 bits")
    copies: dict[str, list] = {}
    row_index: list[np.ndarray] = []
    shared: dict = {}  # the steps with no noise upstream run once, for every copy
    for copy_idx in range(spec.count + 1):
        mode = "train_no_noise" if copy_idx == 1 and not spec.all_noisy else "train"
        prepared = _prepare(basis, table, mode, manager, shared=shared)
        for name in prepared.column_names:
            copies.setdefault(name, []).append(prepared.data(name))
        row_index.append(prepared.index + copy_idx * stride)
    combined = DataTable({name: stacked(parts) for name, parts in copies.items()},
                         row_index=np.concatenate(row_index))
    del copies, row_index  # free the copies before the shuffle
    if basis.shuffletrain and combined.n_rows > 1:
        order = manager.utility_sampler("augment_shuffle").shuffled(combined.n_rows)
        combined = combined.take(order)
    return combined


# -- persistence ---------------------------------------------------------------


def save_basis(basis: TransformBasis, path) -> None:
    payload = json.dumps(basis, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                         default=json_fields)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.write("\n")


def load_basis(path) -> TransformBasis:
    """The basis a file holds, every value checked; a malformed one raises
    ``BasisFormatError`` naming its JSON path. Each plan is the one ``fit`` makes: its root
    is walked again (``_structure``) on the basis's own catalog, and the plan's input column,
    each step's category, kind and bases, and its output columns are the walk's."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise BasisFormatError(f"{path}: not a valid basis file: {exc}") from exc
    version = data.get("format_version") if isinstance(data, dict) else BASIS_FORMAT_VERSION
    if version != BASIS_FORMAT_VERSION:
        raise BasisFormatError(
            f"basis version {version!r} is not supported (expected {BASIS_FORMAT_VERSION!r})"
        )
    basis = typed(TransformBasis, data, "basis", BasisFormatError)
    columns, plans = basis.input_columns, basis.column_plans
    if sorted(plans) != sorted(columns):  # one plan for each input column, listed once
        raise BasisFormatError(f"basis.column_plans: plans for {sorted(plans)}, not one for "
                               f"each input column, {sorted(columns)}")
    catalog, used = builtin_catalog(), set(columns)  # as fit builds and walks them
    try:
        catalog.update_from_config(basis.transformdict, basis.processdict, "basis")
    except ConfigError as exc:
        raise BasisFormatError(str(exc)) from None
    for column in sorted(columns):
        where, plan = f"basis.column_plans.{column}", plans[column]
        try:
            walked, (_, surviving) = _structure(catalog, ParamAssignments(), column, plan.root,
                                                plan.kind, used)
        except ConfigError as exc:
            raise BasisFormatError(f"{where}.root: {exc}") from None
        checked = [("input_column", plan.input_column, column)]
        checked += [(f"steps[{idx}].{name}", getattr(step, name), getattr(made, name))
                    for idx, (step, made) in enumerate(zip(plan.steps, walked.steps))
                    for name in ("category", "kind", "input_base", "output_base")]
        checked += [("steps", [s.category for s in plan.steps], [s.category for s in walked.steps])]
        checked += [("output_columns", plan.output_columns, _output_columns(plan.steps, surviving))]
        for name, found, made in checked:
            if found != made:
                raise BasisFormatError(f"{where}.{name}: {found!r} is not {made!r}, as root "
                                       f"{plan.root!r} makes it")
        _check_steps(where, plan)
    return basis


def _check_steps(where: str, plan: ColumnPlan) -> None:
    """Build each step's payload as its kind declares it, and check what it fitted: the
    payload types, parameter ranges (``check_param``), vocabularies, encodings, missing
    codes and protected segment tables."""
    vocabularies = {}  # step output -> the categoric basis it is encoded on
    for idx, step in enumerate(plan.steps):
        at = f"{where}.steps[{idx}]"
        payload = step.payload = typed(_TRANSFORMS[step.kind][2], step.payload, f"{at}.payload",
                                       BasisFormatError)
        unknown = set(payload.get("randomized_fields", ())) - payload.get("params_raw", {}).keys()
        if unknown:
            raise BasisFormatError(f"{at}.payload.randomized_fields: {sorted(unknown)} are not "
                                   "in params_raw")
        for part in ("resolved", "params_raw"):
            for name, value in payload.get(part, {}).items():
                check_param(name, value, f"{at}.payload.{part}.{name}", BasisFormatError)
        if "protected" in payload and not payload["resolved"].get("protected_feature"):
            raise BasisFormatError(f"{at}.payload.resolved.protected_feature: a protected "
                                   "payload names no column")
        upstream = vocabularies.get(step.input_base)
        basis = vocabularies[step.output_base] = _vocabulary_of(step.kind, payload, upstream)
        if basis is not None and len(basis.frequencies) != len(basis.vocabulary):
            raise BasisFormatError(f"{at}.payload.categoric_basis: not one frequency per value")
        if basis is not None and basis.missing_code not in (None, len(basis.vocabulary) + 1):
            raise BasisFormatError(f"{at}.payload.categoric_basis.missing_code: "
                                   f"{basis.missing_code!r} is neither null nor "
                                   f"{len(basis.vocabulary) + 1}")
        if step.kind == "noise_flip" and basis != upstream:
            raise BasisFormatError(f"{at}.payload.categoric_basis: differs from its input's")
        if step.kind == "noise_flip" and "protected" in payload:
            for key, table in payload["protected"].segment_frequencies.items():
                if len(table) != len(basis.vocabulary):
                    raise BasisFormatError(f"{at}.payload.protected.segment_frequencies.{key}: "
                                           "not one frequency per value")
        # a categoric kind's own encoding, or the one a flip step reads its codes in
        encoding = _KIND_ENCODINGS.get(step.kind, payload.get("encoding"))
        if encoding is not None and basis.encoding != encoding:
            raise BasisFormatError(f"{at}.payload.categoric_basis.encoding: {basis.encoding!r} "
                                   f"is not the step's {encoding!r}")
        if encoding == "boolean" and len(basis.vocabulary) > 2:
            raise BasisFormatError(f"{at}.payload.categoric_basis.vocabulary: a boolean "
                                   "encoding takes at most 2 values")
        numeric = payload.get("numeric_basis")
        if numeric is not None and numeric.kind != step.kind:
            raise BasisFormatError(f"{at}.payload.numeric_basis.kind: {numeric.kind!r} is not "
                                   f"the step's {step.kind!r}")
        if step.kind == "stdbins":
            check_param("bincount", payload["bincount"], f"{at}.payload.bincount",
                        BasisFormatError)


def orig_headers_mode(prepared: DataTable, basis: TransformBasis) -> DataTable:
    """Restore original input headers for passthrough-style plans.

    Valid only when every input column maps to exactly one output column;
    multi-column encodings make the mapping non-bijective and are rejected.
    """
    rename: dict[str, str] = {}
    for col in basis.input_columns:
        plan = basis.plan_for(col)
        outputs = [name for name in plan.output_columns if prepared.has_column(name)]
        if not outputs and col == basis.label_column:
            continue
        if len(outputs) != 1:
            raise ConfigError(
                f"original headers require a one-to-one plan; column {col!r} "
                f"produced {len(outputs)} outputs"
            )
        rename[outputs[0]] = col
    extra = [name for name in prepared.column_names if name not in rename]
    if extra:
        raise ConfigError(
            f"original headers require a one-to-one plan; unmapped outputs: {extra}"
        )
    columns = {rename[name]: prepared.data(name) for name in prepared.column_names}
    ordered = [c for c in basis.input_columns if c in columns]
    return DataTable({c: columns[c] for c in ordered}, row_index=prepared.index)
