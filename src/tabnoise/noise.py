"""Stochastic perturbation transforms.

All operations take an explicit sampler (see :mod:`tabnoise.rng`) and are
pure functions of their inputs plus the sampler's stream. The normative
consumption order inside a transform is: Bernoulli mask first (one draw per
row, in row order), then the noise or replacement vector (one draw per
activated entry, in activation order). Entries whose source cell was missing
are never perturbed.

Numeric injection follows

    injected = scaled + mask * noise

with the mask drawn per entry at the flip probability and the noise vector
sampled only for activated entries. Categoric injection replaces activated
ordinal codes with a weighted choice over the training vocabulary,
renormalized after excluding the current code. Range-preserving injection
for unit-interval scalings caps noise at +/-0.5 and shrinks it toward the
nearest boundary so the result stays inside [0, 1]; its mean correction is a
secant step on the post-scaling mean measured by Monte Carlo on the training
distribution. The calibration shrinks its draws in place, in cache-sized
blocks, and takes the mean once over the whole round, so its value is that of
one pass over whole arrays.
"""

import warnings
from dataclasses import dataclass, field, fields
from itertools import compress
from typing import Literal, TypedDict, Union, get_args

import numpy as np

from .encoders import moments
from .rng import BLOCK_ENTRIES, NoiseDistribution
from .table import as_stored, coded, format_cell, put

CALIBRATION_DRAWS = 100_000

# weight-table entries per block of activations in weighted_flip
_FLIP_BLOCK = 1 << 16


@dataclass
class NoiseSpec:
    """Resolved per-transform noise parameters (train and test variants)."""

    trainnoise: bool = True
    testnoise: bool = False
    flip_prob: float = 0.03
    test_flip_prob: float | None = None  # None: matched to flip_prob
    sigma: float = 0.06
    test_sigma: float = 0.03
    mu: float = 0.0
    test_mu: float = 0.0
    noisedistribution: NoiseDistribution = "normal"
    test_noisedistribution: NoiseDistribution = "normal"
    weighted: bool = True
    test_weighted: bool = True
    rescale_sigmas: bool = True
    retain_basis: bool = False
    protected_feature: str | None = None
    mask_value: float = 0.0
    noise_scaling_bias_offset: bool = True
    direct_flip: bool = False
    swap_noise: bool = False

    def phase_params(self, phase: str) -> dict:
        """Effective fires, flip_prob, mu, sigma, noisedistribution and weighted for a phase."""
        prefix = "" if phase == "train" else "test_"
        pp = {name: getattr(self, prefix + name) for name in _PHASE_FIELDS}
        pp["fires"] = getattr(self, f"{phase}noise")
        if pp["flip_prob"] is None:  # an unset test_flip_prob matches flip_prob
            pp["flip_prob"] = self.flip_prob
        return pp


# NoiseSpec fields with a test_ variant, which phase_params reads by phase
_PHASE_FIELDS = ("flip_prob", "mu", "sigma", "noisedistribution", "weighted")
# flags are never randomized: a list or a mapping is not resolved for them
NOISE_FLAG_FIELDS = ("trainnoise", "testnoise", "retain_basis", "protected_feature",
                     "rescale_sigmas", "noise_scaling_bias_offset", "direct_flip", "swap_noise")


class ParamDraw(TypedDict("_Draw", {"distribution": Literal["normal", "laplace", "uniform"]}),
                total=False):
    """A parameter randomized by one draw from a distribution (see resolve_param)."""

    mu: float
    sigma: float
    low: float
    high: float


def _param_hint(name: str, hint):
    """A parameter as configured: fixed, or unless a flag, candidates or for a number a draw."""
    if name in NOISE_FLAG_FIELDS:
        return hint
    draw = (ParamDraw,) if float in (get_args(hint) or (hint,)) else ()
    return Union[(hint, list[hint], *draw)]


_SPEC_HINTS = {f.name: f.type for f in fields(NoiseSpec)}
PARAM_HINTS = {name: _param_hint(name, hint) for name, hint in _SPEC_HINTS.items()}
ResolvedParams = TypedDict("ResolvedParams", _SPEC_HINTS, total=False)
RawParams = TypedDict("RawParams", PARAM_HINTS, total=False)
# the range each bounded parameter holds, at every value it can resolve to
PARAM_RANGES = {"flip_prob": (0.0, 1.0), "test_flip_prob": (0.0, 1.0),
                "sigma": (0.0, np.inf), "test_sigma": (0.0, np.inf)}


def sample_bernoulli_mask(sampler, n: int, p: float, missing_mask=None) -> np.ndarray:
    """Independent 0/1 activations at probability p; missing-source rows forced 0.

    Always consumes one draw per row so generator use does not depend on the
    missing pattern.
    """
    mask = (sampler.uniforms(n) < p).astype(np.int8)
    if missing_mask is not None:
        mask[np.asarray(missing_mask, dtype=bool)] = 0
    return mask


def sample_noise(sampler, distribution: str, mu: float, sigma: float, count: int) -> np.ndarray:
    """Noise vector for activated entries only (count = number of activations)."""
    return sampler.shaped(distribution, mu, sigma, count)


def inject_numeric(scaled: np.ndarray, mask: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """A copy of ``scaled`` with ``noise`` added to the activated entries, in order."""
    active = np.flatnonzero(mask)
    if len(active) != len(noise):
        raise ValueError(
            f"noise length {len(noise)} does not match {len(active)} mask activations"
        )
    out = np.array(scaled, dtype=np.float64, copy=True)
    out[active] += noise
    return out


def _shrink_terms(minmax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entries below 0.5, each entry's shrink numerator) for :func:`_shrink`."""
    low = minmax < 0.5
    return low, np.where(low, minmax, 1.0 - minmax)


def _shrink(noise: np.ndarray, low: np.ndarray, numer: np.ndarray) -> np.ndarray:
    """The float64 array ``noise``, shrunk in place (see :func:`scale_noise_minmax`)."""
    np.clip(noise, -0.5, 0.5, out=noise)
    # negative noise shrinks below 0.5, nonnegative noise at or above it
    picked = np.flatnonzero(low == (noise < 0.0))
    noise[picked] = noise[picked] * numer[picked] / 0.5
    return noise


def scale_noise_minmax(noise: np.ndarray, minmax: np.ndarray) -> np.ndarray:
    """Entry-dependent shrink that keeps unit-interval values in range.

    Noise is capped to [-0.5, 0.5]; negative noise on entries below 0.5 is
    scaled by entry/0.5, positive noise on entries at or above 0.5 by
    (1-entry)/0.5, and the other two quadrants pass through unscaled. The
    injected value entry+scaled is then guaranteed to stay in [0, 1].
    """
    noise = np.array(noise, dtype=np.float64)  # a copy, shrunk in place
    return _shrink(noise, *_shrink_terms(np.asarray(minmax, dtype=np.float64)))


def adjust_noise_mean(
    minmax_train: np.ndarray,
    mu0: float,
    sigma: float,
    distribution: str,
    sampler,
    draws: int = CALIBRATION_DRAWS,
) -> tuple[float, bool]:
    """Secant correction of the pre-scaling noise mean toward zero post-scaling mean.

    Measures the post-scaling mean at mu0 (giving mu1) and at mu1 (giving
    mu2) by Monte Carlo against the training distribution, then solves the
    secant step for the root. ``sampler`` is either a sampler or a callable
    producing one sampler per sampling operation. Returns (mu_adjusted,
    degenerate) where degenerate marks a flat response (mu2 == mu1); the
    uncorrected mean is returned in that case.
    """
    minmax_train = np.asarray(minmax_train, dtype=np.float64)
    if len(minmax_train) == 0:
        raise ValueError("minmax_train must be nonempty")
    reps = int(np.ceil(draws / len(minmax_train)))
    low, numer = (np.tile(term, reps)[:draws] for term in _shrink_terms(minmax_train))
    provide = sampler if callable(sampler) else (lambda: sampler)

    def post_scaling_mean(mu: float) -> float:
        # a helper, so each round's noise is freed before the next is drawn
        noise = sample_noise(provide(), distribution, mu, sigma, draws)
        for start in range(0, draws, BLOCK_ENTRIES):
            block = slice(start, start + BLOCK_ENTRIES)
            _shrink(noise[block], low[block], numer[block])
        # one mean over the whole array: numpy's pairwise sum depends on the length
        return float(np.mean(noise))

    mu1 = post_scaling_mean(mu0)
    mu2 = post_scaling_mean(mu1)
    if mu2 == mu1:
        return mu0, True
    return mu0 - mu1 * (mu1 - mu0) / (mu2 - mu1), False


def flip_boolean_direct(encoded: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """abs(boolean - mask): activated entries flip, others pass through."""
    return np.abs(np.asarray(encoded, dtype=np.int64) - np.asarray(mask, dtype=np.int64))


def weighted_flip(
    codes: np.ndarray,
    vocab_size: int,
    weights: np.ndarray,
    mask: np.ndarray,
    sampler,
    segment_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Replace activated codes with a choice over the training vocabulary.

    Codes index the vocabulary from 1 (0 is the unknown slot, missing codes
    sit above the vocabulary); replacements always come from codes
    1..vocab_size. The current code is excluded and weights renormalized, so
    a flip always changes the value. ``weights`` has one entry per vocabulary
    value; ``segment_weights`` optionally supplies a per-row weight vector
    (rows x vocab) for protected-attribute segmentation. One uniform draw is
    consumed per activation.

    The pick is the first bucket whose running weight sum exceeds
    ``draw * total``, with the sums added in vocabulary order, so picks are
    bit-for-bit those of a sequential scan; activations are processed in
    blocks to bound the memory of the per-row weight table.
    """
    codes = np.asarray(codes, dtype=np.int64)
    out = codes.copy()
    active = np.flatnonzero(mask)
    if len(active) == 0:
        return out
    if vocab_size <= 1:
        warnings.warn("vocabulary has no alternate values; flip noise is a no-op")
        return out
    base = np.asarray(weights, dtype=np.float64)
    # every row's weights; a row of the broadcast sums bit for bit as base does
    table = (np.broadcast_to(base, (len(codes), len(base))) if segment_weights is None
             else np.asarray(segment_weights, dtype=np.float64))
    draws = sampler.uniforms(len(active))
    step = max(1, _FLIP_BLOCK // vocab_size)
    for start in range(0, len(active), step):
        rows = active[start : start + step]
        w = table[rows]
        total = np.sum(w, axis=1)
        # exclude the current code: its weight leaves the total and its bucket
        current = codes[rows]
        own = np.flatnonzero((current >= 1) & (current <= vocab_size))
        cur_idx = current[own] - 1
        total[own] -= w[own, cur_idx]
        w[own, cur_idx] = 0.0
        w = w[:, :vocab_size]
        passed = np.cumsum(w, axis=1) > (draws[start : start + step] * total)[:, None]
        pick = np.argmax(passed, axis=1)
        # float round-off on the last bucket: take the last nonzero weight
        short = np.flatnonzero(~passed.any(axis=1))
        positive = w[short] > 0
        pick[short] = np.where(
            positive.any(axis=1), vocab_size - 1 - np.argmax(positive[:, ::-1], axis=1), -1
        )
        keep = ~(total <= 0.0) & (pick >= 0)
        out[rows[keep]] = pick[keep] + 1
    return out


def swap_noise(values, mask: np.ndarray, sampler, missing: np.ndarray):
    """Replace activated entries with a uniform choice over the present rows of
    the same column.

    Sampling is over the set being transformed, so test-time swaps reflect
    the test batch distribution. A partner is a row that ``missing`` does not
    mark, so a present cell stays present. A single-row input is returned
    unchanged with a warning.
    """
    out = np.array(values)
    active = np.flatnonzero(mask)
    if len(active) and len(out) < 2:
        warnings.warn("swap noise needs at least two rows; input returned unchanged")
    elif len(active):
        out[active] = out[sampler.bounded_ints(len(active), len(out), missing)]
    return out


def mask_noise(values, mask: np.ndarray, mask_value: float):
    """Activated entries set to ``mask_value``; a coded column stays coded."""
    rows = np.flatnonzero(mask)
    return put(as_stored(values), rows, np.full(len(rows), float(mask_value)))


def rescale_sigma_passthrough(sigma: float, train_std: float) -> float:
    """Scale a unit-convention sigma by the training standard deviation."""
    return sigma * train_std if train_std > 0.0 else 0.0


@dataclass
class ProtectedBasis:
    """Per-segment noise adjustments fitted on training data.

    Numeric targets store the ratio segment_std / aggregate_std per protected
    attribute value; categoric targets store per-segment frequency tables.
    Segments unseen in training fall back to no adjustment (ratio 1, or the
    aggregate frequency table).
    """

    ratios: dict[str, float] = field(default_factory=dict)
    segment_frequencies: dict[str, list[float]] = field(default_factory=dict)
    flagged_segments: list[str] = field(default_factory=list)

    def ratio_for(self, segment_key: str) -> float:
        return self.ratios.get(segment_key, 1.0)


def _segments(cells) -> tuple[list[str], np.ndarray]:
    """The sorted segment keys of a column, one formatted per distinct cell (True and 1
    format to two keys), and each row's position among them."""
    column = coded(cells)
    keys = [format_cell(cell) for cell in column.cells]
    used = np.bincount(column.codes, minlength=len(keys)) > 0
    ordered = sorted(set(compress(keys, used)))
    position = {key: j for j, key in enumerate(ordered)}
    return ordered, np.array([position.get(key, 0) for key in keys], dtype=np.intp)[column.codes]


def fit_protected_numeric(target: np.ndarray, target_missing: np.ndarray, protected_cells) -> ProtectedBasis:
    """Segment std ratios of the (encoded) noise target, keyed by protected value."""
    target = np.asarray(target, dtype=np.float64)
    present = ~np.asarray(target_missing, dtype=bool)
    aggregate_std = moments(target[present])[1]
    basis = ProtectedBasis()
    keys, segment_of = _segments(protected_cells)
    for j, key in enumerate(keys):
        segment = target[(segment_of == j) & present]
        if len(segment) < 2 or aggregate_std <= 0.0:
            basis.ratios[key] = 1.0
            basis.flagged_segments.append(key)
            continue
        basis.ratios[key] = moments(segment)[1] / aggregate_std
    return basis


def fit_protected_categoric(codes: np.ndarray, vocab_size: int, protected_cells) -> ProtectedBasis:
    """Per-segment vocabulary frequency tables for weighted replacement."""
    codes = np.asarray(codes, dtype=np.int64)
    basis = ProtectedBasis()
    keys, segment_of = _segments(protected_cells)
    known = (codes >= 1) & (codes <= vocab_size)
    # one count per (segment, code) pair, segment-major
    pairs = segment_of[known] * vocab_size + codes[known] - 1
    counts = np.bincount(pairs, minlength=len(keys) * vocab_size).astype(np.float64)
    for key, table in zip(keys, counts.reshape(len(keys), vocab_size)):
        if table.sum() < 2:
            basis.flagged_segments.append(key)
        basis.segment_frequencies[key] = table.tolist()
    return basis


def protected_ratio_vector(basis: ProtectedBasis, protected_cells, rows: np.ndarray) -> np.ndarray:
    keys, segment_of = _segments(coded(protected_cells)[np.asarray(rows)])
    return np.array([basis.ratio_for(key) for key in keys], dtype=np.float64)[segment_of]


def protected_weight_matrix(
    basis: ProtectedBasis, aggregate_weights: np.ndarray, protected_cells, n_rows: int
) -> np.ndarray:
    """(rows x vocab) weight table; unseen segments use the aggregate weights."""
    keys, segment_of = _segments(coded(protected_cells)[:n_rows])
    tables = np.empty((len(keys), len(aggregate_weights)), dtype=np.float64)
    for j, key in enumerate(keys):
        table = basis.segment_frequencies.get(key)
        tables[j] = aggregate_weights if table is None or sum(table) <= 0 else table
    return tables[segment_of]


def resolve_param(value, sampler):
    """Resolve a possibly randomized parameter to a concrete value.

    Fixed values pass through. A list is a choice sampling over candidates; a
    mapping with a ``distribution`` key is one draw from that shape.
    """
    if not is_randomized_param(value):
        return value
    if isinstance(value, (list, tuple)):
        if len(value) == 1:
            return value[0]
        pick = int(sampler.bounded_ints(1, len(value))[0])
        return value[pick]
    name = value["distribution"]
    if name == "uniform":
        (_, low), (_, high) = param_support(value)
        return float(low + (high - low) * sampler.uniforms(1)[0])
    return float(sampler.shaped(name, value.get("mu", 0.0), value.get("sigma", 1.0), 1)[0])


def param_support(value) -> list | None:
    """What ``resolve_param`` can resolve ``value`` to, as (JSON path suffix, value) pairs:
    a fixed value, each list candidate, or a uniform draw's ``low`` and ``high`` (0 and 1
    when unset) and anything between; None for a normal or laplace draw, which has no bounds."""
    if isinstance(value, (list, tuple)):
        return [(f"[{i}]", candidate) for i, candidate in enumerate(value)]
    if not is_randomized_param(value):
        return [("", value)]
    if value["distribution"] != "uniform":
        return None
    return [(".low", value.get("low", 0.0)), (".high", value.get("high", 1.0))]


def check_param(name: str, value, where: str, error: type[Exception]) -> None:
    """Raise ``error``, naming ``where``, for an empty candidate list, for a draw with a key
    its distribution does not read or with a negative ``sigma``, or unless every value
    ``value`` can resolve to (see ``param_support``) is within ``PARAM_RANGES[name]``, when
    it lists ``name``; a draw with no bounds can leave any."""
    if isinstance(value, (list, tuple)) and not value:
        raise error(f"{where}: candidate list for parameter randomization is empty")
    if isinstance(value, dict):  # a ParamDraw, as typed
        reads = ("low", "high") if value["distribution"] == "uniform" else ("mu", "sigma")
        unread = sorted(value.keys() - {"distribution", *reads})
        if unread:
            raise error(f"{where}: a {value['distribution']} draw does not read {unread}")
        check_param("sigma", value.get("sigma", 1.0), f"{where}.sigma", error)
    if name not in PARAM_RANGES:
        return
    low, high = PARAM_RANGES[name]
    support = param_support(value)
    if support is None:
        raise error(f"{where}.distribution: a {value['distribution']} draw can leave "
                    f"[{low:g}, {high:g}]; use a list or a uniform draw")
    for at, candidate in support:
        if candidate is not None and not low <= candidate <= high:
            raise error(f"{where}{at}: {candidate!r} is outside [{low:g}, {high:g}]")


def is_randomized_param(value) -> bool:
    if isinstance(value, (list, tuple)):
        return True
    return isinstance(value, dict) and "distribution" in value
