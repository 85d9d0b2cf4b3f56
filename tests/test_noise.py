import copy
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnoise import noise
from tabnoise import rng as rng_module
from tabnoise.errors import BasisFormatError, ConfigError
from tabnoise.noise import (
    NoiseSpec,
    _segments,
    adjust_noise_mean,
    fit_protected_categoric,
    fit_protected_numeric,
    flip_boolean_direct,
    inject_numeric,
    is_randomized_param,
    mask_noise,
    ProtectedBasis,
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
from tabnoise.pipeline import fit, load_basis, save_basis
from tabnoise.rng import NOISE_DISTRIBUTIONS, Pcg64Stream, StreamSampler, mix_seed
from tabnoise.sampling import SamplingPlan
from tabnoise.table import DataTable, format_cell
from tabnoise.trees import ParamAssignments, _checked_params


def _sampler(seed: int = 1) -> StreamSampler:
    state, seq = mix_seed(None, [seed])
    return StreamSampler(Pcg64Stream(state, seq))


# -- Bernoulli gating ---------------------------------------------------------


def test_mask_p_zero_all_zeros():
    assert not sample_bernoulli_mask(_sampler(), 1000, 0.0).any()


def test_mask_p_one_all_ones_except_missing():
    missing = np.zeros(1000, dtype=bool)
    missing[::7] = True
    mask = sample_bernoulli_mask(_sampler(), 1000, 1.0, missing)
    assert not mask[missing].any()
    assert mask[~missing].all()


def test_mask_activation_fraction_concentrates():
    mask = sample_bernoulli_mask(_sampler(2), 1_000_000, 0.03)
    assert abs(mask.mean() - 0.03) < 0.001


# -- noise sampling and injection ----------------------------------------------


def test_sample_noise_sigma_zero_is_mu():
    out = sample_noise(_sampler(), "laplace", 0.7, 0.0, 100)
    assert np.all(out == 0.7)


def test_abs_normal_nonnegative():
    out = sample_noise(_sampler(), "abs_normal", 0.0, 1.0, 10_000)
    assert np.all(out >= 0.0)


def test_inject_identity_when_mask_empty():
    values = np.array([1.0, 2.0])
    out = inject_numeric(values, np.zeros(2, dtype=np.int8), np.array([]))
    assert np.array_equal(out, values)


def test_inject_formula():
    out = inject_numeric(np.array([1.0, 1.0]), np.array([1, 0]), np.array([0.5]))
    assert list(out) == [1.5, 1.0]


def test_inject_p_one_sigma_zero_identity():
    values = np.arange(10, dtype=np.float64)
    mask = np.ones(10, dtype=np.int8)
    noise = np.zeros(10)
    assert np.array_equal(inject_numeric(values, mask, noise), values)


def test_inject_length_mismatch_raises():
    with pytest.raises(ValueError, match="activations"):
        inject_numeric(np.zeros(3), np.array([1, 1, 0]), np.array([0.1]))


def test_abs_noise_never_decreases_negabs_never_increases():
    values = np.zeros(5000)
    mask = np.ones(5000, dtype=np.int8)
    up = inject_numeric(values, mask, sample_noise(_sampler(3), "abs_laplace", 0.0, 1.0, 5000))
    down = inject_numeric(values, mask, sample_noise(_sampler(4), "negabs_normal", 0.0, 1.0, 5000))
    assert np.all(up >= values)
    assert np.all(down <= values)


# -- range-preserving scaling (unit interval) -----------------------------------


def test_scale_noise_hand_values():
    # negative noise below the midpoint shrinks by entry/0.5
    assert scale_noise_minmax(np.array([-0.4]), np.array([0.2]))[0] == pytest.approx(-0.16)
    # positive noise above the midpoint caps then shrinks by (1-entry)/0.5
    assert scale_noise_minmax(np.array([0.6]), np.array([0.7]))[0] == pytest.approx(0.3)
    assert scale_noise_minmax(np.array([0.0]), np.array([0.9]))[0] == 0.0


def test_scale_noise_pass_through_quadrants():
    # positive noise below midpoint and negative noise above midpoint unscaled
    assert scale_noise_minmax(np.array([0.3]), np.array([0.2]))[0] == pytest.approx(0.3)
    assert scale_noise_minmax(np.array([-0.3]), np.array([0.8]))[0] == pytest.approx(-0.3)


def test_scale_noise_range_guarantee_random():
    rng = np.random.default_rng(21)
    minmax = rng.uniform(0, 1, size=100_000)
    noise = rng.normal(0, 2.0, size=100_000)
    injected = minmax + scale_noise_minmax(noise, minmax)
    assert np.all(injected >= 0.0) and np.all(injected <= 1.0)


def _four_mask_scale_noise_minmax(noise, minmax):
    """The former scale_noise_minmax, one mask per quadrant; the oracle of the one-pass shrink."""
    noise = np.clip(np.asarray(noise, dtype=np.float64), -0.5, 0.5)
    minmax = np.asarray(minmax, dtype=np.float64)
    low = minmax < 0.5
    negative = noise < 0.0
    scaled = noise.copy()
    shrink_low = low & negative
    scaled[shrink_low] = noise[shrink_low] * minmax[shrink_low] / 0.5
    shrink_high = ~low & ~negative
    scaled[shrink_high] = noise[shrink_high] * (1.0 - minmax[shrink_high]) / 0.5
    return scaled


_NOISE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.5000000000000001, -0.5000000000000001,
                     0.7, -3.0, 1e300, -1e300, 5e-324, -5e-324]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_MINMAX_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.49999999999999994, 5e-324, 1.5, -0.25]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_NOISE_VALUES, _MINMAX_VALUES), max_size=40))
def test_scale_noise_matches_four_mask_oracle_bit_for_bit(pairs):
    noise = np.array([n for n, _ in pairs], dtype=np.float64)
    minmax = np.array([m for _, m in pairs], dtype=np.float64)
    got = scale_noise_minmax(noise, minmax)
    want = _four_mask_scale_noise_minmax(noise, minmax)
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_scale_noise_matches_four_mask_oracle_on_subnormal_products():
    """Shrunk products that round in the subnormal range, and noise on the cap and on
    the sign boundary, give the oracle's bits."""
    noise_values = [0.25, -0.25, 0.5, -0.5, 0.0, -0.0]
    minmax_values = [1e-310, 3e-323, 0.9999999999999999]
    noise = np.repeat(noise_values, len(minmax_values))
    minmax = np.tile(minmax_values, len(noise_values))
    got = scale_noise_minmax(noise, minmax)
    want = _four_mask_scale_noise_minmax(noise, minmax)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert np.count_nonzero(np.abs(got[got != 0.0]) < np.finfo(np.float64).tiny) >= 4


def _oracle_adjust_noise_mean(minmax_train, mu0, sigma, distribution, sampler, draws):
    """The former adjust_noise_mean, scaling each round with the four-mask oracle."""
    minmax_train = np.asarray(minmax_train, dtype=np.float64)
    panel = np.tile(minmax_train, int(np.ceil(draws / len(minmax_train))))[:draws]

    def post_scaling_mean(mu):
        noise = sample_noise(sampler, distribution, mu, sigma, draws)
        return float(np.mean(_four_mask_scale_noise_minmax(noise, panel)))

    mu1 = post_scaling_mean(mu0)
    mu2 = post_scaling_mean(mu1)
    if mu2 == mu1:
        return mu0, True
    return mu0 - mu1 * (mu1 - mu0) / (mu2 - mu1), False


@pytest.mark.parametrize("distribution", ["normal", "laplace", "abs_normal"])
@pytest.mark.parametrize("feature, mu0, sigma, draws", [
    (np.random.default_rng(23).beta(2, 8, size=5000), 0.0, 0.03, 100_000),
    (np.array([0.0, 1.0, 0.5, 0.25, 0.75, -0.0]), 0.02, 0.4, 7_001),
    (np.full(13, 0.5), 0.0, 0.0, 999),
    # three blocks and a partial one; the panel does not divide the draws
    (np.random.default_rng(25).uniform(size=997), -0.01, 0.2, 3 * rng_module.BLOCK_ENTRIES + 5),
])
def test_adjust_noise_mean_matches_oracle_bit_for_bit(distribution, feature, mu0, sigma,
                                                      draws):
    seed = 31 + draws
    want = _oracle_adjust_noise_mean(feature, mu0, sigma, distribution, _sampler(seed), draws)
    got = adjust_noise_mean(feature, mu0, sigma, distribution, _sampler(seed), draws)
    assert got[1] == want[1] and float(got[0]).hex() == float(want[0]).hex()
    # a small block splits both the polar method and the shrink into many blocks
    with mock.patch.object(rng_module, "BLOCK_ENTRIES", 16), \
            mock.patch.object(noise, "BLOCK_ENTRIES", 16):
        got = adjust_noise_mean(feature, mu0, sigma, distribution, _sampler(seed), draws)
    assert got[1] == want[1] and float(got[0]).hex() == float(want[0]).hex()


# -- mean adjustment -------------------------------------------------------------


def test_adjusted_mean_symmetric_feature_near_zero():
    feature = np.full(1000, 0.5)
    mu_adj, degenerate = adjust_noise_mean(feature, 0.0, 0.03, "normal", _sampler(5))
    assert not degenerate
    assert abs(mu_adj) < 1e-3


def test_adjusted_mean_counteracts_skew():
    rng = np.random.default_rng(22)
    feature = rng.beta(2, 8, size=5000)
    mu_adj, degenerate = adjust_noise_mean(feature, 0.0, 0.03, "normal", _sampler(6))
    assert not degenerate
    # unadjusted scaled noise has positive mean on a low-skewed feature, so
    # the corrected pre-scale mean must move negative
    assert mu_adj < 0.0
    noise = sample_noise(_sampler(7), "normal", mu_adj, 0.03, 1_000_000)
    panel = np.tile(feature, 200)[:1_000_000]
    residual = float(np.mean(scale_noise_minmax(noise, panel)))
    unadjusted = float(np.mean(scale_noise_minmax(
        sample_noise(_sampler(8), "normal", 0.0, 0.03, 1_000_000), panel)))
    assert abs(residual) < abs(unadjusted) / 3


def test_adjust_degenerate_denominator_flagged():
    feature = np.full(100, 0.5)
    # sigma 0 noise scales to exactly mu at every entry: mu1 == mu2
    mu_adj, degenerate = adjust_noise_mean(feature, 0.0, 0.0, "normal", _sampler(9))
    assert degenerate and mu_adj == 0.0


# -- categoric flips --------------------------------------------------------------


def test_direct_flip_formula():
    assert flip_boolean_direct(np.array([1]), np.array([1]))[0] == 0
    assert flip_boolean_direct(np.array([0]), np.array([1]))[0] == 1
    assert flip_boolean_direct(np.array([1, 0]), np.array([0, 0])).tolist() == [1, 0]


def test_weighted_flip_two_value_vocabulary_always_alternate():
    codes = np.ones(10_000, dtype=np.int64)  # all the first value
    weights = np.array([0.9, 0.1])
    mask = np.ones(10_000, dtype=np.int8)
    out = weighted_flip(codes, 2, weights, mask, _sampler(10))
    assert np.all(out == 2)  # the single alternate is certain


def test_weighted_flip_renormalized_frequencies():
    codes = np.ones(100_000, dtype=np.int64)
    weights = np.array([50.0, 30.0, 20.0])
    mask = np.ones(100_000, dtype=np.int8)
    out = weighted_flip(codes, 3, weights, mask, _sampler(11))
    share_b = np.mean(out == 2)
    share_c = np.mean(out == 3)
    assert abs(share_b - 0.6) < 0.01
    assert abs(share_c - 0.4) < 0.01


def test_uniform_flip_over_alternates():
    codes = np.full(50_000, 2, dtype=np.int64)
    weights = np.ones(3)
    mask = np.ones(50_000, dtype=np.int8)
    out = weighted_flip(codes, 3, weights, mask, _sampler(12))
    assert abs(np.mean(out == 1) - 0.5) < 0.02
    assert abs(np.mean(out == 3) - 0.5) < 0.02


def test_flip_identity_when_mask_zero():
    codes = np.array([1, 2, 3], dtype=np.int64)
    out = weighted_flip(codes, 3, np.ones(3), np.zeros(3, dtype=np.int8), _sampler())
    assert np.array_equal(out, codes)


def test_flip_outputs_stay_in_vocabulary():
    rng = np.random.default_rng(23)
    codes = rng.integers(0, 5, size=5000).astype(np.int64)  # includes unknown 0
    weights = rng.uniform(0.5, 2.0, size=4)
    mask = np.ones(5000, dtype=np.int8)
    out = weighted_flip(codes, 4, weights, mask, _sampler(13))
    flipped = out != codes
    assert np.all(out[flipped] >= 1) and np.all(out[flipped] <= 4)


def _weighted_flip_scan(codes, vocab_size, weights, mask, draws, segment_weights=None):
    """Oracle: one sequential bucket scan per activation."""
    out = np.asarray(codes, dtype=np.int64).copy()
    base = np.asarray(weights, dtype=np.float64)
    for draw, row in zip(draws, np.flatnonzero(mask)):
        w = base if segment_weights is None else segment_weights[row]
        current = out[row]
        cur_idx = current - 1 if 1 <= current <= vocab_size else -1
        total = float(np.sum(w)) - (float(w[cur_idx]) if cur_idx >= 0 else 0.0)
        if total <= 0.0:
            continue
        target = draw * total
        acc = 0.0
        pick = -1
        for j in range(vocab_size):
            if j == cur_idx:
                continue
            acc += w[j]
            if target < acc:
                pick = j
                break
        if pick < 0:  # float round-off on the last bucket
            for j in range(vocab_size - 1, -1, -1):
                if j != cur_idx and w[j] > 0:
                    pick = j
                    break
        if pick >= 0:
            out[row] = pick + 1
    return out


class _FixedDraws:
    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def uniforms(self, n):
        assert n == len(self.draws)
        return self.draws


_weight = st.one_of(
    st.just(0.0), st.floats(1e-300, 1e6), st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.0])
)
_draw = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53])
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), vocab_size=st.integers(2, 12), n=st.integers(1, 40),
       segmented=st.booleans())
def test_weighted_flip_matches_sequential_scan(data, vocab_size, n, segmented):
    codes = np.array(data.draw(st.lists(st.integers(0, vocab_size + 2), min_size=n,
                                        max_size=n)), dtype=np.int64)
    mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                    dtype=np.int8)
    weights = np.array(data.draw(st.lists(_weight, min_size=vocab_size, max_size=vocab_size)))
    segment_weights = None
    if segmented:
        # a few distinct segment tables, one per row, as protected features give
        tables = np.array(data.draw(st.lists(
            st.lists(_weight, min_size=vocab_size, max_size=vocab_size),
            min_size=1, max_size=3)))
        segment_weights = tables[data.draw(st.lists(
            st.integers(0, len(tables) - 1), min_size=n, max_size=n))]
    draws = data.draw(st.lists(_draw, min_size=int(mask.sum()), max_size=int(mask.sum())))
    expected = _weighted_flip_scan(codes, vocab_size, weights, mask, draws, segment_weights)
    out = weighted_flip(codes, vocab_size, weights, mask, _FixedDraws(draws), segment_weights)
    assert np.array_equal(out, expected)
    # a small block splits the activations across several blocks
    with mock.patch.object(noise, "_FLIP_BLOCK", 16):
        out = weighted_flip(codes, vocab_size, weights, mask, _FixedDraws(draws),
                            segment_weights)
    assert np.array_equal(out, expected)


def test_weighted_flip_round_off_takes_last_nonzero_bucket():
    # total = 1.1 - 0.7 = 0.40000000000000013 but the running sum 0.3 + 0.1 ends
    # at 0.4, so a draw just below 1 passes no bucket; the last nonzero
    # alternate (code 3) wins over the first (code 2) and the empty code 4
    codes = np.array([1], dtype=np.int64)
    weights = np.array([0.7, 0.3, 0.1, 0.0])
    draws = [1.0 - 2.0**-53]
    assert draws[0] * (float(np.sum(weights)) - 0.7) >= 0.3 + 0.1
    out = weighted_flip(codes, 4, weights, np.ones(1, dtype=np.int8), _FixedDraws(draws))
    assert out.tolist() == [3]
    assert _weighted_flip_scan(codes, 4, weights, [1], draws).tolist() == [3]


def test_protected_weight_matrix_per_segment_rows():
    basis = ProtectedBasis(segment_frequencies={"a": [2.0, 1.0], "1": [0.0, 3.0],
                                                "empty": [0.0, 0.0]})
    aggregate = np.array([5.0, 7.0])
    cells = ["a", 1.0, "1", "unseen", "empty", None, "a"]
    out = protected_weight_matrix(basis, aggregate, cells, len(cells))
    assert out.tolist() == [[2.0, 1.0], [0.0, 3.0], [0.0, 3.0], [5.0, 7.0], [5.0, 7.0],
                            [5.0, 7.0], [2.0, 1.0]]


def test_singleton_vocabulary_no_op_with_warning():
    codes = np.ones(5, dtype=np.int64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = weighted_flip(codes, 1, np.array([1.0]), np.ones(5, dtype=np.int8), _sampler())
    assert np.array_equal(out, codes)
    assert any("no-op" in str(w.message) for w in caught)


# -- swap and mask noise -----------------------------------------------------------


def test_swap_identity_when_mask_zero():
    values = np.array([1.0, 2.0, 3.0])
    out = swap_noise(values, np.zeros(3, dtype=np.int8), _sampler(), np.zeros(3, dtype=bool))
    assert np.array_equal(out, values)


def test_swap_constant_column_identity():
    values = np.full(100, 7.0)
    out = swap_noise(values, np.ones(100, dtype=np.int8), _sampler(14), np.zeros(100, dtype=bool))
    assert np.all(out == 7.0)


def test_swap_uniform_over_rows_chi_square():
    from scipy import stats

    values = np.arange(1, 1001, dtype=np.float64)
    counts = np.zeros(1000)
    sampler = _sampler(15)
    for _ in range(100):
        out = swap_noise(values, np.ones(1000, dtype=np.int8), sampler, np.zeros(1000, dtype=bool))
        counts += np.bincount(out.astype(int) - 1, minlength=1000)
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_swap_single_row_identity_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = swap_noise([5.0], np.ones(1, dtype=np.int8), _sampler(), np.zeros(1, dtype=bool))
    assert out == [5.0]
    assert any("two rows" in str(w.message) for w in caught)


def test_swap_works_on_cell_lists():
    values = ["a", "b", "c", "d"]
    out = swap_noise(values, np.array([0, 1, 0, 1], dtype=np.int8), _sampler(16),
                     np.zeros(4, dtype=bool))
    assert out[0] == "a" and out[2] == "c"
    assert out[1] in values and out[3] in values


def test_mask_noise_examples():
    assert list(mask_noise(np.array([3.0, 4.0]), np.array([0, 1]), 0.0)) == [3.0, 0.0]
    values = np.array([1.0, 2.0])
    assert np.array_equal(mask_noise(values, np.zeros(2), 0.0), values)
    assert np.all(mask_noise(values, np.ones(2), -1.0) == -1.0)


# -- sigma rescaling and protected attributes ----------------------------------------


def test_rescale_sigma_cases():
    assert rescale_sigma_passthrough(0.06, 10.0) == pytest.approx(0.6)
    assert rescale_sigma_passthrough(0.06, 0.0) == 0.0
    assert rescale_sigma_passthrough(0.06, 1.0) == 0.06


def test_protected_identical_segments_ratio_one():
    rng = np.random.default_rng(24)
    target = rng.normal(0, 1, size=2000)
    segments = ["a" if i % 2 else "b" for i in range(2000)]
    basis = fit_protected_numeric(target, np.zeros(2000, dtype=bool), segments)
    assert abs(basis.ratios["a"] - 1.0) < 0.1
    assert abs(basis.ratios["b"] - 1.0) < 0.1


def test_protected_segment_ratio_direct_oracle():
    seg_a = np.full(500, 0.0)
    seg_a[::2] = 2.0  # std 1.0 within segment
    seg_b = np.full(500, 0.0)
    target = np.concatenate([seg_a, seg_b])
    segments = ["a"] * 500 + ["b"] * 500
    basis = fit_protected_numeric(target, np.zeros(1000, dtype=bool), segments)
    overall = target
    sigma_a = float(np.sqrt(np.mean((overall - overall.mean()) ** 2)))
    seg_std = float(np.sqrt(np.mean((seg_a - seg_a.mean()) ** 2)))
    assert basis.ratios["a"] == pytest.approx(seg_std / sigma_a)


def test_protected_single_segment_ratio_one():
    target = np.arange(10, dtype=np.float64)
    basis = fit_protected_numeric(target, np.zeros(10, dtype=bool), ["only"] * 10)
    assert basis.ratios["only"] == pytest.approx(1.0)


def test_protected_small_segment_flagged():
    target = np.arange(10, dtype=np.float64)
    segments = ["tiny"] + ["big"] * 9
    basis = fit_protected_numeric(target, np.zeros(10, dtype=bool), segments)
    assert basis.ratios["tiny"] == 1.0
    assert "tiny" in basis.flagged_segments


def test_protected_categoric_per_segment_tables():
    codes = np.array([1, 1, 2, 2, 2, 1], dtype=np.int64)
    segments = ["a", "a", "a", "b", "b", "b"]
    basis = fit_protected_categoric(codes, 2, segments)
    assert basis.segment_frequencies["a"] == [2.0, 1.0]
    assert basis.segment_frequencies["b"] == [1.0, 2.0]


# equal values of different types, a missing cell, and bool/int twins
_MIXED_CELLS = [1.0, "1", None, "a", True, 1, 2.5, "a", None, 1.0, False, 0.0, "", "b"]


def test_protected_fits_match_per_cell_oracle():
    n = 60
    cells = [_MIXED_CELLS[i % len(_MIXED_CELLS)] for i in range(n)]
    keys = np.array([format_cell(cell) for cell in cells], dtype=object)
    target = np.random.default_rng(26).normal(size=n)
    missing = np.zeros(n, dtype=bool)
    missing[::7] = True
    numeric = fit_protected_numeric(target, missing, cells)
    overall = target[~missing]
    aggregate = float(np.sqrt(np.mean((overall - overall.mean()) ** 2)))
    assert list(numeric.ratios) == sorted(set(keys))
    for key in sorted(set(keys)):
        segment = target[(keys == key) & ~missing]
        if len(segment) < 2:
            assert numeric.ratios[key] == 1.0 and key in numeric.flagged_segments
        else:
            want = float(np.sqrt(np.mean((segment - segment.mean()) ** 2))) / aggregate
            assert numeric.ratios[key] == want

    codes = np.random.default_rng(27).integers(0, 6, size=n)  # 0 and 5 are not in 1..4
    categoric = fit_protected_categoric(codes, 4, cells)
    assert list(categoric.segment_frequencies) == sorted(set(keys))
    for key in sorted(set(keys)):
        counts = [0.0] * 4
        for code in codes[keys == key]:
            if 1 <= code <= 4:
                counts[code - 1] += 1
        assert categoric.segment_frequencies[key] == counts
        assert (key in categoric.flagged_segments) == (sum(counts) < 2)


def test_protected_applies_match_per_cell_oracle():
    basis = ProtectedBasis(ratios={"1": 0.5, "": 2.0, "a": 3.0},
                           segment_frequencies={"1": [1.0, 0.0], "": [0.0, 4.0],
                                                "a": [0.0, 0.0]})
    cells = _MIXED_CELLS + ["unseen"]
    rows = np.array([3, 0, 1, 2, 14, 5, 4, 3, 12])
    got = protected_ratio_vector(basis, cells, rows)
    assert got.tolist() == [basis.ratio_for(format_cell(cells[r])) for r in rows]
    aggregate = np.array([5.0, 7.0])
    want = []
    for cell in cells:
        table = basis.segment_frequencies.get(format_cell(cell))
        want.append(aggregate.tolist() if table is None or sum(table) <= 0 else table)
    assert protected_weight_matrix(basis, aggregate, cells, len(cells)).tolist() == want


@pytest.mark.parametrize("cells", [
    [0.5, None, -0.0, 0.0, 0.5, 1e308, None, 5e-324],  # -0.0 and 0.0 are one cell
    ["b", None, "a", "b", "", None],
    [True, None, "x", True, False],
    _MIXED_CELLS,  # equal cells of two types
])
def test_segments_match_per_cell_keys(cells):
    first: dict = {}  # each cell's key is that of the first equal cell of its type
    want = [first.setdefault((type(cell), cell), format_cell(cell)) for cell in cells]
    keys, segment_of = _segments(cells)
    assert keys == sorted(set(want))
    assert [keys[j] for j in segment_of.tolist()] == want


def test_protected_ratio_vector_fallback():
    basis = fit_protected_numeric(np.arange(4, dtype=np.float64),
                                  np.zeros(4, dtype=bool), ["a"] * 4)
    out = protected_ratio_vector(basis, ["a", "unseen"], np.array([0, 1]))
    assert out[0] == basis.ratios["a"]
    assert out[1] == 1.0


# -- parameter randomization ------------------------------------------------------


def test_resolve_param_fixed():
    assert resolve_param(0.03, _sampler()) == 0.03


def test_resolve_param_singleton_list():
    assert resolve_param([0.01], _sampler()) == 0.01


def test_resolve_param_choice_hits_candidates():
    sampler = _sampler(17)
    picks = {resolve_param([1, 2, 3], sampler) for _ in range(100)}
    assert picks == {1, 2, 3}


def test_resolve_param_distribution():
    value = resolve_param({"distribution": "uniform", "low": 0.1, "high": 0.2},
                          _sampler(18))
    assert 0.1 <= value < 0.2


@pytest.mark.parametrize("name, shape", [("normal", "normals"), ("laplace", "laplaces")])
def test_resolve_param_draws_the_named_shape(name, shape):
    value = resolve_param({"distribution": name, "mu": 0.5, "sigma": 0.2}, _sampler(19))
    assert value == getattr(_sampler(19), shape)(1, 0.5, 0.2)[0]


# -- a noise parameter's range, checked where a config or a basis enters -----------


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory):
    """(the JSON of a basis fitted with DBnb noise at column_plans.x.steps[1], a path
    that ``_load_error`` writes edits of it to)."""
    plan = SamplingPlan(entropy_seeds=list(range(200)), sampling_type="sampling_seed",
                        seeding_type="primary_seeds")
    path = tmp_path_factory.mktemp("basis") / "basis.json"
    save_basis(fit(DataTable({"x": [0.5 * i for i in range(12)]}),
                   {"assigncat": {"DBnb": ["x"]}}, plan).basis, path)
    return json.loads(path.read_text()), path


_PAYLOAD = "basis.column_plans.x.steps[1].payload"


def _load_error(basis_file, part: str, name: str, value) -> str | None:
    """``load_basis``'s message for the fitted basis with ``value`` at ``name`` in its noise
    payload's ``part``, or None when it loads."""
    data, path = basis_file
    edited = copy.deepcopy(data)
    edited["column_plans"]["x"]["steps"][1]["payload"][part][name] = value
    path.write_text(json.dumps(edited))
    try:
        load_basis(path)
    except BasisFormatError as exc:
        return str(exc)
    return None


def _rejected_alike(basis_file, part: str, name: str, value, message: str) -> None:
    """The config check and ``load_basis`` reject ``value`` for ``name`` with ``message``,
    each after its own path."""
    with pytest.raises(ConfigError) as caught:
        ParamAssignments.from_config({"DBnb": {"x": {name: value}}})
    assert str(caught.value) == f"config.assignparam.DBnb.x.{name}{message}"
    assert _load_error(basis_file, part, name, value) == f"{_PAYLOAD}.{part}.{name}{message}"


def test_resolve_param_empty_list_rejected(basis_file):
    for name in ("flip_prob", "mu"):
        _rejected_alike(basis_file, "params_raw", name, [],
                        ": candidate list for parameter randomization is empty")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DRAWS = st.fixed_dictionaries(
    {"distribution": st.sampled_from(["uniform", "normal", "laplace"])},
    optional={key: _FINITE for key in ("low", "high", "mu", "sigma")})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(["flip_prob", "test_flip_prob", "sigma", "test_sigma", "mu"]),
       value=st.one_of(_FINITE, st.lists(_FINITE, max_size=4), _DRAWS))
def test_the_config_and_the_basis_reject_a_noise_parameter_alike(basis_file, name, value):
    """``load_basis`` rejects a value in a payload's ``params_raw`` (and a number in its
    ``resolved``) exactly when the config check rejects it, with the same message after
    each one's path."""
    try:
        _checked_params({name: value}, "config")
        expected = None
    except ConfigError as exc:
        expected = str(exc).removeprefix("config.")
    for part in ("params_raw", "resolved") if isinstance(value, float) else ("params_raw",):
        loaded = _load_error(basis_file, part, name, value)
        assert loaded == (expected and f"{_PAYLOAD}.{part}.{expected}")


def test_is_randomized_param():
    assert is_randomized_param([1, 2])
    assert is_randomized_param({"distribution": "normal"})
    assert not is_randomized_param(0.03)
    assert not is_randomized_param("normal")


def test_noise_spec_defaults_validation(basis_file):
    spec = NoiseSpec()
    assert spec.flip_prob == 0.03
    assert spec.phase_params("test")["flip_prob"] == 0.03  # matched when unset
    spec2 = NoiseSpec(test_flip_prob=0.01)
    assert spec2.phase_params("test")["flip_prob"] == 0.01
    _rejected_alike(basis_file, "resolved", "flip_prob", 1.5, ": 1.5 is outside [0, 1]")
    # a bogus distribution fails the type check, which params_raw shares with the config
    names = ", ".join(map(repr, NOISE_DISTRIBUTIONS))
    _rejected_alike(basis_file, "params_raw", "noisedistribution", "bogus",
                    f": expected one of {names} or a list, got 'bogus'")


@pytest.mark.parametrize("field", ["sigma", "test_sigma"])
def test_noise_spec_rejects_a_negative_sigma(basis_file, field):
    _rejected_alike(basis_file, "resolved", field, -0.01, ": -0.01 is outside [0, inf]")
