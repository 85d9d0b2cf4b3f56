import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from tabnoise.rng import (
    BulkSampler,
    ExternalWordStream,
    Mt19937Stream,
    PackedSeeds,
    Pcg64Stream,
    StreamSampler,
    make_stream,
    mix_seed,
    shaped_sample,
)


def _sampler(seed: int = 1) -> StreamSampler:
    state, seq = mix_seed(None, [seed])
    return StreamSampler(Pcg64Stream(state, seq))


def test_pcg_reproducible():
    a = Pcg64Stream(12345, 67)
    b = Pcg64Stream(12345, 67)
    assert [a.next_word() for _ in range(20)] == [b.next_word() for _ in range(20)]


def test_pcg_words_match_next_word():
    a = Pcg64Stream(9, 9)
    b = Pcg64Stream(9, 9)
    assert list(a.words(50)) == [b.next_word() for _ in range(50)]


# Golden word vectors: SHA-256 of the little-endian uint64 words of each
# generator. PCG64 is XSL-RR 128/64 (O'Neill 2014); the Mersenne twister is
# seeded with init_by_array (Matsumoto & Nishimura 1998) and packs two 32-bit
# outputs per word, high half first.
GOLDEN_SEEDS = [(None, [1]), (None, [2**31 - 1, 7]), (b"os-bytes", [0, 42, 123456789])]

GOLDEN_WORDS = {
    Pcg64Stream: [
        "2d815dff9f02c97c5ea384dd9e39fa5edf68c3bdfe21e2c0530dc0aeaa67bc1f",
        "139887b157ae26fd482e1ec37646416233ecdee40c620707ae9eaa9bb3d3dd7c",
        "c7d752fd3abac44189828faf92114ac97e3548ac52777e704cc4418373a32a71",
    ],
    Mt19937Stream: [
        "0e6864ccab3ed8dc6478a254fa40b347ef8c65fd3bba2b077ba7644f7bba403d",
        "4b94d29ff6683a96eb412a9578481ecca889aac4b26c2140a8916994740190c0",
        "75b849a59f12cb5f2eea553738b3558e1baf81cf3f50eb49e1975f1a32c3b3b7",
    ],
}

GOLDEN_INTERLEAVED = {
    Pcg64Stream: "811f20335640728a2a9d6249c0bd99069c46f278467c12a50788cc4328961f81",
    Mt19937Stream: "369d550e88f3d513fa008db008aa207eda1968ef3e1c236e6b3a9fe9894cda6c",
}


def _word_digest(words) -> str:
    return hashlib.sha256(np.asarray(words, dtype="<u8").tobytes()).hexdigest()


@pytest.mark.parametrize("cls", [Pcg64Stream, Mt19937Stream], ids=lambda c: c.__name__)
@pytest.mark.parametrize("case", range(len(GOLDEN_SEEDS)))
def test_golden_words(cls, case):
    os_entropy, seeds = GOLDEN_SEEDS[case]
    words = cls(*mix_seed(os_entropy, seeds)).words(2000)
    assert words.dtype == np.uint64 and words.shape == (2000,)
    assert _word_digest(words) == GOLDEN_WORDS[cls][case]


@pytest.mark.parametrize("cls", [Pcg64Stream, Mt19937Stream], ids=lambda c: c.__name__)
def test_golden_words_interleaved(cls):
    # single words and bulk draws share one stream state
    stream = cls(*mix_seed(None, [5]))
    out = []
    for step in ("next", 7, "next", 1000, 7, "next", "next", 1000, 7, "next"):
        if step == "next":
            out.append(stream.next_word())
        else:
            out.extend(int(w) for w in stream.words(step))
    assert _word_digest(out) == GOLDEN_INTERLEAVED[cls]


def test_pcg_words_from_many_threads():
    # streams in different threads share one numpy PCG64 for bulk draws
    seeds = range(6)
    expected = {s: Pcg64Stream(*mix_seed(None, [s])).words(64 * 40) for s in seeds}
    results = {}

    def draw(seed):
        stream = Pcg64Stream(*mix_seed(None, [seed]))
        results[seed] = np.concatenate([stream.words(64) for _ in range(40)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert np.array_equal(results[seed], expected[seed])


def test_mt_words_in_range():
    stream = Mt19937Stream(424242, 0)
    words = stream.words(100)
    assert words.dtype == np.uint64
    assert len(set(int(w) for w in words)) > 90


def test_mix_seed_deterministic():
    assert mix_seed(b"os", [1, 2, 3]) == mix_seed(b"os", [1, 2, 3])
    assert mix_seed(None, []) == mix_seed(None, [])


def test_mix_seed_collision_free_over_random_pairs():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(10_000):
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
        seen.add(mix_seed(b"fixed", seeds))
    assert len(seen) == 10_000


def test_mix_seed_sensitive_to_one_seed():
    base = mix_seed(b"m", [1, 2, 3])
    assert mix_seed(b"m", [1, 2, 4]) != base
    assert mix_seed(b"m", [1, 2]) != base
    assert mix_seed(b"n", [1, 2, 3]) != base


def test_uniforms_in_unit_interval():
    u = _sampler().uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normal_ks_against_standard_normal():
    # KS statistic oracle: empirical CDF vs closed-form normal CDF
    z = np.sort(_sampler(3).normals(1_000_000))
    n = len(z)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    grid = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / n - cdf))))
    assert stat < 0.002


def test_laplace_moments():
    x = _sampler(4).laplaces(400_000, mu=1.0, scale=2.0)
    assert abs(np.mean(x) - 1.0) < 0.02
    assert abs(np.var(x) - 2.0 * 2.0**2) < 0.15


def test_uniform_interval_bounds():
    x = _sampler(5).uniform_interval(100_000, mu=0.5, half_width=0.25)
    assert np.all(x >= 0.25) and np.all(x < 0.75)
    assert abs(np.mean(x) - 0.5) < 0.005


def test_abs_and_negabs_signs():
    sampler = _sampler(6)
    assert np.all(shaped_sample(sampler, "abs_normal", 0.0, 1.0, 50_000) >= 0.0)
    assert np.all(shaped_sample(sampler, "negabs_laplace", 0.0, 1.0, 50_000) <= 0.0)
    assert np.all(shaped_sample(sampler, "abs_uniform", 0.0, 1.0, 50_000) >= 0.0)


def test_sigma_zero_collapses_to_mu():
    sampler = _sampler(7)
    for dist in ("normal", "laplace", "uniform"):
        values = shaped_sample(sampler, dist, 1.25, 0.0, 1000)
        assert np.all(values == 1.25)


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError, match="distribution"):
        shaped_sample(_sampler(), "cauchy", 0.0, 1.0, 10)


def test_bounded_ints_uniform_chi_square():
    from scipy import stats

    draws = _sampler(8).bounded_ints(1_000_000, 17)
    counts = np.bincount(draws, minlength=17)
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_default_generator_uniformity_chi_square():
    from scipy import stats

    u = _sampler(9).uniforms(1_000_000)
    counts, _ = np.histogram(u, bins=256, range=(0.0, 1.0))
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_shuffle_is_permutation():
    sampler = _sampler(10)
    items = list(range(100))
    out = sampler.shuffled(items)
    assert sorted(out) == items and out != items


def test_external_word_stream_callable():
    feed = iter(range(100, 200))
    stream = ExternalWordStream(lambda: next(feed))
    assert stream.next_word() == 100
    assert list(stream.words(3)) == [101, 102, 103]


def test_external_word_stream_object():
    class Source:
        def __init__(self):
            self.n = 0

        def next_word(self):
            self.n += 1
            return self.n

    stream = make_stream("external", 0, 0, external=Source())
    assert [stream.next_word() for _ in range(3)] == [1, 2, 3]


def test_bulk_sampler_entry_per_seed():
    seeds = list(range(50))
    consumed = []

    def source():
        seed = seeds[len(consumed)]
        consumed.append(seed)
        state, seq = mix_seed(None, [seed])
        return state, seq, "default_pcg", None

    sampler = BulkSampler(source)
    values = sampler.uniforms(20)
    assert len(consumed) == 20
    # same seeds -> same values
    consumed2 = []

    def source2():
        seed = seeds[len(consumed2)]
        consumed2.append(seed)
        state, seq = mix_seed(None, [seed])
        return state, seq, "default_pcg", None

    values2 = BulkSampler(source2).uniforms(20)
    assert np.array_equal(values, values2)


def test_bulk_normals_reproducible():
    def make_source():
        counter = [0]

        def source():
            counter[0] += 1
            state, seq = mix_seed(None, [counter[0]])
            return state, seq, "default_pcg", None

        return source

    a = BulkSampler(make_source()).normals(100, 1.0, 2.0)
    b = BulkSampler(make_source()).normals(100, 1.0, 2.0)
    assert np.array_equal(a, b)
    assert abs(np.mean(a) - 1.0) < 1.0


def test_packed_seeds_hash_like_the_seed_sequence():
    for seeds in ([], [0], [1, 2**31 - 1, 5], list(range(1000)), [3, 2**64, 2**100]):
        packed = PackedSeeds(seeds)
        assert len(packed) == len(seeds)
        assert mix_seed(b"os", packed) == mix_seed(b"os", seeds)
        assert mix_seed(None, packed) == mix_seed(None, seeds)


def test_negative_seeds_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        mix_seed(None, [1, -1])
    with pytest.raises(ValueError, match="nonnegative"):
        PackedSeeds([1, -1])
