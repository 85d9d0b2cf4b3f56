import hashlib
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabnoise import rng as rng_module
from tabnoise.errors import SeedExhaustedError
from tabnoise.rng import (
    NOISE_DISTRIBUTIONS,
    BulkSampler,
    ExternalWordStream,
    Mt19937Stream,
    PackedSeeds,
    Pcg64Stream,
    StreamSampler,
    _laplace_from_uniforms,
    _words_to_uniforms,
    _PcgLanes,
    _step,
    _xsl_rr,
    mix_seed,
    shaped_sample,
)
from tabnoise.sampling import GeneratorSpec, SamplingPlan, StreamManager


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
    # streams drawn from in different threads keep their words apart
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


def _whole_round_normals(stream, n: int, mu: float, sigma: float) -> np.ndarray:
    """Normals with the polar method run over each round's words at once: the
    oracle of the blocked ``_polar_fill``."""
    out = np.empty(n, dtype=np.float64)
    have = 0
    while have < n:
        pairs = max(4, int((n - have) * 0.7) + 4)
        u = _words_to_uniforms(stream.words(2 * pairs))
        x = 2.0 * u[0::2] - 1.0
        y = 2.0 * u[1::2] - 1.0
        s = x * x + y * y
        ok = (s > 0.0) & (s < 1.0)
        x, y, s = x[ok], y[ok], s[ok]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        z = np.empty(2 * len(s), dtype=np.float64)
        z[0::2] = x * factor
        z[1::2] = y * factor
        take = min(len(z), n - have)
        out[have : have + take] = z[:take]
        have += take
    return mu + sigma * out


def _external_words(seed: int):
    feed = iter(np.random.default_rng(seed).integers(0, 2**64, size=50_000,
                                                     dtype=np.uint64).tolist())
    return ExternalWordStream(lambda: next(feed))


_NORMAL_STREAMS = {
    "pcg": lambda: Pcg64Stream(*mix_seed(None, [41])),
    "mersenne": lambda: Mt19937Stream(*mix_seed(None, [42])),
    "external": lambda: _external_words(43),
}


@pytest.mark.parametrize("kind", sorted(_NORMAL_STREAMS))
@pytest.mark.parametrize("block, sizes", [
    (16, [0, 1, 2, 7, 15, 16, 17, 201]),
    (rng_module.BLOCK_ENTRIES, [rng_module.BLOCK_ENTRIES - 1, 2 * rng_module.BLOCK_ENTRIES + 1]),
])
def test_blocked_normals_match_whole_round_oracle(kind, block, sizes):
    for n in sizes:
        want = _whole_round_normals(_NORMAL_STREAMS[kind](), n, 0.25, 1.5)
        with mock.patch.object(rng_module, "BLOCK_ENTRIES", block):
            got = StreamSampler(_NORMAL_STREAMS[kind]()).normals(n, 0.25, 1.5)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), n


# pairs the polar method rejects: s == 0 (both halves 2**52 << 11), s == 2 and s == 1
_REJECTED_PAIRS = [1 << 63, 1 << 63, 0, 0, 0, 1 << 63, 1 << 63, 0]


def _crafted_words() -> list:
    """Random words with rejected pairs at the head (a round that keeps nothing) and
    across the first 16-word block boundary."""
    words = np.random.default_rng(47).integers(0, 2**64, size=600, dtype=np.uint64).tolist()
    words[0:8] = _REJECTED_PAIRS
    words[12:20] = _REJECTED_PAIRS
    return words


@pytest.mark.parametrize("block", [16, rng_module.BLOCK_ENTRIES])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 40, 201])
def test_polar_normals_on_crafted_words_match_whole_round_oracle(block, n):
    """Rejected pairs and a last block whose kept pairs overfill the output (the partial
    take) give the oracle's normals, and consume the oracle's words."""
    def stream():
        feed = iter(_crafted_words())
        return ExternalWordStream(lambda: next(feed))

    want_stream, got_stream = stream(), stream()
    want = _whole_round_normals(want_stream, n, 0.0, 1.0)
    with mock.patch.object(rng_module, "BLOCK_ENTRIES", block):
        got = StreamSampler(got_stream).normals(n)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert got_stream.next_word() == want_stream.next_word()


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


def test_external_word_stream_calls_a_callable_for_each_word():
    feed = iter(range(100, 200))

    def source():
        return next(feed)

    source.words = lambda n: [0] * n  # a callable's attributes are not read
    assert ExternalWordStream(source).words(3).tolist() == [100, 101, 102]


def test_external_word_stream_object():
    class Source:
        def __init__(self):
            self.n = 0

        def next_word(self):
            self.n += 1
            return self.n

    stream = GeneratorSpec("external", Source()).stream(0, 0)
    assert [stream.next_word() for _ in range(3)] == [1, 2, 3]


class _BlockSource:
    """An external source that serves ``words(n)`` in one call, ``short`` words short."""

    def __init__(self, short=0):
        self.short = short

    def next_word(self):
        raise AssertionError("words(n) reads the source's own words")

    def words(self, n):
        return list(range(7, 7 + n - self.short))


def test_external_word_stream_reads_a_sources_own_words():
    got = ExternalWordStream(_BlockSource()).words(3)
    assert got.dtype == np.uint64 and got.tolist() == [7, 8, 9]
    with pytest.raises(ValueError, match="wrong shape"):
        ExternalWordStream(_BlockSource(short=1)).words(3)


def test_external_word_stream_masks_words_from_either_method():
    class Source:
        def next_word(self):
            return -1

        def words(self, n):
            return [-1] * n

    stream = ExternalWordStream(Source())
    assert stream.next_word() == 2**64 - 1
    assert stream.words(2).tolist() == [2**64 - 1] * 2


def _seed_feed(seeds, consumed):
    """A ``seed_blocks`` callable serving ``seeds`` in order and recording them."""

    def seed_blocks(n):
        picked = seeds[len(consumed) : len(consumed) + n]
        consumed.extend(picked)
        return PackedSeeds(picked).blocks

    return seed_blocks


def test_bulk_sampler_entry_per_seed():
    seeds = list(range(50))
    consumed = []
    sampler = BulkSampler(_seed_feed(seeds, consumed))
    values = sampler.uniforms(20)
    assert len(consumed) == 20
    # same seeds -> same values
    consumed2 = []
    values2 = BulkSampler(_seed_feed(seeds, consumed2)).uniforms(20)
    assert np.array_equal(values, values2)


def test_bulk_normals_reproducible():
    def make_source():
        return _seed_feed(list(range(1, 1000)), [])

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


class _NoIteration(np.ndarray):
    def __iter__(self):
        raise AssertionError("the seeds were iterated one by one")


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint8])
def test_packed_seeds_take_integer_arrays_whole(dtype):
    seeds = [0, 1, 7, 200, 255]
    if np.dtype(dtype).itemsize == 8:
        seeds += [2**31 - 1, 2**62 + 3]
    if dtype == np.uint64:
        seeds += [2**63, 2**64 - 1]
    array = np.array(seeds, dtype=dtype).view(_NoIteration)
    assert PackedSeeds(array).blocks.tolist() == PackedSeeds(seeds).blocks.tolist()
    assert PackedSeeds(array[:0]).blocks.shape == (0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        PackedSeeds(np.array([3, -1], dtype=np.int64))


def test_negative_seeds_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        mix_seed(None, [1, -1])
    with pytest.raises(ValueError, match="nonnegative"):
        PackedSeeds([1, -1])


# -- the batched BulkSampler against the per-entry one it replaced ------------


class _PerEntryBulkSampler:
    """The former BulkSampler: one stream per entry from ``seed_source()``,
    drawn one word at a time. Kept as the oracle of the batched one."""

    def __init__(self, seed_source):
        self._seed_source = seed_source
        self.redraws = 0  # rejected polar pairs and bounded words

    def _entry_stream(self):
        initstate, initseq, kind, external = self._seed_source()
        return GeneratorSpec(kind, external).stream(initstate, initseq)

    def uniforms(self, n):
        out = []
        for _ in range(n):
            out.append((self._entry_stream().next_word() >> 11) * 2.0**-53)
        return np.array(out, dtype=np.float64)

    def normals(self, n, mu=0.0, sigma=1.0):
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            stream = self._entry_stream()
            while True:
                x = 2.0 * ((stream.next_word() >> 11) * 2.0**-53) - 1.0
                y = 2.0 * ((stream.next_word() >> 11) * 2.0**-53) - 1.0
                s = x * x + y * y
                if 0.0 < s < 1.0:
                    out[i] = x * math.sqrt(-2.0 * math.log(s) / s)
                    break
                self.redraws += 1
        return mu + sigma * out

    def laplaces(self, n, mu=0.0, scale=1.0):
        return _laplace_from_uniforms(self.uniforms(n), mu, scale)

    def uniform_interval(self, n, mu=0.0, half_width=1.0):
        return mu + half_width * (2.0 * self.uniforms(n) - 1.0)

    def shaped(self, distribution, mu, sigma, n):
        return shaped_sample(self, distribution, mu, sigma, n)

    def bounded_ints(self, n, bound, excluded=None):
        out = np.empty(n, dtype=np.int64)
        if bound == 1:
            out[:] = 0
            for _ in range(n):
                self._entry_stream()
            return out
        threshold = (1 << 64) % bound
        for i in range(n):
            stream = self._entry_stream()
            while True:
                word = stream.next_word()
                if word >= threshold and not (excluded is not None and excluded[word % bound]):
                    out[i] = word % bound
                    break
                self.redraws += 1
        return out


class _PerEntrySeeds:
    """The former StreamManager.next_seed: the bank one seed at a time, then
    extra-generator words masked to 31 bits, then SeedExhaustedError."""

    def __init__(self, bank, os_material=b"", extra_kind=None):
        self.bank = list(bank)
        self.extra = None
        if extra_kind is not None:
            self.extra = GeneratorSpec(extra_kind).stream(*mix_seed(os_material + b"extra", self.bank))
        self.seeds_consumed = 0

    def next_seed(self):
        if self.seeds_consumed < len(self.bank):
            self.seeds_consumed += 1
            return self.bank[self.seeds_consumed - 1]
        if self.extra is None:
            raise SeedExhaustedError(
                f"entropy seed bank exhausted after {self.seeds_consumed} seeds "
                "and extra_seed_generator is off"
            )
        self.seeds_consumed += 1
        return self.extra.next_word() & (2**31 - 1)

    def source(self, os_entropy, kind, external=None):
        def entry():
            state, seq = mix_seed(os_entropy, [self.next_seed()])
            return state, seq, kind, external

        return entry


class _SharedSource:
    """An external word source that every entry's stream reads in turn; every
    fourth word is small, so bounded draws reject often."""

    def __init__(self):
        self.inner = Pcg64Stream(*mix_seed(b"shared", [3]))
        self.calls = 0

    def next_word(self):
        self.calls += 1
        word = self.inner.next_word()
        return word >> 60 if self.calls % 4 == 0 else word


# one bound with a 1/8 rejection rate, far above any realistic bound's
_REJECTING_BOUND = 3 * 2**61

_SHAPER_CALLS = [
    ("uniforms", (25,)),
    ("normals", (40, 1.5, 2.0)),
    ("laplaces", (9, -1.0, 0.5)),
    ("uniform_interval", (7, 2.0, 3.0)),
    *(("shaped", (name, 0.5, 1.5, 11)) for name in NOISE_DISTRIBUTIONS),
    ("bounded_ints", (30, 1)),
    ("bounded_ints", (30, 2)),
    ("bounded_ints", (30, 7)),
    ("bounded_ints", (60, _REJECTING_BOUND)),
    ("uniforms", (0,)),
    ("normals", (1,)),
    ("bounded_ints", (1, 5)),
]


def _run_shapers(sampler):
    return [getattr(sampler, name)(*args) for name, args in _SHAPER_CALLS]


@pytest.mark.parametrize("kind", ["default_pcg", "mersenne", "external"])
def test_bulk_sampler_matches_per_entry_oracle(kind):
    bank = [(i * 2654435761) % 2**31 for i in range(5000)] + [2**64 + 9, 2**128 - 1]
    os_entropy = b"os-material"
    old_ext, new_ext = (_SharedSource(), _SharedSource()) if kind == "external" else (None, None)
    old = _PerEntryBulkSampler(_PerEntrySeeds(bank).source(os_entropy, kind, old_ext))
    consumed = []
    new = BulkSampler(_seed_feed(bank, consumed), os_entropy, GeneratorSpec(kind, new_ext))
    for (name, args), want, got in zip(_SHAPER_CALLS, _run_shapers(old), _run_shapers(new)):
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), (name, args)
    assert len(consumed) == sum(args[-1] if name == "shaped" else args[0]
                                for name, args in _SHAPER_CALLS)
    assert old.redraws > 0  # the redraw loops ran
    if kind == "external":
        assert new_ext.calls == old_ext.calls


@pytest.mark.parametrize("kind", ["default_pcg", "mersenne", "external"])
def test_bulk_bounded_ints_excluded_matches_per_entry_oracle(kind):
    # an entry redraws an excluded integer from its own stream, on its own seed
    bank = [(i * 2654435761) % 2**31 for i in range(500)]
    old_ext, new_ext = (_SharedSource(), _SharedSource()) if kind == "external" else (None, None)
    old = _PerEntryBulkSampler(_PerEntrySeeds(bank).source(b"os", kind, old_ext))
    consumed = []
    new = BulkSampler(_seed_feed(bank, consumed), b"os", GeneratorSpec(kind, new_ext))
    excluded = np.arange(9) % 3 != 1
    want = old.bounded_ints(60, 9, excluded)
    got = new.bounded_ints(60, 9, excluded)
    assert got.tolist() == want.tolist()
    assert not excluded[got].any()
    assert len(consumed) == 60 and old.redraws > 0


@pytest.mark.parametrize("seeding_type", ["primary_seeds", "supplemental_seeds"])
@pytest.mark.parametrize("generator", ["default_pcg", "mersenne"])
def test_bulk_manager_matches_per_entry_oracle(seeding_type, generator):
    bank = [(i * 40503) % 2**31 for i in range(300)]
    plan = SamplingPlan(sampling_type="bulk_seeds", seeding_type=seeding_type,
                        entropy_seeds=bank, os_material=b"injected",
                        sampling_generator=GeneratorSpec(kind=generator),
                        extra_seed_generator="PCG64")
    os_entropy = b"" if seeding_type == "primary_seeds" else b"injected"
    seeds = _PerEntrySeeds(bank, os_entropy, extra_kind="default_pcg")
    manager = StreamManager(plan)
    for name, args in _SHAPER_CALLS * 2:  # the second pass runs on extra-generator seeds
        want = getattr(_PerEntryBulkSampler(seeds.source(os_entropy, generator)), name)(*args)
        got = getattr(manager.sampler("t#1", "noise"), name)(*args)
        assert got.tobytes() == want.tobytes(), (name, args)
        assert manager.seeds_consumed == seeds.seeds_consumed
    assert manager.seeds_consumed > len(bank)


@pytest.mark.parametrize("extra", [None, "PCG64"])
def test_bulk_exhaustion_mid_batch_matches_per_entry_oracle(extra):
    bank = list(range(100, 130))
    plan = SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=bank,
                        extra_seed_generator=extra)
    manager = StreamManager(plan)
    seeds = _PerEntrySeeds(bank, extra_kind=extra and "default_pcg")
    outcomes = []
    for draw in (lambda s: s.uniforms(20), lambda s: s.normals(25)):
        try:
            want = draw(_PerEntryBulkSampler(seeds.source(None, "default_pcg")))
        except SeedExhaustedError as exc:
            want = str(exc)
        try:
            got = draw(manager.sampler("t#1", "noise"))
        except SeedExhaustedError as exc:
            got = str(exc)
        outcomes.append((got, want))
        assert manager.seeds_consumed == seeds.seeds_consumed
    (got1, want1), (got2, want2) = outcomes
    assert np.array_equal(got1, want1)
    if extra is None:
        assert got2 == want2 == ("entropy seed bank exhausted after 30 seeds "
                                 "and extra_seed_generator is off")
    else:
        assert got2.tobytes() == want2.tobytes()
        assert manager.seeds_consumed == 45


_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_INVERSE = pow(_MULT, -1, 2**128)


def _halves(values):
    values = [int(v) for v in values]
    low = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
    high = np.array([v >> 64 for v in values], dtype=np.uint64)
    return low, high


@settings(max_examples=200, deadline=None)
@given(stepped=st.integers(0, 2**128 - 1), seq=st.integers(0, 2**64 - 1))
@example(stepped=0, seq=0)
@example(stepped=2**128 - 1, seq=2**64 - 1)
@example(stepped=(2**122 - 1), seq=5)  # rotation 0
@example(stepped=(1 << 122) | 0xDEADBEEF, seq=2**63)  # rotation 1
@example(stepped=2**128 - 2**122, seq=1)  # rotation 63
@example(stepped=(7 << 64) | 3, seq=2**62)  # + inc carries out of the low word
# from a state of low word 2**64 - 2**32 - 1, the middle column of lo * M_lo carries 2
@example(stepped=((2**64 - 2**32 - 1) * _MULT + 1) % 2**128, seq=0)
def test_pcg_step_matches_pcg64_stream(stepped, seq):
    # pick the state before the step so the stepped state (and its rotation) is chosen
    inc = (seq << 1) | 1
    state = ((stepped - inc) * _MULT_INVERSE) % 2**128
    stream = Pcg64Stream(0, 0)
    bitgen_state = stream._bitgen.state
    bitgen_state["state"] = {"state": state, "inc": inc}
    stream._bitgen.state = bitgen_state
    want = stream.next_word()
    assert stream._bitgen.state["state"]["state"] == stepped
    got_lo, got_hi = _step(*_halves([state]), *_halves([inc]))
    want_lo, want_hi = _halves([stepped])
    assert np.array_equal(got_lo, want_lo) and np.array_equal(got_hi, want_hi)
    assert int(_xsl_rr(got_lo, got_hi)[0]) == want


@settings(max_examples=50, deadline=None)
@given(states=st.lists(st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 2**64 - 1)),
                       min_size=1, max_size=20))
@example(states=[(0, 0), (2**128 - 1, 2**64 - 1), (2**127, 2**63)])
def test_pcg_lanes_match_pcg64_streams(states):
    lanes = _PcgLanes(
        np.array([s & (2**64 - 1) for s, _ in states], dtype=np.uint64),
        np.array([s >> 64 for s, _ in states], dtype=np.uint64),
        np.array([q for _, q in states], dtype=np.uint64),
    )
    streams = [Pcg64Stream(s, q) for s, q in states]
    every = np.arange(len(states))
    for idx in (None, every, every[::2], None):
        picked = every if idx is None else idx
        want = [streams[i].next_word() for i in picked.tolist()]
        assert lanes.next(idx).tolist() == want


# -- Fisher-Yates: bounded draws taken as one array ---------------------------


def _per_word_bounded_int(stream, bound):
    if bound <= 1:
        return 0
    threshold = (1 << 64) % bound
    while True:
        word = stream.next_word()
        if word >= threshold:
            return word % bound


def _per_word_shuffled(stream, items):
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = _per_word_bounded_int(stream, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class _ScriptedWords:
    """Words of a PCG stream, with chosen positions replaced by 0."""

    def __init__(self, zero_at=()):
        self.inner = Pcg64Stream(*mix_seed(b"script", [1]))
        self.zero_at = set(zero_at)
        self.calls = 0

    def next_word(self):
        self.calls += 1
        word = self.inner.next_word()
        return 0 if self.calls - 1 in self.zero_at else word


@pytest.mark.parametrize("n, zero_at", [(1, ()), (2, ()), (50, ()), (50, (7,)), (50, (0, 1, 47)),
                                        (1000, (500,))])
def test_shuffled_matches_per_word_fisher_yates(n, zero_at):
    # a zero word is below the rejection threshold of any bound that is not a power of 2
    old_source, new_source = _ScriptedWords(zero_at), _ScriptedWords(zero_at)
    want = _per_word_shuffled(ExternalWordStream(old_source), range(n))
    got = StreamSampler(ExternalWordStream(new_source)).shuffled(range(n))
    assert got == want
    assert new_source.calls == old_source.calls == max(n - 1, 0) + len(zero_at)


def test_bounded_each_matches_per_word_draws():
    bounds = [1, 5, 2, 1, 3 * 2**61, 7, 1, 1000, 3]
    old_source, new_source = _ScriptedWords((1, 3, 4)), _ScriptedWords((1, 3, 4))
    old_stream = ExternalWordStream(old_source)
    want = [_per_word_bounded_int(old_stream, b) for b in bounds]
    got = StreamSampler(ExternalWordStream(new_source)).bounded_each(bounds)
    assert got.tolist() == want
    assert new_source.calls == old_source.calls


def _per_word_excluded(stream, bound, excluded):
    threshold = (1 << 64) % bound
    while True:
        word = stream.next_word()
        if word >= threshold and not (excluded is not None and excluded[word % bound]):
            return word % bound


@pytest.mark.parametrize("n, bound, every, zero_at", [
    (0, 5, 3, ()), (1, 2, 2, ()), (40, 7, 3, ()), (300, 30, 3, (3, 50, 51)),
    (300, 30, None, (3, 50, 51)),  # only the zero words are rejected
    (2000, 50, 10, ()),  # nine in ten integers excluded: redraws outnumber entries
])
def test_bounded_ints_excluded_matches_per_word_draws(n, bound, every, zero_at):
    excluded = None if every is None else np.arange(bound) % every != 1
    old_source, new_source = _ScriptedWords(zero_at), _ScriptedWords(zero_at)
    old_stream = ExternalWordStream(old_source)
    want = [_per_word_excluded(old_stream, bound, excluded) for _ in range(n)]
    got = StreamSampler(ExternalWordStream(new_source)).bounded_ints(n, bound, excluded)
    assert got.tolist() == want
    if excluded is not None:
        assert not excluded[got].any()
    assert new_source.calls == old_source.calls


@pytest.mark.parametrize("sampler", [StreamSampler(Pcg64Stream(1)),
                                     BulkSampler(lambda n: PackedSeeds(range(n)).blocks)])
def test_bounded_ints_with_every_integer_excluded_raises(sampler):
    with pytest.raises(ValueError, match="every integer below the bound is excluded"):
        sampler.bounded_ints(3, 2, np.array([True, True]))
