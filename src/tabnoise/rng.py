"""Random word streams and shaped sampling.

Every random draw in the package flows through a stream of 64-bit words, so
that alternate word sources (external hardware, remote entropy services) can
be dropped in without touching any shaping code. The default stream is a PCG
generator with 128-bit state and the XSL-RR 64-bit output function (O'Neill
2014); a Mersenne twister seeded by ``init_by_array`` (Matsumoto & Nishimura
1998) and an adapter for arbitrary external word sources are provided as
alternates. The words of both generators come from numpy's ``PCG64`` and
``MT19937`` bit generators, bit for bit the words of the reference
algorithms; seeding and shaping are the package's own.

Shaping is built directly on the word stream: uniform doubles take the top
53 bits of a word, normals use the Marsaglia polar method (in cache-sized
blocks of words), Laplace uses the inverse CDF, and bounded integers use
threshold rejection. All accumulation is in 64-bit floats.

Seed material enters through :func:`mix_seed`, a hash-based construction
that expands external seeds below 2**128 (plus optional OS entropy bytes)
into the 128-bit state and 64-bit sequence selector of a stream. The same
inputs always produce the same stream. Under bulk seeding every sampled entry
has a stream of its own: :class:`BulkSampler` hashes an operation's seeds in
one pass and steps all of its PCG streams at once, each 128-bit state held
as the low and high halves of two uint64 arrays.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U53_SCALE = 2.0 ** -53

_SEED_DOMAIN = b"tabnoise.seed.v1"

_SEED_LIMIT = 1 << 128  # a seed fills one 16-byte little-endian block
_NOT_A_SEED = "entropy seeds must be nonnegative integers"


def _checked_seed(seed) -> int:
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ValueError(_NOT_A_SEED) from None
    if seed < 0:
        raise ValueError(_NOT_A_SEED)
    if seed >= _SEED_LIMIT:
        raise ValueError("entropy seeds must be below 2**128")
    return seed


class PackedSeeds:
    """A seed sequence validated and serialized once, as 16-byte blocks.

    ``blocks`` is an ``(n, 2)`` array of little-endian uint64 halves, one row
    per seed (low half first), whose bytes are the blocks that
    :func:`mix_seed` hashes. Hashing them gives the same digest as passing the
    seeds one by one, since SHA-256 is a streaming hash. Seeds are taken as
    ``int(seed)``; one that is negative, at least ``2**128`` or not a number
    raises ``ValueError``. An integer ndarray is packed without a Python
    object per seed.
    """

    __slots__ = ("blocks",)

    def __init__(self, seeds: Sequence[int]):
        if not hasattr(seeds, "__len__"):
            seeds = list(seeds)
        blocks = np.zeros((len(seeds), 2), dtype="<u8")
        try:
            if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu" and seeds.ndim == 1:
                low = seeds  # every value of a 64-bit integer type fits a low half
            else:
                # int() of each seed, straight into an array: no Python object per seed
                low = np.fromiter(seeds, dtype=np.int64, count=len(seeds))
        except (OverflowError, TypeError, ValueError):  # wide, or not a number
            values = [_checked_seed(seed) for seed in seeds]
            blocks[:, 0] = [v & _MASK64 for v in values]
            blocks[:, 1] = [v >> 64 for v in values]
        else:
            if len(low) and low.min() < 0:
                raise ValueError(_NOT_A_SEED)
            blocks[:, 0] = low
        blocks.flags.writeable = False
        self.blocks = blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def take(self, order) -> "PackedSeeds":
        """The seeds reordered (or picked) by the positions in ``order``."""
        packed = PackedSeeds.__new__(PackedSeeds)
        packed.blocks = self.blocks[np.asarray(order, dtype=np.intp)]
        return packed


def _seed_prefix(os_entropy: bytes | None):
    """SHA-256 over the domain tag and the OS material: every seed hash starts here."""
    digest = hashlib.sha256(_SEED_DOMAIN)
    if os_entropy:
        digest.update(len(os_entropy).to_bytes(4, "little"))
        digest.update(os_entropy)
    else:
        digest.update(b"\x00\x00\x00\x00")
    return digest


def mix_seed(
    os_entropy: bytes | None, supplemental: Iterable[int] | PackedSeeds
) -> tuple[int, int]:
    """Deterministically expand seed material into ``(initstate, initseq)``.

    ``os_entropy`` is optional byte material (normally from the operating
    system, injectable in tests); ``supplemental`` is a sequence of
    nonnegative integer seeds below ``2**128``, or the same sequence as
    :class:`PackedSeeds`. Output is a 128-bit state and a 64-bit sequence
    selector derived through SHA-256.
    """
    if not isinstance(supplemental, PackedSeeds):
        supplemental = PackedSeeds(supplemental)
    digest = _seed_prefix(os_entropy)
    digest.update(supplemental.blocks)
    material = digest.digest()
    initstate = int.from_bytes(material[:16], "little")
    initseq = int.from_bytes(material[16:24], "little")
    return initstate, initseq


def _mix_blocks(os_entropy: bytes | None, blocks: np.ndarray) -> np.ndarray:
    """``mix_seed(os_entropy, [seed])`` for the seed of every row of ``blocks``.

    Returns an ``(n, 3)`` uint64 array: the low and high halves of
    ``initstate``, then ``initseq``.
    """
    copy = _seed_prefix(os_entropy).copy
    raw = memoryview(np.asarray(blocks, dtype="<u8").tobytes())
    digests = []
    for start in range(0, len(raw), 16):
        digest = copy()
        digest.update(raw[start : start + 16])
        digests.append(digest.digest())
    words = np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, 4)
    return words[:, :3].astype(np.uint64)


class Pcg64Stream:
    """PCG with 128-bit LCG state and XSL-RR output of 64-bit words.

    The words come from a numpy ``PCG64`` of the stream's own, seeded with
    ``(initstate + inc) mod 2**128`` and stepped once, as the reference
    seeding does.
    """

    __slots__ = ("_bitgen",)

    def __init__(self, initstate: int, initseq: int = 0):
        inc = ((initseq & _MASK64) << 1) | 1
        self._bitgen = np.random.PCG64(0)
        self._bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": (initstate + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bitgen.random_raw()

    def next_word(self) -> int:
        return int(self._bitgen.random_raw())

    def words(self, n: int) -> np.ndarray:
        return self._bitgen.random_raw(n)


_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_MULT_LO = np.uint64(_PCG_MULT & _MASK64)
_MULT_HI = np.uint64(_PCG_MULT >> 64)


def _add(lo, hi, b_lo, b_hi):
    """``(a + b) mod 2**128`` on uint64 halves: the low words carry exactly when
    their wrapped sum is below ``lo``."""
    out_lo = lo + b_lo
    return out_lo, hi + b_hi + (out_lo < lo)


def _mulhi(a0, a1, b):
    """The high word of each ``(a1 * 2**32 + a0) * b``, from 32-bit halves: four partial
    products, whose middle column sums three values below 2**32 and so cannot wrap."""
    b0, b1 = b & _M32, b >> _S32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _S32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _step(lo, hi, inc_lo, inc_hi):
    """One LCG step ``(state * _PCG_MULT + inc) mod 2**128`` on uint64 halves.

    numpy's uint64 products wrap, so they give the low word of ``lo * M_lo`` and the
    ``lo * M_hi`` and ``hi * M_lo`` terms of the high word as they are; ``_mulhi``
    gives the high word of ``lo * M_lo``.
    """
    high = _mulhi(lo & _M32, lo >> _S32, _MULT_LO)
    return _add(lo * _MULT_LO, high + lo * _MULT_HI + hi * _MULT_LO, inc_lo, inc_hi)


def _xsl_rr(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """PCG's XSL-RR output of each 128-bit state: the halves xored, rotated right
    by the state's top six bits."""
    xored = hi ^ lo
    rot = hi >> np.uint64(58)
    return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


class _PcgLanes:
    """One :class:`Pcg64Stream` per entry, all stepped at once as uint64 arrays.

    Each entry's 128-bit state is held as two uint64 arrays of low and high halves,
    and so is its increment. Built from ``(initstate, initseq)`` like the stream, its
    words equal those of ``Pcg64Stream(initstate, initseq).next_word()`` for each entry.
    """

    independent = True

    def __init__(self, state_low: np.ndarray, state_high: np.ndarray, initseq: np.ndarray):
        self._inc_lo = (initseq << np.uint64(1)) | np.uint64(1)
        self._inc_hi = initseq >> np.uint64(63)
        state = _add(state_low, state_high, self._inc_lo, self._inc_hi)
        self._lo, self._hi = _step(*state, self._inc_lo, self._inc_hi)  # the constructor's word

    def next(self, idx: np.ndarray | None = None) -> np.ndarray:
        """The next word of each entry in ``idx`` (every entry when None)."""
        if idx is None:
            self._lo, self._hi = _step(self._lo, self._hi, self._inc_lo, self._inc_hi)
            return _xsl_rr(self._lo, self._hi)
        lo, hi = _step(self._lo[idx], self._hi[idx], self._inc_lo[idx], self._inc_hi[idx])
        self._lo[idx], self._hi[idx] = lo, hi
        return _xsl_rr(lo, hi)


class _StreamLanes:
    """One stream object per entry, behind the interface of :class:`_PcgLanes`.

    External streams all read one shared source, so their entries are not
    independent: each must draw all of its words before the next one starts.
    """

    def __init__(self, streams: list, independent: bool):
        self._streams = streams
        self.independent = independent

    def next(self, idx: np.ndarray | None = None) -> np.ndarray:
        streams = self._streams if idx is None else [self._streams[i] for i in idx.tolist()]
        return np.array([stream.next_word() for stream in streams], dtype=np.uint64)


class Mt19937Stream:
    """Mersenne twister; two 32-bit outputs are packed into each 64-bit word."""

    __slots__ = ("_bitgen",)

    def __init__(self, initstate: int, initseq: int = 0):
        # Expand the 128+64 bit seed material into the standard key-array init.
        key = [
            (initstate >> shift) & 0xFFFFFFFF for shift in range(0, 128, 32)
        ] + [(initseq >> shift) & 0xFFFFFFFF for shift in range(0, 64, 32)]
        self._bitgen = np.random.MT19937(0)
        self._bitgen.state = np.random.RandomState(key).get_state(legacy=False)

    def next_word(self) -> int:
        hi, lo = self._bitgen.random_raw(2).tolist()
        return (hi << 32) | lo

    def words(self, n: int) -> np.ndarray:
        # each raw value is one 32-bit output
        raw = self._bitgen.random_raw(2 * n)
        return (raw[0::2] << np.uint64(32)) | raw[1::2]


class ExternalWordStream:
    """Adapter for external 64-bit word sources.

    Accepts either an object exposing ``next_word()`` (and optionally
    ``words(n)``) or a zero-argument callable returning integers in
    ``[0, 2**64)``. Seed material is ignored; the source is the stream.
    """

    __slots__ = ("_source", "_call")

    def __init__(self, source):
        if callable(source) and not hasattr(source, "next_word"):
            self._source = None
            self._call = source
        else:
            self._source = source
            self._call = None

    def next_word(self) -> int:
        if self._call is not None:
            return int(self._call()) & _MASK64
        return int(self._source.next_word()) & _MASK64

    def words(self, n: int) -> np.ndarray:
        if self._call is None and hasattr(self._source, "words"):
            got = np.asarray(self._source.words(n), dtype=np.uint64)
            if got.shape != (n,):
                raise ValueError("external word source returned wrong shape")
            return got
        out = np.empty(n, dtype=np.uint64)
        for i in range(n):
            out[i] = self.next_word()
        return out


GeneratorKind = Literal["default_pcg", "mersenne", "external"]


def make_stream(kind: str, initstate: int, initseq: int, external=None):
    if kind == "default_pcg":
        return Pcg64Stream(initstate, initseq)
    if kind == "mersenne":
        return Mt19937Stream(initstate, initseq)
    if kind == "external":
        if external is None:
            raise ValueError("external generator kind requires a word source")
        return ExternalWordStream(external)
    raise ValueError(f"unknown generator kind: {kind!r}")


NoiseDistribution = Literal[
    "normal",
    "laplace",
    "uniform",
    "abs_normal",
    "abs_laplace",
    "abs_uniform",
    "negabs_normal",
    "negabs_laplace",
    "negabs_uniform",
]
NOISE_DISTRIBUTIONS = get_args(NoiseDistribution)


def _words_to_uniforms(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * _U53_SCALE


# float64 entries per block of elementwise array work: 64 KB, which stays in cache
BLOCK_ENTRIES = 1 << 13


def _polar_fill(words: np.ndarray, out: np.ndarray) -> int:
    """Marsaglia polar normals from the word pairs of ``words``, written to the head of
    ``out``; returns how many were written. The method is elementwise, so its blocks of
    ``BLOCK_ENTRIES`` words give the normals of one pass over all words, bit for bit."""
    have = 0
    for start in range(0, len(words), BLOCK_ENTRIES):
        if have == len(out):
            break
        u = 2.0 * _words_to_uniforms(words[start : start + BLOCK_ENTRIES]) - 1.0
        x, y = u[0::2], u[1::2]
        s = x * x + y * y
        ok = (s > 0.0) & (s < 1.0)
        x, y, s = x[ok], y[ok], s[ok]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        z = np.empty(2 * len(s), dtype=np.float64)
        z[0::2] = x * factor
        z[1::2] = y * factor
        take = min(len(z), len(out) - have)
        out[have : have + take] = z[:take]
        have += take
    return have


def _laplace_from_uniforms(u: np.ndarray, mu: float, scale: float) -> np.ndarray:
    q = u - 0.5
    inner = np.maximum(1.0 - 2.0 * np.abs(q), _U53_SCALE)
    return mu - scale * np.sign(q) * np.log(inner)


def shaped_sample(sampler, distribution: str, mu: float, sigma: float, n: int) -> np.ndarray:
    """Dispatch on the distribution name, with abs_/negabs_ sign folding."""
    name = distribution
    sign = 0
    if name.startswith("abs_"):
        sign, name = 1, name[4:]
    elif name.startswith("negabs_"):
        sign, name = -1, name[7:]
    if name == "normal":
        values = sampler.normals(n, mu, sigma)
    elif name == "laplace":
        values = sampler.laplaces(n, mu, sigma)
    elif name == "uniform":
        values = sampler.uniform_interval(n, mu, sigma)
    else:
        raise ValueError(f"unknown noise distribution: {distribution!r}")
    if sign > 0:
        return np.abs(values)
    if sign < 0:
        return -np.abs(values)
    return values


class StreamSampler:
    """Shaped sampling over a single word stream.

    Word consumption is a deterministic function of the stream, so two
    samplers over identically seeded streams produce identical output.
    """

    __slots__ = ("stream",)

    def __init__(self, stream):
        self.stream = stream

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return _words_to_uniforms(self.stream.words(n))

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        have = 0
        while have < n:
            # Polar method yields two normals per accepted pair (~78.5% accept).
            pairs = max(4, int((n - have) * 0.7) + 4)
            have += _polar_fill(self.stream.words(2 * pairs), out[have:])
        out *= sigma
        out += mu
        return out

    def laplaces(self, n: int, mu: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return _laplace_from_uniforms(self.uniforms(n), mu, scale)

    def uniform_interval(self, n: int, mu: float = 0.0, half_width: float = 1.0) -> np.ndarray:
        return mu + half_width * (2.0 * self.uniforms(n) - 1.0)

    shaped = shaped_sample

    def bounded_ints(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound) by scaled-integer rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.bounded_each(np.full(n, bound, dtype=np.uint64))

    def bounded_each(self, bounds) -> np.ndarray:
        """One integer uniform on ``[0, b)`` for each ``b`` of ``bounds``, in order.

        The words are those of drawing the bounds one at a time: none for a
        bound of 1, else one, plus one more each time a word falls below its
        bound's rejection threshold. They come from one ``words()`` call and
        one more word per rejection.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        out = np.zeros(len(bounds), dtype=np.int64)
        live = np.flatnonzero(bounds > 1)
        if not len(live):
            return out
        live_bounds = bounds[live]
        thresholds = (np.uint64(0) - live_bounds) % live_bounds  # 2**64 % bound
        words = self.stream.words(len(live))
        done = 0
        while True:
            rejected = np.flatnonzero(words < thresholds[done:])
            stop = int(rejected[0]) if len(rejected) else len(words)
            out[live[done : done + stop]] = words[:stop] % live_bounds[done : done + stop]
            if not len(rejected):
                return out
            # the rejected word is spent; the words after it move up one bound
            done += stop
            words = np.concatenate([words[stop + 1 :], self.stream.words(1)])

    def shuffled(self, items: Sequence) -> list:
        """Fisher-Yates permutation of ``items`` driven by this stream."""
        out = list(items)
        n = len(out)
        picks = self.bounded_each(np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            out[i], out[j] = out[j], out[i]
        return out


class BulkSampler:
    """Shaped sampling where every sampled entry has its own seeded stream.

    ``seed_blocks(n)`` returns the seeds of the next ``n`` entries as an
    ``(n, 2)`` uint64 array of 16-byte seed blocks (see :class:`PackedSeeds`).
    Entry ``i`` draws from ``make_stream(kind, *mix_seed(os_entropy,
    [seed_i]), external)``. Each call hashes its entries' seeds in one pass
    and draws their words as arrays; rejection sampling redraws only the
    entries still pending.
    """

    __slots__ = ("_seed_blocks", "_os_entropy", "_kind", "_external")

    def __init__(self, seed_blocks, os_entropy: bytes | None = None,
                 kind: str = "default_pcg", external=None):
        self._seed_blocks = seed_blocks
        self._os_entropy = os_entropy
        self._kind = kind
        self._external = external

    def _lanes(self, n: int):
        mixed = _mix_blocks(self._os_entropy, self._seed_blocks(n))
        if self._kind == "default_pcg":
            return _PcgLanes(mixed[:, 0], mixed[:, 1], mixed[:, 2])
        streams = [
            make_stream(self._kind, low | high << 64, seq, self._external)
            for low, high, seq in mixed.tolist()
        ]
        return _StreamLanes(streams, independent=self._kind != "external")

    def _until_accepted(self, n: int, attempt, dtype) -> np.ndarray:
        """Run ``attempt(lanes, idx) -> (accepted, values)`` on the pending
        entries until each has a value; entries of a shared source go one by one."""
        lanes = self._lanes(n)
        out = np.empty(n, dtype=dtype)
        entries = np.arange(n)
        for pending in [entries] if lanes.independent else entries[:, None]:
            while len(pending):
                accepted, values = attempt(lanes, pending)
                out[pending[accepted]] = values
                pending = pending[~accepted]
        return out

    def uniforms(self, n: int) -> np.ndarray:
        return _words_to_uniforms(self._lanes(n).next())

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        def attempt(lanes, idx):
            x = 2.0 * _words_to_uniforms(lanes.next(idx)) - 1.0
            y = 2.0 * _words_to_uniforms(lanes.next(idx)) - 1.0
            s = x * x + y * y
            accepted = (s > 0.0) & (s < 1.0)
            s = s[accepted]
            # math.log per accepted entry: numpy's log may round the last bit differently
            logs = np.array([math.log(v) for v in s.tolist()], dtype=np.float64)
            return accepted, x[accepted] * np.sqrt(-2.0 * logs / s)

        return mu + sigma * self._until_accepted(n, attempt, np.float64)

    # the shapes StreamSampler draws from its uniforms, bound as this class's own methods
    laplaces = StreamSampler.laplaces
    uniform_interval = StreamSampler.uniform_interval
    shaped = shaped_sample

    def bounded_ints(self, n: int, bound: int) -> np.ndarray:
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            self._seed_blocks(n)  # each entry still receives (and expends) its own seed
            return np.zeros(n, dtype=np.int64)
        threshold = np.uint64((1 << 64) % bound)

        def attempt(lanes, idx):
            words = lanes.next(idx)
            accepted = words >= threshold
            return accepted, words[accepted] % np.uint64(bound)

        return self._until_accepted(n, attempt, np.int64)
