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
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

from .errors import ConfigError
from .schema import typed

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


# a decimal seed of fewer digits than this fits int64
_LONG_SEED_DIGITS = 19
_M1, _M2, _M4, _H01 = (np.uint64(v) for v in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101))


def _later(words: np.ndarray, k: int) -> np.ndarray:
    """The bit stream of ``words`` (bit 0 of word 0 first) moved ``k < 64`` places later."""
    out = words << np.uint64(k)
    out[1:] |= words[:-1] >> np.uint64(64 - k)
    return out


def _digit_runs(data: bytes) -> tuple[int, bool]:
    """How many runs of ASCII digits ``data`` (digits and line ends) holds, and whether one
    is at least ``_LONG_SEED_DIGITS`` long; both are read from one bit per byte, 64 to a word."""
    packed = np.packbits(np.frombuffer(data, dtype=np.uint8) >= ord("0"), bitorder="little")
    words = np.zeros(-(-len(packed) // 8), dtype="<u8")
    words.view(np.uint8)[: len(packed)] = packed
    # the popcount of each word's run starts, as a sum of bit pairs, nibbles, bytes
    x = words & ~_later(words, 1)
    x -= (x >> np.uint64(1)) & _M1
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    count = int(((x * _H01) >> np.uint64(56)).sum())
    # a bit stays set where it ends a run of 2, 4, 8, 16, then 19 digits
    run = words
    for k in (1, 2, 4, 8, _LONG_SEED_DIGITS - 16):
        run = run & _later(run, k)
    return count, bool(run.any())


class PackedSeeds:
    """A seed sequence validated and serialized once, as 16-byte blocks.

    ``blocks`` is an ``(n, 2)`` array of little-endian uint64 halves, one row
    per seed (low half first), whose bytes are the blocks that
    :func:`mix_seed` hashes. Hashing them gives the same digest as passing the
    seeds one by one, since SHA-256 is a streaming hash. Seeds are taken as
    ``int(seed)``; one that is negative, at least ``2**128`` or not a number
    raises ``ValueError``. An integer ndarray is packed without a Python
    object per seed.

    A bank built by :meth:`from_text` holds checked decimal lines and converts
    them as they are asked for: ``head(k)`` converts the first ``k`` seeds,
    ``blocks`` all of them, and no seed is converted twice.
    """

    __slots__ = ("_blocks", "_text", "_pos", "_done")

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
        self._hold(blocks)

    def _hold(self, blocks: np.ndarray, text: bytes = b"") -> "PackedSeeds":
        """Hold ``blocks``, converted already unless ``text`` still holds their seeds."""
        blocks.flags.writeable = bool(text)  # written only as the text is converted
        self._blocks, self._text, self._pos = blocks, text, 0
        self._done = 0 if text else len(blocks)
        return self

    @classmethod
    def _rows(cls, blocks: np.ndarray) -> "PackedSeeds":
        """The seeds whose blocks are the rows of ``blocks``, held as they are."""
        return cls.__new__(cls)._hold(blocks)

    @classmethod
    def from_text(cls, text: bytes) -> "PackedSeeds | None":
        """The seeds of ``text``, converted on demand; None for any other text than
        ASCII digit lines of at most 18 digits each, so that every seed fits int64,
        ended by ``\\n`` or ``\\r\\n``, blank lines allowed. Every byte is checked here.
        """
        # counting CR LF pairs takes ms on a large bank; most banks hold no CR at all
        if text.translate(None, b"0123456789\r\n") or (
                b"\r" in text and text.count(b"\r") != text.count(b"\r\n")):
            return None
        count, long_seed = _digit_runs(text)
        return None if long_seed else cls.__new__(cls)._hold(np.zeros((count, 2), "<u8"), text)

    def __len__(self) -> int:
        return len(self._blocks)

    def head(self, k: int) -> np.ndarray:
        """The blocks of the first ``k`` seeds (of all, when there are fewer)."""
        k = min(k, len(self._blocks))
        text = self._text
        while self._done < k:
            # whole lines from where the last conversion stopped, about as many
            # bytes as the seeds still missing take on average
            want = self._pos + (k - self._done) * len(text) // len(self._blocks)
            end = text.find(b"\n", want) + 1 or len(text)
            chunk = text[self._pos : end]
            self._pos = end
            if not chunk.isspace():  # np.fromstring reads blank text as a 0
                seeds = np.fromstring(chunk, dtype=np.int64, sep="\n")
                self._blocks[self._done : self._done + len(seeds), 0] = seeds
                self._done += len(seeds)
            if end == len(text) and self._done < len(self._blocks):
                raise ValueError(f"seed text holds {self._done} seeds, not {len(self._blocks)}")
        if self._done == len(self._blocks):
            self._text = b""
        view = self._blocks[:k]
        view.flags.writeable = False
        return view

    @property
    def blocks(self) -> np.ndarray:
        return self.head(len(self._blocks))

    def take(self, order) -> "PackedSeeds":
        """The seeds reordered (or picked) by the positions in ``order``."""
        return PackedSeeds._rows(self.blocks[np.asarray(order, dtype=np.intp)])


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
    digests = []
    append = digests.append
    # one 16-byte bytes object per seed
    for block in np.ascontiguousarray(blocks, "<u8").view("V16").ravel().tolist():
        digest = copy()
        digest.update(block)
        append(digest.digest())
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
    ``words(n)``) or a zero-argument callable returning integers, whose
    other attributes are not read. Words are taken modulo ``2**64``. Seed
    material is ignored; the source is the stream.
    """

    __slots__ = ("_next", "_words")

    def __init__(self, source):
        if callable(source) and not hasattr(source, "next_word"):
            self._next, self._words = source, None
        else:
            self._next, self._words = source.next_word, getattr(source, "words", None)

    def next_word(self) -> int:
        return int(self._next()) & _MASK64

    def words(self, n: int) -> np.ndarray:
        if self._words is None:
            return np.array([self.next_word() for _ in range(n)], dtype=np.uint64)
        got = self._words(n)
        try:
            got = np.asarray(got, dtype=np.uint64)
        except OverflowError:  # a word outside [0, 2**64): masked, as next_word masks it
            got = np.array([int(word) & _MASK64 for word in got], dtype=np.uint64)
        if got.shape != (n,):
            raise ValueError("external word source returned wrong shape")
        return got


GeneratorKind = Literal["default_pcg", "mersenne", "external"]


@dataclass
class GeneratorSpec:
    """Which word-stream generator backs sampling (external sources drop in), and the
    one place a generator kind becomes streams."""

    kind: GeneratorKind = "default_pcg"
    external: object = None

    def __post_init__(self):
        typed(GeneratorKind, self.kind, "kind", ConfigError)
        if self.kind == "external" and self.external is None:
            raise ConfigError("external generator requires a word source")

    def stream(self, initstate: int, initseq: int):
        """The stream seeded with ``(initstate, initseq)``; an external one ignores them."""
        if self.kind == "external":
            return ExternalWordStream(self.external)
        return (Pcg64Stream if self.kind == "default_pcg" else Mt19937Stream)(initstate, initseq)

    def lanes(self, mixed: np.ndarray):
        """One stream per row of a :func:`_mix_blocks` array; an external kind's share a source."""
        if self.kind == "default_pcg":
            return _PcgLanes(mixed[:, 0], mixed[:, 1], mixed[:, 2])
        streams = [self.stream(low | high << 64, seq) for low, high, seq in mixed.tolist()]
        return _StreamLanes(streams, independent=self.kind != "external")


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
        # 2 * uniform - 1, as (w >> 11) * 2**-52 - 1: scalings by powers of two are exact
        u = (words[start : start + BLOCK_ENTRIES] >> np.uint64(11)).astype(np.float64)
        u *= 2.0 ** -52
        u -= 1.0
        x, y = u[0::2], u[1::2]
        s = x * x
        s += y * y
        kept = np.flatnonzero((s < 1.0) & (s > 0.0))
        s = s[kept]
        factor = np.log(s)  # -2 log(s) / s, in that order
        factor *= -2.0
        factor /= s
        np.sqrt(factor, out=factor)
        # the pairs' normals go straight into out, unless they overfill it
        partial = 2 * len(kept) > len(out) - have
        dest = np.empty(2 * len(kept)) if partial else out[have : have + 2 * len(kept)]
        np.multiply(x[kept], factor, out=dest[0::2])
        np.multiply(y[kept], factor, out=dest[1::2])
        if partial:
            dest = dest[: len(out) - have]
            out[have:] = dest
        have += len(dest)
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


def _check_bounded(bound: int, excluded):
    """``excluded`` as bools, once ``bound`` is positive and some integer below it is not
    excluded."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if excluded is None:
        return None
    excluded = np.asarray(excluded, dtype=bool)
    if excluded.all():
        raise ValueError("every integer below the bound is excluded")
    return excluded


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

    def bounded_ints(self, n: int, bound: int, excluded=None) -> np.ndarray:
        """n integers uniform on [0, bound) by scaled-integer rejection, none of them one
        that the bools ``excluded`` mark.

        The words are those of drawing the entries one at a time: none for a bound
        of 1, else one, plus one more each time a word falls below the rejection
        threshold or gives an excluded integer. A word's fate does not depend on
        its entry, so each round draws as many words as entries are left, and the
        accepted ones fill the next entries in order.
        """
        excluded = _check_bounded(bound, excluded)
        out = np.zeros(n, dtype=np.int64)
        if bound == 1:
            return out
        threshold = np.uint64((1 << 64) % bound)
        done = 0
        while done < n:
            words = self.stream.words(n - done)
            values = words % np.uint64(bound)
            accepted = words >= threshold
            if excluded is not None:
                accepted &= ~excluded[values]
            values = values[accepted]
            out[done : done + len(values)] = values
            done += len(values)
        return out

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
    Entry ``i`` draws from ``generator.stream(*mix_seed(os_entropy, [seed_i]))``,
    the default PCG generator when ``generator`` is None. Each call hashes its
    entries' seeds in one pass and draws their words as arrays; rejection
    sampling redraws only the entries still pending.
    """

    __slots__ = ("_seed_blocks", "_os_entropy", "_generator")

    def __init__(self, seed_blocks, os_entropy: bytes | None = None,
                 generator: GeneratorSpec | None = None):
        self._seed_blocks = seed_blocks
        self._os_entropy = os_entropy
        self._generator = generator or GeneratorSpec()

    def _lanes(self, n: int):
        return self._generator.lanes(_mix_blocks(self._os_entropy, self._seed_blocks(n)))

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

    def bounded_ints(self, n: int, bound: int, excluded=None) -> np.ndarray:
        """As ``StreamSampler.bounded_ints``; an entry redraws from its own stream."""
        excluded = _check_bounded(bound, excluded)
        if bound == 1:
            self._seed_blocks(n)  # each entry still receives (and expends) its own seed
            return np.zeros(n, dtype=np.int64)
        threshold = np.uint64((1 << 64) % bound)

        def attempt(lanes, idx):
            words = lanes.next(idx)
            values = words % np.uint64(bound)
            accepted = words >= threshold
            if excluded is not None:
                accepted &= ~excluded[values]
            return accepted, values[accepted]

        return self._until_accepted(n, attempt, np.int64)
