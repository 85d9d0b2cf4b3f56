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
53 bits of a word, normals use the Marsaglia polar method, Laplace uses the
inverse CDF, and bounded integers use threshold rejection. All accumulation
is in 64-bit floats.

Seed material enters through :func:`mix_seed`, a hash-based construction
that expands 32-bit external seeds (plus optional OS entropy bytes) into the
128-bit state and 64-bit sequence selector of a stream. The same inputs
always produce the same stream.
"""

from __future__ import annotations

import hashlib
import math
import threading
from typing import Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U53_SCALE = 2.0 ** -53

_SEED_DOMAIN = b"tabnoise.seed.v1"

# The numpy PCG64 that Pcg64Stream.words loads each stream's state into; it is
# built on first use, so importing the package leaves numpy.random unloaded.
_shared_pcg = None
_shared_pcg_lock = threading.Lock()


def _seed_block(seed) -> bytes:
    seed = int(seed)
    if seed < 0:
        raise ValueError("entropy seeds must be nonnegative integers")
    return seed.to_bytes(16, "little")


class PackedSeeds:
    """A seed sequence serialized once, for hashing by :func:`mix_seed` many times.

    Hashing the packed bytes gives the same digest as passing the seeds one
    by one, since SHA-256 is a streaming hash.
    """

    __slots__ = ("data",)

    def __init__(self, seeds: Sequence[int]):
        # numpy packs a 200k-seed bank ~10x faster than joining 16-byte blocks,
        # and without a bytes object per seed
        blocks = np.zeros((len(seeds), 2), dtype="<u8")
        try:
            blocks[:, 0] = seeds
            self.data = blocks.tobytes()
        except OverflowError:  # negative, or wider than 64 bits
            self.data = b"".join(map(_seed_block, seeds))

    def __len__(self) -> int:
        return len(self.data) // 16


def mix_seed(
    os_entropy: bytes | None, supplemental: Iterable[int] | PackedSeeds
) -> tuple[int, int]:
    """Deterministically expand seed material into ``(initstate, initseq)``.

    ``os_entropy`` is optional byte material (normally from the operating
    system, injectable in tests); ``supplemental`` is a sequence of
    nonnegative integer seeds, or the same sequence as :class:`PackedSeeds`.
    Output is a 128-bit state and a 64-bit sequence selector derived
    through SHA-256.
    """
    digest = hashlib.sha256()
    digest.update(_SEED_DOMAIN)
    if os_entropy:
        digest.update(len(os_entropy).to_bytes(4, "little"))
        digest.update(os_entropy)
    else:
        digest.update(b"\x00\x00\x00\x00")
    if isinstance(supplemental, PackedSeeds):
        digest.update(supplemental.data)
    else:
        for seed in supplemental:
            digest.update(_seed_block(seed))
    material = digest.digest()
    initstate = int.from_bytes(material[:16], "little")
    initseq = int.from_bytes(material[16:24], "little")
    return initstate, initseq


class Pcg64Stream:
    """PCG with 128-bit LCG state and XSL-RR output of 64-bit words.

    The state lives in Python ints, so building a stream and drawing single
    words stays cheap; bulk draws load that state into a shared numpy
    ``PCG64``, which computes the same words, and store the advanced state back.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, initstate: int, initseq: int = 0):
        self._inc = ((initseq & _MASK64) << 1) | 1
        self._state = (initstate + self._inc) & _MASK128
        self.next_word()

    def next_word(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        xored = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((xored >> rot) | (xored << (64 - rot))) & _MASK64

    def words(self, n: int) -> np.ndarray:
        global _shared_pcg
        with _shared_pcg_lock:
            if _shared_pcg is None:
                _shared_pcg = np.random.PCG64(0)
            _shared_pcg.state = {
                "bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            out = _shared_pcg.random_raw(n)
            self._state = _shared_pcg.state["state"]["state"]
        return out


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


GENERATOR_KINDS = ("default_pcg", "mersenne", "external")


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


NOISE_DISTRIBUTIONS = (
    "normal",
    "laplace",
    "uniform",
    "abs_normal",
    "abs_laplace",
    "abs_uniform",
    "negabs_normal",
    "negabs_laplace",
    "negabs_uniform",
)


def _words_to_uniforms(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * _U53_SCALE


def _polar_fill(u: np.ndarray, out: np.ndarray) -> int:
    """Marsaglia polar normals from the pairs of ``u``, written to the head of
    ``out``; returns how many were written. The round's temporaries die here."""
    x = 2.0 * u[0::2] - 1.0
    y = 2.0 * u[1::2] - 1.0
    s = x * x + y * y
    ok = (s > 0.0) & (s < 1.0)
    x, y, s = x[ok], y[ok], s[ok]
    factor = np.sqrt(-2.0 * np.log(s) / s)
    z = np.empty(2 * len(s), dtype=np.float64)
    z[0::2] = x * factor
    z[1::2] = y * factor
    take = min(len(z), len(out))
    out[:take] = z[:take]
    return take


def _laplace_from_uniforms(u: np.ndarray, mu: float, scale: float) -> np.ndarray:
    q = u - 0.5
    inner = np.maximum(1.0 - 2.0 * np.abs(q), _U53_SCALE)
    return mu - scale * np.sign(q) * np.log(inner)


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
            have += _polar_fill(self.uniforms(2 * pairs), out[have:])
        return mu + sigma * out

    def laplaces(self, n: int, mu: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return _laplace_from_uniforms(self.uniforms(n), mu, scale)

    def uniform_interval(self, n: int, mu: float = 0.0, half_width: float = 1.0) -> np.ndarray:
        return mu + half_width * (2.0 * self.uniforms(n) - 1.0)

    def shaped(self, distribution: str, mu: float, sigma: float, n: int) -> np.ndarray:
        return shaped_sample(self, distribution, mu, sigma, n)

    def bounded_ints(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound) by scaled-integer rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return np.zeros(n, dtype=np.int64)
        threshold = (1 << 64) % bound
        out = np.empty(n, dtype=np.int64)
        have = 0
        while have < n:
            words = self.stream.words(n - have)
            keep = words >= np.uint64(threshold)
            accepted = (words[keep] % np.uint64(bound)).astype(np.int64)
            out[have : have + len(accepted)] = accepted
            have += len(accepted)
        return out

    def bounded_int(self, bound: int) -> int:
        if bound <= 1:
            return 0
        threshold = (1 << 64) % bound
        while True:
            word = self.stream.next_word()
            if word >= threshold:
                return word % bound

    def shuffled(self, items: Sequence) -> list:
        """Fisher-Yates permutation of ``items`` driven by this stream."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.bounded_int(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


class BulkSampler:
    """Shaped sampling where every sampled entry has its own seeded stream.

    ``seed_source`` is called once per entry and must return a fresh
    ``(initstate, initseq, kind, external)`` tuple; each output value is then
    drawn from the resulting single-entry stream.
    """

    __slots__ = ("_seed_source",)

    def __init__(self, seed_source):
        self._seed_source = seed_source

    def _entry_stream(self):
        initstate, initseq, kind, external = self._seed_source()
        return make_stream(kind, initstate, initseq, external)

    def _entry_uniform(self) -> float:
        stream = self._entry_stream()
        return (stream.next_word() >> 11) * _U53_SCALE

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self._entry_uniform() for _ in range(n)], dtype=np.float64)

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            stream = self._entry_stream()
            while True:
                x = 2.0 * ((stream.next_word() >> 11) * _U53_SCALE) - 1.0
                y = 2.0 * ((stream.next_word() >> 11) * _U53_SCALE) - 1.0
                s = x * x + y * y
                if 0.0 < s < 1.0:
                    out[i] = x * math.sqrt(-2.0 * math.log(s) / s)
                    break
        return mu + sigma * out

    def laplaces(self, n: int, mu: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return _laplace_from_uniforms(self.uniforms(n), mu, scale)

    def uniform_interval(self, n: int, mu: float = 0.0, half_width: float = 1.0) -> np.ndarray:
        return mu + half_width * (2.0 * self.uniforms(n) - 1.0)

    def shaped(self, distribution: str, mu: float, sigma: float, n: int) -> np.ndarray:
        return shaped_sample(self, distribution, mu, sigma, n)

    def bounded_ints(self, n: int, bound: int) -> np.ndarray:
        if bound <= 0:
            raise ValueError("bound must be positive")
        out = np.empty(n, dtype=np.int64)
        if bound == 1:
            out[:] = 0
            # each entry still receives (and expends) its own seed
            for _ in range(n):
                self._entry_stream()
            return out
        threshold = (1 << 64) % bound
        for i in range(n):
            stream = self._entry_stream()
            while True:
                word = stream.next_word()
                if word >= threshold:
                    out[i] = word % bound
                    break
        return out


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
