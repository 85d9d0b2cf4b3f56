"""Entropy seed integration, stream checkout, and seed budgeting.

Four sampling types control how external entropy seeds are consumed:

- ``default``: one root stream seeded from OS entropy; every sampling
  operation gets a fresh stream that mixes in the common seed bank, shuffled
  by the root stream.
- ``bulk_seeds``: every sampled entry receives its own primary seed from the
  bank; no OS entropy is mixed in.
- ``sampling_seed``: every sampling operation consumes one supplemental seed.
- ``transform_seed``: every noise transform consumes one supplemental seed;
  all of its operations share the resulting stream.

Seeding type ``primary_seeds`` (the default for ``bulk_seeds``) drops OS
entropy entirely, making output a pure function of the seed bank.
``supplemental_seeds`` mixes the bank with OS material.

A :class:`StreamManager` serves every operation through one checkout,
``sampler(transform_key, op)``, and each preparation registers its transform
seeds once, before its first column. The manager counts operations and
consumed seeds so reported budgets can be verified exactly. When the bank
runs dry, replacement seeds come from the extra seed generator; with that
generator off, exhaustion is a hard error.
"""

import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

from .errors import ConfigError, SeedExhaustedError
from .rng import BulkSampler, GeneratorSpec, PackedSeeds, StreamSampler, mix_seed
from .schema import json_fields, typed

SamplingType = Literal["default", "bulk_seeds", "sampling_seed", "transform_seed"]
SeedingType = Literal["supplemental_seeds", "primary_seeds"]
SAMPLING_TYPES = get_args(SamplingType)

MAX_SUGGESTED_SEED = 2**31 - 1
STOCHASTIC_COUNT_SAFETY_FACTOR = 0.15

# Generator names accepted in configs, mapped to generator kinds.
GENERATOR_NAMES = {
    "PCG64": "default_pcg",
    "default_pcg": "default_pcg",
    "MersenneTwister": "mersenne",
    "mersenne": "mersenne",
}


def _generator_spec(key: str, value) -> GeneratorSpec:
    """``value`` as a :class:`GeneratorSpec`: one already, or a name in ``GENERATOR_NAMES``."""
    if isinstance(value, GeneratorSpec):
        return value
    if isinstance(value, str) and value in GENERATOR_NAMES:
        return GeneratorSpec(kind=GENERATOR_NAMES[value])
    raise ConfigError(f"{key}: unknown generator {value!r} "
                      f"(accepted: {', '.join(GENERATOR_NAMES)})")


@dataclass
class SamplingPlan:
    sampling_type: SamplingType = "default"
    seeding_type: SeedingType | None = None
    # any sequence of int-like seeds; held as PackedSeeds once the plan is built
    entropy_seeds: Sequence[int] | PackedSeeds = field(default_factory=list)
    stochastic_count_safety_factor: float = STOCHASTIC_COUNT_SAFETY_FACTOR
    # generators: a GeneratorSpec or a name in GENERATOR_NAMES; "off" or None: no extra one
    sampling_generator: GeneratorSpec | str = field(default_factory=GeneratorSpec)
    extra_seed_generator: GeneratorSpec | str | None = None
    os_material: bytes | None = None  # injectable for reproducible tests

    def __post_init__(self):
        typed(SamplingType, self.sampling_type, "sampling_type", ConfigError)
        if self.seeding_type is None:
            self.seeding_type = (
                "primary_seeds" if self.sampling_type == "bulk_seeds" else "supplemental_seeds"
            )
        typed(SeedingType, self.seeding_type, "seeding_type", ConfigError)
        factor = self.stochastic_count_safety_factor
        if not 0.0 <= typed(float, factor, "stochastic_count_safety_factor", ConfigError) <= 1.0:
            raise ConfigError("stochastic_count_safety_factor: must be in [0, 1]")
        self.sampling_generator = _generator_spec("sampling_generator", self.sampling_generator)
        if self.extra_seed_generator == "off":
            self.extra_seed_generator = None
        elif self.extra_seed_generator is not None:
            self.extra_seed_generator = _generator_spec("extra_seed_generator",
                                                        self.extra_seed_generator)
        if not isinstance(self.entropy_seeds, PackedSeeds):
            try:
                self.entropy_seeds = PackedSeeds(self.entropy_seeds)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    @property
    def primary(self) -> bool:
        return self.seeding_type == "primary_seeds"


@dataclass
class SeedReport:
    """How many entropy seeds each sampling type needs for one preparation."""

    bulk_seeds_total_train: int = 0
    bulk_seeds_total_test: int = 0
    rowcount_basis_train: int = 0
    rowcount_basis_test: int = 0
    sampling_seed_total_train: int = 0
    sampling_seed_total_test: int = 0
    transform_seed_total: int = 0
    stochastic_count_safety_factor: float = STOCHASTIC_COUNT_SAFETY_FACTOR


def rescale_budget(total: int, rowcount_basis: int, rowcount_new: int) -> int:
    """Proportional budget rescaling: total * new_rows / basis_rows."""
    if rowcount_basis <= 0:
        return 0
    return math.ceil(total * rowcount_new / rowcount_basis)


def compute_seed_report(
    ops: Sequence[tuple],
    transform_count: int,
    rowcount_train: int,
    rowcount_test: int,
    safety_factor: float = STOCHASTIC_COUNT_SAFETY_FACTOR,
) -> SeedReport:
    """Budgets for a plan's sampling operations, each ``(phase, entries, stochastic)``.

    Every operation takes one seed of its phase under ``sampling_seed``;
    fit-time operations are in the train phase. Under ``bulk_seeds`` an
    operation takes its entries at the basis rowcount, inflated by the safety
    factor when ``stochastic`` (the count varies run to run).
    """
    report = SeedReport(
        rowcount_basis_train=rowcount_train,
        rowcount_basis_test=rowcount_test,
        transform_seed_total=transform_count,
        stochastic_count_safety_factor=safety_factor,
    )
    for phase, entries, stochastic in ops:
        bulk = math.ceil(entries * (1.0 + safety_factor) if stochastic else entries)
        if phase == "train":
            report.sampling_seed_total_train += 1
            report.bulk_seeds_total_train += bulk
        else:
            report.sampling_seed_total_test += 1
            report.bulk_seeds_total_test += bulk
    return report


class StreamManager:
    """Serves samplers for sampling operations under one plan.

    One manager backs one preparation call. Checkout order is the canonical
    operation order (callers iterate columns lexicographically and operations
    within a transform in fixed order), so seed assignment never depends on
    scheduling.
    """

    def __init__(self, plan: SamplingPlan):
        self.plan = plan
        if plan.primary:
            self._os_material = b""
        else:
            self._os_material = plan.os_material if plan.os_material is not None else os.urandom(32)
        self._bank: PackedSeeds = plan.entropy_seeds
        self._bank_pos = 0
        self._root = None
        self._transform_streams: dict[str, StreamSampler] = {}
        self._calibration_counts: dict[str, int] = {}
        self.ops_executed = 0
        self.seeds_consumed = 0

    # -- seed bank -----------------------------------------------------------

    @cached_property
    def _extra(self):
        """The extra seed generator's stream, or None when it is off."""
        spec = self.plan.extra_seed_generator
        if spec is not None:
            return spec.stream(*mix_seed(self._os_material + b"extra", self._bank))

    def seed_blocks(self, n: int) -> np.ndarray:
        """The next ``n`` seeds as an ``(n, 2)`` array of 16-byte blocks.

        The bank comes first; once it is dry, words of the extra seed
        generator (masked to ``MAX_SUGGESTED_SEED``) follow.
        """
        blocks = self._bank.head(self._bank_pos + n)[self._bank_pos :]
        self._bank_pos += len(blocks)
        self.seeds_consumed += len(blocks)
        short = n - len(blocks)
        if not short:
            return blocks
        extra = self._extra
        if extra is None:
            raise SeedExhaustedError(
                f"entropy seed bank exhausted after {self.seeds_consumed} seeds "
                "and extra_seed_generator is off"
            )
        fresh = np.zeros((short, 2), dtype=np.uint64)
        fresh[:, 0] = extra.words(short) & np.uint64(MAX_SUGGESTED_SEED)
        self.seeds_consumed += short
        return np.concatenate([blocks, fresh])

    # -- stream construction -------------------------------------------------

    def _sampler(self, tag: bytes, seeds) -> StreamSampler:
        """A sampling-generator stream seeded from OS material, ``tag`` and ``seeds``."""
        return StreamSampler(self.plan.sampling_generator.stream(
            *mix_seed(self._os_material + tag, seeds)))

    def register(self, keys: Iterable[str]) -> None:
        """Under ``transform_seed``, draw one seed for each key not yet registered, in order.

        A preparation registers its noise transforms before any operation runs,
        so the seeds drawn do not depend on which phases fire; a transform's
        checkouts all return the stream its seed started.
        """
        if self.plan.sampling_type == "transform_seed":
            for key in keys:
                if key not in self._transform_streams:
                    self._transform_streams[key] = self._sampler(
                        b"", PackedSeeds._rows(self.seed_blocks(1)))

    def sampler(self, transform_key: str, op: str):
        """The sampler for the transform's operation ``op``, as ``_noise_ops`` names it.

        Under ``bulk_seeds`` a ``calibrate:<phase>`` operation draws no bank
        entries: it runs on a substream keyed by transform, phase and round,
        so equivalent transforms calibrate alike whichever phases fire.
        """
        self.ops_executed += 1
        mode = self.plan.sampling_type
        if mode == "bulk_seeds":
            if op.startswith("calibrate:"):
                counter_key = f"{transform_key}:{op.partition(':')[2]}"
                count = self._calibration_counts.get(counter_key, 0)
                self._calibration_counts[counter_key] = count + 1
                return self._sampler(f"calibration:{counter_key}:{count}".encode(), self._bank)
            return BulkSampler(self.seed_blocks, self._os_material, self.plan.sampling_generator)
        if mode == "sampling_seed":
            return self._sampler(b"", PackedSeeds._rows(self.seed_blocks(1)))
        if mode == "transform_seed":
            return self._transform_streams[transform_key]  # drawn by register
        # default: shuffle the common bank, mix with a per-call nonce
        if self._root is None:
            self._root = self._sampler(b"root", [])
        nonce = self._root.stream.next_word()
        shuffled = PackedSeeds._rows(self._bank.blocks[self._root.shuffled(len(self._bank))])
        return self._sampler(nonce.to_bytes(8, "little"), shuffled)

    def utility_sampler(self, tag: str) -> StreamSampler:
        """Non-bank stream for plumbing draws (row shuffles, validation splits)."""
        return self._sampler(b"utility:" + tag.encode(), self._bank)


def read_seed_file(path) -> PackedSeeds:
    """Newline-delimited decimal integers, packed; blank lines are skipped.

    The file is read once. Plain digit lines of at most 18 digits are checked
    whole and converted as their seeds are drawn (see :meth:`PackedSeeds.from_text`).
    Any other file goes line by line, which accepts whatever ``int()`` accepts
    on a stripped line and names the first line that is not a seed. A seed that
    is negative or at least ``2**128``, or a file that is not UTF-8, raises
    ``ConfigError`` too. Every line is checked before this returns.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    packed = PackedSeeds.from_text(data)
    if packed is not None:
        return packed
    seeds = []
    try:
        # decoded and split into lines as a text-mode open() of the file would be
        for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), "utf-8"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                seeds.append(int(line))
            except ValueError:
                raise ConfigError(f"{path}: line {lineno} is not an integer seed")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return PackedSeeds(seeds)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_seed_report(report: SeedReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=json_fields)
        handle.write("\n")
