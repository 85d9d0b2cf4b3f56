import json
import re
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnoise import pipeline
from tabnoise.errors import BasisFormatError, ConfigError, SeedExhaustedError
from tabnoise.pipeline import (
    KIND_PARAMS,
    NOISE_KINDS,
    AugmentSpec,
    _noise_ops,
    apply,
    apply_with_stats,
    augment,
    fit,
)
from tabnoise.noise import NoiseSpec
from tabnoise.rng import ExternalWordStream, PackedSeeds, Pcg64Stream, StreamSampler, mix_seed
from tabnoise.sampling import (
    GeneratorSpec,
    SamplingPlan,
    SeedReport,
    StreamManager,
    compute_seed_report,
    read_seed_file,
    rescale_budget,
)
from tabnoise.schema import typed
from tabnoise.table import DataTable
from tabnoise.trees import builtin_catalog


def test_bulk_seeds_defaults_to_primary():
    plan = SamplingPlan(sampling_type="bulk_seeds")
    assert plan.seeding_type == "primary_seeds"
    assert SamplingPlan(sampling_type="default").seeding_type == "supplemental_seeds"
    assert SamplingPlan(sampling_type="sampling_seed").seeding_type == "supplemental_seeds"


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        SamplingPlan(entropy_seeds=[-1])


def test_unknown_sampling_type_rejected():
    with pytest.raises(ConfigError):
        SamplingPlan(sampling_type="per_molecule")


def test_bulk_determinism_same_seed_list():
    def run():
        plan = SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=list(range(100)))
        manager = StreamManager(plan)
        sampler = manager.sampler("t", "noise")
        return sampler.normals(40, 0.0, 1.0)

    assert np.array_equal(run(), run())


def test_bulk_seed_flip_changes_output():
    def run(seeds):
        plan = SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=seeds)
        manager = StreamManager(plan)
        return manager.sampler("t", "noise").normals(40, 0.0, 1.0)

    seeds = list(range(100))
    flipped = list(seeds)
    flipped[3] = 12345
    assert not np.array_equal(run(seeds), run(flipped))


def test_sampling_seed_consumes_one_per_operation():
    plan = SamplingPlan(sampling_type="sampling_seed", entropy_seeds=list(range(50)),
                        os_material=b"fixed")
    manager = StreamManager(plan)
    for _ in range(7):
        manager.sampler("t", "noise").uniforms(100)
    assert manager.seeds_consumed == 7
    assert manager.ops_executed == 7


def test_transform_seed_one_per_transform():
    plan = SamplingPlan(sampling_type="transform_seed", entropy_seeds=list(range(50)),
                        os_material=b"fixed")
    manager = StreamManager(plan)
    manager.register(["a#1", "b#1", "c#2"])
    assert manager.seeds_consumed == 3
    # operations reuse the registered stream without consuming more seeds
    manager.sampler("a#1", "noise").uniforms(10)
    manager.sampler("b#1", "noise").uniforms(10)
    assert manager.seeds_consumed == 3


def test_register_draws_one_seed_per_key_once():
    plan = SamplingPlan(sampling_type="transform_seed", entropy_seeds=list(range(50)),
                        os_material=b"fixed")
    manager = StreamManager(plan)
    keys = ["a#1", "b#1", "c#2"]
    manager.register(keys)
    manager.register(keys)
    assert manager.seeds_consumed == 3
    # seeds are drawn in the order the keys are given
    want = StreamSampler(Pcg64Stream(*mix_seed(b"fixed", [1]))).uniforms(4)
    assert np.array_equal(manager.sampler("b#1", "mask").uniforms(4), want)
    streams = {key: manager.sampler(key, "mask") for key in keys}
    assert len({id(stream) for stream in streams.values()}) == 3
    for key in keys:
        for op in ("resolve", "calibrate:train", "calibrate:test", "mask", "noise", "flip"):
            assert manager.sampler(key, op) is streams[key]
    assert manager.seeds_consumed == 3


def test_register_draws_nothing_outside_transform_seed():
    for sampling_type in ("default", "bulk_seeds", "sampling_seed"):
        manager = StreamManager(SamplingPlan(sampling_type=sampling_type,
                                             entropy_seeds=list(range(50))))
        manager.register(["a#1", "b#1"])
        assert manager.seeds_consumed == 0


def test_bulk_calibration_runs_on_a_substream_per_phase_and_round():
    bank = list(range(100, 140))
    manager = StreamManager(SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=bank))
    for round_ in range(2):
        for phase in ("train", "test"):
            tag = f"calibration:t#1:{phase}:{round_}".encode()
            want = StreamSampler(Pcg64Stream(*mix_seed(tag, bank))).uniforms(3)
            assert np.array_equal(manager.sampler("t#1", f"calibrate:{phase}").uniforms(3), want)
    assert manager.seeds_consumed == 0 and manager.ops_executed == 4


def test_augment_draws_one_transform_seed_per_noise_step():
    table = DataTable({"num": [float(i) for i in range(40)],
                       "cat": ["a", "b", "c", "d"] * 10})
    config = {"assigncat": {"DPnb": ["num"], "DBod": ["cat"]}}
    basis = fit(table, config, _seed_plan("transform_seed")).basis
    managers = []
    real_init = StreamManager.__init__

    def init(manager, plan):
        real_init(manager, plan)
        managers.append(manager)

    with mock.patch.object(StreamManager, "__init__", init):
        augment(basis, table, AugmentSpec.from_literal("2"), _seed_plan("transform_seed"))
    assert len(basis.noise_step_keys()) == 2
    assert [manager.seeds_consumed for manager in managers] == [2]


def test_default_mode_consumes_no_bank_seeds():
    plan = SamplingPlan(entropy_seeds=[1, 2, 3], os_material=b"fixed")
    manager = StreamManager(plan)
    for _ in range(5):
        manager.sampler("t", "noise").uniforms(10)
    assert manager.seeds_consumed == 0


def test_default_mode_reproducible_with_fixed_os_material():
    def run():
        plan = SamplingPlan(entropy_seeds=[5, 6, 7], os_material=b"pinned")
        manager = StreamManager(plan)
        return [manager.sampler("t", "noise").uniforms(5).tolist() for _ in range(3)]

    assert run() == run()


def test_default_mode_without_seeds_valid():
    plan = SamplingPlan(os_material=b"fixed")
    manager = StreamManager(plan)
    values = manager.sampler("t", "noise").uniforms(10)
    assert len(values) == 10


def test_exhaustion_hard_error_when_extra_off():
    plan = SamplingPlan(sampling_type="sampling_seed", entropy_seeds=[1],
                        extra_seed_generator="off", os_material=b"fixed")
    manager = StreamManager(plan)
    manager.sampler("t", "noise")
    with pytest.raises(SeedExhaustedError):
        manager.sampler("t", "noise")


def test_exhaustion_replenished_by_extra_generator():
    plan = SamplingPlan(sampling_type="sampling_seed", entropy_seeds=[1],
                        extra_seed_generator="PCG64", os_material=b"fixed")
    manager = StreamManager(plan)
    manager.sampler("t", "noise")
    manager.sampler("t", "noise")  # draws a replacement seed
    assert manager.seeds_consumed == 2


def test_primary_seeding_excludes_os_material():
    def run(material):
        plan = SamplingPlan(sampling_type="sampling_seed", seeding_type="primary_seeds",
                            entropy_seeds=[11, 12], os_material=material)
        manager = StreamManager(plan)
        return manager.sampler("t", "noise").uniforms(5).tolist()

    assert run(b"one") == run(b"two")


def test_supplemental_seeding_mixes_os_material():
    def run(material):
        plan = SamplingPlan(sampling_type="sampling_seed", entropy_seeds=[11, 12],
                            os_material=material)
        manager = StreamManager(plan)
        return manager.sampler("t", "noise").uniforms(5).tolist()

    assert run(b"one") != run(b"two")


def test_mersenne_generator_backend():
    plan = SamplingPlan(sampling_generator=GeneratorSpec(kind="mersenne"),
                        os_material=b"fixed")
    manager = StreamManager(plan)
    values = manager.sampler("t", "noise").uniforms(100)
    assert np.all((values >= 0) & (values < 1))


def test_utility_sampler_deterministic_and_non_consuming():
    plan = SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=[1, 2, 3])
    manager = StreamManager(plan)
    a = manager.utility_sampler("shuffle").uniforms(5)
    b = manager.utility_sampler("shuffle").uniforms(5)
    assert np.array_equal(a, b)
    assert manager.seeds_consumed == 0


# -- seed report arithmetic -------------------------------------------------------


def test_rescale_budget_formula():
    assert rescale_budget(300, 100, 500) == 1500


def test_rescale_budget_on_a_0_row_basis_is_0():
    assert rescale_budget(300, 0, 500) == 0


def test_report_zero_plan():
    report = compute_seed_report([], 0, 100, 100)
    assert report.bulk_seeds_total_train == 0
    assert report.sampling_seed_total_test == 0
    assert report.transform_seed_total == 0


def test_transform_seed_total_counts_transforms():
    costs = [("train", 10, False), ("test", 10, False)]
    report = compute_seed_report(costs, 3, 10, 10)
    assert report.transform_seed_total == 3


def test_bulk_totals_inflate_stochastic_counts():
    costs = [
        ("train", 100, False),  # mask: exact
        ("train", 3.0, True),  # noise: ceil(3 * 1.15) = 4
        ("test", 100, False),
        ("test", 1.0, True),  # ceil(1.15) = 2
    ]
    report = compute_seed_report(costs, 1, 100, 100, safety_factor=0.15)
    assert report.bulk_seeds_total_train == 104
    assert report.bulk_seeds_total_test == 102
    assert report.sampling_seed_total_train == 2
    assert report.sampling_seed_total_test == 2


def test_calibration_ops_excluded_from_bulk():
    costs = [("train", 0, False)]
    report = compute_seed_report(costs, 1, 10, 10)
    assert report.bulk_seeds_total_train == 0
    assert report.sampling_seed_total_train == 1


def test_report_round_trip():
    report = SeedReport(bulk_seeds_total_train=12, rowcount_basis_train=5,
                        transform_seed_total=2)
    data = json.loads(json.dumps(asdict(report)))
    assert typed(SeedReport, data, "seed_report", BasisFormatError) == report


def _assert_packs(got, seeds):
    """``got`` is a PackedSeeds holding exactly ``seeds``."""
    want = PackedSeeds(seeds).blocks
    assert isinstance(got, PackedSeeds)
    assert got.blocks.dtype == want.dtype and got.blocks.tolist() == want.tolist()


def test_read_seed_file(tmp_path):
    path = tmp_path / "seeds.txt"
    for text in ("1\n22\n\n333\n", "+1\n 22\r\n333"):  # checked whole, then line by line
        path.write_text(text)
        with mock.patch("builtins.open", wraps=open) as opened:
            _assert_packs(read_seed_file(path), [1, 22, 333])
        assert opened.call_count == 1  # the file is read once
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nxyz\n")
    with pytest.raises(ConfigError, match="line 2"):
        read_seed_file(bad)


def _per_line_read_seed_file(path) -> list[int]:
    """The former read_seed_file, kept as the oracle of the vectorized one."""
    seeds = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                seeds.append(int(line))
            except ValueError:
                raise ConfigError(f"{path}: line {lineno} is not an integer seed")
    return seeds


_SEED_LINES = st.one_of(
    st.integers(0, 2**31 - 1).map(str),
    st.integers(0, 10**40).map(str),  # 19 to 40 digits cross int64 and 2**128
    st.integers(10**18, 10**19 + 10**18).map(str),
    # 18 digits always fit int64 and are converted as drawn; 19 and 39 digits are
    # converted at read (39 digits cross 2**128)
    *(st.integers(10**(digits - 1), 10**digits - 1).map(str) for digits in (18, 19, 39)),
    st.integers(0, 999).map(lambda v: f"000{v}"),
    st.sampled_from(["", "0", "9223372036854775807", "9223372036854775808",
                     "18446744073709551616", "+5", " 7 ", "1_000", "\t3", "3\t", "-3",
                     "abc", "1.5", "٣٤", "12 ", "0x10", "½"]),
)


@contextmanager
def _conversions():
    """Record how many seeds each ``np.fromstring`` call converts, asserting that no
    call asks for more seeds than its text holds and that each returns exactly the
    digit runs of its text: past the end it would return uninitialized values, and
    on blank text a 0."""
    real, converted = np.fromstring, []

    def fromstring(text, dtype=float, count=-1, sep=""):
        held = len(re.findall(rb"[0-9]+", text))
        assert count <= held
        got = real(text, dtype=dtype, count=count, sep=sep)
        assert len(got) == (held if count < 0 else count)
        converted.append(len(got))
        return got

    with mock.patch.object(np, "fromstring", fromstring):
        yield converted


def _converted_as_drawn(raw: bytes) -> bool:
    """Whether ``read_seed_file`` reads ``raw`` without converting a seed."""
    return (re.fullmatch(rb"[0-9\r\n]*", raw) is not None
            and raw.count(b"\r") == raw.count(b"\r\n")
            and re.search(rb"[0-9]{19}", raw) is None)


def _check_bank(path, want, k):
    """``read_seed_file(path)`` holds ``want``: its length before any conversion, then
    its first ``k`` seeds, then all of them."""
    with _conversions() as converted:
        bank = read_seed_file(path)
        if _converted_as_drawn(path.read_bytes()):
            assert converted == []
        assert len(bank) == len(want)
        head = bank.head(k)
        assert head.tolist() == PackedSeeds(want[:k]).blocks.tolist()
        assert not head.flags.writeable
        _assert_packs(bank, want)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_SEED_LINES, max_size=12),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12),
       final_end=st.booleans(), k=st.integers(0, 13))
def test_read_seed_file_matches_per_line_loop(tmp_path_factory, lines, ends, final_end, k):
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not final_end:
        text = text[: -len(ends[len(lines) - 1])]
    path = tmp_path_factory.mktemp("seeds") / "seeds.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _per_line_read_seed_file(path)
        PackedSeeds(want)
    except ConfigError as exc:  # a line that is not an integer
        message = str(exc)
    except ValueError as exc:  # an integer that is not a seed: negative, or 2**128 and up
        message = f"{path}: {exc}"
    else:
        _check_bank(path, want, k)
        return
    with pytest.raises(ConfigError) as got:
        read_seed_file(path)
    assert str(got.value) == message


@pytest.mark.parametrize("text, seeds", [
    ("", []), ("\n\n", []), ("\r\n", []), ("5", [5]), ("\n5\n\n6", [5, 6]),
    ("1\r\n2\r\n", [1, 2]), ("1\r2\n", [1, 2]), ("007\n", [7]),
    ("9223372036854775807\n", [2**63 - 1]), ("99999999999999999999\n1\n", [10**20 - 1, 1]),
    (f"{2**128 - 1}\n{2**64}\n", [2**128 - 1, 2**64]), ("12\n34", [12, 34]),
    ("9" * 18 + "\n0\n", [10**18 - 1, 0]),
    pytest.param("1\n2\n" + "\n" * 100 + "3\n", [1, 2, 3], id="blank-stretch"),
])
def test_read_seed_file_edge_cases(tmp_path, text, seeds):
    path = tmp_path / "seeds.txt"
    path.write_bytes(text.encode())
    for k in range(len(seeds) + 2):  # k = 0 and k = len included
        _check_bank(path, seeds, k)


def test_seeds_are_converted_in_steps_as_they_are_drawn(tmp_path):
    path = tmp_path / "seeds.txt"
    seeds = [7**i % 10 ** (1 + i % 18) for i in range(1000)]  # lines of 1 to 18 digits
    path.write_text("\n".join(map(str, seeds)) + "\n\n")
    with _conversions() as converted:
        bank = read_seed_file(path)
        for k in (0, 1, 1, 10, 9, 500, 400, 1000, 2000):
            assert bank.head(k)[:, 0].tolist() == seeds[:k]
        # no seed is converted twice, and all of them are once the bank is hashed
        assert sum(converted) == 1000
        assert mix_seed(b"os", bank) == mix_seed(b"os", seeds)


def test_bulk_apply_converts_about_the_seeds_it_draws(tmp_path):
    rng = np.random.default_rng(5)
    table = DataTable({"x": rng.normal(size=2000).tolist()})
    config = {"assigncat": {"DBnb": ["x"]}, "shuffletrain": False,
              "assignparam": {"DBnb": {"x": {"flip_prob": 0.5, "test_flip_prob": 0.5}}}}
    path = tmp_path / "seeds.txt"
    bank = rng.integers(0, 2**31 - 1, size=100_000)
    path.write_text("\n".join(map(str, bank.tolist())) + "\n")
    basis = fit(table, config, SamplingPlan(sampling_type="bulk_seeds",
                                            entropy_seeds=read_seed_file(path))).basis
    with _conversions() as converted:
        prepared, stats = apply_with_stats(basis, table, "test", SamplingPlan(
            sampling_type="bulk_seeds", entropy_seeds=read_seed_file(path)))
    assert 2000 < stats["seeds_consumed"] <= sum(converted) <= 2 * stats["seeds_consumed"]
    eager = apply(basis, table, "test", SamplingPlan(sampling_type="bulk_seeds",
                                                     entropy_seeds=bank))
    assert [prepared.array(c).tolist() for c in prepared.column_names] == [
        eager.array(c).tolist() for c in eager.column_names]


@pytest.mark.parametrize("text, match", [
    (f"{2**128}\n", r"2\*\*128"), (f"1\n{2**130 + 5}\n", r"2\*\*128"),
    ("-1\n", "nonnegative"), ("7\r\n-1\r\n", "nonnegative"),
])
def test_read_seed_file_rejects_seeds_out_of_range(tmp_path, text, match):
    path = tmp_path / "seeds.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ConfigError, match=match) as got:
        read_seed_file(path)
    assert str(got.value).startswith(f"{path}: ")


def test_seed_of_2_128_rejected_at_plan_time():
    SamplingPlan(entropy_seeds=[0, 2**128 - 1])
    for seeds in ([2**128], [1, 2**130 + 5]):
        with pytest.raises(ConfigError, match=r"2\*\*128"):
            SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=seeds)
    with pytest.raises(ConfigError, match="nonnegative"):
        SamplingPlan(entropy_seeds=[3, "x"])


def test_plan_takes_seeds_as_int():
    # each seed is int(seed), as the per-seed validation took it
    plan = SamplingPlan(entropy_seeds=[5.7, True, "12", np.int64(9)])
    assert plan.entropy_seeds.blocks.tolist() == [[5, 0], [1, 0], [12, 0], [9, 0]]
    assert len(SamplingPlan(entropy_seeds=iter([1, 2])).entropy_seeds) == 2


@pytest.mark.parametrize("sampling_type", ["sampling_seed", "bulk_seeds"])
def test_wide_seeds_keep_their_streams(sampling_type):
    seeds = [2**64 + 5, 2**127 + 3, 2**128 - 1, 17]
    plan = SamplingPlan(sampling_type=sampling_type, entropy_seeds=seeds, os_material=b"w")
    manager = StreamManager(plan)
    os_entropy = b"w"
    if sampling_type == "bulk_seeds":
        os_entropy = b""  # primary seeding by default
        got = manager.sampler("t", "noise").uniforms(4)
        want = [StreamSampler(Pcg64Stream(*mix_seed(os_entropy, [s]))).uniforms(1)[0]
                for s in seeds]
    else:
        got = [manager.sampler("t", "noise").uniforms(1)[0] for _ in seeds]
        want = [StreamSampler(Pcg64Stream(*mix_seed(os_entropy, [s]))).uniforms(1)[0]
                for s in seeds]
    assert list(got) == want


def _per_word_bounded_int(stream, bound):
    if bound <= 1:
        return 0
    threshold = (1 << 64) % bound
    while True:
        word = stream.next_word()
        if word >= threshold:
            return word % bound


def test_default_mode_bank_shuffle_matches_per_word_loop():
    bank = [(i * 7919) % 2**31 for i in range(300)] + [2**100]
    plan = SamplingPlan(entropy_seeds=bank, os_material=b"pinned")
    manager = StreamManager(plan)
    root = Pcg64Stream(*mix_seed(b"pinned" + b"root", []))
    for _ in range(3):
        nonce = root.next_word()
        shuffled = list(bank)
        for i in range(len(shuffled) - 1, 0, -1):
            j = _per_word_bounded_int(root, i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        state, seq = mix_seed(b"pinned" + nonce.to_bytes(8, "little"), shuffled)
        want = StreamSampler(Pcg64Stream(state, seq)).uniforms(6)
        assert np.array_equal(manager.sampler("t", "noise").uniforms(6), want)


class _ScriptedWords:
    """PCG words with chosen positions replaced by 0, which any bound that is
    not a power of 2 rejects."""

    def __init__(self, zero_at):
        self.inner = Pcg64Stream(*mix_seed(b"split", [2]))
        self.zero_at = set(zero_at)
        self.calls = 0

    def next_word(self):
        self.calls += 1
        word = self.inner.next_word()
        return 0 if self.calls - 1 in self.zero_at else word


@pytest.mark.parametrize("zero_at", [(), (2,)])
def test_validation_split_matches_per_word_loop(zero_at):
    n = 30
    table = DataTable({"num": [float(i) for i in range(n)],
                       "label": [float(i % 2) for i in range(n)]})
    for ratio, k in ((0.3, 9), (29 / 30, n - 1)):
        source = _ScriptedWords(zero_at)
        plan = SamplingPlan(sampling_generator=GeneratorSpec(kind="external", external=source),
                            os_material=b"fixed")
        res = fit(table, {"labels_column": "label", "validation_ratio": ratio,
                          "shuffletrain": False}, plan)
        oracle = ExternalWordStream(_ScriptedWords(zero_at))  # the split is the first draw
        pool = list(range(n))
        for i in range(k):
            j = i + _per_word_bounded_int(oracle, n - i)
            pool[i], pool[j] = pool[j], pool[i]
        assert res.basis.validation_row_index == sorted(pool[:k])


# -- the seed report against what the executor checks out --------------------------


def _seed_plan(sampling_type, **kwargs):
    return SamplingPlan(sampling_type=sampling_type, seeding_type="primary_seeds",
                        entropy_seeds=list(range(500)), **kwargs)


_UNIFORM = {"distribution": "uniform", "low": 0.2, "high": 0.6}


@pytest.mark.parametrize("raw, resolved, train, test", [
    ({"flip_prob": [0.1, 0.9]}, {"flip_prob": 0.1}, 0.9, 0.9),
    ({"flip_prob": _UNIFORM}, {"flip_prob": 0.3}, 0.6, 0.6),
    ({"flip_prob": 0.5, "test_flip_prob": [None, 0.2]}, {"flip_prob": 0.5, "test_flip_prob": 0.2},
     0.5, 0.5),
    ({"flip_prob": [0.1, 0.3], "test_flip_prob": [None, 0.7]}, {"flip_prob": 0.1}, 0.3, 0.7),
    ({"flip_prob": [0.1, 0.3], "test_flip_prob": 0.05},
     {"flip_prob": 0.1, "test_flip_prob": 0.05}, 0.3, 0.05),
])
@pytest.mark.parametrize("retain_basis", [False, True])
def test_reresolved_flip_prob_is_budgeted_at_its_top(raw, resolved, train, test, retain_basis):
    payload = {"params_raw": {**raw, "retain_basis": retain_basis},
               "resolved": {**resolved, "testnoise": True, "retain_basis": retain_basis},
               "randomized_fields": [name for name, value in raw.items()
                                     if isinstance(value, (list, dict))]}
    fitted = NoiseSpec(**payload["resolved"])
    for mode, top, fitting in (("train", train, False), ("test", test, False),
                               ("train", None, True)):
        if retain_basis or fitting:  # the value fit resolved is the one drawn at
            top = fitted.phase_params(mode)["flip_prob"]
        assert _noise_ops("noise_numeric", payload, mode, fitting, 100)[-1] == (
            "noise", 100 * top, True)


def test_direct_flip_on_ordinal_encoding_budgets_its_weighted_flip():
    # direct_flip skips the second draw only on a boolean encoding; an ordinal
    # one still runs a weighted flip, and the report budgets it
    rng = np.random.default_rng(71)
    cats = ["a", "b", "c"]
    table = DataTable({"cat": [cats[v] for v in rng.integers(0, 3, size=60)]})
    config = {"shuffletrain": False, "assigncat": {"DBod": ["cat"]},
              "assignparam": {"default_assignparam": {"DBod": {
                  "direct_flip": True, "flip_prob": 0.5, "test_flip_prob": 0.5}}}}
    fitted = fit(table, config, _seed_plan("sampling_seed"))
    report = fitted.basis.seed_report
    assert fitted.ops_executed == report.sampling_seed_total_train == 2
    _, stats = apply_with_stats(fitted.basis, table, "test", _seed_plan("sampling_seed"))
    assert stats["ops_executed"] == report.sampling_seed_total_test == 2

    n_new = 500
    budget = rescale_budget(report.bulk_seeds_total_test, report.rowcount_basis_test, n_new)
    for _ in range(20):
        new = DataTable({"cat": [cats[v] for v in rng.integers(0, 3, size=n_new)]})
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=budget)]
        plan = SamplingPlan(sampling_type="bulk_seeds", entropy_seeds=seeds,
                            extra_seed_generator="off")
        apply(fitted.basis, new, "test", plan)  # no SeedExhaustedError


def test_scaled_noise_on_all_missing_column_reports_only_what_runs():
    # an empty training panel skips the mean calibration: mask and noise remain
    table = DataTable({"num": [None] * 30})
    fitted = fit(table, {"shuffletrain": False, "assigncat": {"DBmm": ["num"]}},
                 _seed_plan("sampling_seed"))
    steps = fitted.basis.plan_for("num").steps
    payload = next(step.payload for step in steps if step.kind == "noise_scaled")
    assert payload["mu_adjusted_train"] is None and payload["mu_adjusted_test"] is None
    assert fitted.ops_executed == fitted.basis.seed_report.sampling_seed_total_train == 2


# Data each builtin noise stem takes: numbers, three categories, or two.
_STEM_DATA = {"nb": "num", "mm": "num", "rt": "num", "ne": "num", "se": "num", "sk": "num",
              "od": "cat", "oh": "cat", "10": "cat", "pc": "cat", "bn": "bool"}
_ROWS = 2000
_FLIPS = st.sampled_from([0.0, 0.5, 1.0])


def _maybe_randomized(values):
    return st.one_of(values, st.lists(values, min_size=2, max_size=3))


@st.composite
def _noise_columns(draw, first_stem):
    columns = []
    for index in range(draw(st.integers(1, 2))):
        stem = draw(st.sampled_from(sorted(_STEM_DATA))) if index else first_stem
        root = draw(st.sampled_from(["DP", "DT", "DB"])) + stem
        accepted = KIND_PARAMS[builtin_catalog().resolve_entry(root)[0]]
        params = {"flip_prob": draw(_maybe_randomized(_FLIPS)),
                  "retain_basis": draw(st.booleans())}
        if draw(st.booleans()):
            params["test_flip_prob"] = draw(_maybe_randomized(_FLIPS))
        if "sigma" in accepted:
            params["sigma"] = draw(_maybe_randomized(st.sampled_from([0.02, 0.1])))
        if "direct_flip" in accepted:
            params["direct_flip"] = draw(st.booleans())
            params["swap_noise"] = draw(st.booleans())
            params["weighted"] = draw(_maybe_randomized(st.booleans()))
        empty = _STEM_DATA[stem] == "num" and draw(st.booleans())
        columns.append((f"c{index}", root, params, _STEM_DATA[stem], empty))
    return columns


def _column_cells(kind, empty, rng):
    if empty:
        return [None] * _ROWS
    values = {"num": rng.normal(0, 1, size=_ROWS).tolist(),
              "cat": [["a", "b", "c"][v] for v in rng.integers(0, 3, size=_ROWS)],
              "bool": [["x", "y"][v] for v in rng.integers(0, 2, size=_ROWS)]}[kind]
    for row in rng.integers(0, _ROWS, size=_ROWS // 20).tolist():
        values[row] = None
    return values


class _Checkouts:
    """Records each StreamManager checkout by transform key, the bank entries each drew,
    and the activations of each key's Bernoulli mask."""

    def __init__(self):
        self.names, self.entries, self.activations = {}, {}, {}
        self._key = None
        real_sampler = StreamManager.sampler
        real_blocks = StreamManager.seed_blocks
        real_mask = pipeline.sample_bernoulli_mask

        def sampler(manager, key, op):
            self._record(key, op)
            return real_sampler(manager, key, op)

        def seed_blocks(manager, n):
            self.entries.setdefault(self._key, [0])[-1] += n  # key None: before any checkout
            return real_blocks(manager, n)

        def bernoulli_mask(*args):
            mask = real_mask(*args)  # its sampler, so its key, is checked out first
            self.activations[self._key] = int(mask.sum())
            return mask

        self._patches = [mock.patch.object(StreamManager, "sampler", sampler),
                         mock.patch.object(StreamManager, "seed_blocks", seed_blocks),
                         mock.patch.object(pipeline, "sample_bernoulli_mask", bernoulli_mask)]

    def _record(self, key, name):
        self._key = key
        self.names.setdefault(key, []).append(name)
        self.entries.setdefault(key, []).append(0)

    def __enter__(self):
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


def _declared(basis, mode, fitting):
    """Per transform key, its declared operations: (name, entries, stochastic) each."""
    return {f"{column}#{idx}": _noise_ops(step.kind, step.payload, mode, fitting, _ROWS)
            for column, plan in basis.column_plans.items()
            for idx, step in enumerate(plan.steps) if step.kind in NOISE_KINDS}


def _entries_hold(drawn, entries, stochastic, activations):
    """What the model promises of one operation's bank entries under ``bulk_seeds``: a
    deterministic one draws exactly its entries, and a draw over a mask's activations one
    entry per activation of the mask its key drew before it."""
    return drawn == (activations if stochastic else entries)


@pytest.mark.parametrize("stem", sorted(_STEM_DATA))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), data_seed=st.integers(0, 2**16))
def test_each_transform_checks_out_what_it_declares(stem, data, data_seed):
    columns = data.draw(_noise_columns(stem))
    rng = np.random.default_rng(data_seed)
    table = DataTable({name: _column_cells(kind, empty, rng)
                       for name, _, _, kind, empty in columns})
    config = {"shuffletrain": False, "assigncat": {}, "assignparam": {}}
    for name, root, params, _, _ in columns:
        config["assigncat"].setdefault(root, []).append(name)
        config["assignparam"].setdefault(root, {})[name] = params
    for sampling_type in ("sampling_seed", "transform_seed", "bulk_seeds"):
        plan = partial(_seed_plan, sampling_type, extra_seed_generator="PCG64")
        with _Checkouts() as fitting:
            fitted = fit(table, config, plan())
        runs = [(fitting, fitted.ops_executed, _declared(fitted.basis, "train", True))]
        for mode in ("train", "test"):
            with _Checkouts() as applying:
                _, stats = apply_with_stats(fitted.basis, table, mode, plan())
            runs.append((applying, stats["ops_executed"], _declared(fitted.basis, mode, False)))
        for taken, ops_executed, declared in runs:
            assert ops_executed == sum(len(ops) for ops in declared.values())
            for key, ops in declared.items():
                names = [name for name, _, _ in ops]
                assert taken.names.get(key, []) == names, (sampling_type, key)
                if sampling_type == "bulk_seeds":
                    drawn = taken.entries.get(key, [])
                    assert len(drawn) == len(ops)
                    for got, (_, entries, stochastic) in zip(drawn, ops):
                        assert _entries_hold(got, entries, stochastic, taken.activations.get(key)), (
                            key, drawn, ops)
