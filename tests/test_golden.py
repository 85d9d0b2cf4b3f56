"""Byte-level goldens: every CLI output file pinned by SHA-256.

Each config runs ``fit --test``, ``transform`` (test and train modes) and
``augment --count 2`` through ``tabnoise.cli.main`` on a ~40-row table under
``primary_seeds``, so every output is a pure function of the inputs. Between
them the configs cover every builtin noise stem across the DP/DT/DB
prefixes, ``bsor`` through ``transformdict``, a protected feature on the
numeric and the flip path, randomized ``flip_prob`` with ``retain_basis``
true and false, ``direct_flip``, ``swap_noise``, ``orig_headers``, all four
sampling types and the mersenne generator. ``bulk_seeds_dry`` gives every
entry a mersenne stream from a 50-seed bank that runs dry inside an
operation, so the rest of each run's seeds come from the PCG64 extra seed
generator, with the training rows shuffled. ``noise_augment_validation``
has ``fit`` write its training duplicates from the rows left after the
validation split. ``categoric_codecs`` runs flip noise at probability 0.5
after every categoric encoding: a passthrough vocabulary on a numeric
column with blank cells and on a text column with a protected feature,
ordinal on a numeric column with blanks and a protected feature, binarized
on text with blanks, onehot with ``swap_noise`` and boolean with
``direct_flip``. ``noise_above_encoders`` puts encoders and missing markers
below noise steps, through ``transformdict`` children and friends, and runs
``augment --count 3``: a step below a noise step sees each copy's noise, so
its output is never shared between copies. ``equal_cells`` runs on its own
table, whose text column ``t`` holds equal numbers in several spellings
(``-0``, ``0``, ``0.0``, ``1``, ``1.0``) beside blanks and two text levels: it
feeds a zscore, a minmax, an ordinal and a passthrough root, the last two with
flip noise, and is the protected feature of a numeric and a flip step. Which
zero the vocabulary keeps is the first in row order of the training rows, and
``basis.json`` writes it. A digest change means a change in output bytes: a
bug, or a format change that needs a new basis version.
"""

import hashlib
import json

import pytest

from tabnoise.cli import main

N_TRAIN, N_TEST = 40, 24

CONFIGS = {
    "sampling_seed": {
        "labels_column": "label",
        "validation_ratio": 0.1,
        "powertransform": "DB1",
        "assigncat": {"DPnb": ["n1"], "DBmm": ["n2"], "DTbn": ["b1"], "DBod": ["c1"],
                      "DP10": ["c2"], "DToh": ["c3"]},
        "assignparam": {
            "DBod": {"c1": {"flip_prob": [0.2, 0.4], "test_flip_prob": 0.3,
                            "retain_basis": True, "protected_feature": "b1"}},
            "DPnb": {"n1": {"flip_prob": 0.5}},
        },
        "sampling_dict": {"sampling_type": "sampling_seed", "seeding_type": "primary_seeds"},
    },
    "transform_seed": {
        "labels_column": "label",
        "validation_ratio": 0.1,
        "assigncat": {"DTnb": ["n1"], "DPrt": ["n3"], "DBne": ["n4"], "DPpc": ["c1"],
                      "DBse": ["c2"], "DTsk": ["n2"], "DBbn": ["b1"], "DBoh": ["c3"]},
        "assignparam": {
            "DTnb": {"n1": {"flip_prob": [0.2, 0.5, 0.7], "retain_basis": False}},
            "DBbn": {"b1": {"direct_flip": True, "flip_prob": 0.4, "test_flip_prob": 0.4}},
            "DBoh": {"c3": {"swap_noise": True, "flip_prob": 0.4, "test_flip_prob": 0.4}},
            "DBse": {"c2": {"flip_prob": 0.4, "test_flip_prob": 0.4}},
            "DTsk": {"n2": {"test_flip_prob": 0.4, "mask_value": -1.0}},
        },
        "sampling_dict": {"sampling_type": "transform_seed", "seeding_type": "primary_seeds"},
    },
    "bulk_seeds": {
        "labels_column": "label",
        "shuffletrain": False,
        "transformdict": {"nmbs": {"parents": ["nmbr"], "cousins": ["bsor"]}},
        "assigncat": {"DBnb": ["n1"], "DTmm": ["n2"], "nmbs": ["n3"], "DBpc": ["c1"],
                      "DPbn": ["b1"], "DBoh": ["c3"]},
        "assignparam": {
            "DBnb": {"n1": {"flip_prob": 0.3, "test_flip_prob": 0.3, "protected_feature": "c2"}},
            "bsor": {"n3": {"bincount": 5}},
        },
        "sampling_dict": {"sampling_type": "bulk_seeds", "seeding_type": "primary_seeds"},
    },
    "bulk_seeds_dry": {
        "labels_column": "label",
        "validation_ratio": 0.2,
        "shuffletrain": True,
        "assigncat": {"DBnb": ["n1"], "DBmm": ["n2"], "DBse": ["n3"], "DBod": ["c1"],
                      "DBbn": ["b1"], "DBoh": ["c3"]},
        "assignparam": {
            "DBnb": {"n1": {"flip_prob": 0.5, "test_flip_prob": 0.5,
                            "noisedistribution": "laplace",
                            "test_noisedistribution": "abs_normal"}},
            "DBod": {"c1": {"flip_prob": [0.2, 0.4], "test_flip_prob": 0.3,
                            "retain_basis": False}},
            "DBoh": {"c3": {"swap_noise": True, "flip_prob": 0.4, "test_flip_prob": 0.4}},
        },
        "sampling_dict": {"sampling_type": "bulk_seeds", "seeding_type": "primary_seeds",
                          "sampling_generator": "mersenne", "extra_seed_generator": "PCG64"},
    },
    "noise_augment_validation": {
        "labels_column": "label",
        "validation_ratio": 0.25,
        "noise_augment": 2,
        "assigncat": {"DPnb": ["n1"], "DPmm": ["n2"], "DPod": ["c1"], "DPbn": ["b1"]},
        "assignparam": {"DPnb": {"n1": {"flip_prob": 0.5}}, "DPod": {"c1": {"flip_prob": 0.4}}},
        "sampling_dict": {"sampling_type": "sampling_seed", "seeding_type": "primary_seeds"},
    },
    "default_mersenne": {
        "orig_headers": True,
        "assigncat": {"DBne": ["n1"], "DPsk": ["n2"], "DTse": ["n3"], "excl": ["n4", "label"],
                      "DBpc": ["c1", "c2"], "DTpc": ["b1", "c3"]},
        "assignparam": {"DBne": {"n1": {"flip_prob": 0.3, "test_flip_prob": 0.3}},
                        "DPsk": {"n2": {"flip_prob": 0.3}}},
        "sampling_dict": {"sampling_type": "default", "seeding_type": "primary_seeds",
                          "sampling_generator": "mersenne"},
    },
    "categoric_codecs": {
        "labels_column": "label",
        "assigncat": {"DBpc": ["n1"], "DBod": ["n3"], "DB10": ["c1"], "DBoh": ["c2"],
                      "DBbn": ["b1"], "DTpc": ["c3"]},
        "assignparam": {
            "DBpc": {"n1": {"flip_prob": 0.5, "test_flip_prob": 0.5}},
            "DBod": {"n3": {"flip_prob": 0.5, "test_flip_prob": 0.5, "protected_feature": "b1"}},
            "DB10": {"c1": {"flip_prob": 0.5, "test_flip_prob": 0.5}},
            "DBoh": {"c2": {"flip_prob": 0.5, "test_flip_prob": 0.5, "swap_noise": True}},
            "DBbn": {"b1": {"flip_prob": 0.5, "test_flip_prob": 0.5, "direct_flip": True}},
            "DTpc": {"c3": {"flip_prob": 0.5, "test_flip_prob": 0.5, "protected_feature": "c2"}},
        },
        "sampling_dict": {"sampling_type": "sampling_seed", "seeding_type": "primary_seeds"},
    },
    "noise_above_encoders": {
        "labels_column": "label",
        "validation_ratio": 0.1,
        "processdict": {"nzenc": {"functionpointer": "nmbr"}, "nzb": {"functionpointer": "DBnb"},
                        "flenc": {"functionpointer": "ord3"}, "flz": {"functionpointer": "DBod"}},
        "transformdict": {
            "nzroot": {"parents": ["nzenc"], "cousins": ["NArw"]},
            "nzenc": {"children": ["nzb"]},
            "nzb": {"children": ["bsor"], "friends": ["NArw"]},
            "flroot": {"parents": ["flenc"]},
            "flenc": {"children": ["flz"]},
            "flz": {"children": ["onht"]},
        },
        "assigncat": {"nzroot": ["n1", "n3"], "flroot": ["c1"], "DPnb": ["n2"], "DPod": ["c2"]},
        "assignparam": {"nzb": {"n1": {"flip_prob": 0.5, "test_flip_prob": 0.5},
                                "n3": {"flip_prob": 0.5, "test_flip_prob": 0.5}},
                        "flz": {"c1": {"flip_prob": 0.5, "test_flip_prob": 0.5}}},
        "sampling_dict": {"sampling_type": "sampling_seed", "seeding_type": "primary_seeds"},
    },
    "equal_cells": {
        "labels_column": "label",
        "validation_ratio": 0.2,
        "shuffletrain": True,
        "transformdict": {"eqroot": {"parents": ["nmbr"], "siblings": ["mnmx", "DBode", "DBpce"]}},
        "assigncat": {"eqroot": ["t"], "DBnb": ["n"], "DBod": ["c"]},
        "assignparam": {
            "DBod": {"t": {"flip_prob": 0.5, "test_flip_prob": 0.5},
                     "c": {"flip_prob": 0.5, "test_flip_prob": 0.5, "protected_feature": "t"}},
            "DBpc": {"t": {"flip_prob": 0.5, "test_flip_prob": 0.5}},
            "DBnb": {"n": {"flip_prob": 0.5, "test_flip_prob": 0.5, "protected_feature": "t"}},
        },
        "sampling_dict": {"sampling_type": "sampling_seed", "seeding_type": "primary_seeds"},
    },
}

BANK_SIZES = {"categoric_codecs": 400, "sampling_seed": 400, "transform_seed": 64,
              "bulk_seeds": 4000, "bulk_seeds_dry": 50, "noise_augment_validation": 400,
              "default_mersenne": 16, "noise_above_encoders": 400, "equal_cells": 400}
# augment's duplicate count, where it is not 2
AUGMENT_COUNTS = {"noise_above_encoders": 3}

GOLDEN = {
    "categoric_codecs": {
        "aug.csv": "d1b1c67ae526d191f9b1e2bd983c717a6e8a4e069cf8c7021196bb317320f9f7",
        "basis.json": "436a661141d81596eda41ac8693109abb643b5972a09a98c948d17e2e35bded6",
        "seed_report.json": "d036352682f9e3484a844df743fc675290c5443a510695ca68cf8d97bc8becd9",
        "test.out.csv": "326ac3d7be8f9ea7d583d50b4c15ad58246d9dde8603f10d34e6a8226af42419",
        "tr_test.csv": "7ed3d86513b6aa2b29873b5f39b648bf00996cea655297db2a1c00f6ab5de591",
        "tr_train.csv": "15ed92923cdae483924b736e53f0dca5fffb0c55e698b3ceba8e5fce8c78f877",
        "train.out.csv": "2c056f1ccdbc985189191eba0e0e510a9fa3a89b0389a59635dd0ec5f3cdfbae",
    },
    "bulk_seeds_dry": {
        "aug.csv": "7a58eff58562ca4950ae308c335afee7e87e33b2361162981ce3028c4a938f53",
        "basis.json": "38f603d158152ec61b090e4479bd3171f4dedfbb551cf9dcb06649c9e9d608fb",
        "seed_report.json": "edf1b69ca9a0e8d84c673902e77140ffb5a5e18da237f42a5217c597991b0ada",
        "test.out.csv": "52e8d54d7108bde2c8ed3f4134dc7fae6a28a02cf0772c45347d3632f9d90fd3",
        "tr_test.csv": "c696ef1a33d877000ab6ebf29e3c289a8560cc563ebb2f7ffe99e6f91efb5040",
        "tr_train.csv": "9315c62b8ef98eba9c8890bc32d6f0badd0772a8d5cfae5b5972659786e7a1d0",
        "train.out.csv": "22728571293e4ad4f38deb179b62b1c81adc5a1a7cda76df3bc2fea2d7bf15b9",
        "val.out.csv": "2a25bc540e577fcc4b8366a291c677a8486d047ee4b043e636c29b77fabd1e3c",
    },
    "bulk_seeds": {
        "aug.csv": "8414cc75d2f3a49c480895a40cbd264454479ac02f1ce553949fc86a959de90e",
        "basis.json": "d1e3c0a66b203e7d30ddb27f29754f27bf496f432c809bdf517696b209975bc1",
        "seed_report.json": "b96ed2108fe47a45847a815d8ccacf5e14266a1424a47ac3c6ccdc19fb006f2b",
        "test.out.csv": "11596be19756111b162d46c69c65674a83729cffd9723d92ebcff68eacb77d8c",
        "tr_test.csv": "0ac8008ec74429c9b5a177a16a3b211c44662e605a017102614530aef9df1c97",
        "tr_train.csv": "5fc647df027ab2e77a5b5123e2c713f059927ad282004866088cc50579746897",
        "train.out.csv": "5fc647df027ab2e77a5b5123e2c713f059927ad282004866088cc50579746897",
    },
    "default_mersenne": {
        "aug.csv": "4d4efadc97890ae9cdce7748463f1d61c0cd26c264792901ee501366509b3b86",
        "basis.json": "ee8e5ebb36218038071d3a5c6fe9d241c59a7e5ed175617c73dfdbd4e99145f8",
        "seed_report.json": "374dc612ab0e4b4cfa77d7da8ebde71cc84c4b374f3493ca13326a534c28cc68",
        "test.out.csv": "329d3be87431cdce8777e55342d58d9956c84b2515cb2f6b200b79de16b968b6",
        "tr_test.csv": "fa4b6728772fcaa8e64e6b31245df82cfac00375e5de8f4add8685c9ebf4e36f",
        "tr_train.csv": "a40a716ba3a4017d55757ce3cafe146ab55392617d361bce0b6e35f7bfb440dd",
        "train.out.csv": "08fa39b47648055009141a4733a8cb1db8e78294b26e776e508cb28bb3fedb7b",
    },
    "equal_cells": {
        "aug.csv": "a5b00d0d078447e90e05a30939224ec6784dec6116c5c65dc05da6e128b8911c",
        "basis.json": "50161b1bf5537c224e8d2ec5061964d01e637fc4bb85f94f491b3099262dcb2f",
        "seed_report.json": "6f86029a92fbc5c12a470687310c1373baa568c207cb0eae37349001b9599edd",
        "test.out.csv": "26f123dd12c57774ca2a0df65f74a4fb6ea667f8ac949126d3ba209b1854af0f",
        "tr_test.csv": "4e0536dd0530e69847a0015d0283cc1c0a93b95d372b2865598fb7cd1fb0374d",
        "tr_train.csv": "0bf86731593ea94fc648fcb7bdae5ba5387e70807cf027810c2ea09c050e9c59",
        "train.out.csv": "849f13a5af71bd679d5774321894f7778394a864e885cb1b0b8617e065ddb01c",
        "val.out.csv": "3dd53952cdcdcf85177aaf12d05cdc459b5a483fbc085e337be8bde51c19bf76",
    },
    "noise_above_encoders": {
        "aug.csv": "ad86715028a55ff63be62a5cc629255d2e1104575a00734c338ce58e25350cbf",
        "basis.json": "f9b2ebcc1d1ee634ec8e15e599ff53a1ccdab18d5381bdded9c89dbb718cb56e",
        "seed_report.json": "e401aa17830d847c7752aa5d99cd0770cd3a35f01a3243cdfaa716f44b4f7c60",
        "test.out.csv": "c2f93e66d91486957f54e05be063d2be8e797ace9854a77b0f9dcb4e595a745b",
        "tr_test.csv": "abc41230858fa1a77203b83f6a701f60f67a6fd74bea566614b16bc3fe0c6a0a",
        "tr_train.csv": "11467eb8dee9fd0006ae556368aa83f0a08cb24a6350fca5dfe9cf1570314917",
        "train.out.csv": "0d14319b5f63bbc184343e2dea9a8ba630122759eaa74c8dd6f4d0b478ba39fc",
        "val.out.csv": "22fa53fec0a071158b775692ec83e53a8793d5d8cd5c9ec310f4a585edcafd6e",
    },
    "noise_augment_validation": {
        "aug.csv": "279d61905b310dbf75d6632cae04693a3c8b7030005c8853db2e4e610304260c",
        "basis.json": "5440f1c7d48757db7cf2caf7440bc592268de09670d082a683e3c5b4e7fc346e",
        "seed_report.json": "6f71e875b4c7d741ad09576d7f5cd876fde3f554e4624d3bd57634686a69789e",
        "test.out.csv": "580aed8c11b3c473a45a04fa64447e7bc7aa19c8e8e9687986ae083f81c912e6",
        "tr_test.csv": "580aed8c11b3c473a45a04fa64447e7bc7aa19c8e8e9687986ae083f81c912e6",
        "tr_train.csv": "c59126a088b27db2088f0467fe4d4589566ac9acd3e2e00dcbb9f93e63d99888",
        "train.out.csv": "175ed098b8eb49d31e89274ab1ba79abb6864d3f987804742655b74f74a491c5",
        "val.out.csv": "3f73f2f78e66098837c56e2664137f04d141c5fe9a04b197e4cecef7bd953c82",
    },
    "sampling_seed": {
        "aug.csv": "e7359e103e0961e040145cad801b0a14bbb6f588597f3c95afb7617da974f1a8",
        "basis.json": "1ac92299627fd5208a6e185a3e40a451d6c7e9c1bde67c7851966c6500fbe9d4",
        "seed_report.json": "52f541aed7fa0879c1f104789c2876ddc7f66c5ed2542978b53091470fa92997",
        "test.out.csv": "9233f0710fa85ecaa2a9510db8564ddc60bed892321ef1065269fc6b578ea775",
        "tr_test.csv": "c696cc70495b1f22b1ae554c39c77f71b348aaf23953fe295d8a6dfc624530c1",
        "tr_train.csv": "6af4b688c8413a1afd2a14d73b076c3aa2792915ef4346f3b7127d7ffd506789",
        "train.out.csv": "4a085bd7ead867dc137e90d265865f236b70785782bb5eb7443729f5d77fc289",
        "val.out.csv": "492883df67196fdb0a44214f151098732d99ac9805329a5aca61bc31c981727c",
    },
    "transform_seed": {
        "aug.csv": "ff97aedaaac258ffb8a1971e809ba6fdf62e47aa70272a94b84202cc428e8aa0",
        "basis.json": "90b1543b3ced20c1993d765679c5a084533f524544ef1f7edc6a6c707f2f0400",
        "seed_report.json": "6eee9413c7a75d2acc2d34f4837b6c3dfec5b87b4b7cfb6cce3eee9e6bc47138",
        "test.out.csv": "1baaad3b83fcb019746137fbedd434a93999ccfc80fb1299d2e906dbc7f0fc6c",
        "tr_test.csv": "f6f408eccace93064e22a3deac8edc338d7cb46983a1fbd2e8d6b4963af5b035",
        "tr_train.csv": "7790479d2a4922b6ab87942804101dddc5504f7bd383007801b89fa46edd3c38",
        "train.out.csv": "62baa128cdf151411ca5bfbe0570995b2352cc1a7ae1530122245ea58b7205ba",
        "val.out.csv": "7d4d8b5a78231446f805c794710638ede84a68432257bd6fb7633bf30fcb9571",
    },
}


def _csv(n_rows: int, offset: int) -> str:
    lines = ["n1,n2,n3,n4,b1,c1,c2,c3,label"]
    for r in range(offset, offset + n_rows):
        n1 = "" if r % 11 == 3 else f"{(r * 37 % 23) * 0.75 - 4:.2f}"
        n2 = f"{(r * 13 % 17) * 1.5:.1f}"
        n3 = "" if r % 9 == 5 else f"{(r * 7 % 19) / 3:.3f}"
        n4 = f"{(r * 29 % 31) - 15}"
        b1 = "yes" if r * 5 % 7 < 3 else "no"
        c1 = "" if r % 13 == 7 else "abcde"[r * 3 % 5]
        c2 = ("red", "green", "blue")[r * 2 % 3]
        c3 = ("w", "x", "y", "z")[(r * r) % 4]
        lines.append(f"{n1},{n2},{n3},{n4},{b1},{c1},{c2},{c3},{r % 2}")
    return "\n".join(lines) + "\n"


# equal numbers in several spellings, blanks and two text levels; the "0" of row 1 is held
# out for validation, so the training rows see "-0" first
_EQUAL_CELLS = ("lo", "0", "-0", "1", "", "0.0", "hi", "1.0", "-0", "lo", "0")


def _equal_cells_csv(n_rows: int, offset: int) -> str:
    lines = ["t,n,c,label"]
    for r in range(offset, offset + n_rows):
        t = _EQUAL_CELLS[r % len(_EQUAL_CELLS)]
        lines.append(f"{t},{(r * 37 % 23) * 0.75 - 4:.2f},{'abc'[r * 2 % 3]},{r % 2}")
    return "\n".join(lines) + "\n"


# the table each config runs on, where it is not _csv's
TABLES = {"equal_cells": _equal_cells_csv}


def _run_config(tmp_path, name: str) -> dict:
    table = TABLES.get(name, _csv)
    (tmp_path / "train.csv").write_text(table(N_TRAIN, 0))
    (tmp_path / "test.csv").write_text(table(N_TEST, 1000))
    (tmp_path / "seeds.txt").write_text(
        "".join(f"{(i * 2654435761) % 2**31}\n" for i in range(BANK_SIZES[name])))
    (tmp_path / "config.json").write_text(json.dumps(CONFIGS[name]))
    common = ["--config", str(tmp_path / "config.json"),
              "--entropy-seeds", str(tmp_path / "seeds.txt")]
    out = tmp_path / "out"
    basis = str(out / "basis.json")
    commands = [
        ["fit", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
         "--out-dir", str(out), *common],
        ["transform", basis, str(tmp_path / "test.csv"), "--out", str(out / "tr_test.csv"),
         "--traindata", "test", *common],
        ["transform", basis, str(tmp_path / "train.csv"), "--out", str(out / "tr_train.csv"),
         "--traindata", "train", *common],
        ["augment", basis, str(tmp_path / "train.csv"),
         "--count", str(AUGMENT_COUNTS.get(name, 2)), "--out", str(out / "aug.csv"), *common],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(tmp_path, name):
    assert _run_config(tmp_path, name) == GOLDEN[name]
