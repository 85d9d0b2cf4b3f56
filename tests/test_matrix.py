"""A byte matrix over every builtin root and every encoder-then-noise composition.

The goldens pin a few rich configs; this pins many small ones, one digest per
case in ``matrix_digests.json``. Two halves, each under ``primary_seeds`` (any
other seeding mixes in ``os.urandom``):

- composition: each non-noise builtin root as an encoder, through
  ``processdict``/``transformdict``, with each builtin noise root as its
  child, on a 40-row categoric column and, as its own case, a 40-row numeric
  column, at ``flip_prob`` 0.7;
- root: every builtin root under each sampling type, on a 60-row table of a
  numeric, a categoric and a two-valued column. A boolean root takes the
  two-valued column alone; every other root takes all three.

Each case fits, saves the basis, loads it again, and prepares the later rows
in test mode, the training rows in train mode and one ``augment``; its digest
covers ``basis.json`` and, for the fitted training rows and each preparation,
the column names, the row identifiers and every cell's exact ``repr``. A
case that raises is pinned by the exception's type alone, so a clearer message
does not trip it. ``pin_matrix.py`` rewrites the pins and lists the cases whose
digest changed.
"""

import hashlib
import json
import tempfile
import warnings
from pathlib import Path

from tabnoise.pipeline import AugmentSpec, apply, augment, fit, load_basis, save_basis
from tabnoise.sampling import SAMPLING_TYPES, SamplingPlan
from tabnoise.table import DataTable
from tabnoise.trees import ROOT_PREFIX_POLICY, _ENCODER_ROOTS, _NOISE_STEMS

PINS = Path(__file__).with_name("matrix_digests.json")

ENCODER_ROOTS = (*_ENCODER_ROOTS, "NArw", "bsor")
NOISE_ROOTS = tuple(prefix + stem for stem in _NOISE_STEMS for prefix in ROOT_PREFIX_POLICY)
# every builtin family tree: the encoders, the noise roots and the noise roots' encoders
ROOTS = ENCODER_ROOTS + NOISE_ROOTS + tuple(root + "e" for root in NOISE_ROOTS)
SEEDS = [(i * 2654435761) % 2**31 for i in range(256)]
# each parameter is dropped where a step does not accept it
NOISY = {"global_assignparam": {"flip_prob": 0.7, "test_flip_prob": 0.7}}


def _cells(n: int, offset: int) -> dict:
    rows = range(offset, offset + n)
    return {
        "n": [None if r % 11 == 3 else (r * 37 % 23) * 0.75 - 4 for r in rows],
        "c": [None if r % 13 == 7 else "pqr"[r * 2 % 3] for r in rows],
        "b": ["yes" if r * 5 % 7 < 3 else "no" for r in rows],
    }


def _tables(n_train: int, columns) -> tuple:
    return tuple(DataTable({name: cells[name] for name in columns})
                 for cells in (_cells(n_train, 0), _cells(n_train // 2, 1000)))


def _compose_case(encoder: str, noise: str, column: str) -> tuple:
    config = {"shuffletrain": True,
              "processdict": {"enc": {"functionpointer": encoder},
                              "nz": {"functionpointer": noise}},
              "transformdict": {"root": {"parents": ["enc"]}, "enc": {"children": ["nz"]}},
              "assigncat": {"root": [column]}, "assignparam": NOISY}
    return config, "sampling_seed", _tables(40, [column])


def _root_case(root: str, sampling_type: str) -> tuple:
    boolean = root == "bnry" or root[2:4] == "bn"
    config = {"shuffletrain": True, "assigncat": {root: ["b"] if boolean else ["n", "c", "b"]},
              "assignparam": NOISY}
    return config, sampling_type, _tables(60, "ncb")


def cases() -> dict:
    """Every case by name: (config, sampling type, (training table, later table))."""
    out = {f"compose/{encoder}/{noise}/{column}": _compose_case(encoder, noise, column)
           for encoder in ENCODER_ROOTS for noise in NOISE_ROOTS for column in "cn"}
    out.update({f"root/{root}/{sampling_type}": _root_case(root, sampling_type)
                for root in ROOTS for sampling_type in SAMPLING_TYPES})
    return out


def digest(case: tuple, work: Path) -> str:
    """The sha256 of a case's outputs, or the name of the exception it raises."""
    config, sampling_type, (train, later) = case

    def plan():
        return SamplingPlan(sampling_type=sampling_type, seeding_type="primary_seeds",
                            entropy_seeds=SEEDS, extra_seed_generator="PCG64")

    outputs = []

    def written(table):  # every cell as its exact repr, and the row identifiers
        names = table.column_names
        outputs.append(repr((names, table.row_index, [table.column(n) for n in names])).encode())

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(train, config, plan())
            written(result.train)
            save_basis(result.basis, work / "basis.json")
            outputs.append((work / "basis.json").read_bytes())
            basis = load_basis(work / "basis.json")
            written(apply(basis, later, "test", plan()))
            written(apply(basis, train, "train", plan()))
            written(augment(basis, train, AugmentSpec(1), plan()))
    except Exception as exc:  # pinned by its type alone
        return type(exc).__name__
    return hashlib.sha256(b"\0".join(outputs)).hexdigest()


def digests() -> dict:
    with tempfile.TemporaryDirectory() as work:
        return {name: digest(case, Path(work)) for name, case in cases().items()}


def test_every_case_keeps_its_pinned_digest():
    pinned = json.loads(PINS.read_text())
    found = digests()
    assert sorted(found) == sorted(pinned)
    changed = sorted(name for name in pinned if found[name] != pinned[name])
    assert not changed, f"{len(changed)} cases changed: {changed[:20]}"
