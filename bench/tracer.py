"""Per-layer spans recorded around tabnoise's functions from outside the program.

The tracer replaces selected functions and methods of each ``tabnoise``
module with wrappers that keep a span stack in memory. A layer is a module
(``table``, ``encoders``, ``noise``, ``rng``, ``sampling``, ``trees``,
``pipeline``, ``cli``); each wrapped callable feeds one metric of its layer.

- A span's self time is its duration minus the time its child spans cover.
- A call made while the innermost open span belongs to the same layer opens
  no span of its own, so its time stays with the outer call of that layer
  (``DataTable.__init__`` inside ``take`` is take time). ``leaf`` targets
  always open a span, so word generation is separated from the shaping code
  that asks for it.
- Per-cell helpers (``parse_cell``, ``format_cell``, ``code_of``) and the
  family-tree walk are not wrapped: a wrapper per cell would cost more than
  the work, and the walk's executor runs pipeline code. Their time stays with
  the calling span.

The program binds many names with ``from .x import y``, so every module that
binds a wrapped function gets the wrapper; afterwards no ``tabnoise`` module
holds the original. A target that no longer exists is reported on stderr and
its metrics read 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# name, unit: every per-layer metric, reported for each command
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("trees.resolve_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.basis_io_s", "s"),
    ("table.load_csv_s", "s"),
    ("table.write_csv_s", "s"),
    ("table.build_s", "s"),
    ("table.take_s", "s"),
    ("table.cells_built", "count"),
    ("encoders.fit_s", "s"),
    ("encoders.apply_s", "s"),
    ("rng.words", "count"),
    ("rng.words_s", "s"),
    ("rng.shape_s", "s"),
    ("rng.mix_seed_calls", "count"),
    ("rng.mix_seed_bytes", "bytes"),
    ("rng.mix_seed_s", "s"),
    ("rng.bulk_entries", "count"),
    ("noise.calibration_s", "s"),
    ("noise.mask_s", "s"),
    ("noise.activations", "count"),
    ("noise.flip_s", "s"),
    ("noise.protected_s", "s"),
    ("noise.inject_s", "s"),
    ("sampling.read_seeds_s", "s"),
    ("sampling.plan_s", "s"),
    ("sampling.op_samplers", "count"),
    ("sampling.seeds_consumed", "count"),
    ("sampling.budget_use", "ratio"),
    ("trace.overhead", "ratio"),
)

_SHAPERS = ("uniforms", "normals", "laplaces", "uniform_interval", "shaped", "bounded_ints")

# (module, attribute path, metric, leaf)
SPANS = (
    ("cli", "main", "cli.self_s", False),
    ("trees", "resolve_params", "trees.resolve_s", False),
    ("trees", "builtin_catalog", "trees.resolve_s", False),
    ("trees", "TransformCatalog.resolve_entry", "trees.resolve_s", False),
    ("trees", "TransformCatalog.update_from_config", "trees.resolve_s", False),
    ("trees", "ParamAssignments.from_config", "trees.resolve_s", False),
    ("pipeline", "fit", "pipeline.self_s", False),
    ("pipeline", "apply", "pipeline.self_s", False),
    ("pipeline", "apply_with_stats", "pipeline.self_s", False),
    ("pipeline", "augment", "pipeline.self_s", False),
    ("pipeline", "orig_headers_mode", "pipeline.self_s", False),
    ("pipeline", "save_basis", "pipeline.basis_io_s", False),
    ("pipeline", "load_basis", "pipeline.basis_io_s", False),
    ("table", "load_csv", "table.load_csv_s", False),
    ("table", "write_csv", "table.write_csv_s", False),
    ("table", "DataTable.__init__", "table.build_s", False),
    ("table", "DataTable.take", "table.take_s", False),
    ("encoders", "fit_numeric", "encoders.fit_s", False),
    ("encoders", "fit_categoric", "encoders.fit_s", False),
    *(("encoders", name, "encoders.apply_s", False) for name in (
        "apply_numeric", "apply_categoric", "column_as_floats", "ordinal_codes",
        "boolean_codes", "codes_to_onehot", "onehot_to_codes", "codes_to_bits",
        "bits_to_codes",
    )),
    ("rng", "Pcg64Stream.words", "rng.words_s", True),
    ("rng", "Mt19937Stream.words", "rng.words_s", True),
    ("rng", "ExternalWordStream.words", "rng.words_s", True),
    ("rng", "mix_seed", "rng.mix_seed_s", True),
    ("rng", "shaped_sample", "rng.shape_s", False),
    *(("rng", f"StreamSampler.{name}", "rng.shape_s", False)
      for name in _SHAPERS + ("bounded_int", "shuffled")),
    *(("rng", f"BulkSampler.{name}", "rng.shape_s", False) for name in _SHAPERS),
    ("noise", "adjust_noise_mean", "noise.calibration_s", False),
    ("noise", "sample_bernoulli_mask", "noise.mask_s", False),
    ("noise", "weighted_flip", "noise.flip_s", False),
    ("noise", "flip_boolean_direct", "noise.flip_s", False),
    ("noise", "swap_noise", "noise.flip_s", False),
    *(("noise", name, "noise.protected_s", False) for name in (
        "fit_protected_numeric", "fit_protected_categoric", "protected_ratio_vector",
        "protected_weight_matrix",
    )),
    ("noise", "sample_noise", "noise.inject_s", False),
    ("noise", "inject_numeric", "noise.inject_s", False),
    ("noise", "scale_noise_minmax", "noise.inject_s", False),
    ("noise", "mask_noise", "noise.inject_s", False),
    ("sampling", "read_seed_file", "sampling.read_seeds_s", False),
    ("sampling", "SamplingPlan.__init__", "sampling.plan_s", False),
)


class Tracer:
    """Span stack, per-metric self time and counters for one process."""

    def __init__(self):
        self.stack: list = []  # frames: [layer, start, time covered by child spans]
        self.totals: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.managers: list = []
        self.missing: list = []

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
        self.managers.clear()

    def snapshot(self) -> dict:
        """Metrics gathered since the last reset (the parent adds budget and overhead)."""
        out = {name: 0 for name, _ in LAYER_METRICS if name not in (
            "sampling.budget_use", "trace.overhead")}
        out.update(self.totals)
        out.update(self.counts)
        out["sampling.op_samplers"] = sum(m.ops_executed for m in self.managers)
        out["sampling.seeds_consumed"] = sum(m.seeds_consumed for m in self.managers)
        return out

    # -- wrappers --------------------------------------------------------------

    def span(self, fn, metric: str, leaf: bool, count=None):
        layer = metric.split(".", 1)[0]
        stack = self.stack
        totals = self.totals

        def wrapper(*args, **kwargs):
            if not leaf and stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - frame[1]
                    stack.pop()
                    totals[metric] += elapsed - frame[2]
                    if stack:
                        stack[-1][2] += elapsed
            if count is not None:
                count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_words(self, args, result) -> None:
        self.counts["rng.words"] += len(result)

    def _count_activations(self, args, result) -> None:
        self.counts["noise.activations"] += int((result != 0).sum())

    def _count_cells(self, args, result) -> None:
        table = args[0]
        self.counts["table.cells_built"] += table.n_rows * len(table.column_names)

    def _mix_seed(self, fn):
        counts = self.counts
        timed = self.span(fn, "rng.mix_seed_s", True)

        def wrapper(os_entropy, supplemental):
            if not hasattr(supplemental, "__len__"):
                supplemental = list(supplemental)
            counts["rng.mix_seed_calls"] += 1
            counts["rng.mix_seed_bytes"] += len(os_entropy or b"") + 16 * len(supplemental)
            return timed(os_entropy, supplemental)

        wrapper.__wrapped__ = fn
        return wrapper

    def _tally(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _register_manager(self, fn):
        managers = self.managers

        def wrapper(manager, *args, **kwargs):
            fn(manager, *args, **kwargs)
            managers.append(manager)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the imported ``tabnoise`` modules."""
        counters = {
            "rng.Pcg64Stream.words": self._count_words,
            "rng.Mt19937Stream.words": self._count_words,
            "rng.ExternalWordStream.words": self._count_words,
            "noise.sample_bernoulli_mask": self._count_activations,
            "table.DataTable.__init__": self._count_cells,
        }
        for module, path, metric, leaf in SPANS:
            key = f"{module}.{path}"
            if key == "rng.mix_seed":
                self._patch(module, path, self._mix_seed)
            else:
                count = counters.get(key)
                self._patch(module, path, lambda fn, m=metric, lf=leaf, c=count:
                            self.span(fn, m, lf, c))
        # count-only hooks: too frequent for a span, or state to read afterwards
        self._patch("rng", "Pcg64Stream.next_word", lambda fn: self._tally(fn, "rng.words"))
        self._patch("rng", "BulkSampler._entry_stream",
                    lambda fn: self._tally(fn, "rng.bulk_entries"))
        self._patch("sampling", "StreamManager.__init__", self._register_manager)
        if self.missing:
            print(f"tracer: targets not found, their metrics read 0: {self.missing}",
                  file=sys.stderr)

    def _patch(self, module_name: str, path: str, make) -> None:
        module = sys.modules.get(f"tabnoise.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
            return
        if owner_name:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            return
        wrapper = make(raw)
        # rebind the name in every module that imported it with ``from .x import y``
        for name, loaded in list(sys.modules.items()):
            if name == "tabnoise" or name.startswith("tabnoise."):
                for key, value in list(vars(loaded).items()):
                    if value is raw:
                        setattr(loaded, key, wrapper)
