"""tabnoise benchmark: three CLI workloads end to end, and a traced per-layer run.

    python3 bench/run.py --workload wide_dp1 --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40 --out BENCH_a.json
    python3 bench/run.py --compare BENCH_a.json BENCH_b.json

Load model: a closed loop with one client. A run generates its inputs once
from ``--seed``, before timing. Each repetition is a fresh single-threaded
interpreter (``bench/child.py``) that imports ``tabnoise.cli`` and runs
``fit --test``, ``transform`` and ``augment --count 2`` through
``tabnoise.cli.main``, so CSV and basis I/O are counted. Repetitions go on
until ``--seconds`` is used up; every metric is the median over them. Each
repetition's times are scaled to a fixed machine speed by its own timing of
``child.reference()`` (see ``speed_scale``); the report also prints the
unscaled wall-clock medians.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, one set per command (``<command>.<layer>.<metric>``).

Every repetition's outputs are checked: exit codes, the invariants in
``workloads.check_invariants``, byte identity with the run's first
repetition and, at the default seed, with the digests pinned in
``bench/digests.json``. A command that exits non-zero or fails a check
counts as failed. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
PINNED = BENCH_DIR / "digests.json"
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 1  # the seed whose output digests are pinned in digests.json
# child.reference() at the usual speed of the 2-core machine the bounds were set on
REFERENCE_S = 0.075


def _child_env() -> dict:
    # PYTHONPATH names only this checkout's sources, so no installed copy is measured
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def summary(values: list) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


# -- one run of one workload ---------------------------------------------------


class Checker:
    """Output checks for the repetitions of one run; returns problems per command."""

    def __init__(self, workload, pinned: dict | None):
        self.workload = workload
        self.pinned = pinned
        self.reference: dict | None = None
        self.seed_report: dict | None = None
        self._invariants: dict = {}

    def check(self, rep: dict, out_dir: Path) -> dict:
        from workloads import COMMANDS, OUTPUT_FILES, check_invariants, digests

        problems = {command: [] for command in COMMANDS}
        for command in COMMANDS:
            entry = rep.get("commands", {}).get(command)
            if entry is None:
                problems[command].append(f"no result: {rep.get('error', 'child failed')}")
            elif entry["rc"] != 0:
                problems[command].append(f"exit {entry['rc']}")
        if rep.get("package") and not Path(rep["package"]).is_relative_to(SRC):
            problems["fit"].append(f"imported tabnoise from {rep['package']}")
        found = digests(out_dir)
        key = tuple(sorted(found.items()))
        if key not in self._invariants:
            self._invariants[key] = check_invariants(self.workload, out_dir)
        for command, issues in self._invariants[key].items():
            problems[command].extend(issues)
        if self.reference is None:
            self.reference = found
            report = out_dir / "fit" / "seed_report.json"
            if report.is_file():
                self.seed_report = json.loads(report.read_text(encoding="utf-8"))
        for rel, digest in found.items():
            command = OUTPUT_FILES[rel]
            if digest != self.reference[rel]:
                problems[command].append(f"{rel} differs from the first repetition")
            if self.pinned is not None and digest != self.pinned.get(rel):
                problems[command].append(f"{rel} differs from its pinned digest")
        return problems


def run_child(argvs: dict, traced: bool) -> dict:
    spec = json.dumps({"argvs": argvs, "trace": traced})
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), spec],
                              capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    rep["traced"] = traced
    return rep


def warm_import() -> None:
    """Compile the package's bytecode once so the first repetition is not special."""
    # a failing import is not raised here: every repetition then reports it
    subprocess.run([sys.executable, "-c", "import tabnoise.cli"], env=_child_env(),
                   cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)


def seed_budget(report: dict, workload, command: str) -> float:
    """Seeds the seed report budgets for one command of this workload."""
    from tabnoise.sampling import rescale_budget
    from workloads import AUGMENT_COUNT, VALIDATION_RATIO

    n_val = math.floor(VALIDATION_RATIO * workload.n_train)
    if workload.sampling_type == "bulk_seeds":
        train, test = report["bulk_seeds_total_train"], report["bulk_seeds_total_test"]
        val = rescale_budget(test, report["rowcount_basis_test"], n_val)
        noisy_train = rescale_budget(train, report["rowcount_basis_train"], workload.n_train)
    else:  # sampling_seed: one seed per operation, whatever the row count
        train, test = report["sampling_seed_total_train"], report["sampling_seed_total_test"]
        val = test if n_val else 0
        noisy_train = train
    # fit prepares train, validation and test; augment --count 2 makes two noisy copies
    return {"fit": train + val + test, "transform": test,
            "augment": AUGMENT_COUNT * noisy_train}[command]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from workloads import WORKLOADS, command_argvs, generate_inputs, sized

    workload = sized(WORKLOADS[name], size)
    pinned = None
    if seed == DEFAULT_SEED and size == "full":
        pinned = json.loads(PINNED.read_text(encoding="utf-8")).get(name, {})
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    load_start = os.getloadavg()
    checker = Checker(workload, pinned)
    reps = []
    try:
        inputs = generate_inputs(workload, seed, run_dir)
        out_dir = run_dir / "out"
        argvs = command_argvs(inputs, out_dir)
        warm_import()
        min_reps = 4 if trace else 3
        start = time.monotonic()
        while True:
            shutil.rmtree(out_dir, ignore_errors=True)
            rep = run_child(argvs, traced=trace and len(reps) % 2 == 1)
            rep["problems"] = checker.check(rep, out_dir)
            reps.append(rep)
            used = time.monotonic() - start
            pairs_done = not trace or len(reps) % 2 == 0
            if len(reps) >= min_reps and pairs_done and used * (len(reps) + 1) / len(reps) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = sorted({f"{command}: {p}" for rep in reps
                       for command, issues in rep["problems"].items() for p in issues})
    attempted, failed = error_counts(reps)
    result = {
        "workload": name, "seed": seed, "size": size, "trace": trace, "seconds": seconds,
        "load_start": load_start, "load_end": os.getloadavg(),
        "attempted": attempted, "failed": failed,
        "problems": failures[:20],
        "digests": checker.reference,
    }
    complete = [rep for rep in reps if "commands" in rep]
    untraced = [rep for rep in complete if not rep["traced"]]
    result["metrics"], result["wall"] = end_to_end(workload, untraced)
    if trace:
        traced = [rep for rep in complete if rep["traced"]]
        result["layers"] = per_layer(workload, checker.seed_report, untraced, traced)
    return result


def error_counts(reps: list) -> tuple[int, int]:
    """(commands attempted, commands that exited non-zero or failed a check)."""
    attempted = sum(len(rep["problems"]) for rep in reps)
    failed = sum(1 for rep in reps for issues in rep["problems"].values() if issues)
    return attempted, failed


def speed_scale(rep: dict) -> float:
    """REFERENCE_S over this repetition's ``reference()`` time.

    Timings are multiplied by it (rates divided), so a spell in which the
    whole machine runs slower or faster cancels out of the metrics.
    """
    return REFERENCE_S / rep["reference_s"]


def end_to_end(workload, reps: list) -> tuple[dict, dict]:
    """(reference-scaled metrics, wall-clock summaries) over untraced repetitions."""
    from workloads import COMMANDS

    if not reps:
        return {}, {}
    wall = {"setup_s": [rep["import_s"] for rep in reps]}
    for command in COMMANDS:
        wall[f"{command}_s"] = [rep["commands"][command]["seconds"] for rep in reps]
    wall["prep_rows_per_s"] = [
        workload.rows_written() / sum(rep["commands"][c]["seconds"] for c in COMMANDS)
        for rep in reps
    ]
    scale = [speed_scale(rep) for rep in reps]
    metrics = {name: [v / k if name.endswith("_per_s") else v * k for v, k in zip(values, scale)]
               for name, values in wall.items()}
    metrics["peak_rss_mb"] = [rep["peak_rss_mb"] for rep in reps]
    wall["reference_s"] = [rep["reference_s"] for rep in reps]
    return ({name: summary(values) for name, values in metrics.items()},
            {name: summary(values) for name, values in wall.items()})


def per_layer(workload, seed_report: dict | None, untraced: list, traced: list) -> dict:
    """Reference-scaled layer metrics of the traced repetitions, per command."""
    from tracer import LAYER_METRICS
    from workloads import COMMANDS

    if not traced or not untraced:
        return {}
    out = {}
    for command in COMMANDS:
        budget = seed_budget(seed_report, workload, command) if seed_report else 0
        values: dict = {name: [] for name, _ in LAYER_METRICS}
        for rep in traced:
            layers = rep["commands"][command]["layers"]
            for name, unit in LAYER_METRICS:
                if name in layers:
                    values[name].append(layers[name] * (speed_scale(rep) if unit == "s" else 1))
            consumed = layers["sampling.seeds_consumed"]
            values["sampling.budget_use"].append(consumed / budget if budget else 0.0)
        plain, timed = (statistics.median(rep["commands"][command]["seconds"] * speed_scale(rep)
                                          for rep in reps) for reps in (untraced, traced))
        values["trace.overhead"] = [timed / plain - 1.0]
        for name, unit in LAYER_METRICS:
            out[f"{command}.{name}"] = {"unit": unit, **summary(values[name] or [0])}
    return out


# -- reporting -----------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC, "r", encoding="utf-8") as handle:
        return json.load(handle)


def layer_shares(result: dict, command: str) -> list:
    """Self time per layer for one command of a traced run, largest first."""
    totals: dict = {}
    for name, entry in result["layers"].items():
        cmd, layer, metric = name.split(".", 2)
        if cmd == command and layer != "trace" and metric.endswith("_s"):
            totals[layer] = totals.get(layer, 0.0) + entry["median"]
    whole = sum(totals.values()) or 1.0
    return sorted(((layer, t, t / whole) for layer, t in totals.items()), key=lambda x: -x[1])


def report(env: dict, results: dict, spec: dict) -> dict:
    """Print every metric with unit, quartiles and sample count; return the result line."""
    metrics = {}
    attempted = failed = absent = 0
    prefix_names = len(results) > 1
    for name, result in results.items():
        stamp = {**env, "workload": name, "seed": result["seed"],
                 "load_start": result["load_start"], "load_end": result["load_end"]}
        print(f"# env {json.dumps(stamp)}")
        attempted += result["attempted"]
        failed += result["failed"]
        kind, found = ("per_layer", result["layers"]) if result["trace"] else (
            "end_to_end", result["metrics"])
        for metric in spec[kind]:
            entry = found.get(metric["name"])
            if entry is None:
                absent += 1
                print(f"{name:<11} {metric['name']:<30} missing")
                continue
            wall = result.get("wall", {}).get(metric["name"])
            print(f"{name:<11} {metric['name']:<30} {entry['median']:>14.6g} {metric['unit']:<6} "
                  f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}"
                  + (f"  wall {wall['median']:.6g}" if wall else ""))
            key = f"{name}.{metric['name']}" if prefix_names else metric["name"]
            metrics[key] = {"value": entry["median"], "unit": metric["unit"]}
        rate = result["failed"] / result["attempted"]
        print(f"{name:<11} {'error_rate':<30} {rate:>14.6g} ratio  "
              f"({result['failed']} of {result['attempted']} commands failed)")
        for problem in result["problems"]:
            print(f"{name:<11} problem: {problem}")
        if result["trace"] and found:
            for command in ("fit", "transform", "augment"):
                shares = ", ".join(f"{layer} {share:.0%}" for layer, _, share
                                   in layer_shares(result, command))
                print(f"{name:<11} {command} self time by layer: {shares}")
    return {"correct": failed == 0 and absent == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """improved, unchanged, regressed or unresolved for B (change) against A (parent)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    beats = [sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]]
    if spread > bound:
        if all(beats):
            return "improved"
        if not any(beats):
            return "regressed"
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > (a["q3"] - a["q1"]) / abs(a["median"]):
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as ha, open(path_b, encoding="utf-8") as hb:
        a, b = json.load(ha), json.load(hb)
    print(f"A {path_a}: {json.dumps(a['env'])}")
    print(f"B {path_b}: {json.dumps(b['env'])}")
    print(f"{'workload':<11} {'metric':<16} {'unit':<6} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'bound':<6} verdict")
    for name in a["runs"]:
        if name not in b["runs"]:
            continue
        ra, rb = a["runs"][name], b["runs"][name]
        for metric in spec["end_to_end"]:
            ma, mb = ra["metrics"].get(metric["name"]), rb["metrics"].get(metric["name"])
            if ma is None or mb is None:
                continue
            cells = [f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]" for m in (ma, mb)]
            print(f"{name:<11} {metric['name']:<16} {metric['unit']:<6} {cells[0]:<32} "
                  f"{cells[1]:<32} {metric['bound']:<6} "
                  f"{verdict(ma, mb, metric['better'], metric['bound'])}")
        for label, run in (("A", ra), ("B", rb)):
            print(f"{name:<11} error_rate {label}: {run['failed']} of {run['attempted']}")
    return 0


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="wide_dp1, scaled_db2, bulk_db1, or all (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few dozen rows, for smoke tests")
    parser.add_argument("--out", help="also write the full result (all samples) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files, B against A")
    args = parser.parse_args(argv)

    if not SPEC.is_file():
        print(f"error: {SPEC.name} not found next to bench/", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (SRC / "tabnoise" / "cli.py").is_file():
        print(f"error: no tabnoise sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    env = environment()
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
               for name in names}
    line = report(env, results, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "runs": results}, handle, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
