"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The smoke runs use ``--size tiny`` and take about half a minute in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS, command_argvs, generate_inputs, sized  # noqa: E402


def _smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric(trace, kind):
    line = _smoke(trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in run.load_spec()[kind]}
    assert set(line["metrics"]) == expected
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"}


@pytest.fixture()
def one_rep(tmp_path):
    workload = sized(WORKLOADS["wide_dp1"], "tiny")
    out_dir = tmp_path / "out"
    argvs = command_argvs(generate_inputs(workload, 1, tmp_path), out_dir)
    checker = run.Checker(workload, pinned=None)
    rep = run.run_child(argvs, traced=False)
    rep["problems"] = checker.check(rep, out_dir)
    assert run.error_counts([rep]) == (3, 0), rep["problems"]
    return checker, rep, argvs, out_dir


def test_corrupted_output_raises_error_rate(one_rep):
    checker, rep, _, out_dir = one_rep
    with open(out_dir / "augment.csv", "ab") as handle:
        handle.write(b"0\n")
    bad = dict(rep, problems=checker.check(rep, out_dir))
    assert bad["problems"]["augment"] and not bad["problems"]["fit"]
    assert run.error_counts([rep, bad]) == (6, 1)


def test_nonzero_exit_raises_error_rate(one_rep, tmp_path):
    checker, rep, argvs, out_dir = one_rep
    broken = dict(argvs)
    broken["transform"] = [a.replace("config.json", "absent.json") for a in argvs["transform"]]
    bad = run.run_child(broken, traced=False)
    bad["problems"] = checker.check(bad, out_dir)
    assert bad["commands"]["transform"]["rc"] == 1
    assert any("exit 1" in p for p in bad["problems"]["transform"])
    assert run.error_counts([rep, bad]) == (6, 1)


def _summary(samples):
    return run.summary(list(samples))


def test_compare_verdicts():
    parent = _summary([1.00, 1.01, 0.99, 1.00, 1.02, 0.98])
    assert run.verdict(parent, _summary([0.70, 0.71, 0.69, 0.70]), "lower", 0.1) == "improved"
    assert run.verdict(parent, _summary([1.30, 1.31, 1.29, 1.30]), "lower", 0.1) == "regressed"
    assert run.verdict(parent, _summary([1.00, 1.01, 0.99, 1.00]), "lower", 0.1) == "unchanged"
    wide = _summary([0.6, 1.4, 0.9, 1.2])
    assert run.verdict(parent, wide, "lower", 0.1) == "unresolved"
    assert run.verdict(parent, _summary([1.30, 1.31]), "higher", 0.1) == "improved"


def test_compare_prints_a_row_per_metric_and_workload(tmp_path, capsys):
    spec = run.load_spec()
    result = {"env": {}, "runs": {
        w: {"attempted": 3, "failed": 0,
            "metrics": {m["name"]: _summary([1.0, 1.01, 0.99]) for m in spec["end_to_end"]}}
        for w in WORKLOADS}}
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(json.dumps(result))
    assert run.main(["--compare", *map(str, paths)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    verdicts = {(r[0], r[1]): r[-1] for r in rows if len(r) > 2 and r[0] in WORKLOADS
                and r[1] != "error_rate"}
    assert verdicts == {(w, m["name"]): "unchanged" for w in WORKLOADS for m in spec["end_to_end"]}
