"""The functions the benchmark's per-layer tracer wraps still exist where it looks for them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tabnoise

_BENCH = Path(__file__).resolve().parents[1] / "bench"

# targets the tracer already misses; moving or renaming any other one fails here
_KNOWN_MISSING = ["rng.StreamSampler.bounded_int", "rng.BulkSampler._entry_stream"]


def test_tracer_finds_its_targets():
    probe = ("import json, sys; import tabnoise.cli; sys.path.insert(0, sys.argv[1]); "
             "from tracer import Tracer; tracer = Tracer(); tracer.install(); "
             "print(json.dumps(tracer.missing))")
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, str(_BENCH)], capture_output=True,
                          text=True, env=env, check=True)
    assert json.loads(proc.stdout) == _KNOWN_MISSING


def test_tracer_reads_the_managers_counters(tmp_path):
    # the tracer counts sampling operations and seeds from each StreamManager's
    # ops_executed and seeds_consumed; a rename there would read 0 without failing
    (tmp_path / "train.csv").write_text("x\n" + "".join(f"{i / 7}\n" for i in range(40)))
    (tmp_path / "config.json").write_text(json.dumps({
        "assigncat": {"DPnb": ["x"]},
        "assignparam": {"DPnb": {"x": {"flip_prob": 0.5}}},
        "entropy_seeds": list(range(100)),
        "sampling_dict": {"sampling_type": "sampling_seed"},
    }))
    probe = ("import json, sys; import tabnoise.cli; sys.path.insert(0, sys.argv[1]); "
             "from tracer import Tracer; tracer = Tracer(); tracer.install(); "
             "rc = tabnoise.cli.main(sys.argv[2:]); print(json.dumps([rc, tracer.snapshot()]))")
    out = tmp_path / "out"
    argv = ["fit", str(tmp_path / "train.csv"), "--config", str(tmp_path / "config.json"),
            "--out-dir", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(tabnoise.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, str(_BENCH), *argv],
                          capture_output=True, text=True, env=env, check=True)
    rc, layers = json.loads(proc.stdout.splitlines()[-1])
    budget = json.loads((out / "seed_report.json").read_text())["sampling_seed_total_train"]
    assert rc == 0 and budget > 0
    assert layers["sampling.op_samplers"] == layers["sampling.seeds_consumed"] == budget
