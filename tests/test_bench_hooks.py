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
