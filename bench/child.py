"""One repetition in a fresh interpreter: import tabnoise.cli, then fit, transform, augment.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``argvs`` (the argv of each command) and ``trace`` (wrap the
program's functions with ``tracer.Tracer`` after the import). Prints one
JSON line: the import time, each command's wall time and exit code, the
process's peak RSS, the imported package path, the time of ``reference()``
before and after the commands and, when traced, each command's layer
metrics.
"""

import hashlib
import json
import resource
import sys
import time
import traceback

# workloads.COMMANDS; not imported, as workloads imports tabnoise before the timed import
COMMANDS = ("fit", "transform", "augment")


def reference() -> float:
    """Seconds for a fixed mix of the Python work tabnoise does: number
    formatting and parsing, dict and list building, and SHA-256 updates.

    It runs without tabnoise, so no change to the program moves it; it
    measures how fast the machine is at the moment.
    """
    start = time.perf_counter()
    digest = hashlib.sha256()
    cells = {}
    for i in range(40_000):
        text = repr(i * 0.37)
        cells[text] = float(text)
        digest.update(i.to_bytes(16, "little"))
    rows = [",".join(str(v) for v in range(j, j + 8)) for j in range(0, 40_000, 8)]
    digest.update("".join(rows).encode())
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    reference_before = reference()
    start = time.perf_counter()
    import tabnoise.cli

    import_s = time.perf_counter() - start
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    commands = {}
    for command in COMMANDS:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            rc = tabnoise.cli.main(spec["argvs"][command])
        except Exception:  # a crashing command counts as failed; the others still run
            traceback.print_exc()
            rc = "exception"
        entry = {"seconds": time.perf_counter() - start, "rc": rc}
        if tracer is not None:
            entry["layers"] = tracer.snapshot()
        commands[command] = entry
    reference_after = reference()
    print(json.dumps({
        "reference_s": (reference_before + reference_after) / 2.0,
        "import_s": import_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": tabnoise.cli.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
