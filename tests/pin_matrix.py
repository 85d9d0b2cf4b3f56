"""Rewrite the byte matrix's pins, ``matrix_digests.json``, and print each case whose
digest changed (or that was added or removed), one per line.

Run from the repository root: ``PYTHONPATH=src python tests/pin_matrix.py``. A
deliberate change of output bytes re-pins with it and lists the printed cases.
"""

import json

from test_matrix import PINS, digests


def main() -> None:
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    new = digests()
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"{name}: {old.get(name)} -> {new.get(name)}")
    PINS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
