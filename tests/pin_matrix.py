"""Rewrite the byte matrix's pins, ``matrix_digests.json``, and print each case whose
digest changed (or that was added or removed), one per line, then one line per kind
of change with its count, e.g. ``72 cases: digest -> ConfigError``.

Run from the repository root: ``PYTHONPATH=src python tests/pin_matrix.py``. A
deliberate change of output bytes re-pins with it and lists the printed cases.
"""

import json
from collections import Counter

from test_matrix import PINS, digests


def _kind(pin) -> str:
    """A pin as a kind of outcome: absent, a digest, or the exception's name."""
    return "absent" if pin is None else "digest" if len(pin) == 64 else pin


def main() -> None:
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    new = digests()
    kinds = Counter()
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"{name}: {old.get(name)} -> {new.get(name)}")
            kinds[_kind(old.get(name)), _kind(new.get(name))] += 1
    for (before, after), count in sorted(kinds.items()):
        print(f"{count} cases: {before} -> {after}")
    PINS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
