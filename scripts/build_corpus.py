#!/usr/bin/env python3
"""Regenerate the machine files under corpus/ from the builtin constructors."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pebbletx import builtins  # noqa: E402
from pebbletx.decompose import build_config_enumerator, build_equality_annotator  # noqa: E402
from pebbletx.machinefile import save  # noqa: E402

FILES = {
    "squaring.ptx": lambda: builtins.squaring("ab"),
    "squaring_variant.ptx": lambda: builtins.squaring_variant("ab"),
    "prefixes.ptx": lambda: builtins.all_prefixes_reversed("ab"),
    "itrev.ptx": lambda: builtins.iterated_reverse("bcd"),
    "modsq.ptx": lambda: builtins.modified_squaring("bcd"),
    "copier.ptx": lambda: builtins.copier("ab"),
    "config_enumerator_1.ptx": lambda: build_config_enumerator(1, "ab"),
    "equality_annotator_1.ptx": lambda: build_equality_annotator(1, "ab"),
}


def main() -> int:
    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    corpus.mkdir(exist_ok=True)
    for name, ctor in FILES.items():
        path = corpus / name
        save(ctor(), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
