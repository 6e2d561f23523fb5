"""The scripts under scripts/ run in-process and agree with the corpus."""

import importlib.util
from pathlib import Path

import pytest

from pebbletx.machinefile import serialize

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str, directory: str = "scripts"):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["construction_digests", "state_growth", "trace_composition"])
def test_script_main_succeeds(name, capsys):
    assert _script(name).main() == 0
    assert capsys.readouterr().out


def test_construction_digests_match_the_committed_file(capsys):
    # every construction builds byte-identical machines to the recorded ones
    assert _script("construction_digests").main() == 0
    golden = (ROOT / "scripts" / "construction_digests.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_build_corpus_table_matches_corpus():
    files = _script("build_corpus").FILES
    assert len(files) == 8
    for name, ctor in files.items():
        assert (ROOT / "corpus" / name).read_text(encoding="utf-8") == serialize(ctor()), name


def test_every_traced_function_resolves():
    # the benchmark's tracer wraps these by name; tracing.py imports only the
    # standard library, so it loads without the benchmark's other modules
    for module, function, _, _ in _script("tracing", "perfbench").TRACED:
        resolved = getattr(importlib.import_module(f"pebbletx.{module}"), function, None)
        assert callable(resolved), (module, function)
