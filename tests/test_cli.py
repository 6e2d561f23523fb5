import copy
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pebbletx import cli
from pebbletx.builtins import modified_squaring, squaring
from pebbletx.core import PebbleError, Symbol
from pebbletx.machinefile import (
    MachineFileError,
    _symbol_from_json,
    _symbol_to_json,
    load,
    parse,
    serialize,
)
from pebbletx.runner import semantics

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture()
def squaring_file(tmp_path):
    path = tmp_path / "squaring.ptx"
    path.write_text(serialize(squaring("ab")))
    return str(path)


@pytest.fixture()
def modsq_file(tmp_path):
    path = tmp_path / "modsq.ptx"
    path.write_text(serialize(modified_squaring("bcd")))
    return str(path)


@pytest.fixture()
def itrev_file(tmp_path):
    from pebbletx.builtins import iterated_reverse

    path = tmp_path / "itrev.ptx"
    path.write_text(serialize(iterated_reverse("bcd")))
    return str(path)


# ---------------------------------------------------------------------------
# File format


def test_round_trip_is_canonical(squaring_file):
    text = open(squaring_file).read()
    machine = parse(text)
    assert serialize(machine) == text
    for u in ["", "a", "ab", "abba"]:
        assert semantics(machine, u) == semantics(squaring("ab"), u)


def test_false_test_round_trips_and_never_fires():
    from pebbletx.builtins import copier
    from pebbletx.core import FALSE, NOP, Transition
    from pebbletx.runner import run

    ident = copier("ab")
    dead = Transition("c1", Symbol("a"), FALSE, NOP, "c1", (Symbol("b"),))
    assert dead.render() == "c1 --a,false,nop--> c1 | b"
    text = serialize(ident.replace(transitions=ident.transitions + (dead,)))
    assert '"test": "false"' in text
    machine = parse(text)
    assert dead in machine.transitions
    assert serialize(machine) == text
    # the run table skips the transition, so the copier stays deterministic
    for u in ["", "a", "ab", "aab"]:
        assert run(machine, u).output == run(ident, u).output, u


def test_parse_unknown_state():
    doc = json.loads(serialize(squaring("ab")))
    doc["transitions"][0]["from"] = "nowhere"
    with pytest.raises(MachineFileError, match="UnknownState"):
        parse(json.dumps(doc))


def test_parse_bad_atom_index():
    doc = json.loads(serialize(squaring("ab")))
    doc["transitions"][3]["test"] = [{"kind": "head", "i": 3}]
    with pytest.raises(MachineFileError, match="IndexOutOfRange"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("atom", [{"kind": "head", "i": 0}, {"kind": "peb", "i": 0, "j": 1}])
def test_parse_atom_index_below_one_is_located(atom):
    doc = json.loads(serialize(squaring("ab")))
    doc["transitions"][3]["test"] = [atom]
    with pytest.raises(MachineFileError, match="IndexOutOfRange") as info:
        parse(json.dumps(doc))
    assert "transitions[3]" in info.value.where


def test_parse_rejects_unknown_fields():
    doc = json.loads(serialize(squaring("ab")))
    doc["flavour"] = "strawberry"
    with pytest.raises(MachineFileError, match="unknown fields"):
        parse(json.dumps(doc))


def test_parse_rejects_literal_hash():
    doc = json.loads(serialize(squaring("ab")))
    doc["input_alphabet"].append("#")
    with pytest.raises(MachineFileError, match="implicit"):
        parse(json.dumps(doc))


def test_parse_reports_syntax_position():
    with pytest.raises(MachineFileError, match="line"):
        parse("{ not json }")


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return mutate


def _delete(path):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]

    return mutate


# (mutation of corpus/squaring.ptx, fragment of the reported location)
_MALFORMED = {
    "states-not-a-list": (_set(["states"], {"q0": 0}), "states"),
    "transitions-not-a-list": (_set(["transitions"], 3), "transitions"),
    "input-alphabet-not-a-list": (_set(["input_alphabet"], "ab"), "input_alphabet"),
    "missing-from": (_delete(["transitions", 0, "from"]), "transitions[0]"),
    "missing-to": (_delete(["transitions", 0, "to"]), "transitions[0]"),
    "bit-not-an-int": (_set(["output_alphabet", 1, "bits"], ["x"]), "output_alphabet[1].bits"),
    "bits-not-a-list": (_set(["output_alphabet", 1, "bits"], 1), "output_alphabet[1].bits"),
    "bit-out-of-range": (_set(["output_alphabet", 1, "bits"], [2]), "output_alphabet[1].bits"),
    "matrix-not-a-list": (_set(["output_alphabet", 1, "matrix"], 1), "output_alphabet[1].matrix"),
    "state-id-a-list": (_set(["states", 0, "id"], ["q0"]), "states[0]"),
    "state-id-an-int": (_set(["states", 0, "id"], 0), "states[0]"),
    "initial-a-list": (_set(["initial"], ["q0"]), "initial"),
    "from-a-list": (_set(["transitions", 0, "from"], ["q0"]), "transitions[0].from"),
    "output-not-a-list": (_set(["transitions", 0, "output"], 5), "transitions[0].output"),
    "output-a-string": (_set(["transitions", 0, "output"], "a"), "transitions[0].output"),
    "pebbles-a-bool": (_set(["pebbles"], True), "pebbles"),
    "polarity-a-bool": (_set(["states", 1, "polarity"], True), "states[1]"),
    "name-an-int": (_set(["name"], 7), "name"),
    "equality-tests-not-a-bool": (_set(["equality_tests"], "no"), "equality_tests"),
    "format-version-a-bool": (_set(["format_version"], True), "format_version"),
    "atom-index-a-bool": (
        _set(["transitions", 0, "test"], [{"kind": "head", "i": True}]), "transitions[0].test[0]"
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_file_is_a_located_error(case, tmp_path, capsys):
    mutate, where = _MALFORMED[case]
    doc = json.loads((CORPUS / "squaring.ptx").read_text(encoding="utf-8"))
    mutate(doc)
    text = json.dumps(doc)
    with pytest.raises(PebbleError) as info:
        parse(text)
    assert isinstance(info.value, MachineFileError)
    assert info.value.where == where
    path = tmp_path / "bad.ptx"
    path.write_text(text)
    assert cli.main(["run", str(path), "--input", "ab"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# what a fuzzed node may become: every JSON type, and ints at and past the
# edges of what the fields accept
_FUZZ_VALUES = (
    0, 1, 2, -1, 10**30, -(10**30), 0.5, 1e308, True, False, None, "", "a", "#", "q0",
    [], [0], [None], {}, {"kind": "head", "i": 1}, {"base": "#"},
)


def _node_paths(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _fuzz(doc: dict, rng: random.Random) -> list:
    """Replace or delete one to three nodes below the root of ``doc``, in
    place.  A node is replaced by a value of ``_FUZZ_VALUES`` or by a copy
    of another node.  Returns what was done, for the failure message."""
    done = []
    for _ in range(rng.randint(1, 3)):
        paths = list(_node_paths(doc))[1:]
        *parents, last = rng.choice(paths)
        parent = _at(doc, parents)
        action = rng.choice(("value", "copy", "delete"))
        if action == "delete":
            del parent[last]
        else:
            source = rng.choice(_FUZZ_VALUES) if action == "value" else _at(doc, rng.choice(paths))
            parent[last] = copy.deepcopy(source)
        done.append((action, *parents, last))
    return done


def test_fuzzed_corpus_documents_parse_or_raise_a_pebble_error():
    # seeded random mutations of every corpus document: parse either builds
    # a machine or raises a PebbleError, never another exception
    rng = random.Random(15)
    originals = {path.name: json.loads(path.read_text(encoding="utf-8"))
                 for path in sorted(CORPUS.glob("*.ptx"))}
    for name, original in originals.items():
        for _ in range(250):
            doc = copy.deepcopy(original)
            done = _fuzz(doc, rng)
            try:
                parse(json.dumps(doc))
            except PebbleError:
                pass
            except Exception as e:
                pytest.fail(f"{name} after {done}: {type(e).__name__}: {e}")


@pytest.mark.parametrize("field, entry", [
    ("input_alphabet", None), ("input_alphabet", {"base": None}), ("output_alphabet", None),
])
@pytest.mark.parametrize("command", ["decompose", "uniformize"])
def test_bare_endmarker_in_alphabet_is_a_located_error(command, field, entry, tmp_path, capsys):
    doc = json.loads((CORPUS / "squaring.ptx").read_text(encoding="utf-8"))
    doc[field].append(entry)
    text = json.dumps(doc)
    with pytest.raises(MachineFileError) as info:
        parse(text)
    assert info.value.where == f"{field}[{len(doc[field]) - 1}]"
    path = tmp_path / "bad.ptx"
    path.write_text(text)
    assert cli.main([command, str(path), "-o", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_annotated_endmarker_letters_parse():
    machine = load(CORPUS / "config_enumerator_1.ptx")
    assert Symbol("#", (1,)) in machine.output_alphabet


def test_endmarker_serialized_as_null(squaring_file):
    doc = json.loads(open(squaring_file).read())
    letters = [t["letter"] for t in doc["transitions"]]
    assert None in letters
    assert "#" not in json.dumps(doc)


_symbols = st.builds(
    __import__("pebbletx").Symbol,
    st.sampled_from("ab#!xyz"),
    st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)),
    st.one_of(
        st.none(),
        st.lists(
            st.lists(st.integers(0, 1), min_size=2, max_size=2).map(tuple),
            min_size=2, max_size=2,
        ).map(tuple),
    ),
)


@given(_symbols)
def test_symbol_json_round_trip(sym):
    if sym.is_endmarker():
        return  # the endmarker itself renders as null, tested above
    assert _symbol_from_json(_symbol_to_json(sym), "x") == sym


# ---------------------------------------------------------------------------
# Commands


def test_run_command(capsys, squaring_file):
    code = cli.main(["run", squaring_file, "--input", "ab"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "_a b a _b"


def test_run_trace_prints_one_line_per_step(capsys, tmp_path):
    from machines import drop_two_then_copy_rest

    path = tmp_path / "fixture.ptx"
    path.write_text(serialize(drop_two_then_copy_rest()))
    assert cli.main(["run", str(path), "--input", "abb", "--trace"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "b\n"
    assert captured.err.splitlines() == [
        "  s0 --#,true,nop--> s1 | eps  ->  (s1, [], 1)",
        "  s1 --a,true,drop1--> s2 | eps  ->  (s2, [1], 2)",
        "  s2 --b,true,drop2--> s3 | eps  ->  (s3, [1, 2], 3)",
        "  s3 --b,true,nop--> s3 | b  ->  (s3, [1, 2], 0)",
        "  s3 --#,true,nop--> s4 | eps  ->  (s4, [1, 2], 1)",
        "  s4 --a,!h=p2,nop--> s4 | eps  ->  (s4, [1, 2], 2)",
        "  s4 --b,true,lift2--> s5 | eps  ->  (s5, [1], 1)",
        "  s5 --a,true,lift1--> s6 | eps  ->  (s6, [], 0)",
        "  s6 --#,true,nop--> sf | eps  ->  (sf, [], 0)",
    ]


def test_run_command_empty_input(capsys, squaring_file):
    assert cli.main(["run", squaring_file, "--input", ""]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_run_command_rejects_inner_endmarker(capsys, squaring_file):
    assert cli.main(["run", squaring_file, "--input", "a#b"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: WordError:")


def test_run_command_reject_exit_code(capsys, tmp_path):
    from machines import drop_two_then_copy_rest

    path = tmp_path / "fixture.ptx"
    path.write_text(serialize(drop_two_then_copy_rest()))
    assert cli.main(["run", str(path), "--input", "a"]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"


def test_check_command(capsys, squaring_file):
    assert cli.main(["check", squaring_file]) == 0
    out = capsys.readouterr().out
    assert "reversible: yes" in out


def test_check_command_negative(capsys, tmp_path):
    from machines import pick_any_letter

    path = tmp_path / "nd.ptx"
    path.write_text(serialize(pick_any_letter()))
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "deterministic: no" in out
    assert "joint test" in out


def test_reverse_command(tmp_path, squaring_file):
    out = tmp_path / "rev.ptx"
    assert cli.main(["reverse", squaring_file, "-o", str(out)]) == 0
    rev = load(out)
    fwd = semantics(squaring("ab"), "ab")
    assert semantics(rev, "ab") == tuple(reversed(fwd))


def test_eliminate_eq_command(tmp_path, squaring_file):
    out = tmp_path / "basic.ptx"
    assert cli.main(["eliminate-eq", squaring_file, "-o", str(out)]) == 0
    basic = load(out)
    assert not basic.equality_tests_allowed
    assert semantics(basic, "ab") == semantics(squaring("ab"), "ab")


def test_compose_command(tmp_path, modsq_file, itrev_file, capsys):
    out = tmp_path / "comp.ptx"
    assert cli.main(["compose", modsq_file, itrev_file, "-o", str(out)]) == 0
    comp = load(out)
    got = semantics(comp, "bcd")
    assert "".join(s.render() for s in got) == "!bdc!cbd!"


def test_compose_command_precondition_failure(tmp_path, squaring_file, capsys):
    from machines import pick_any_letter

    nd = tmp_path / "nd.ptx"
    nd.write_text(serialize(pick_any_letter().replace(
        input_alphabet=squaring("ab").output_alphabet)))
    out = tmp_path / "comp.ptx"
    assert cli.main(["compose", squaring_file, str(nd), "-o", str(out)]) == 3
    assert "NotDeterministic" in capsys.readouterr().err


def test_normalize_command(tmp_path, squaring_file):
    out = tmp_path / "flat.ptx"
    assert cli.main([
        "normalize", squaring_file, "--pass", "separate-moves", "-o", str(out)
    ]) == 0
    flat = load(out)
    assert all(t.op.is_nop() or flat.pol(t.dst) == 0 for t in flat.transitions)


def test_decompose_command(tmp_path, squaring_file):
    out = tmp_path / "parts"
    assert cli.main(["decompose", squaring_file, "-o", str(out)]) == 0
    enum = load(out / "config_enumerator.ptx")
    annot = load(out / "equality_annotator.ptx")
    sim = load(out / "simulator.ptx")
    w = semantics(sim, semantics(annot, semantics(enum, "ab")))
    assert w == semantics(squaring("ab"), "ab")


def test_decompose_command_pebbleless_machine(tmp_path, capsys):
    out = tmp_path / "parts"
    assert cli.main(["decompose", str(CORPUS / "itrev.ptx"), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NoPebblesError:")
    assert "Traceback" not in err
    assert not out.exists()


def test_uniformize_command(tmp_path, squaring_file, capsys):
    out = tmp_path / "uni.ptx"
    assert cli.main(["uniformize", squaring_file, "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pebbles: 1" in printed
    assert "not asserted" in printed
    uni = load(out)
    assert semantics(uni, "ab") == semantics(squaring("ab"), "ab")


def test_builtin_command(tmp_path):
    out = tmp_path / "m.ptx"
    assert cli.main(["builtin", "squaring", "--alphabet", "xy", "-o", str(out)]) == 0
    m = load(out)
    assert semantics(m, "xy") is not None


def test_builtin_command_unknown_name(tmp_path, capsys):
    out = tmp_path / "m.ptx"
    assert cli.main(["builtin", "nope", "-o", str(out)]) == 3


def test_oracle_compose_command(capsys, modsq_file, itrev_file):
    assert cli.main([
        "oracle", "compose", modsq_file, itrev_file, "--maxlen", "3"
    ]) == 0
    assert "all agree" in capsys.readouterr().out


def test_oracle_compose_reports_mismatches(capsys, monkeypatch, tmp_path):
    # a composition that computes another function (the reversal of the
    # copier, against copier . copier) is caught word by word
    from pebbletx.builtins import copier
    from pebbletx.transforms import reverse_transducer

    path = tmp_path / "copier.ptx"
    path.write_text(serialize(copier("ab")))
    monkeypatch.setattr(cli, "compose", lambda first, second: reverse_transducer(first))
    assert cli.main(["oracle", "compose", str(path), str(path), "--maxlen", "2"]) == 1
    a, b = Symbol("a"), Symbol("b")
    assert capsys.readouterr().out.splitlines() == [
        f"MISMATCH on ab: composed={(b, a)} chained={(a, b)}",
        f"MISMATCH on ba: composed={(a, b)} chained={(b, a)}",
        "checked 7 words up to length 2: 2 mismatches",
    ]


def test_io_failure_exit_code(capsys):
    assert cli.main(["run", "/nonexistent/machine.ptx", "--input", "a"]) == 2


def test_run_diverge_exit_code(tmp_path, capsys):
    from pebbletx.core import ENDMARKER, NOP, Symbol, TRUE, Transducer, Transition

    sig = frozenset({Symbol("a")})
    spin = Transducer(
        "spin", 0, sig, sig,
        {"z0": 0, "z1": 1, "zf": 0}, "z0", "zf",
        (
            Transition("z0", ENDMARKER, TRUE, NOP, "z1"),
            Transition("z1", Symbol("a"), TRUE, NOP, "z1"),
            Transition("z1", ENDMARKER, TRUE, NOP, "z1"),
        ),
    )
    path = tmp_path / "spin.ptx"
    path.write_text(serialize(spin))
    assert cli.main(["run", str(path), "--input", "aa"]) == 2
    assert capsys.readouterr().out.strip() == "DIVERGE"
    assert cli.main(["run", str(path), "--input", "aa", "--detect-loop"]) == 2


def test_budget_flag_matches_runner_default(tmp_path, squaring_file, capsys):
    from pebbletx.core import word_symbols
    from pebbletx.runner import default_budget

    machine = load(squaring_file)
    budget = default_budget(machine, word_symbols("ab"))
    assert cli.main(["run", squaring_file, "--input", "ab", "--budget", str(budget)]) == 0
    capsys.readouterr()


def test_cli_matches_library(squaring_file, capsys):
    # the command is a thin wrapper: same verdicts as calling the library
    from pebbletx.analysis import is_reversible

    code = cli.main(["check", squaring_file])
    assert (code == 0) == is_reversible(load(squaring_file))
