import pytest

from machines import (
    iterated_reverse_fn,
    modified_squaring_fn,
    prefixes_reversed_fn,
    squaring_fn,
    words_upto,
)
from pebbletx.analysis import is_reversible, validate
from pebbletx.builtins import (
    BUILTIN_CONSTRUCTORS,
    all_prefixes_reversed,
    copier,
    iterated_reverse,
    mark,
    modified_squaring,
    squaring,
)
from pebbletx.core import ReservedLetterError, Symbol
from pebbletx.runner import run, semantics


def render(out) -> str:
    return "".join(s.render() for s in out)


def letters(machine) -> str:
    """The machine's input alphabet, as a string for ``words_upto``."""
    return "".join(sorted(s.base for s in machine.input_alphabet))


def test_squaring_examples(sq):
    assert run(sq, "a").output == (mark(Symbol("a")),)
    assert run(sq, "ab").output == squaring_fn("ab")
    assert render(run(sq, "ab").output) == "_ab a_b".replace(" ", "")
    assert is_reversible(sq)


def test_squaring_variant_same_function(sq, sq_variant):
    assert sq_variant.polarity["q3"] == -1
    assert is_reversible(sq_variant)
    for u in words_upto("ab", 4):
        assert semantics(sq_variant, u) == semantics(sq, u)


def test_prefixes_examples(prefixes):
    assert render(run(prefixes, "abb").output) == "a!ba!bba!"
    assert run(prefixes, "").output == ()
    assert is_reversible(prefixes)
    for u in words_upto("ab", 4):
        assert semantics(prefixes, u) == prefixes_reversed_fn(u)


def test_iterated_reverse_examples():
    m = iterated_reverse("abc")
    assert render(run(m, "ab!c").output) == "ba!c"
    assert render(run(m, "!").output) == "!"
    assert is_reversible(m)
    for u in words_upto("ab!", 4):
        assert semantics(m, u) == iterated_reverse_fn(u)


def test_modified_squaring_examples():
    m = modified_squaring("bcd")
    assert render(run(m, "bcd").output) == "!cdb!dbc!"
    assert render(run(m, "b").output) == "!"
    assert is_reversible(m)
    for u in words_upto("bc", 3):
        assert semantics(m, u) == modified_squaring_fn(u)


def test_copier_examples(ident):
    assert render(run(ident, "ab").output) == "ab"
    assert run(ident, "").output == ()
    assert is_reversible(ident)


def test_all_builtins_validate():
    for name, ctor in BUILTIN_CONSTRUCTORS.items():
        machine = ctor("ab")
        assert validate(machine) == [], name


def test_reserved_letter_rejected():
    with pytest.raises(ReservedLetterError):
        squaring("a#")
    with pytest.raises(ReservedLetterError):
        copier("#")


def test_alphabet_generic_renaming():
    # constructing over a renamed alphabet commutes with renaming the runs
    rename = {"a": "x", "b": "y"}
    m1 = squaring("ab")
    m2 = squaring("xy")
    for u in words_upto("ab", 3):
        img = "".join(rename[c] for c in u)
        out1 = semantics(m1, u)
        out2 = semantics(m2, img)
        assert [(rename[s.base], s.bits) for s in out1] == [
            (s.base, s.bits) for s in out2
        ]


def test_mark_is_injective_and_stackable():
    a = Symbol("a")
    assert mark(a) != a
    assert mark(mark(a)) != mark(a)
    assert mark(a).base == "a"


def test_corpus_files_match_constructors():
    # every builtin ships as a checked-in machine file
    import pathlib

    from pebbletx.machinefile import load, serialize

    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    expected = {
        "squaring.ptx": squaring("ab"),
        "squaring_variant.ptx": BUILTIN_CONSTRUCTORS["squaring-variant"]("ab"),
        "prefixes.ptx": all_prefixes_reversed("ab"),
        "itrev.ptx": iterated_reverse("bcd"),
        "modsq.ptx": modified_squaring("bcd"),
        "copier.ptx": copier("ab"),
    }
    for name, machine in expected.items():
        path = corpus / name
        assert path.exists(), name
        assert path.read_text() == serialize(machine), name
        loaded = load(path)
        for u in words_upto(letters(machine), 3):
            assert semantics(loaded, u) == semantics(machine, u)


def test_no_runtime_nondeterminism_in_builtins():
    # run() raises if two transitions are ever enabled; sweep all builtins
    for ctor in BUILTIN_CONSTRUCTORS.values():
        machine = ctor("ab")
        for u in words_upto(letters(machine), 5):
            run(machine, u)
