"""``machinefile.serialize`` writes exactly the canonical text that
``tests/machines.serialize_reference`` builds with ``json.dumps``."""

import importlib.util
import random
from pathlib import Path

import pytest

from machines import drop_two_then_copy_rest, random_machine, serialize_reference
from pebbletx.builtins import copier, iterated_reverse, mark
from pebbletx.core import ENDMARKER, NOP, TRUE, Symbol, Test, Transducer, Transition, drop, head_eq, lift, peb_eq
from pebbletx.machinefile import MachineFileError, load, serialize
from pebbletx.transforms import eliminate_equality

ROOT = Path(__file__).resolve().parent.parent


def _digest_script():
    spec = importlib.util.spec_from_file_location(
        "script_construction_digests", ROOT / "scripts" / "construction_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_canonical(machine):
    assert serialize(machine) == serialize_reference(machine), machine.name


@pytest.mark.parametrize("path", sorted((ROOT / "corpus").glob("*.ptx")), ids=lambda p: p.name)
def test_corpus_files_are_written_back_byte_for_byte(path):
    machine = load(path)
    assert_canonical(machine)
    assert serialize(machine) == path.read_text(encoding="utf-8")


def test_construction_digest_machines():
    script = _digest_script()
    for _, machine in script.constructions():
        assert_canonical(machine)
    for machine in (iterated_reverse("ab"), copier("ab")):
        assert_canonical(script.two_way_round_trip(machine))
    rng = random.Random(5)
    for _ in range(20):
        assert_canonical(script.two_way_round_trip(random_machine(rng, k=0)))


def test_random_machines():
    rng = random.Random(23)
    for n in range(300):
        machine = random_machine(rng, k=n % 4)
        assert_canonical(machine)
        assert_canonical(eliminate_equality(machine))


def _sweep(name, letters, out=lambda a: (a,)):
    """A left-to-right sweep over ``letters``, writing ``out(a)`` on each ``a``."""
    sig = frozenset(letters)
    gamma = frozenset(s for a in sig for s in out(a))
    ts = [Transition("s0", ENDMARKER, TRUE, NOP, "s1"), Transition("s1", ENDMARKER, TRUE, NOP, "s2")]
    ts += [Transition("s1", a, TRUE, NOP, "s1", out(a)) for a in sorted(sig)]
    return Transducer(name, 0, sig, gamma, {"s0": 0, "s1": 1, "s2": 0}, "s0", "s2", tuple(ts))


def test_escaped_and_non_ascii_letters():
    # the sort key escapes non-ASCII and the file text keeps it as UTF-8,
    # so both forms of every letter are pinned, astral plane included
    machine = _sweep("escapes", [Symbol(c) for c in '"\\é⊢\U0001d51ea'])
    assert_canonical(machine)
    text = serialize(machine)
    assert '"é"' in text and '"⊢"' in text and '"\U0001d51e"' in text
    assert '"\\""' in text and '"\\\\"' in text


def test_annotated_letters():
    letters = [
        Symbol("a", (0, 1)),
        Symbol("a", None, ((1, 0), (0, 1))),
        Symbol("é", (1,), ((1,),)),
        Symbol("#", (0, 0)),
        mark(Symbol("b")),
    ]
    assert_canonical(_sweep("annotated", letters, out=lambda a: (a, mark(a), Symbol(a.base))))


def test_guards_and_ops_at_every_depth():
    sig = frozenset(Symbol(c) for c in "ab")
    a, b = sorted(sig)
    tests = [TRUE, Test((), True), Test.of(head_eq(1)), Test.of(head_eq(2, True), peb_eq(1, 2))]
    ops = [NOP, drop(1), lift(1), drop(2), lift(2)]
    ts = [Transition("q", a, t, o, "q", (b,) * n) for n, (t, o) in enumerate(zip(tests * 2, ops + ops[:3]))]
    ts.append(Transition("q", ENDMARKER, TRUE, NOP, "f"))
    machine = Transducer("guards", 2, sig, sig, {"q": 1, "f": 0}, "q", "f", tuple(ts))
    assert_canonical(machine)


def test_name_with_quote_and_newline():
    renamed = drop_two_then_copy_rest().replace(name='a "b"\nc\\')
    assert_canonical(renamed)
    assert '"name": "a \\"b\\"\\nc\\\\",' in serialize(renamed)


def test_machine_without_transitions():
    sig = frozenset({Symbol("a")})
    machine = Transducer("empty", 0, sig, frozenset(), {"i": 0, "f": 0}, "i", "f", ())
    assert_canonical(machine)
    assert '"transitions": []\n}\n' in serialize(machine)
    assert '"output_alphabet": []' in serialize(machine)


def test_tuple_state_names_and_collisions():
    machine = _sweep("tuples", [Symbol("a")])
    renamed = machine.replace(
        polarity={("s", i): p for i, p in enumerate((0, 1, 0))},
        initial=("s", 0), final=("s", 2),
        transitions=tuple(
            t._replace(src=("s", int(t.src[1])), dst=("s", int(t.dst[1]))) for t in machine.transitions
        ),
    )
    assert_canonical(renamed)
    clash = machine.replace(polarity={**machine.polarity, ("s0",): 1, "('s0',)": 1})
    for write in (serialize, serialize_reference):
        with pytest.raises(MachineFileError, match="collide"):
            write(clash)
