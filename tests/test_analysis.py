import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machines import (
    brute_force_satisfiable,
    equality_pair_probe,
    first_conflict_reference,
    random_machine,
    semantically_deterministic,
    semantically_reverse_deterministic,
    words_upto,
)
from pebbletx.analysis import (
    is_deterministic,
    is_reverse_deterministic,
    is_reversible,
    validate,
)
from pebbletx.builtins import copier
from pebbletx.core import (
    ENDMARKER,
    NOP,
    TRUE,
    Symbol,
    Test,
    Transition,
    drop,
    guard,
    peb_eq,
    reverse_guard,
)
from pebbletx.transforms import _reverse_unchecked


def test_validate_builtins_clean(sq, sq_variant, prefixes, itrev, modsq, ident):
    for machine in (sq, sq_variant, prefixes, itrev, modsq, ident):
        assert validate(machine) == []


def test_validate_final_state_has_outgoing(sq):
    bad = sq.replace(
        transitions=sq.transitions
        + (Transition("q2", ENDMARKER, TRUE, NOP, "q1"),)
    )
    kinds = {v.kind for v in validate(bad)}
    assert "FinalStateHasOutgoing" in kinds
    # the same added transition also re-enters the initial state's territory?
    bad2 = sq.replace(
        transitions=sq.transitions + (Transition("q1", ENDMARKER, TRUE, NOP, "q0"),)
    )
    assert "InitialStateHasIncoming" in {v.kind for v in validate(bad2)}


def test_validate_equality_atom_in_basic_machine(sq):
    t = Transition("q1", Symbol("a"), Test.of(peb_eq(1, 1)), NOP, "q1")
    bad = sq.replace(transitions=sq.transitions + (t,))
    assert "EqualityAtomInBasicMachine" in {v.kind for v in validate(bad)}
    ok = bad.replace(equality_tests_allowed=True)
    assert "EqualityAtomInBasicMachine" not in {v.kind for v in validate(ok)}


def test_validate_index_out_of_range(sq):
    t = Transition("q1", Symbol("a"), Test.of(peb_eq(1, 2)), NOP, "q1")
    bad = sq.replace(transitions=sq.transitions + (t,), equality_tests_allowed=True)
    assert "AtomIndexOutOfRange" in {v.kind for v in validate(bad)}


def test_validate_reserved_letter():
    m = copier("ab")
    bad = m.replace(input_alphabet=m.input_alphabet | {ENDMARKER})
    assert "ReservedLetterInAlphabet" in {v.kind for v in validate(bad)}


_COPIER = copier("ab")
_A, _Z = Symbol("a"), Symbol("z")


def _copier_plus(t: Transition):
    return _COPIER.replace(transitions=_COPIER.transitions + (t,))


@pytest.mark.parametrize("machine, messages", [
    (_COPIER.replace(k=-1), ["NegativePebbleCount: -1"]),
    (_COPIER.replace(initial="zz"), ["UnknownState: initial 'zz'"]),
    (_COPIER.replace(final="zz"), ["UnknownState: final 'zz'"]),
    (_copier_plus(Transition("zz", _A, TRUE, NOP, "c1")),
     ["UnknownState: transition #4 (zz --a,true,nop--> c1 | eps): source 'zz'"]),
    (_copier_plus(Transition("c1", _A, TRUE, NOP, "zz")),
     ["UnknownState: transition #4 (c1 --a,true,nop--> zz | eps): target 'zz'"]),
    (_COPIER.replace(final="c0"),
     ["InitialEqualsFinal: 'c0'",
      "FinalStateHasOutgoing: transition #0 (c0 --#,true,nop--> c1 | eps)"]),
    (_COPIER.replace(polarity={**_COPIER.polarity, "c2": 1}),
     ["EndpointNotStationary: final state 'c2' has polarity 1"]),
    (_COPIER.replace(polarity={**_COPIER.polarity, "c1": 2}), ["BadPolarity: 2"]),
    (_copier_plus(Transition("c1", _Z, TRUE, NOP, "c1")),
     ["LetterNotInAlphabet: transition #4 (c1 --z,true,nop--> c1 | eps): z"]),
    (_copier_plus(Transition("c1", _A, TRUE, NOP, "c1", (_Z,))),
     ["OutputNotInAlphabet: transition #4 (c1 --a,true,nop--> c1 | z): z"]),
    (_copier_plus(Transition("c1", _A, TRUE, drop(1), "c1")),
     ["OpIndexOutOfRange: transition #4 (c1 --a,true,drop1--> c1 | eps): drop1"]),
])
def test_validate_reports_each_violation_verbatim(machine, messages):
    # one minimal mutation of the copier per violation, with its full text
    assert [str(v) for v in validate(machine)] == messages


def test_determinism_verdicts(sq, itrev):
    ok, witness = is_deterministic(sq)
    assert ok and witness is None
    assert is_deterministic(itrev) == (True, None)


def test_determinism_conflict_witness(sq):
    # drop the p1 guard from one q4 loop: both loops can fire at once
    loops = [t for t in sq.transitions if t.src == "q4" and not t.letter.is_endmarker()]
    ungated = Transition(loops[0].src, loops[0].letter, TRUE, NOP, loops[0].dst, loops[0].out)
    bad = sq.replace(transitions=sq.transitions + (ungated,))
    ok, witness = is_deterministic(bad)
    assert not ok
    assert witness.direction == "forward"
    # the semantic checker confirms the joint test
    assert brute_force_satisfiable(witness.joint_test, bad.k, bad.k + 2)


def test_reverse_determinism_verdicts(sq, prefixes):
    assert is_reverse_deterministic(sq) == (True, None)
    assert is_reverse_deterministic(prefixes) == (True, None)


def test_reverse_determinism_conflict(sq):
    # two nop transitions into one state with overlapping tests
    t = Transition("q3", Symbol("a"), TRUE, NOP, "q4")
    bad = sq.replace(transitions=sq.transitions + (t,))
    ok, witness = is_reverse_deterministic(bad)
    assert not ok
    assert witness.direction == "backward"
    assert brute_force_satisfiable(witness.joint_test, bad.k, bad.k + 2)


def test_is_reversible(sq, sq_variant, prefixes, itrev, modsq, ident):
    for machine in (sq, sq_variant, prefixes, itrev, modsq, ident):
        assert is_reversible(machine)
    dup = sq.transitions[0]
    extra = Transition(dup.src, dup.letter, dup.test, dup.op, dup.dst, (Symbol("a"),))
    assert not is_reversible(sq.replace(transitions=sq.transitions + (extra,)))


def test_equality_machine_verdicts():
    probe = equality_pair_probe()
    assert validate(probe) == []
    assert not is_deterministic(probe)[0]


def test_syntactic_matches_semantic_on_builtins(sq, sq_variant, prefixes, itrev, ident):
    # syntactic-true means no configuration of the full graph has two
    # (reverse-)enabled transitions, on every short word
    for machine in (sq, sq_variant, prefixes, itrev, ident):
        for u in words_upto("ab", 3):
            assert semantically_deterministic(machine, u)
            assert semantically_reverse_deterministic(machine, u)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2))
def test_syntactic_matches_semantic_on_generated_machines(seed, k):
    # a satisfiable joint guard needs k + 1 <= 3 distinct positions (head and
    # pebbles); words of length <= 3 over "ab" give them, the head on any letter
    machine = random_machine(random.Random(seed), k=k)
    for check, semantic in (
        (is_deterministic, semantically_deterministic),
        (is_reverse_deterministic, semantically_reverse_deterministic),
    ):
        ok, witness = check(machine)
        assert ok == all(semantic(machine, u) for u in words_upto("ab", 3))
        if witness is not None:
            assert brute_force_satisfiable(witness.joint_test, machine.k, machine.k + 2)


def test_complementary_skip_keeps_verdicts_and_witnesses():
    # a pair whose guards hold an atom and its negation is skipped unbuilt;
    # it is unsatisfiable, so the first conflicting pair is unchanged
    rng = random.Random(3)
    negatives = 0
    for k in (0, 1, 2, 3):
        for _ in range(150):
            machine = random_machine(rng, k=k)
            for check, end, guard_of, direction in (
                (is_deterministic, "src", guard, "forward"),
                (is_reverse_deterministic, "dst", reverse_guard, "backward"),
            ):
                verdict = check(machine)
                assert verdict == first_conflict_reference(machine, end, guard_of, direction)
                negatives += not verdict[0]
    assert negatives > 300


def test_reverse_determinism_equals_determinism_of_reverse(sq, prefixes, itrev):
    for machine in (sq, prefixes, itrev):
        assert (
            is_reverse_deterministic(machine)[0]
            == is_deterministic(_reverse_unchecked(machine))[0]
        )
    # and on a broken machine both verdicts flip together
    t = Transition("q3", Symbol("a"), TRUE, NOP, "q4")
    bad = sq.replace(transitions=sq.transitions + (t,))
    assert (
        is_reverse_deterministic(bad)[0]
        == is_deterministic(_reverse_unchecked(bad))[0]
    )
