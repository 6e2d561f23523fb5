"""The concrete machines used throughout the tests and the CLI.

All constructors are alphabet-generic; marked letters are symbols with a
one-bit annotation appended, so downstream machines can still match on the
base letter.
"""

from __future__ import annotations

from typing import Iterable, Union

from .core import (
    ENDMARKER,
    NOP,
    Symbol,
    Test,
    TRUE,
    Transducer,
    Transition,
    alphabet_of,
    drop,
    head_eq,
    lift,
)

Alphabet = Union[str, Iterable[Symbol]]

BANG = Symbol("!")


def mark(s: Symbol) -> Symbol:
    """Marked copy of a letter; appending a bit keeps re-marking injective."""
    bits = (s.bits or ()) + (1,)
    return Symbol(s.base, bits, s.matrix)


def _machine(name, k, sigma, gamma, pol, initial, final, transitions, eq=False):
    return Transducer(
        name=name,
        k=k,
        input_alphabet=sigma,
        output_alphabet=gamma,
        polarity=pol,
        initial=initial,
        final=final,
        transitions=tuple(transitions),
        equality_tests_allowed=eq,
    )


def squaring(sigma: Alphabet = "ab", variant: bool = False) -> Transducer:
    """One copy of the input per input letter, the i-th letter of the i-th
    copy marked.  ``variant`` flips q3 to a left-mover (same function)."""
    sig = alphabet_of(sigma)
    pol = {"q0": 0, "q1": 1, "q2": 0, "q3": -1 if variant else 1, "q4": 1, "q5": 1}
    p1 = Test.of(head_eq(1))
    not_p1 = Test.of(head_eq(1, negated=True))
    ts = [
        Transition("q0", ENDMARKER, TRUE, NOP, "q1"),
        Transition("q1", ENDMARKER, TRUE, NOP, "q2"),
        Transition("q3", ENDMARKER, TRUE, NOP, "q4"),
        Transition("q4", ENDMARKER, TRUE, NOP, "q5"),
    ]
    for a in sorted(sig):
        ts += [
            Transition("q1", a, TRUE, drop(1), "q3"),
            Transition("q3", a, not_p1, NOP, "q3"),
            Transition("q4", a, not_p1, NOP, "q4", (a,)),
            Transition("q4", a, p1, NOP, "q4", (mark(a),)),
            Transition("q5", a, not_p1, NOP, "q5"),
            Transition("q5", a, TRUE, lift(1), "q1"),
        ]
    gamma = sig | {mark(a) for a in sig}
    name = "squaring_variant" if variant else "squaring"
    return _machine(name, 1, sig, gamma, pol, "q0", "q2", ts)


def squaring_variant(sigma: Alphabet = "ab") -> Transducer:
    return squaring(sigma, variant=True)


def modified_squaring(sigma: Alphabet = "ab") -> Transducer:
    """Squaring that prints ``!`` instead of a marked letter, so its output
    is shaped for the iterated reverse function."""
    base = squaring(sigma)
    ts = []
    for t in base.transitions:
        if t.out and t.out[0].bits is not None:
            t = Transition(t.src, t.letter, t.test, t.op, t.dst, (BANG,))
        ts.append(t)
    gamma = base.input_alphabet | {BANG}
    return _machine(
        "modified_squaring", 1, base.input_alphabet, gamma,
        dict(base.polarity), "q0", "q2", ts,
    )


def all_prefixes_reversed(sigma: Alphabet = "ab") -> Transducer:
    """Concatenation of the reverses of all prefixes, '!'-separated."""
    sig = alphabet_of(sigma)
    pol = {"q0": 0, "q1": 1, "q2": 0, "q3": -1, "q4": 1}
    not_p1 = Test.of(head_eq(1, negated=True))
    ts = [
        Transition("q0", ENDMARKER, TRUE, NOP, "q1"),
        Transition("q1", ENDMARKER, TRUE, NOP, "q2"),
        Transition("q3", ENDMARKER, TRUE, NOP, "q4", (BANG,)),
    ]
    for a in sorted(sig):
        ts += [
            Transition("q1", a, TRUE, drop(1), "q3", (a,)),
            Transition("q3", a, not_p1, NOP, "q3", (a,)),
            Transition("q4", a, not_p1, NOP, "q4"),
            Transition("q4", a, TRUE, lift(1), "q1"),
        ]
    gamma = sig | {BANG}
    return _machine("all_prefixes_reversed", 1, sig, gamma, pol, "q0", "q2", ts)


def iterated_reverse(sigma: Alphabet = "ab!") -> Transducer:
    """Reverses every '!'-separated segment independently (0 pebbles).

    '!' is the separator; it is added to the alphabet if absent.
    """
    sig = alphabet_of(sigma) | {BANG}
    plain = sorted(sig - {BANG})
    pol = {"r0": 0, "r1": 1, "r2": -1, "r3": 1, "rf": 0}
    ts = [
        Transition("r0", ENDMARKER, TRUE, NOP, "r1"),
        Transition("r1", ENDMARKER, TRUE, NOP, "r2"),
        Transition("r1", BANG, TRUE, NOP, "r2"),
        Transition("r2", ENDMARKER, TRUE, NOP, "r3"),
        Transition("r2", BANG, TRUE, NOP, "r3"),
        Transition("r3", BANG, TRUE, NOP, "r1", (BANG,)),
        Transition("r3", ENDMARKER, TRUE, NOP, "rf"),
    ]
    for a in plain:
        ts += [
            Transition("r1", a, TRUE, NOP, "r1"),
            Transition("r2", a, TRUE, NOP, "r2", (a,)),
            Transition("r3", a, TRUE, NOP, "r3"),
        ]
    return _machine("iterated_reverse", 0, sig, sig, pol, "r0", "rf", ts)


def copier(sigma: Alphabet = "ab") -> Transducer:
    """Identity function as a single left-to-right sweep (0 pebbles)."""
    sig = alphabet_of(sigma)
    pol = {"c0": 0, "c1": 1, "c2": 0}
    ts = [
        Transition("c0", ENDMARKER, TRUE, NOP, "c1"),
        Transition("c1", ENDMARKER, TRUE, NOP, "c2"),
    ]
    for a in sorted(sig):
        ts.append(Transition("c1", a, TRUE, NOP, "c1", (a,)))
    return _machine("copier", 0, sig, sig, pol, "c0", "c2", ts)


BUILTIN_CONSTRUCTORS = {
    "squaring": squaring,
    "squaring-variant": squaring_variant,
    "modified-squaring": modified_squaring,
    "all-prefixes-reversed": all_prefixes_reversed,
    "iterated-reverse": iterated_reverse,
    "copier": copier,
}
