"""Input machines and independent functional references for the benchmark.

The fixture machines and the ``random_machine`` generator are copies of the
ones in ``tests/machines.py``, kept here so that the benchmark's inputs stay
fixed when the tests change.  The reference functions are written from the
functions' definitions, on words of ``Symbol``s, and never run a pebble
machine, so a machine under test cannot be its own reference.
"""

from __future__ import annotations

import itertools
import random

from pebbletx.core import (
    ENDMARKER,
    NOP,
    TRUE,
    Symbol,
    Test,
    Transducer,
    Transition,
    drop,
    head_eq,
    lift,
    peb_eq,
)

BANG = Symbol("!")
SAME, DIFF = Symbol("S"), Symbol("D")


def word(text: str) -> tuple[Symbol, ...]:
    return tuple(Symbol(c) for c in text)


def render(w) -> str:
    return "".join(s.render() for s in w) or "(empty)"


def words_upto(alphabet, maxlen: int):
    for length in range(maxlen + 1):
        yield from itertools.product(alphabet, repeat=length)


def seeded_words(rng: random.Random, alphabet, length: int, count: int):
    return [tuple(rng.choice(alphabet) for _ in range(length)) for _ in range(count)]


# ---------------------------------------------------------------------------
# Functional references


def _mark(s: Symbol) -> Symbol:
    return Symbol(s.base, (s.bits or ()) + (1,), s.matrix)


def squaring_ref(w) -> tuple[Symbol, ...]:
    """One copy of ``w`` per letter, the i-th letter of the i-th copy marked."""
    return tuple(
        _mark(c) if i == j else c for i in range(len(w)) for j, c in enumerate(w)
    )


def modified_squaring_ref(w) -> tuple[Symbol, ...]:
    return tuple(BANG if i == j else c for i in range(len(w)) for j, c in enumerate(w))


def prefixes_reversed_ref(w) -> tuple[Symbol, ...]:
    out: list[Symbol] = []
    for i in range(1, len(w) + 1):
        out.extend(reversed(w[:i]))
        out.append(BANG)
    return tuple(out)


def iterated_reverse_ref(w) -> tuple[Symbol, ...]:
    segments: list[list[Symbol]] = [[]]
    for sym in w:
        if sym == BANG:
            segments.append([])
        else:
            segments[-1].append(sym)
    out: list[Symbol] = []
    for i, seg in enumerate(segments):
        if i:
            out.append(BANG)
        out.extend(reversed(seg))
    return tuple(out)


def drop_two_then_copy_rest_ref(w):
    return tuple(w[2:]) if len(w) >= 2 else None


def config_markings_ref(k: int, w) -> tuple[Symbol, ...]:
    """C_k: every k-marking of ``#w`` in lexicographic order, one annotated
    copy of ``#w`` per marking."""
    full = (ENDMARKER,) + tuple(w)
    out = []
    for marking in itertools.product(range(len(full)), repeat=k):
        for pos, sym in enumerate(full):
            bits = tuple(1 if marking[i] == pos else 0 for i in range(k))
            out.append(Symbol(sym.base, (sym.bits or ()) + bits, sym.matrix))
    return tuple(out)


def equality_annotation_ref(k: int, w) -> tuple[Symbol, ...]:
    """C_k^= applied to C_k's output: every letter of a copy also carries
    the k x k matrix of which pebbles share a position in that copy."""
    full = (ENDMARKER,) + tuple(w)
    out = []
    for marking in itertools.product(range(len(full)), repeat=k):
        matrix = tuple(
            tuple(1 if marking[i] == marking[j] else 0 for j in range(k)) for i in range(k)
        )
        for pos, sym in enumerate(full):
            bits = tuple(1 if marking[i] == pos else 0 for i in range(k))
            out.append(Symbol(sym.base, (sym.bits or ()) + bits, matrix))
    return tuple(out)


def pick_any_letter_rel(w) -> frozenset:
    return frozenset((c,) for c in w)


def equality_pair_probe_rel(w) -> frozenset:
    """Both pebbles land anywhere once the first sits on a letter, so a
    non-empty word yields both the same- and the different-position verdict."""
    return frozenset({(SAME,), (DIFF,)}) if w else frozenset()


def drop_two_then_copy_rest_rel(w) -> frozenset:
    out = drop_two_then_copy_rest_ref(w)
    return frozenset() if out is None else frozenset({out})


# ---------------------------------------------------------------------------
# Fixture machines (copies of tests/machines.py)


def drop_two_then_copy_rest(sigma: str = "ab") -> Transducer:
    """Deterministic 2-pebble machine: pebbles on positions 1 and 2, then
    copies the rest of the word.  Domain: |u| >= 2."""
    sig = frozenset(Symbol(c) for c in sigma)
    pol = {"s0": 0, "s1": 1, "s2": 1, "s3": 1, "s4": 1, "s5": -1, "s6": -1, "sf": 0}
    ts = [
        Transition("s0", ENDMARKER, TRUE, NOP, "s1"),
        Transition("s3", ENDMARKER, TRUE, NOP, "s4"),
        Transition("s6", ENDMARKER, TRUE, NOP, "sf"),
    ]
    for a in sorted(sig):
        ts += [
            Transition("s1", a, TRUE, drop(1), "s2"),
            Transition("s2", a, TRUE, drop(2), "s3"),
            Transition("s3", a, TRUE, NOP, "s3", (a,)),
            Transition("s4", a, Test.of(head_eq(2, negated=True)), NOP, "s4"),
            Transition("s4", a, TRUE, lift(2), "s5"),
            Transition("s5", a, TRUE, lift(1), "s6"),
        ]
    return Transducer("drop_two_then_copy_rest", 2, sig, sig, pol, "s0", "sf", tuple(ts))


def pick_any_letter(sigma: str = "ab") -> Transducer:
    """Nondeterministic 1-pebble machine computing {(u, u_i) : 1 <= i <= |u|}."""
    sig = frozenset(Symbol(c) for c in sigma)
    pol = {"w0": 0, "w1": 1, "w2": 1, "w3": 1, "w4": -1, "wf": 0}
    ts = [
        Transition("w0", ENDMARKER, TRUE, NOP, "w1"),
        Transition("w2", ENDMARKER, TRUE, NOP, "w3"),
        Transition("w4", ENDMARKER, TRUE, NOP, "wf"),
    ]
    np1 = Test.of(head_eq(1, negated=True))
    for a in sorted(sig):
        ts += [
            Transition("w1", a, TRUE, NOP, "w1"),
            Transition("w1", a, TRUE, drop(1), "w2", (a,)),
            Transition("w2", a, np1, NOP, "w2"),
            Transition("w3", a, np1, NOP, "w3"),
            Transition("w3", a, TRUE, lift(1), "w4"),
            Transition("w4", a, TRUE, NOP, "w4"),
        ]
    return Transducer("pick_any_letter", 1, sig, sig, pol, "w0", "wf", tuple(ts))


def equality_pair_probe(sigma: str = "ab") -> Transducer:
    """Nondeterministic 2-pebble machine using a (p1=p2) guard: drops the
    pebbles anywhere and reports S/D for same/different positions."""
    sig = frozenset(Symbol(c) for c in sigma)
    pol = {"e0": 0, "d1": 1, "d2": 1, "e3": 0, "e4": -1, "e5": -1, "ef": 0}
    same = Test.of(peb_eq(1, 2))
    diff = Test.of(peb_eq(1, 2, negated=True))
    np1 = Test.of(head_eq(1, negated=True))
    ts = [Transition("e0", ENDMARKER, TRUE, NOP, "d1")]
    letters = sorted(sig) + [ENDMARKER]
    for a in sorted(sig):
        ts += [
            Transition("d1", a, TRUE, NOP, "d1"),
            Transition("d1", a, TRUE, drop(1), "d2"),
        ]
    for a in letters:
        ts += [
            Transition("d2", a, TRUE, NOP, "d2"),
            Transition("d2", a, TRUE, drop(2), "e3"),
            Transition("e3", a, same, lift(2), "e4", (SAME,)),
            Transition("e3", a, diff, lift(2), "e4", (DIFF,)),
            Transition("e4", a, np1, NOP, "e4"),
            Transition("e4", a, TRUE, lift(1), "e5"),
        ]
    for a in sorted(sig):
        ts.append(Transition("e5", a, TRUE, NOP, "e5"))
    ts.append(Transition("e5", ENDMARKER, TRUE, NOP, "ef"))
    return Transducer(
        "equality_pair_probe", 2, sig, frozenset({SAME, DIFF}),
        pol, "e0", "ef", tuple(ts), equality_tests_allowed=True,
    )


def random_machine(rng: random.Random, max_states: int = 5, k: int = 2,
                   sigma: str = "ab") -> Transducer:
    """Random valid machine with equality tests, not necessarily
    deterministic."""
    sig = frozenset(Symbol(c) for c in sigma)
    n_mid = rng.randint(1, max_states)
    mids = [f"m{i}" for i in range(n_mid)]
    pol = {"ri": 0, "rf": 0}
    for s in mids:
        pol[s] = rng.choice((-1, 0, 1))
    sources = ["ri"] + mids
    targets = mids + ["rf"]
    letters = sorted(sig) + [ENDMARKER]
    gamma = sorted(sig)

    def random_test() -> Test:
        atoms = []
        for _ in range(rng.randint(0, 2)):
            neg = rng.random() < 0.5
            if rng.random() < 0.5:
                atoms.append(head_eq(rng.randint(1, k), neg))
            else:
                atoms.append(peb_eq(rng.randint(1, k), rng.randint(1, k), neg))
        return Test.of(*atoms)

    def random_op():
        roll = rng.random()
        if roll < 0.5:
            return NOP
        if roll < 0.75:
            return drop(rng.randint(1, k))
        return lift(rng.randint(1, k))

    ts = [Transition("ri", ENDMARKER, TRUE, NOP, rng.choice(mids))]
    for _ in range(rng.randint(3, 10)):
        src = rng.choice(sources[1:])
        ts.append(
            Transition(
                src,
                rng.choice(letters),
                random_test(),
                random_op(),
                rng.choice(targets),
                tuple(rng.choice(gamma) for _ in range(rng.randint(0, 2))),
            )
        )
    ts.append(Transition(rng.choice(mids), ENDMARKER, TRUE, NOP, "rf"))
    return Transducer(
        f"random_{rng.randint(0, 10**6)}", k, sig, sig, pol, "ri", "rf",
        tuple(ts), equality_tests_allowed=True,
    )
