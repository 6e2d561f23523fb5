"""Syntactic well-formedness, determinism and reversibility checks.

Determinism and reverse-determinism are one syntactic check run in two
directions: two distinct transitions sharing (source, letter) conflict iff
the conjunction of their ``core.guard``s is satisfiable, and two sharing
(target, letter) iff that of their ``core.reverse_guard``s is.  The checks
quantify over all configurations, including unreachable ones, so
syntactic-true implies the semantic property on every word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import Test, Transducer, Transition, guard, reverse_guard, satisfiable


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class ConflictWitness:
    t1: Transition
    t2: Transition
    direction: str  # "forward" | "backward"
    joint_test: Test


def validate(machine: Transducer) -> list[Violation]:
    """Empty list iff the transducer invariants hold."""
    v: list[Violation] = []
    states = machine.states

    def bad(kind: str, detail: str = "", at: Optional[int] = None) -> None:
        # only a faulty transition is rendered: rendering costs more than the checks
        if at is not None:
            where = f"transition #{at} ({machine.transitions[at].render()})"
            detail = f"{where}: {detail}" if detail else where
        v.append(Violation(kind, detail))

    if machine.k < 0:
        bad("NegativePebbleCount", str(machine.k))
    if machine.initial not in states:
        bad("UnknownState", f"initial {machine.initial!r}")
    if machine.final not in states:
        bad("UnknownState", f"final {machine.final!r}")
    if machine.initial == machine.final:
        bad("InitialEqualsFinal", repr(machine.initial))
    for role, s in (("initial", machine.initial), ("final", machine.final)):
        if s in states and machine.pol(s) != 0:
            bad("EndpointNotStationary", f"{role} state {s!r} has polarity {machine.pol(s)}")
    for p in machine.polarity.values():
        if p not in (-1, 0, 1):
            bad("BadPolarity", str(p))
    for alph_name, alph in (
        ("input", machine.input_alphabet),
        ("output", machine.output_alphabet),
    ):
        for s in alph:
            if s.is_endmarker():
                bad("ReservedLetterInAlphabet", f"'#' in {alph_name} alphabet")
    letters = machine.letters()
    for idx, t in enumerate(machine.transitions):
        if t.src not in states:
            bad("UnknownState", f"source {t.src!r}", idx)
        if t.dst not in states:
            bad("UnknownState", f"target {t.dst!r}", idx)
        if t.src == machine.final:
            bad("FinalStateHasOutgoing", at=idx)
        if t.dst == machine.initial:
            bad("InitialStateHasIncoming", at=idx)
        if t.letter not in letters:
            bad("LetterNotInAlphabet", t.letter.render(), idx)
        for sym in t.out:
            if sym not in machine.output_alphabet:
                bad("OutputNotInAlphabet", sym.render(), idx)
        for a in t.test.atoms:
            if a.j > machine.k:
                bad("AtomIndexOutOfRange", a.render(), idx)
            if a.i > 0 and not machine.equality_tests_allowed:
                bad("EqualityAtomInBasicMachine", a.render(), idx)
        if not t.op.is_nop() and not 1 <= t.op.index <= machine.k:
            bad("OpIndexOutOfRange", t.op.render(), idx)
    return v


def _first_conflict(
    machine: Transducer, end: str, guard_of, direction: str
) -> tuple[bool, Optional[ConflictWitness]]:
    """The first pair in a group of ``machine.groups(end)`` whose
    ``guard_of`` guards are jointly satisfiable.  A pair where one guard
    holds an atom and the other its negation is skipped unbuilt."""
    k = machine.k
    for group in machine.groups(end).values():
        if len(group) < 2:
            continue
        guards = [guard_of(t, k) for t in group]
        negations = [{(i, j, not n) for i, j, n in g.atoms} for g in guards]
        for (t1, g1, _), (t2, g2, n2) in combinations(zip(group, guards, negations), 2):
            if n2.isdisjoint(g1.atoms) and satisfiable(joint := g1.conjoin(g2), k):
                return False, ConflictWitness(t1, t2, direction, joint)
    return True, None


def is_deterministic(machine: Transducer) -> tuple[bool, Optional[ConflictWitness]]:
    """No two distinct transitions with the same (source, letter) can be
    simultaneously enabled."""
    return _first_conflict(machine, "src", guard, "forward")


def is_reverse_deterministic(machine: Transducer) -> tuple[bool, Optional[ConflictWitness]]:
    """No two distinct transitions with the same (target, letter) can be
    simultaneously reverse-enabled."""
    return _first_conflict(machine, "dst", reverse_guard, "backward")


def is_reversible(machine: Transducer) -> bool:
    return is_deterministic(machine)[0] and is_reverse_deterministic(machine)[0]
