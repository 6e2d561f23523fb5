"""The bridge between pebbleless machines and two-way transducers with an
endmarker pair, the model in which DFJL17 composes and reversibly
uniformizes.

``zero_pebble_to_two_way`` and ``two_way_to_zero_pebble`` convert either
way and keep reversibility; ``run_two_way`` runs a deterministic two-way
transducer, and the ``two_way_is_*`` verdicts are the syntactic checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    ENDMARKER,
    NOP,
    TRUE,
    HasPebblesError,
    NotDeterministicError,
    PebbleError,
    Symbol,
    Transducer,
    Transition,
    explore,
    word_symbols,
)

__all__ = [
    "TwoWayTransducer",
    "TwoWayTransition",
    "TwoWayConventionError",
    "LMARK",
    "RMARK",
    "run_two_way",
    "two_way_violations",
    "two_way_is_deterministic",
    "two_way_is_reverse_deterministic",
    "zero_pebble_to_two_way",
    "two_way_to_zero_pebble",
]

LMARK = Symbol("⊢")  # left endmarker
RMARK = Symbol("⊣")  # right endmarker


@dataclass(frozen=True)
class TwoWayTransition:
    src: object
    letter: Symbol
    dst: object
    out: tuple[Symbol, ...] = ()


@dataclass
class TwoWayTransducer:
    """Two-way transducer with forward/backward states and two endmarkers.

    The head sits between letters; forward states read (and step over) the
    letter to their right, backward states the letter to their left.
    """

    name: str
    forward: frozenset
    backward: frozenset
    input_alphabet: frozenset[Symbol]
    output_alphabet: frozenset[Symbol]
    initial: object
    final: object
    transitions: tuple[TwoWayTransition, ...]

    def __post_init__(self) -> None:
        self.transitions = tuple(dict.fromkeys(self.transitions))
        self._groups: dict = {}  # end -> index, built by groups() on first use

    groups = Transducer.groups  # the same lazily built (state, letter) index

    @property
    def states(self) -> frozenset:
        return self.forward | self.backward


class TwoWayConventionError(PebbleError):
    """A two-way transducer breaks the endmarker conventions."""


def two_way_violations(t2: TwoWayTransducer) -> list[str]:
    v = []
    if t2.initial not in t2.forward or t2.final not in t2.forward:
        v.append("initial/final must be forward states")
    states = t2.states
    for t in t2.transitions:
        if t.src not in states or t.dst not in states:
            v.append(f"transition touches a state neither forward nor backward: {t}")
        if t.letter == LMARK and t.dst not in t2.forward:
            v.append(f"left-marker transition into a backward state: {t}")
        if t.letter == RMARK and not (t.dst == t2.final or t.dst in t2.backward):
            v.append(f"right-marker transition must enter backward or final: {t}")
        if t.src == t2.initial and t.letter != LMARK:
            v.append(f"initial state may only read the left marker: {t}")
        if t.dst == t2.final and t.letter != RMARK:
            v.append(f"final state may only be entered reading the right marker: {t}")
        if t.src == t2.final:
            v.append(f"no transitions may leave the final state: {t}")
        if t.dst == t2.initial:
            v.append(f"no transitions may enter the initial state: {t}")
    return v


def run_two_way(t2: TwoWayTransducer, u, budget: Optional[int] = None):
    """Deterministic run over |- u -|; accepts in (final, |u|+2)."""
    tape = (LMARK, *word_symbols(u), RMARK)
    n = len(tape) - 2
    if budget is None:
        budget = len(t2.states) * (n + 3) + 1
    state, h = t2.initial, 0
    output: list[Symbol] = []
    for _ in range(budget + 1):
        if state == t2.final and h == n + 2:
            return "accept", tuple(output)
        forward = state in t2.forward
        # the head sits before tape[h]; a backward state reads tape[h - 1]
        at = h if forward else h - 1
        if not 0 <= at < len(tape):
            return "reject", None
        letter = tape[at]
        arcs = t2.groups("src").get((state, letter), ())
        if len(arcs) > 1:
            raise NotDeterministicTwoWay(state, letter)
        if not arcs:
            return "reject", None
        t = arcs[0]
        output.extend(t.out)
        if forward:
            h = h + 1 if t.dst in t2.forward else h
        else:
            h = h - 1 if t.dst in t2.backward else h
        state = t.dst
    return "diverge", None


class NotDeterministicTwoWay(NotDeterministicError):
    """Two transitions of a two-way transducer share (state, letter)."""


def _two_way_unique(t2: TwoWayTransducer, end: str) -> bool:
    """No two transitions share (``end`` state, letter)."""
    return all(len(group) == 1 for group in t2.groups(end).values())


def two_way_is_deterministic(t2: TwoWayTransducer) -> bool:
    return _two_way_unique(t2, "src")


def two_way_is_reverse_deterministic(t2: TwoWayTransducer) -> bool:
    return _two_way_unique(t2, "dst")


def zero_pebble_to_two_way(machine: Transducer) -> TwoWayTransducer:
    """Equivalent two-way transducer with O(n) states.

    A forward state ("r", q) simulates q on the letter to its right, reading
    '#' as the right marker.  A move into a state p enters the gadget that
    puts the head before the letter p reads: ("r", p) itself when p moves
    right, except off '#', where ("-", p) first sweeps back to the left
    marker; ("stay", p) when p stays; and ("l1", p), ("l2", p) when p moves
    left, with ("+", p) sweeping on to the right marker when the step left
    crosses '#'.  ``core.explore`` builds the states reachable from ("i",),
    each forward or backward by the polarity it returns.  Reversibility is
    preserved.
    """
    if machine.k != 0:
        raise HasPebblesError("two-way conversion expects a pebbleless machine")
    q_i, q_f = machine.initial, machine.final
    s_i, s_f = ("i",), ("f",)
    sig = sorted(machine.input_alphabet)
    # a run reads only '#' from the initial state and into the final one
    leaving: dict = {}
    for t in machine.transitions:
        if t.letter.is_endmarker() or (t.src != q_i and t.dst != q_f):
            leaving.setdefault(t.src, []).append(t)
    # gadget tag -> (tag after a letter of sig, the marker read, tag after it)
    gadgets = {
        "stay": ("r", LMARK, "r"),
        "l1": ("l2", LMARK, "+"),
        "l2": ("r", LMARK, "r"),
        "+": ("+", RMARK, "l2"),
        "-": ("-", LMARK, "r"),
    }

    def entry(t):
        """The gadget state simulating t's move into t.dst."""
        p, pol = t.dst, machine.pol(t.dst)
        if pol > 0:
            return ("-" if t.letter.is_endmarker() else "r", p)
        if pol == 0:
            return s_f if p == q_f else ("stay", p)
        return ("l1", p)

    def successors(state):
        tag = state[0]
        if tag == "i":
            yield TwoWayTransition(s_i, LMARK, ("r", q_i))
        elif tag == "r":
            q = state[1]
            if q == q_i:
                # skip to the right marker, which stands for '#'
                yield from (TwoWayTransition(state, a, state) for a in sig)
            for t in leaving.get(q, ()):
                letter = RMARK if t.letter.is_endmarker() else t.letter
                yield TwoWayTransition(state, letter, entry(t), t.out)
        else:
            on_letter, marker, on_marker = gadgets[tag]
            for a in sig:
                yield TwoWayTransition(state, a, (on_letter, state[1]))
            yield TwoWayTransition(state, marker, (on_marker, state[1]))

    def pol_of(state) -> int:
        return -1 if state[0] in ("stay", "l1", "l2", "-") else 1

    polarity, transitions = explore(s_i, s_f, pol_of, successors)
    return TwoWayTransducer(
        name=f"two_way({machine.name})",
        forward=frozenset(s for s, pol in polarity.items() if pol > 0),
        backward=frozenset(s for s, pol in polarity.items() if pol < 0),
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        initial=s_i,
        final=s_f,
        transitions=tuple(transitions),
    )


def two_way_to_zero_pebble(t2: TwoWayTransducer) -> Transducer:
    """Equivalent pebbleless machine with exactly the same states.

    Both endmarkers collapse onto ``#``; the convention that left-marker
    reads leave backward states and right-marker reads leave forward states
    keeps the merged transitions overlap-free, so reversibility survives.
    A machine that breaks those conventions would convert into one computing
    another function, so it raises ``TwoWayConventionError`` naming the
    first violation.
    """
    violations = two_way_violations(t2)
    if violations:
        raise TwoWayConventionError(f"{t2.name}: {violations[0]}")
    polarity = {}
    for q in t2.forward:
        polarity[q] = 0 if q in (t2.initial, t2.final) else 1
    for q in t2.backward:
        polarity[q] = -1
    ts = []
    for t in t2.transitions:
        letter = ENDMARKER if t.letter in (LMARK, RMARK) else t.letter
        ts.append(Transition(t.src, letter, TRUE, NOP, t.dst, t.out))
    return Transducer(
        name=f"zero_pebble({t2.name})",
        k=0,
        input_alphabet=t2.input_alphabet,
        output_alphabet=t2.output_alphabet,
        polarity=polarity,
        initial=t2.initial,
        final=t2.final,
        transitions=tuple(ts),
    )
