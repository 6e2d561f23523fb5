"""Decomposing a pebble machine into pebbleless parts, plus the
uniformization pipeline built on top of it.

``build_config_enumerator`` (C_k) prints every k-pebble marking of the
circular input in lexicographic order; ``build_equality_annotator`` (C_k^=)
extends each marked copy with the matrix of pebble equalities; ``decompose``
produces the pebbleless simulator T_0 with T = T_0 . C_k^= . C_k.  The
two-way conversions bridge to the endmarker-pair semantics used by external
reversible-uniformization procedures, which this package deliberately does
not implement: ``uniformize_pipeline`` exposes that step as a hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .analysis import is_deterministic, is_reverse_deterministic, is_reversible
from .compose import compose
from .core import (
    ENDMARKER,
    NOP,
    TRUE,
    HasPebblesError,
    HookRequiredError,
    NoPebblesError,
    NotDeterministicError,
    NotReversibleError,
    Symbol,
    Test,
    Transducer,
    Transition,
    alphabet_of,
    drop,
    explore,
    guard,
    head_eq,
    lift,
    word_symbols,
)
from .runner import semantics
from .transforms import (
    Bits,
    Matrix,
    _bits_test,
    _consistent_bits,
    bits_matrix_satisfy,
    mat_ones,
    separate_ops_unchecked,
)

__all__ = [
    "build_config_enumerator",
    "build_equality_annotator",
    "decompose",
    "TwoWayTransducer",
    "TwoWayTransition",
    "LMARK",
    "RMARK",
    "run_two_way",
    "two_way_violations",
    "two_way_is_deterministic",
    "two_way_is_reverse_deterministic",
    "two_way_is_reversible",
    "zero_pebble_to_two_way",
    "two_way_to_zero_pebble",
    "OracleHook",
    "UniformizeResult",
    "uniformize_pipeline",
    "brute_force_hook",
]


def _annot_bits(sym: Symbol, bv: Bits) -> Symbol:
    return Symbol(sym.base, (sym.bits or ()) + bv, sym.matrix)


def _annot_matrix(sym: Symbol, mat: Matrix) -> Symbol:
    return Symbol(sym.base, sym.bits, mat)


# ---------------------------------------------------------------------------
# C_k: enumerate all k-pebble markings


def build_config_enumerator(k: int, sigma) -> Transducer:
    """Reversible k-pebble machine printing the marking of the input for
    every k-configuration, lexicographically, one annotated copy of ``#u``
    per marking.

    Built by structural recursion on the pebble index: level j drops pebble
    j on each position in turn and runs level j+1 under it; the innermost
    level writes the copy, with complete bit-vector guards so the 2^k
    duplicated transitions stay disjoint.
    """
    if k < 1:
        raise NoPebblesError("the configuration enumerator needs k >= 1")
    sig = sorted(alphabet_of(sigma))

    def entry(j):
        return ("entry", j)

    def iter_(j):
        return ("iter", j)

    def exit_(j):
        return ("exit", j)

    def sweep_in(j):
        return ("sweep_in", j)

    def sweep_out(j):
        return ("sweep_out", j)

    writer = ("writer",)
    polarity = {writer: 1}
    ts: list[Transition] = []
    all_bits = list(product((0, 1), repeat=k))
    for j in range(1, k + 1):
        polarity[entry(j)] = 0
        polarity[iter_(j)] = 1
        polarity[exit_(j)] = 0
        polarity[sweep_in(j)] = 1
        polarity[sweep_out(j)] = 1
        not_pj = Test.of(head_eq(j, negated=True))
        ts.append(Transition(entry(j), ENDMARKER, TRUE, drop(j), sweep_in(j)))
        ts.append(Transition(iter_(j), ENDMARKER, TRUE, NOP, exit_(j)))
        for a in sig:
            ts.append(Transition(iter_(j), a, TRUE, drop(j), sweep_in(j)))
            ts.append(Transition(sweep_in(j), a, not_pj, NOP, sweep_in(j)))
            ts.append(Transition(sweep_out(j), a, not_pj, NOP, sweep_out(j)))
        for a in sig + [ENDMARKER]:
            ts.append(Transition(sweep_out(j), a, TRUE, lift(j), iter_(j)))
        if j < k:
            ts.append(Transition(sweep_in(j), ENDMARKER, TRUE, NOP, entry(j + 1)))
        else:
            for b in all_bits:
                ts.append(
                    Transition(
                        sweep_in(k), ENDMARKER, _bits_test(b), NOP, writer,
                        (_annot_bits(ENDMARKER, b),),
                    )
                )
        if j > 1:
            ts.append(Transition(exit_(j), ENDMARKER, TRUE, NOP, sweep_out(j - 1)))
    for a in sig:
        for b in all_bits:
            ts.append(Transition(writer, a, _bits_test(b), NOP, writer, (_annot_bits(a, b),)))
    ts.append(Transition(writer, ENDMARKER, TRUE, NOP, sweep_out(k)))
    gamma = frozenset(
        _annot_bits(a, b) for a in sig + [ENDMARKER] for b in all_bits
    )
    return Transducer(
        name=f"config_enumerator_{k}",
        k=k,
        input_alphabet=frozenset(sig),
        output_alphabet=gamma,
        polarity=polarity,
        initial=entry(1),
        final=exit_(1),
        transitions=tuple(ts),
    )


# ---------------------------------------------------------------------------
# C_k^=: annotate each copy with its pebble-equality matrix


def _equivalences(k: int) -> list[Matrix]:
    """Every equivalence relation on a subset of the k pebbles, as a 0/1
    matrix with M[i][i] = 1 iff pebble i is in the subset: the B(k+1)
    matrices a compute or undo pass can hold.  A relation is *total* when
    its diagonal is full; B(k) of them are."""
    # label 0 puts a pebble outside the subset; equal labels share a class
    return sorted({
        tuple(tuple(int(0 != c == d) for d in labels) for c in labels)
        for labels in product(range(k + 1), repeat=k)
    })


def _is_total(mat: Matrix) -> bool:
    return all(mat[i][i] for i in range(len(mat)))


def _realizable(k: int) -> list[tuple[Bits, Matrix]]:
    """The (bits, matrix) pairs a letter of an annotated C_k output can
    carry: the copy's total equivalence, and the bits of one position,
    which mark no pebble or one class.  There are B(k+1) of them."""
    return [
        (b, mat) for mat in _equivalences(k) if _is_total(mat) for b in _consistent_bits(mat)
    ]


def _realizable_letters(sig, pairs) -> frozenset:
    """C_k^='s output alphabet, which is T_0's input alphabet."""
    return frozenset(
        _annot_matrix(_annot_bits(sym, b), mat) for sym in sig for b, mat in pairs
    )


def _mat_of_bits(b: Bits) -> Matrix:
    k = len(b)
    return tuple(tuple(b[i] & b[j] for j in range(k)) for i in range(k))


def _mat_disjoint(m1: Matrix, m2: Matrix) -> bool:
    return all(not (a & b) for r1, r2 in zip(m1, m2) for a, b in zip(r1, r2))


def _mat_or(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(tuple(a | b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def _mat_minus(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(tuple(a & (1 - b) for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def build_equality_annotator(k: int, sigma) -> Transducer:
    """Reversible pebbleless machine mapping the enumerator's output to the
    same sequence with each letter extended by the copy's equality matrix.

    Per copy it runs compute / left / write / undo / reset passes; the undo
    pass makes the writing reversible.  Matrix updates in the compute pass
    add disjoint contributions only (and remove whole classes while
    undoing), which is what reverse-determinism needs and what every valid
    enumerator output satisfies, since each pebble marks one position per
    copy.

    Only realizable annotations are built: the compute and undo passes
    range over the B(k+1) equivalence relations on subsets of the pebbles,
    the left and write passes over the B(k) total ones, and the letters of
    the copy being written must carry bits that mark no pebble or one
    class.  That gives 2*B(k+1) + 2*B(k) + 3 states (9, 17, 43, 137 for
    k = 1..4) instead of 4*2^(k^2) + 3, and an output alphabet of B(k+1)
    annotations per letter.
    """
    if k < 1:
        raise NoPebblesError("the equality annotator needs k >= 1")
    sig = sorted(alphabet_of(sigma))
    all_bits = list(product((0, 1), repeat=k))
    relations = _equivalences(k)
    pairs = _realizable(k)
    m_ones = mat_ones(k)
    p_i, p_f, reset = ("pi",), ("pf",), ("reset",)
    polarity: dict = {p_i: 0, p_f: 0, reset: 1}
    for m in relations:
        polarity[(m, "c")] = 1
        polarity[(m, "u")] = -1
        if _is_total(m):
            polarity[(m, "w")] = 1
            polarity[(m, "l")] = -1
    letters = {
        (a, b): _annot_bits(a, b) for a in sig + [ENDMARKER] for b in all_bits
    }
    ts: list[Transition] = []
    # the run starts in reset mode so that the first copy's '#' enters the
    # compute mode exactly like every later copy does
    ts.append(Transition(p_i, ENDMARKER, TRUE, NOP, reset))
    for b in all_bits:
        mb = _mat_of_bits(b)
        for a in sig:
            ts.append(Transition(reset, letters[a, b], TRUE, NOP, reset))
        ts.append(Transition(reset, letters[ENDMARKER, b], TRUE, NOP, (mb, "c")))
        ts.append(Transition((mb, "u"), letters[ENDMARKER, b], TRUE, NOP, reset))
    for m in relations:
        undoable = _consistent_bits(m)
        for b in all_bits:
            mb = _mat_of_bits(b)
            for a in sig:
                if _mat_disjoint(m, mb):
                    ts.append(
                        Transition((m, "c"), letters[a, b], TRUE, NOP, (_mat_or(m, mb), "c"))
                    )
                if b in undoable:
                    ts.append(
                        Transition((m, "u"), letters[a, b], TRUE, NOP, (_mat_minus(m, mb), "u"))
                    )
            if _is_total(m):
                # these read the next copy's '#', whose bits are unrelated to m
                sharp = letters[ENDMARKER, b]
                ts.append(Transition((m, "c"), sharp, TRUE, NOP, (m, "l")))
                ts.append(Transition((m, "w"), sharp, TRUE, NOP, (m, "u")))
    for b, m in pairs:
        for a in sig:
            letter = letters[a, b]
            ts.append(Transition((m, "l"), letter, TRUE, NOP, (m, "l")))
            ts.append(
                Transition((m, "w"), letter, TRUE, NOP, (m, "w"), (_annot_matrix(letter, m),))
            )
        sharp = letters[ENDMARKER, b]
        ts.append(
            Transition((m, "l"), sharp, TRUE, NOP, (m, "w"), (_annot_matrix(sharp, m),))
        )
    ts.append(Transition((m_ones, "c"), ENDMARKER, TRUE, NOP, (m_ones, "l")))
    ts.append(Transition((m_ones, "w"), ENDMARKER, TRUE, NOP, p_f))
    return Transducer(
        name=f"equality_annotator_{k}",
        k=0,
        input_alphabet=frozenset(letters.values()),
        output_alphabet=_realizable_letters(sig + [ENDMARKER], pairs),
        polarity=polarity,
        initial=p_i,
        final=p_f,
        transitions=tuple(ts),
    )


# ---------------------------------------------------------------------------
# T_0: pebbleless simulator over the annotated configuration sequence


def _upper_marked(b: Bits, dropped: int) -> bool:
    """b^{+i}: all pebbles above ``dropped`` sit on this position."""
    return all(bit == 1 for bit in b[dropped:])


def decompose(machine: Transducer) -> Transducer:
    """The pebbleless simulator T_0 with T = T_0 . C_k^= . C_k.

    T_0 tracks how many pebbles the simulated machine has dropped; the input
    position encodes the rest of the configuration (the copy whose unused
    pebbles sit on the head).  Head moves become scans to the neighbouring
    copy, using the lexicographic ordering of the markings; transitions that
    drop or lift are assumed not to move the head, which ``decompose``
    enforces by splitting them first.  Only letters that C_k^= can write
    are read, so T_0's input alphabet is exactly C_k^='s output alphabet.
    A state (q, i, mode) simulates q with i pebbles dropped, stepping ("s")
    or scanning ("mr", "ml"); ``core.explore`` builds the reachable ones.
    """
    k = machine.k
    if k < 1:
        raise NoPebblesError("decompose expects a machine with at least one pebble")
    needs_split = any(
        not t.op.is_nop() and machine.pol(t.dst) != 0 for t in machine.transitions
    )
    m = separate_ops_unchecked(machine) if needs_split else machine
    sig = sorted(m.input_alphabet) + [ENDMARKER]
    pairs = _realizable(k)
    p_i, p_f = ("pi",), ("pf",)
    first_copy = _annot_matrix(_annot_bits(ENDMARKER, (1,) * k), mat_ones(k))
    # enter the first copy at its '#' and, at the end, leave it from there
    fixed = [
        Transition(p_i, ENDMARKER, TRUE, NOP, (m.initial, 0, "mr")),
        Transition((m.initial, 0, "mr"), first_copy, TRUE, NOP, (m.initial, 0, "s")),
        Transition((m.final, 0, "s"), first_copy, TRUE, NOP, (m.final, 0, "ml")),
        Transition((m.final, 0, "ml"), ENDMARKER, TRUE, NOP, p_f),
    ]
    steps: dict = {}
    for t in m.transitions:
        # with a total matrix and i pebbles dropped, the guard admits drop(j)
        # only for j = i + 1 and lift(j) only for j = i with b[i - 1] = 1
        height = {"nop": 0, "drop": 1, "lift": -1}[t.op.kind]
        pol2 = m.pol(t.dst)
        if pol2 == 0:
            mode = "s"
        elif pol2 < 0 and not t.letter.is_endmarker():
            mode = "ml"
        else:
            mode = "mr"
        steps.setdefault(t.src, []).append((t, guard(t, k), height, mode))

    def successors(state):
        yield from (t for t in fixed if t.src == state)
        if state == p_i:
            return
        q, i, mode = state
        if mode == "s":
            for t, enabled, height, next_mode in steps.get(q, ()):
                for b, mat in pairs:
                    if _upper_marked(b, i) and bits_matrix_satisfy(enabled, mat, b, i):
                        letter = _annot_matrix(_annot_bits(t.letter, b), mat)
                        yield Transition(
                            state, letter, TRUE, NOP, (t.dst, i + height, next_mode), t.out
                        )
            return
        pol = m.pol(q)
        if pol == 0:
            return
        # head-move scans; both directions treat '#' alike, and off '#' the scan
        # in the machine's direction stops at the copy whose upper pebbles sit
        # on the head while the opposite scan passes over
        scan = "ml" if pol < 0 else "mr"
        for sym in sig:
            if sym.is_endmarker():
                onward = "ml" if mode == "mr" else "s"
            else:
                onward = "s" if mode == scan else None
            for b, mat in pairs:
                letter = _annot_matrix(_annot_bits(sym, b), mat)
                stop = onward is not None and _upper_marked(b, i)
                yield Transition(state, letter, TRUE, NOP, (q, i, onward) if stop else state)
        if mode == "mr":
            yield Transition(state, ENDMARKER, TRUE, NOP, (q, i, "ml"))

    def pol_of(state) -> int:
        return {"mr": 1, "ml": -1}.get(state[-1], 0)  # "s", p_i and p_f are stationary

    polarity, transitions = explore(p_i, p_f, pol_of, successors)
    return Transducer(
        name=f"simulator({machine.name})",
        k=0,
        input_alphabet=_realizable_letters(sig, pairs),
        output_alphabet=machine.output_alphabet,
        polarity=polarity,
        initial=p_i,
        final=p_f,
        transitions=tuple(transitions),
    )


# ---------------------------------------------------------------------------
# Two-way transducers (endmarker-pair semantics)

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


def two_way_violations(t2: TwoWayTransducer) -> list[str]:
    v = []
    if t2.initial not in t2.forward or t2.final not in t2.forward:
        v.append("initial/final must be forward states")
    for t in t2.transitions:
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
    word = word_symbols(u)
    n = len(word)
    if budget is None:
        budget = len(t2.states) * (n + 3) + 1

    def letter_right(h):
        if h == 0:
            return LMARK
        if h <= n:
            return word[h - 1]
        if h == n + 1:
            return RMARK
        return None

    def letter_left(h):
        return letter_right(h - 1)

    state, h = t2.initial, 0
    output: list[Symbol] = []
    for _ in range(budget + 1):
        if state == t2.final and h == n + 2:
            return "accept", tuple(output)
        letter = letter_right(h) if state in t2.forward else letter_left(h)
        if letter is None:
            return "reject", None
        arcs = t2.groups("src").get((state, letter), ())
        if len(arcs) > 1:
            raise NotDeterministicTwoWay(state, letter)
        if not arcs:
            return "reject", None
        t = arcs[0]
        output.extend(t.out)
        if state in t2.forward:
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


def two_way_is_reversible(t2: TwoWayTransducer) -> bool:
    return two_way_is_deterministic(t2) and two_way_is_reverse_deterministic(t2)


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
    """
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


# ---------------------------------------------------------------------------
# Uniformization pipeline


@dataclass(frozen=True)
class OracleHook:
    """Function-level uniformizer: maps a word to one output of the relation
    (or None outside the domain).  Used where a machine-level reversible
    uniformizer is unavailable."""

    fn: Callable
    name: str = "oracle"


@dataclass
class UniformizeResult:
    """Outcome of the uniformization pipeline.

    ``transducer`` is None when the hook is function-level.  ``reversible``
    records whether the reversibility guarantee holds; with the identity
    hook the result is only deterministic.  The 2^{O((kn)^2)} state bound of
    the full construction depends on the external reversible uniformizer
    supplied through the hook and is deliberately not asserted here.
    """

    transducer: Optional[Transducer]
    apply: Callable
    pebbles: int
    deterministic: bool
    reversible: bool
    notes: str


def brute_force_hook(machine: Transducer, budget: Optional[int] = None) -> OracleHook:
    """Lexicographically-least-run selector over a (possibly nondeterministic)
    pebbleless machine, as a function.  Depth-first over loop-free paths,
    trying transitions in a canonical order."""
    from .runner import default_budget, initial_configuration, is_final_configuration, step

    order = {t: i for i, t in enumerate(sorted(machine.transitions, key=lambda t: repr(t)))}

    def fn(u):
        word = word_symbols(u)
        limit = budget if budget is not None else default_budget(machine, word)

        def dfs(c, out, depth, on_path):
            if is_final_configuration(machine, c):
                return out
            if depth >= limit:
                return None
            for t, c2 in sorted(step(machine, c, word), key=lambda tc: order[tc[0]]):
                if c2 in on_path:
                    continue
                res = dfs(c2, out + t.out, depth + 1, on_path | {c2})
                if res is not None:
                    return res
            return None

        c0 = initial_configuration(machine)
        return dfs(c0, (), 0, frozenset((c0,)))

    return OracleHook(fn, name=f"brute_force({machine.name})")


_EXCLUSION_NOTE = (
    "reversible uniformization of the pebbleless simulator is delegated to an "
    "external hook; the 2^O((kn)^2) state bound that would follow from it is "
    "not asserted"
)


def _probe_hook(machine, enumerator, annotator, simulator, hooked) -> None:
    """Spot-check the hook contract on images of a few short words: the
    hooked machine must compute exactly the simulator's function on every
    output that actually arises in the pipeline."""
    letters = sorted(machine.input_alphabet)[:2]
    probes = [()] + [(a,) for a in letters] + [
        (a, b) for a in letters for b in letters
    ]
    for u in probes:
        if enumerator is None:
            image = word_symbols(u)
        else:
            image = semantics(annotator, semantics(enumerator, u))
        if semantics(hooked, image) != semantics(simulator, image):
            raise NotReversibleError(
                "hook output disagrees with the simulator on a probe word"
            )


def uniformize_pipeline(machine: Transducer, hook=None) -> UniformizeResult:
    """Decompose, uniformize the pebbleless part via the hook, recompose.

    ``hook`` may be None/'identity' (legal when the simulator is already
    deterministic; the result is deterministic but not necessarily
    reversible), a callable turning the simulator into an equivalent
    reversible machine, or an :class:`OracleHook` for a function-level
    uniformizer (then no machine is produced, only ``apply``).
    """
    k = machine.k
    if k == 0:
        enumerator = annotator = None
        simulator = machine
    else:
        enumerator = build_config_enumerator(k, machine.input_alphabet)
        annotator = build_equality_annotator(k, machine.input_alphabet)
        simulator = decompose(machine)

    def chain(hooked_fn):
        def apply(u):
            if enumerator is None:
                return hooked_fn(word_symbols(u))
            w1 = semantics(enumerator, u)
            if w1 is None:
                return None
            w2 = semantics(annotator, w1)
            if w2 is None:
                return None
            return hooked_fn(w2)

        return apply

    if isinstance(hook, OracleHook):
        return UniformizeResult(
            transducer=None,
            apply=chain(hook.fn),
            pebbles=k,
            deterministic=True,
            reversible=False,
            notes=f"function-level hook {hook.name}; " + _EXCLUSION_NOTE,
        )
    if hook is None or hook == "identity":
        if not is_deterministic(simulator)[0]:
            raise HookRequiredError(
                "the pebbleless simulator is nondeterministic; supply a hook"
            )
        hooked = simulator
        reversible = is_reverse_deterministic(simulator)[0]
        note = "identity hook; result deterministic" + (
            "" if reversible else ", not reversible"
        )
    else:
        hooked = hook(simulator)
        if hooked.k != 0:
            raise HasPebblesError("hook must return a pebbleless machine")
        if not is_reversible(hooked):
            raise NotReversibleError("hook must return a reversible machine")
        _probe_hook(machine, enumerator, annotator, simulator, hooked)
        reversible = True
        note = "machine-level hook"
    if enumerator is None:
        result = hooked
    else:
        result = compose(compose(enumerator, annotator), hooked)
    return UniformizeResult(
        transducer=result,
        apply=lambda u: semantics(result, u),
        pebbles=result.k,
        deterministic=True,
        reversible=reversible and is_reversible(result),
        notes=note + "; " + _EXCLUSION_NOTE,
    )
