"""Transducer-to-transducer rewrites.

Covers output reversal, compiling equality tests away into matrix-annotated
states, and the normalizations (single-letter outputs, full input reads,
separating pebble actions from head moves) that the composition
constructions assume.  The stack abstraction (alpha, b) is read only
through ``consistent_bits`` and ``update_matrix``, which ``decompose``
shares.
"""

from __future__ import annotations

from .core import (
    ENDMARKER,
    NOP,
    NotReversibleError,
    PebbleOp,
    Test,
    TRUE,
    Transducer,
    Transition,
    explore,
    guard,
    head_eq,
    reverse_guard,
    reverse_op,
    reverse_test_under_op,
)
from .analysis import is_reversible

__all__ = [
    "reverse_test_under_op",
    "reverse_transducer",
    "eliminate_equality",
    "split_outputs",
    "ensure_full_read",
    "separate_drop_lift_moves",
    "mat_of_bits",
    "mat_zero",
    "mat_ones",
    "mat_or",
    "mat_minus",
    "mat_disjoint",
    "consistent_bits",
    "bits_matrix_satisfy",
    "bits_test",
    "update_matrix",
]

Matrix = tuple[tuple[int, ...], ...]
Bits = tuple[int, ...]


# ---------------------------------------------------------------------------
# Reversal


def reverse_transition(t: Transition) -> Transition:
    """t = (q,a,phi,op,q') becomes (q',a,op(phi),reverse(op),q), same output."""
    return Transition(
        t.dst, t.letter, reverse_test_under_op(t.op, t.test), reverse_op(t.op), t.src, t.out
    )


def _reverse_unchecked(machine: Transducer) -> Transducer:
    polarity = {q: -p for q, p in machine.polarity.items()}
    return machine.replace(
        name=f"reverse({machine.name})",
        polarity=polarity,
        initial=machine.final,
        final=machine.initial,
        transitions=tuple(reverse_transition(t) for t in machine.transitions),
    )


def reverse_transducer(machine: Transducer) -> Transducer:
    """Machine computing the reversed output string on the same domain.

    State polarities flip, initial/final swap, and every transition is
    reversed.  Only defined for reversible machines.
    """
    if not is_reversible(machine):
        raise NotReversibleError(f"{machine.name} is not reversible")
    return _reverse_unchecked(machine)


# ---------------------------------------------------------------------------
# Equality-test elimination (matrix abstraction)


def mat_of_bits(b: Bits) -> Matrix:
    """The class of the pebbles b marks: M[i][j] = b[i] & b[j]."""
    return tuple(tuple(bi & bj for bj in b) for bi in b)


def mat_zero(k: int) -> Matrix:
    return mat_of_bits((0,) * k)


def mat_ones(k: int) -> Matrix:
    return mat_of_bits((1,) * k)


def mat_or(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(tuple(a | b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def mat_minus(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(tuple(a & (1 - b) for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def mat_disjoint(m1: Matrix, m2: Matrix) -> bool:
    return all(not (a & b) for r1, r2 in zip(m1, m2) for a, b in zip(r1, r2))


def bits_matrix_satisfy(test: Test, alpha: Matrix, b: Bits, dropped: int) -> bool:
    """alpha, b |= phi (head atoms read bits, equality atoms read alpha),
    counting only the first ``dropped`` pebbles as on the stack."""
    if test.false:
        return False
    for a in test.atoms:
        value = a.j <= dropped and (alpha[a.i - 1] if a.i else b)[a.j - 1] == 1
        if value == a.negated:
            return False
    return True


def consistent_bits(alpha: Matrix) -> list[Bits]:
    """Every head bit vector consistent with alpha, in ascending order, for
    alpha an equivalence on the dropped pebbles: b marks no pebble or
    exactly one class of alpha, and the rows of alpha are those classes."""
    return sorted(set(alpha) | {(0,) * len(alpha)})


def update_matrix(op: PebbleOp, alpha: Matrix, b: Bits) -> Matrix:
    """The abstraction of the stack after executing op under bit vector b:
    the first n - 1 pebbles keep their classes, and drop(n) adds pebble n to
    the class of the pebbles on the head."""
    if op.is_nop():
        return alpha
    n, k = op.index, len(b)
    gone = (0,) * (k - n + 1)
    kept = tuple(row[: n - 1] + gone for row in alpha[: n - 1]) + ((0,) * k,) * len(gone)
    if op.kind == "lift":
        return kept
    return mat_or(kept, mat_of_bits(b[: n - 1] + (1,) + gone[1:]))


def bits_test(b: Bits) -> Test:
    return Test.of(*(head_eq(i + 1, negated=not bit) for i, bit in enumerate(b)))


def eliminate_equality(machine: Transducer) -> Transducer:
    """Basic machine equivalent to one with equality tests.

    States are the (state, matrix) pairs ``core.explore`` reaches from the
    initial state with the zero matrix; each transition is duplicated over
    every consistent complete bit vector, so guards become complete
    head-pebble tests and equality atoms disappear.  Determinism and
    reverse-determinism carry over.  Start and final are stationary.
    """
    k = machine.k
    by_src: dict = {}
    for t in machine.transitions:
        by_src.setdefault(t.src, []).append((t, guard(t, k)))
    start = (machine.initial, mat_zero(k))
    final = (machine.final, mat_zero(k))

    def successors(state):
        q, alpha = state
        candidates = consistent_bits(alpha)
        for t, enabled in by_src.get(q, ()):
            for b in candidates:
                if bits_matrix_satisfy(enabled, alpha, b, k):
                    target = (t.dst, update_matrix(t.op, alpha, b))
                    yield Transition(state, t.letter, bits_test(b), t.op, target, t.out)

    def pol_of(state) -> int:
        return 0 if state in (start, final) else machine.pol(state[0])

    polarity, transitions = explore(start, final, pol_of, successors)
    return Transducer(
        name=f"basic({machine.name})",
        k=k,
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        polarity=polarity,
        initial=start,
        final=final,
        transitions=tuple(transitions),
        equality_tests_allowed=False,
    )


# ---------------------------------------------------------------------------
# Normalizations used by composition


def split_outputs(machine: Transducer) -> Transducer:
    """Decompose multi-letter outputs into chains emitting one letter each.

    Intermediate states are keyed by (state, emitted prefix) and guarded by
    the original test plus the operation's enabling test, so reversibility
    carries over.
    """
    if all(len(t.out) <= 1 for t in machine.transitions):
        return machine
    polarity = dict(machine.polarity)
    transitions: list[Transition] = []
    for t in machine.transitions:
        if len(t.out) <= 1:
            transitions.append(t)
            continue
        enabled = guard(t, machine.k)
        prev = t.src
        for i, sym in enumerate(t.out[:-1]):
            chain = ("emit", t.src, t.out[: i + 1])
            polarity.setdefault(chain, 0)
            transitions.append(Transition(prev, t.letter, enabled, NOP, chain, (sym,)))
            prev = chain
        transitions.append(Transition(prev, t.letter, t.test, t.op, t.dst, (t.out[-1],)))
    return machine.replace(polarity=polarity, transitions=tuple(transitions))


def ensure_full_read(machine: Transducer) -> Transducer:
    """Make a machine sweep its whole input before starting.

    Adds one right-moving state between the initial state and the original
    initial transitions; the domain and outputs are unchanged.  (Stated for
    pebbleless machines, but nothing here touches the stack.)
    """
    sweep = ("fullread", machine.initial)
    while sweep in machine.polarity:
        sweep = ("fullread", sweep)
    polarity = dict(machine.polarity)
    polarity[sweep] = 1
    transitions = [Transition(machine.initial, ENDMARKER, TRUE, NOP, sweep)]
    for a in sorted(machine.input_alphabet):
        transitions.append(Transition(sweep, a, TRUE, NOP, sweep))
    for t in machine.transitions:
        if t.src == machine.initial:
            transitions.append(Transition(sweep, t.letter, t.test, t.op, t.dst, t.out))
        else:
            transitions.append(t)
    return machine.replace(polarity=polarity, transitions=tuple(transitions))


def separate_drop_lift_moves(machine: Transducer) -> Transducer:
    """Split every pebble-moving transition so head moves only happen under
    nop.  Requires reversibility (which it preserves)."""
    if not is_reversible(machine):
        raise NotReversibleError(f"{machine.name} is not reversible")
    return separate_ops_unchecked(machine)


def separate_ops_unchecked(machine: Transducer) -> Transducer:
    """Same splitting without the reversibility precondition; preserves
    determinism but not necessarily reverse-determinism."""
    if all(t.op.is_nop() for t in machine.transitions):
        return machine
    polarity = dict(machine.polarity)
    transitions: list[Transition] = []
    for t in machine.transitions:
        if t.op.is_nop():
            transitions.append(t)
            continue
        mid = ("held", t.src, t.op)
        polarity.setdefault(mid, 0)
        transitions.append(Transition(t.src, t.letter, t.test, t.op, mid, t.out))
        transitions.append(Transition(mid, t.letter, reverse_guard(t, machine.k), NOP, t.dst))
    return machine.replace(polarity=polarity, transitions=tuple(transitions))
