"""The decomposition T = T_0 . C_k^= . C_k of a k-pebble machine T into a
reversible pebble part and a pebbleless simulator.

``build_config_enumerator`` (C_k) prints every k-pebble marking of the
circular input in lexicographic order; ``build_equality_annotator`` (C_k^=)
extends each marked copy with the matrix of pebble equalities; ``decompose``
produces the pebbleless simulator T_0.
"""

from __future__ import annotations

from itertools import product

from .core import (
    ENDMARKER,
    NOP,
    TRUE,
    NoPebblesError,
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
)
from .transforms import (
    Bits,
    Matrix,
    bits_matrix_satisfy,
    bits_test,
    consistent_bits,
    mat_disjoint,
    mat_minus,
    mat_of_bits,
    mat_ones,
    mat_or,
    separate_ops_unchecked,
)

__all__ = ["build_config_enumerator", "build_equality_annotator", "decompose"]


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
    j on each position in turn ("iter"), sweeps to '#' ("sweep_in") and runs
    level j+1 from its "entry"; the innermost level's "writer" writes the
    copy, with complete bit-vector guards so the 2^k duplicated transitions
    stay disjoint.  Level j then sweeps back to its pebble ("sweep_out") and
    lifts it, and leaves by its "exit" after the last position.
    ``core.explore`` builds the states from ("entry", 1) to ("exit", 1).
    """
    if k < 1:
        raise NoPebblesError("the configuration enumerator needs k >= 1")
    sig = sorted(alphabet_of(sigma))
    all_bits = list(product((0, 1), repeat=k))
    writer = ("writer",)

    def write(state, a, dst):
        for b in all_bits:
            yield Transition(state, a, bits_test(b), NOP, dst, (_annot_bits(a, b),))

    def successors(state):
        tag, j = state[0], state[-1]
        if tag == "writer":
            for a in sig:
                yield from write(state, a, state)
            yield Transition(state, ENDMARKER, TRUE, NOP, ("sweep_out", k))
        elif tag == "entry":
            yield Transition(state, ENDMARKER, TRUE, drop(j), ("sweep_in", j))
        elif tag == "iter":
            yield Transition(state, ENDMARKER, TRUE, NOP, ("exit", j))
            for a in sig:
                yield Transition(state, a, TRUE, drop(j), ("sweep_in", j))
        elif tag == "exit":  # ("exit", 1) is final, so j > 1
            yield Transition(state, ENDMARKER, TRUE, NOP, ("sweep_out", j - 1))
        else:
            not_pj = Test.of(head_eq(j, negated=True))
            for a in sig:
                yield Transition(state, a, not_pj, NOP, state)
            if tag == "sweep_out":
                for a in sig + [ENDMARKER]:
                    yield Transition(state, a, TRUE, lift(j), ("iter", j))
            elif j < k:
                yield Transition(state, ENDMARKER, TRUE, NOP, ("entry", j + 1))
            else:
                yield from write(state, ENDMARKER, writer)

    def pol_of(state) -> int:
        return 0 if state[0] in ("entry", "exit") else 1

    polarity, transitions = explore(("entry", 1), ("exit", 1), pol_of, successors)
    gamma = frozenset(
        _annot_bits(a, b) for a in sig + [ENDMARKER] for b in all_bits
    )
    return Transducer(
        name=f"config_enumerator_{k}",
        k=k,
        input_alphabet=frozenset(sig),
        output_alphabet=gamma,
        polarity=polarity,
        initial=("entry", 1),
        final=("exit", 1),
        transitions=tuple(transitions),
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
        (b, mat) for mat in _equivalences(k) if _is_total(mat) for b in consistent_bits(mat)
    ]


def _realizable_letters(sig, pairs) -> frozenset:
    """C_k^='s output alphabet, which is T_0's input alphabet."""
    return frozenset(
        _annot_matrix(_annot_bits(sym, b), mat) for sym in sig for b, mat in pairs
    )


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
        mb = mat_of_bits(b)
        for a in sig:
            ts.append(Transition(reset, letters[a, b], TRUE, NOP, reset))
        ts.append(Transition(reset, letters[ENDMARKER, b], TRUE, NOP, (mb, "c")))
        ts.append(Transition((mb, "u"), letters[ENDMARKER, b], TRUE, NOP, reset))
    for m in relations:
        undoable = consistent_bits(m)
        for b in all_bits:
            mb = mat_of_bits(b)
            for a in sig:
                if mat_disjoint(m, mb):
                    ts.append(
                        Transition((m, "c"), letters[a, b], TRUE, NOP, (mat_or(m, mb), "c"))
                    )
                if b in undoable:
                    ts.append(
                        Transition((m, "u"), letters[a, b], TRUE, NOP, (mat_minus(m, mb), "u"))
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
