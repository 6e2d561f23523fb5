"""Shared fixture machines and independent functional oracles for the tests,
the construction-size bounds they assert, and the equality-abstraction,
conflict-search and canonical-file references.

The oracles are written directly from the function definitions (no pebble
semantics involved) so they can serve as ground truth for the machines.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb

from pebbletx.builtins import BANG, mark
from pebbletx.core import (
    ENDMARKER,
    NOP,
    Symbol,
    Test,
    TRUE,
    Transducer,
    Transition,
    drop,
    head_eq,
    lift,
    peb_eq,
    word_symbols,
)
from pebbletx.machinefile import (
    FORMAT_VERSION,
    MachineFileError,
    _op_to_json,
    _symbol_to_json,
    _test_to_json,
    state_name,
)

# ---------------------------------------------------------------------------
# Functional oracles


def squaring_fn(w: str) -> tuple[Symbol, ...]:
    out = []
    for i in range(len(w)):
        for j, c in enumerate(w):
            out.append(mark(Symbol(c)) if i == j else Symbol(c))
    return tuple(out)


def modified_squaring_fn(w: str) -> tuple[Symbol, ...]:
    out = []
    for i in range(len(w)):
        for j, c in enumerate(w):
            out.append(BANG if i == j else Symbol(c))
    return tuple(out)


def prefixes_reversed_fn(w: str) -> tuple[Symbol, ...]:
    out = []
    for i in range(1, len(w) + 1):
        out.extend(Symbol(c) for c in reversed(w[:i]))
        out.append(BANG)
    return tuple(out)


def iterated_reverse_fn(word) -> tuple[Symbol, ...]:
    segments: list[list[Symbol]] = [[]]
    for sym in word_symbols(word):
        if sym.base == "!" and sym.bits is None:
            segments.append([])
        else:
            segments[-1].append(sym)
    out: list[Symbol] = []
    for i, seg in enumerate(segments):
        if i:
            out.append(BANG)
        out.extend(reversed(seg))
    return tuple(out)


def config_markings_fn(k: int, w: str) -> tuple[Symbol, ...]:
    """Lexicographic sequence of all k-markings of #w, computed directly."""
    word = (ENDMARKER,) + word_symbols(w)
    out = []
    for marking in itertools.product(range(len(word)), repeat=k):
        for pos, sym in enumerate(word):
            bits = tuple(1 if marking[i] == pos else 0 for i in range(k))
            out.append(Symbol(sym.base, (sym.bits or ()) + bits, sym.matrix))
    return tuple(out)


def words_upto(alphabet: str, maxlen: int):
    for length in range(maxlen + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)


# ---------------------------------------------------------------------------
# Brute-force semantic checks


def brute_force_satisfiable(test: Test, k: int, max_len: int) -> bool:
    """Model search over all words up to max_len, all stacks and heads."""
    from pebbletx.core import eval_test

    if test.false:
        return False
    for n in range(max_len + 1):
        positions = range(n + 1)
        for size in range(k + 1):
            for peb in itertools.product(positions, repeat=size):
                for h in positions:
                    if eval_test(test, peb, h):
                        return True
    return False


def all_configurations(machine: Transducer, word):
    from pebbletx.core import Configuration

    word = word_symbols(word)
    positions = range(len(word) + 1)
    for q in machine.states:
        for size in range(machine.k + 1):
            for peb in itertools.product(positions, repeat=size):
                for h in positions:
                    yield Configuration(q, tuple(peb), h)


def semantically_deterministic(machine: Transducer, word) -> bool:
    """No configuration (reachable or not) enables two transitions."""
    from pebbletx.runner import step

    word = word_symbols(word)
    return all(len(step(machine, c, word)) <= 1 for c in all_configurations(machine, word))


def semantically_reverse_deterministic(machine: Transducer, word) -> bool:
    from pebbletx.runner import step_back

    word = word_symbols(word)
    return all(
        len(step_back(machine, c, word)) <= 1 for c in all_configurations(machine, word)
    )


def least_run_output(machine: Transducer, u, budget=None):
    """Output of the first accepting run of a (possibly nondeterministic)
    machine, or None: depth-first over loop-free paths of at most ``budget``
    steps, trying transitions in a canonical order."""
    from pebbletx.runner import default_budget, initial_configuration, is_final_configuration, step

    word = word_symbols(u)
    limit = budget if budget is not None else default_budget(machine, word)
    order = {t: i for i, t in enumerate(sorted(machine.transitions, key=repr))}

    def dfs(c, out, depth, on_path):
        if is_final_configuration(machine, c):
            return out
        if depth >= limit:
            return None
        for t, c2 in sorted(step(machine, c, word), key=lambda tc: order[tc[0]]):
            if c2 not in on_path:
                res = dfs(c2, out + t.out, depth + 1, on_path | {c2})
                if res is not None:
                    return res
        return None

    c0 = initial_configuration(machine)
    return dfs(c0, (), 0, frozenset((c0,)))


def first_conflict_reference(machine: Transducer, end: str, guard_of, direction: str):
    """``analysis._first_conflict`` without its complementary-atom skip:
    every pair of a group has its joint guard built and checked."""
    from pebbletx.analysis import ConflictWitness
    from pebbletx.core import satisfiable

    for group in machine.groups(end).values():
        for t1, t2 in itertools.combinations(group, 2):
            joint = guard_of(t1, machine.k).conjoin(guard_of(t2, machine.k))
            if satisfiable(joint, machine.k):
                return False, ConflictWitness(t1, t2, direction, joint)
    return True, None


# ---------------------------------------------------------------------------
# Construction size bounds
#
# One function per stated bound, from the input sizes: |Q| (states), k, and
# for a composition n and m, the pebble counts of the first and second
# machine.  The tests assert against these, and scripts/state_growth.py
# prints them.


def bell(n: int) -> int:
    """B(n), the number of partitions of an n-element set."""
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, i) * b[i] for i in range(m + 1)))
    return b[n]


def eliminate_equality_bound(states: int, k: int) -> int:
    """|Q| * 2^(k^2): one copy of each state per k x k 0/1 matrix."""
    return states * 2 ** (k * k)


def separate_moves_bound(states: int, k: int) -> int:
    """(2k+1)|Q| for the op/move split: it adds one held state per distinct
    (state, non-nop operation) pair, and a state has at most 2k such
    operations, drop_1..drop_k and lift_1..lift_k.  At k = 1 this is 3|Q|."""
    return (2 * k + 1) * states


def compose_simple_bound(first_states: int, second_states: int) -> int:
    """2|Q||Q'| for the normalized first and second machines."""
    return 2 * first_states * second_states


def compose_general_bound(first_states: int, second_states: int, n: int, m: int) -> int:
    """|Q|^(m+2) |Q'| (n+1)^(m+3) for the normalized machines, the first
    with n pebbles and the second with m."""
    return first_states ** (m + 2) * second_states * (n + 1) ** (m + 3)


def config_enumerator_states(k: int) -> int:
    """C_k has exactly 5k + 1 states."""
    return 5 * k + 1


def equality_annotator_states(k: int) -> int:
    """C_k^= has exactly 2B(k+1) + 2B(k) + 3 states: compute/undo over the
    equivalences on pebble subsets, left/write over the total equivalences,
    plus the initial, final and reset states."""
    return 2 * bell(k + 1) + 2 * bell(k) + 3


def decompose_bound(states: int, k: int) -> int:
    """6k(3|Q|) + 2 for k >= 1.  T_0's states are (q, i, mode) over the
    |Q'| states of the op/move split, 0 <= i <= k and three modes, plus the
    entry and exit states: 3(k+1)|Q'| + 2.  That is at most 6k(3|Q|) + 2
    when |Q'| <= 3|Q|, which ``separate_moves_bound`` guarantees only at
    k = 1; for larger k it holds on the machines the tests check, and a
    machine with more than two distinct pebble operations per state may
    exceed it."""
    return 6 * k * 3 * states + 2


# ---------------------------------------------------------------------------
# Equality-abstraction references
#
# The maps phi_1, phi_2 from a pebble stack and head to the abstraction
# (alpha, b) that ``eliminate_equality`` and ``decompose`` track, and the
# invariants I1-I5 that every abstraction of a real stack satisfies.  The
# library reads the abstraction only through ``transforms.consistent_bits``
# and ``transforms.update_matrix``; the tests check both against these.

Matrix = tuple[tuple[int, ...], ...]
Bits = tuple[int, ...]


def phi1(peb: tuple[int, ...], k: int) -> Matrix:
    """alpha[i][j] = 1 iff pebbles i,j are both dropped on the same spot."""
    n = len(peb)
    return tuple(
        tuple(
            1 if i < n and j < n and peb[i] == peb[j] else 0 for j in range(k)
        )
        for i in range(k)
    )


def phi2(h: int, peb: tuple[int, ...], k: int) -> Bits:
    """b[i] = 1 iff pebble i+1 is dropped on the head position."""
    n = len(peb)
    return tuple(1 if i < n and peb[i] == h else 0 for i in range(k))


def basic_consistent(alpha: Matrix, b: Bits) -> bool:
    """Invariants I1-I5: alpha symmetric/transitive, bits agree with alpha,
    and dropped pebbles respect the stack discipline."""
    k = len(b)
    for i in range(k):
        for j in range(k):
            if alpha[i][j] != alpha[j][i]:
                return False
            for n in range(k):
                if alpha[i][j] and alpha[j][n] and not alpha[i][n]:
                    return False
    for i in range(k):
        if b[i] and not alpha[i][i]:
            return False
        for j in range(k):
            if b[i] and b[j] and not alpha[i][j]:
                return False
            if alpha[i][j] and not (alpha[i][i] and alpha[j][j] and b[i] == b[j]):
                return False
    for j in range(1, k):
        if alpha[j][j] and not alpha[j - 1][j - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical-file reference
#
# The canonical .ptx text built as one document and encoded whole by
# ``json.dumps``; ``machinefile.serialize`` must write the same bytes.


def serialize_reference(machine: Transducer) -> str:
    """Canonical textual form: states and transitions sorted, stable keys."""
    names = {s: state_name(s) for s in machine.polarity}
    if len(set(names.values())) != len(names):
        raise MachineFileError("states", "state names collide under stringification")

    def sym_key(s: Symbol):
        return s.sort_key()

    states = sorted(
        ({"id": names[s], "polarity": machine.pol(s)} for s in machine.polarity),
        key=lambda d: d["id"],
    )
    transitions = sorted(
        (
            {
                "from": names[t.src],
                "letter": _symbol_to_json(t.letter),
                "test": _test_to_json(t.test),
                "op": _op_to_json(t.op),
                "to": names[t.dst],
                "output": [_symbol_to_json(s) for s in t.out],
            }
            for t in machine.transitions
        ),
        key=lambda d: json.dumps(d, sort_keys=True),
    )
    doc = {
        "format_version": FORMAT_VERSION,
        "name": machine.name,
        "pebbles": machine.k,
        "equality_tests": machine.equality_tests_allowed,
        "input_alphabet": [_symbol_to_json(s) for s in sorted(machine.input_alphabet, key=sym_key)],
        "output_alphabet": [_symbol_to_json(s) for s in sorted(machine.output_alphabet, key=sym_key)],
        "states": states,
        "initial": names[machine.initial],
        "final": names[machine.final],
        "transitions": transitions,
    }
    return json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Fixture machines


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
    return Transducer(
        "drop_two_then_copy_rest", 2, sig, sig, pol, "s0", "sf", tuple(ts)
    )


def drop_two_then_copy_rest_fn(w: str):
    return tuple(Symbol(c) for c in w[2:]) if len(w) >= 2 else None


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


def two_branch_toy() -> Transducer:
    """Two parallel accepting branches with different outputs on any word."""
    sig = frozenset({Symbol("a")})
    pol = {"t0": 0, "tx": 1, "ty": 1, "tf": 0}
    x, y = Symbol("x"), Symbol("y")
    ts = [
        Transition("t0", ENDMARKER, TRUE, NOP, "tx", (x,)),
        Transition("t0", ENDMARKER, TRUE, NOP, "ty", (y,)),
        Transition("tx", Symbol("a"), TRUE, NOP, "tx"),
        Transition("ty", Symbol("a"), TRUE, NOP, "ty"),
        Transition("tx", ENDMARKER, TRUE, NOP, "tf"),
        Transition("ty", ENDMARKER, TRUE, NOP, "tf"),
    ]
    return Transducer(
        "two_branch_toy", 0, sig, frozenset({x, y}), pol, "t0", "tf", tuple(ts)
    )


def equality_pair_probe(sigma: str = "ab") -> Transducer:
    """Nondeterministic 2-pebble machine using a (p1=p2) guard: drops the
    pebbles anywhere and reports S/D for same/different positions."""
    sig = frozenset(Symbol(c) for c in sigma)
    s_sym, d_sym = Symbol("S"), Symbol("D")
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
            Transition("e3", a, same, lift(2), "e4", (s_sym,)),
            Transition("e3", a, diff, lift(2), "e4", (d_sym,)),
            Transition("e4", a, np1, NOP, "e4"),
            Transition("e4", a, TRUE, lift(1), "e5"),
        ]
    for a in sorted(sig):
        ts.append(Transition("e5", a, TRUE, NOP, "e5"))
    ts.append(Transition("e5", ENDMARKER, TRUE, NOP, "ef"))
    return Transducer(
        "equality_pair_probe", 2, sig, frozenset({s_sym, d_sym}),
        pol, "e0", "ef", tuple(ts), equality_tests_allowed=True,
    )


def random_machine(rng: random.Random, max_states: int = 5, k: int = 2,
                   sigma: str = "ab") -> Transducer:
    """Random valid machine with equality tests, not necessarily
    deterministic.  Used for differential testing of constructions.  With
    k = 0 every guard is true and every operation nop."""
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
        if k == 0:
            return TRUE
        atoms = []
        for _ in range(rng.randint(0, 2)):
            neg = rng.random() < 0.5
            if rng.random() < 0.5:
                atoms.append(head_eq(rng.randint(1, k), neg))
            else:
                atoms.append(peb_eq(rng.randint(1, k), rng.randint(1, k), neg))
        return Test.of(*atoms)

    def random_op():
        if k == 0:
            return NOP
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
    # make acceptance plausible: a path back to the final configuration
    ts.append(Transition(rng.choice(mids), ENDMARKER, TRUE, NOP, "rf"))
    return Transducer(
        f"random_{rng.randint(0, 10**6)}", k, sig, sig, pol, "ri", "rf",
        tuple(ts), equality_tests_allowed=True,
    )
