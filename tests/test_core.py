import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machines import brute_force_satisfiable, random_machine
from pebbletx.core import (
    ENDMARKER,
    FALSE,
    NOP,
    TRUE,
    Atom,
    PebbleError,
    PebbleIndexError,
    PebbleOp,
    Symbol,
    Test,
    Transition,
    apply_op,
    drop,
    eval_test,
    explore,
    guard,
    head_eq,
    lift,
    op_enabled,
    peb_eq,
    reverse_guard,
    reverse_op,
    satisfiable,
    shift_op,
    shift_test,
    test_of_op,
)

test_of_op.__test__ = False  # library function, not a pytest case


def test_test_of_op_examples():
    assert test_of_op(NOP, 2) == TRUE
    assert test_of_op(drop(1), 2) == Test.of(peb_eq(1, 1, negated=True))
    assert test_of_op(lift(2), 2) == Test.of(head_eq(2))
    assert test_of_op(drop(2), 2) == Test.of(peb_eq(1, 1), peb_eq(2, 2, negated=True))
    assert test_of_op(lift(1), 2) == Test.of(head_eq(1), peb_eq(2, 2, negated=True))


def test_test_of_op_index_out_of_range():
    with pytest.raises(IndexError):
        test_of_op(drop(3), 2)
    with pytest.raises(IndexError):
        test_of_op(lift(1), 0)


def test_eval_test_examples():
    assert eval_test(Test.of(head_eq(1)), (3,), 3)
    assert not eval_test(Test.of(peb_eq(1, 1)), (), 0)
    assert eval_test(Test.of(head_eq(2, negated=True)), (1,), 1)


def test_pebble_atom_orders_its_indices():
    # Atom(j, i) with j > i swaps its indices, never collapsing to p_i = p_i
    for i, j, neg in itertools.product(range(1, 4), range(1, 4), (False, True)):
        atom = Atom(j, i, neg)
        assert atom == peb_eq(i, j, neg)
        assert (atom.i, atom.j) == (min(i, j), max(i, j))
        for peb in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, 2)):
            assert eval_test(Test.of(atom), peb, 0) == ((peb[i - 1] == peb[j - 1]) != neg)


def test_eval_test_false_constant():
    assert not eval_test(FALSE, (), 0)
    assert eval_test(TRUE, (), 0)


def test_apply_op_examples():
    assert apply_op(drop(1), (), 2) == (2,)
    assert apply_op(lift(1), (2,), 3) is None
    assert apply_op(NOP, (0, 4), 1) == (0, 4)


def test_reverse_op_examples():
    assert reverse_op(drop(3)) == lift(3)
    assert reverse_op(NOP) == NOP
    assert reverse_op(reverse_op(lift(1))) == lift(1)


def test_shift_examples():
    t = Test.of(head_eq(1), peb_eq(1, 2, negated=True))
    assert shift_test(t, 2) == Test.of(head_eq(3), peb_eq(3, 4, negated=True))
    assert shift_op(drop(1), 3) == drop(4)
    assert shift_test(TRUE, 5) == TRUE


def test_shift_overflow():
    with pytest.raises(IndexError):
        shift_test(Test.of(head_eq(2)), 2, k=3)
    with pytest.raises(IndexError):
        shift_op(lift(2), 2, k=3)


def test_satisfiable_examples():
    assert not satisfiable(Test.of(head_eq(1), peb_eq(1, 1, negated=True)), 1)
    joint = test_of_op(lift(1), 2).conjoin(Test.of(head_eq(1, negated=True)))
    assert not satisfiable(joint, 2)
    assert not satisfiable(
        Test.of(peb_eq(1, 2), head_eq(1, negated=True), head_eq(2)), 2
    )
    assert satisfiable(Test.of(peb_eq(1, 2), head_eq(1)), 2)
    assert not satisfiable(FALSE, 3)


ALL_OPS_K3 = [NOP] + [op(i) for op in (drop, lift) for i in (1, 2, 3)]


def test_reverse_op_round_trip_exhaustive():
    # over all stacks/heads on words of length <= 4 and k <= 3
    for n in range(5):
        positions = range(n + 1)
        for op in ALL_OPS_K3:
            for size in range(4):
                for peb in itertools.product(positions, repeat=size):
                    for h in positions:
                        after = apply_op(op, peb, h)
                        if after is None:
                            continue
                        assert op_enabled(reverse_op(op), after, h)
                        assert apply_op(reverse_op(op), after, h) == peb


def test_test_of_op_matches_enabledness():
    # eval(test_of_op(op)) agrees with executability, including the lift_k
    # boundary where the k+1 conjunct is dropped
    for k in (1, 2, 3):
        ops = [NOP] + [f(i) for f in (drop, lift) for i in range(1, k + 1)]
        for n in range(4):
            positions = range(n + 1)
            for op in ops:
                guard = test_of_op(op, k)
                for size in range(k + 1):
                    for peb in itertools.product(positions, repeat=size):
                        for h in positions:
                            assert eval_test(guard, peb, h) == op_enabled(op, peb, h)


def test_guards_match_reference_semantics():
    # guard = "t can fire" as runner.step checks it; reverse_guard = "t can
    # be undone" as runner.step_back checks it, on the stack t produced
    rng = random.Random(11)
    for k in (1, 2, 3):
        transitions = {t for _ in range(4) for t in random_machine(rng, k=k).transitions}
        for t in transitions:
            fwd, bwd = guard(t, k), reverse_guard(t, k)
            for size in range(k + 1):
                for peb in itertools.product(range(4), repeat=size):
                    for h in range(4):
                        assert eval_test(fwd, peb, h) == (
                            eval_test(t.test, peb, h) and op_enabled(t.op, peb, h)
                        )
                        before = apply_op(reverse_op(t.op), peb, h)
                        assert eval_test(bwd, peb, h) == (
                            before is not None and eval_test(t.test, before, h)
                        )


def _atom_strategy(k):
    head = st.builds(head_eq, st.integers(1, k), st.booleans())
    peb = st.builds(peb_eq, st.integers(1, k), st.integers(1, k), st.booleans())
    return st.one_of(head, peb)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(_atom_strategy(k), max_size=6))))
def test_satisfiable_agrees_with_model_search(case):
    k, atoms = case
    t = Test.of(*atoms)
    # words of length k+2 suffice: one position per union-find class
    assert satisfiable(t, k) == brute_force_satisfiable(t, k, k + 2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_atom_strategy(3), max_size=4),
    st.lists(_atom_strategy(3), max_size=4),
    st.lists(st.integers(0, 4), max_size=3),
    st.integers(0, 4),
)
def test_eval_monotone_under_conjunction(a1, a2, peb, h):
    t1, t2 = Test.of(*a1), Test.of(*a2)
    peb = tuple(peb)
    assert eval_test(t1.conjoin(t2), peb, h) == (
        eval_test(t1, peb, h) and eval_test(t2, peb, h)
    )


def test_test_canonical_form():
    a, b = head_eq(1), peb_eq(2, 1)
    assert Test.of(a, b, a) == Test.of(b, a)
    # pebble atoms are stored with i <= j
    assert peb_eq(2, 1) == peb_eq(1, 2)
    # an atom is x_i = x_j with x_0 the head: head atoms sort first, each
    # kind by pebble index, so Test.of and serialize order is plain tuple order
    assert Atom._fields == ("i", "j", "negated")
    assert head_eq(2) == Atom(0, 2) and peb_eq(1, 2, True) == Atom(1, 2, True)
    assert Test.of(peb_eq(1, 1), head_eq(2), head_eq(1, True)).atoms == (
        head_eq(1, True), head_eq(2), peb_eq(1, 1)
    )


def test_atom_pebble_indices_start_at_one():
    # x_0 is the head, so no pebble index may be 0 (or below)
    for make in (lambda: head_eq(0), lambda: head_eq(-1), lambda: peb_eq(0, 1),
                 lambda: Atom(0, 0), lambda: Atom(1, -1)):
        with pytest.raises(PebbleError):
            make()


@pytest.mark.parametrize("kind, index", [("x", 0), ("nop", 1), ("drop", 0), ("lift", 0)])
def test_pebble_op_rejects_bad_kind_or_index(kind, index):
    with pytest.raises(ValueError):
        PebbleOp(kind, index)


def test_make_and_replace_validate_like_the_constructor():
    # the namedtuple _make and _replace build through __new__ as well
    atom = Atom._make((2, 1, False))
    assert atom == Atom(1, 2) and tuple(atom) == (1, 2, False) and type(atom) is Atom
    assert head_eq(1)._replace(i=3) == Atom(1, 3)
    with pytest.raises(PebbleIndexError):
        Atom._make((0, 0, False))
    with pytest.raises(PebbleIndexError):
        head_eq(1)._replace(j=0)
    assert PebbleOp._make(("lift", 2)) == lift(2) and type(drop(1)._replace(index=2)) is PebbleOp
    with pytest.raises(ValueError):
        drop(1)._replace(index=0)
    with pytest.raises(ValueError):
        PebbleOp._make(("nop", 1))


_SYM = Symbol("a", (1, 0), ((1, 0), (0, 0)))
_VALUES = [
    (Symbol("a"), "Symbol('a')"),
    (Symbol("a", (1,)), "Symbol('_a')"),
    (_SYM, "Symbol('{a;10;10|00}')"),
    (Atom(2, 1, True), "Atom(i=1, j=2, negated=True)"),
    (head_eq(3), "Atom(i=0, j=3, negated=False)"),
    (TRUE, "Test(true)"),
    (FALSE, "Test(false)"),
    (Test.of(peb_eq(1, 2, True), head_eq(1)), "Test(h=p1 & !p1=p2)"),
    (NOP, "PebbleOp(nop)"),
    (drop(2), "PebbleOp(drop2)"),
    (lift(1), "PebbleOp(lift1)"),
    (Transition(("q", 1), _SYM, Test.of(head_eq(1)), lift(1), "r", (Symbol("b"),)),
     "Transition(src=('q', 1), letter=Symbol('{a;10;10|00}'), "
     "test=Test(h=p1), op=PebbleOp(lift1), dst='r', out=(Symbol('b'),))"),
]


@pytest.mark.parametrize("value, text", _VALUES)
def test_value_repr_and_pickle(value, text):
    # .ptx state names are reprs of states built from these values
    assert repr(value) == text
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and hash(back) == hash(value)
    assert repr(back) == text
    # tuple-backed: equal to, and hashed as, the plain tuple of the fields,
    # with no instance state, so no hash is pickled that another
    # PYTHONHASHSEED would make stale
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    assert not hasattr(value, "__dict__")


def test_symbol_orders_by_sort_key():
    # bits/matrix None sort as (), so every operator agrees with sort_key
    # where a plain tuple comparison of None with a tuple would raise
    symbols = [Symbol("a"), Symbol("a", (1,)), Symbol("a", None, ((1,),)),
               Symbol("a", (0,), ((1,),)), Symbol("b"), Symbol("#"), Symbol("#", (1,))]
    for x, y in itertools.product(symbols, repeat=2):
        kx, ky = x.sort_key(), y.sort_key()
        assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)
        assert min(x, y).sort_key() == min(kx, ky)
        assert max(x, y).sort_key() == max(kx, ky)
    assert sorted(symbols) == sorted(symbols, key=Symbol.sort_key)


def test_symbol_structural_equality():
    assert Symbol("a") == Symbol("a")
    assert Symbol("a", (1,)) != Symbol("a")
    assert Symbol("a", (1,)) != Symbol("a", (0,))
    assert Symbol("#").is_endmarker()
    assert not Symbol("#", (1,)).is_endmarker()


def test_explore_is_first_in_first_out():
    edges = {0: [1, 2], 1: [3, 1], 2: [3], 3: [0, 5], 5: [6]}
    expanded, pol_calls = [], []

    def successors(state):
        expanded.append(state)
        for dst in edges.get(state, ()):
            yield Transition(state, ENDMARKER, TRUE, NOP, dst)

    def pol_of(state):
        pol_calls.append(state)
        return state % 3 - 1

    # final 9 is never reached, final 5 is reached but never expanded
    for final, order in ((9, [0, 9, 1, 2, 3, 5, 6]), (5, [0, 5, 1, 2, 3])):
        expanded.clear()
        pol_calls.clear()
        polarity, transitions = explore(0, final, pol_of, successors)
        assert list(polarity) == pol_calls == order
        assert polarity == {s: s % 3 - 1 for s in order}
        assert expanded == [s for s in order if s != final]
        assert [(t.src, t.dst) for t in transitions] == [
            (s, d) for s in expanded for d in edges.get(s, ())
        ]
