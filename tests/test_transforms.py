import itertools
import random

import pytest

from machines import (
    basic_consistent,
    drop_two_then_copy_rest,
    eliminate_equality_bound,
    equality_pair_probe,
    phi1,
    phi2,
    pick_any_letter,
    random_machine,
    separate_moves_bound,
    words_upto,
)
from pebbletx.analysis import is_deterministic, is_reverse_deterministic, is_reversible, validate
from pebbletx.core import (
    ENDMARKER,
    NOP,
    NotReversibleError,
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
from pebbletx.runner import enumerate_runs, run, semantics, step
from pebbletx.transforms import (
    consistent_bits,
    eliminate_equality,
    ensure_full_read,
    reverse_test_under_op,
    reverse_transducer,
    separate_drop_lift_moves,
    separate_ops_unchecked,
    split_outputs,
    update_matrix,
)


# ---------------------------------------------------------------------------
# op(phi) tables


def test_reverse_test_under_op_table():
    assert reverse_test_under_op(lift(2), Test.of(head_eq(2))) == TRUE
    assert reverse_test_under_op(drop(2), Test.of(peb_eq(1, 2))).false
    assert reverse_test_under_op(lift(3), Test.of(peb_eq(1, 3))) == Test.of(head_eq(1))
    assert reverse_test_under_op(drop(3), Test.of(head_eq(1))) == Test.of(head_eq(1))
    assert reverse_test_under_op(lift(2), Test.of(peb_eq(2, 2))) == TRUE
    assert reverse_test_under_op(NOP, Test.of(head_eq(1, negated=True))) == Test.of(
        head_eq(1, negated=True)
    )
    # negation of an identically-false image is dropped, not falsified
    assert reverse_test_under_op(drop(2), Test.of(peb_eq(1, 2, negated=True))) == TRUE


def test_reverse_test_under_op_semantic_contract():
    # peb,h |= phi iff op(peb,h),h |= op(phi) whenever the op applies
    from pebbletx.core import apply_op, eval_test

    k = 3
    ops = [NOP] + [f(i) for f in (drop, lift) for i in range(1, k + 1)]
    atoms = [head_eq(i) for i in range(1, k + 1)] + [
        peb_eq(i, j) for i in range(1, k + 1) for j in range(i, k + 1)
    ]
    for op in ops:
        for atom in atoms:
            for negated in (False, True):
                phi = Test.of(atom.negate() if negated else atom)
                image = reverse_test_under_op(op, phi)
                for n in range(4):
                    positions = range(n + 1)
                    for size in range(k + 1):
                        for peb in itertools.product(positions, repeat=size):
                            for h in positions:
                                after = apply_op(op, peb, h)
                                if after is None:
                                    continue
                                assert eval_test(phi, peb, h) == eval_test(image, after, h)


# ---------------------------------------------------------------------------
# Reversal


def test_reverse_transducer_prefixes(prefixes):
    rev = reverse_transducer(prefixes)
    out = run(rev, "abb").output
    assert "".join(s.render() for s in out) == "!abb!ab!a"
    for u in words_upto("ab", 5):
        fwd = semantics(prefixes, u)
        bwd = semantics(rev, u)
        assert bwd == tuple(reversed(fwd))


def test_reverse_twice_is_identity_semantically(sq, itrev):
    for machine in (sq, itrev):
        twice = reverse_transducer(reverse_transducer(machine))
        for u in words_upto("ab", 4):
            assert semantics(twice, u) == semantics(machine, u)


def test_reverse_flips_polarities_and_endpoints(sq):
    rev = reverse_transducer(sq)
    assert rev.polarity["q3"] == -sq.polarity["q3"]
    assert rev.initial == sq.final and rev.final == sq.initial
    assert len(rev.polarity) == len(sq.polarity)
    assert is_reversible(rev)


def test_reverse_requires_reversible(sq):
    toy = sq.replace(transitions=sq.transitions + (sq.transitions[0].__class__(
        "q1", Symbol("a"), TRUE, NOP, "q1"),))
    with pytest.raises(NotReversibleError):
        reverse_transducer(toy)


def test_reversal_edge_duality(sq, prefixes):
    # every forward edge of T corresponds to a backward edge of reverse(T)
    from pebbletx.core import Configuration
    from pebbletx.transforms import _reverse_unchecked, reverse_transition

    for machine in (sq, prefixes):
        rev = _reverse_unchecked(machine)
        for u in words_upto("ab", 3):
            word = word_symbols(u)
            n = len(word) + 1
            from machines import all_configurations

            for c in all_configurations(machine, u):
                for t, c2 in step(machine, c, word):
                    start = Configuration(
                        c2.state, c2.peb, (c2.head - machine.pol(c2.state)) % n
                    )
                    succs = step(rev, start, word)
                    expected_end = Configuration(
                        c.state, c.peb, (c.head - machine.pol(c.state)) % n
                    )
                    assert (reverse_transition(t), expected_end) in succs


# ---------------------------------------------------------------------------
# Equality elimination


def test_phi_maps():
    assert phi1((), 2) == ((0, 0), (0, 0))
    assert phi1((2, 2), 2) == ((1, 1), (1, 1))
    assert phi2(3, (3, 1), 2) == (1, 0)
    assert phi2(0, (), 2) == (0, 0)


def test_phi_commutes_with_ops():
    from pebbletx.core import apply_op

    k = 2
    ops = [NOP, drop(1), drop(2), lift(1), lift(2)]
    for n in range(4):
        positions = range(n + 1)
        for size in range(k + 1):
            for peb in itertools.product(positions, repeat=size):
                for h in positions:
                    for op in ops:
                        after = apply_op(op, peb, h)
                        if after is None:
                            continue
                        alpha, b = phi1(peb, k), phi2(h, peb, k)
                        assert basic_consistent(alpha, b)
                        assert update_matrix(op, alpha, b) == phi1(after, k)


def test_basic_consistent_rejects_each_broken_invariant():
    zero2, zero3 = (0, 0), (0, 0, 0)
    assert basic_consistent(((1, 1), (1, 1)), zero2)
    # I1: alpha is symmetric
    assert not basic_consistent(((1, 1), (0, 1)), zero2)
    # I1: alpha is transitive (1 ~ 2 and 2 ~ 3, but not 1 ~ 3)
    assert not basic_consistent(((1, 1, 0), (1, 1, 1), (0, 1, 1)), zero3)
    # I5: stack discipline, pebble 2 cannot be dropped while pebble 1 is not
    assert not basic_consistent(((0, 0), (0, 1)), zero2)
    assert not basic_consistent(((1, 0, 0), (0, 0, 0), (0, 0, 1)), zero3)


def test_consistent_bits_are_the_basic_consistent_vectors():
    # phi1 of every stack gives every equivalence on a prefix of the pebbles
    for k in range(4):
        for size in range(k + 1):
            for peb in itertools.product(range(k), repeat=size):
                alpha = phi1(peb, k)
                want = [b for b in itertools.product((0, 1), repeat=k)
                        if basic_consistent(alpha, b)]
                assert consistent_bits(alpha) == want, alpha


def test_eliminate_equality_on_basic_machine(sq):
    basic = eliminate_equality(sq)
    assert validate(basic) == []
    assert not basic.equality_tests_allowed
    for u in words_upto("ab", 4):
        assert semantics(basic, u) == semantics(sq, u)


def test_eliminate_equality_fixture_relation_preserved():
    probe = equality_pair_probe()
    basic = eliminate_equality(probe)
    assert validate(basic) == []
    assert len(basic.polarity) <= eliminate_equality_bound(len(probe.polarity), probe.k)
    for u in words_upto("ab", 3):
        budget = 300
        a = enumerate_runs(probe, u, budget=budget)
        b = enumerate_runs(basic, u, budget=budget)
        assert a.outputs == b.outputs, u


def test_eliminate_equality_drop_duplication():
    probe = equality_pair_probe()
    basic = eliminate_equality(probe)
    # for the source matrix diag(1,0), a drop2 transition is duplicated over
    # the 2^{2-1} bit choices for pebble 1
    alpha = ((1, 0), (0, 0))
    sources = [
        t
        for t in basic.transitions
        if t.op == drop(2) and t.src == ("d2", alpha) and t.letter == Symbol("a")
    ]
    assert len(sources) == 2
    guards = {t.test for t in sources}
    assert guards == {
        Test.of(head_eq(1), head_eq(2, negated=True)),
        Test.of(head_eq(1, negated=True), head_eq(2, negated=True)),
    }


def test_eliminate_equality_preserves_verdicts():
    # the theorem direction: good verdicts carry over; on the hand fixtures
    # the bad verdicts carry over too (their conflicts are reachable)
    for m in (equality_pair_probe(), pick_any_letter()):
        basic = eliminate_equality(m)
        assert is_deterministic(basic)[0] == is_deterministic(m)[0]
        assert is_reverse_deterministic(basic)[0] == is_reverse_deterministic(m)[0]
    rng = random.Random(7)
    for _ in range(15):
        m = random_machine(rng)
        basic = eliminate_equality(m)
        if is_deterministic(m)[0]:
            assert is_deterministic(basic)[0], m.name
        if is_reverse_deterministic(m)[0]:
            assert is_reverse_deterministic(basic)[0], m.name


def test_eliminate_equality_matrices_stay_consistent():
    probe = equality_pair_probe()
    basic = eliminate_equality(probe)
    k = probe.k
    for state in basic.polarity:
        _, alpha = state
        # symmetry and transitivity (I1)
        for i in range(k):
            for j in range(k):
                assert alpha[i][j] == alpha[j][i]
                for n in range(k):
                    assert not (alpha[i][j] and alpha[j][n]) or alpha[i][n]
        # stack discipline (I5)
        for j in range(1, k):
            assert not alpha[j][j] or alpha[j - 1][j - 1]


# ---------------------------------------------------------------------------
# Normalization lemmas


def test_split_outputs_chains():
    base = __import__("machines").two_branch_toy()
    wide = base.replace(
        transitions=tuple(
            Transition(t.src, t.letter, t.test, t.op, t.dst, (Symbol("x"), Symbol("y")))
            if t.src == "t0" and t.dst == "tx"
            else t
            for t in base.transitions
        )
    )
    thin = split_outputs(wide)
    assert all(len(t.out) <= 1 for t in thin.transitions)
    assert len(thin.polarity) == len(wide.polarity) + 1


def test_split_outputs_identity_when_thin(sq):
    assert split_outputs(sq) is sq


def test_split_outputs_preserves_semantics(prefixes):
    doubled = prefixes.replace(
        transitions=tuple(
            Transition(t.src, t.letter, t.test, t.op, t.dst, t.out * 2) for t in prefixes.transitions
        )
    )
    thin = split_outputs(doubled)
    assert is_reversible(thin)
    for u in words_upto("ab", 4):
        assert semantics(thin, u) == semantics(doubled, u)


def test_ensure_full_read(itrev, ident):
    for machine in (itrev, ident):
        swept = ensure_full_read(machine)
        assert len(swept.polarity) == len(machine.polarity) + 1
        assert is_reversible(swept)
        for u in words_upto("ab", 5):
            assert semantics(swept, u) == semantics(machine, u)
        # the sweep visits every position before the original first step
        traced = run(swept, "abb", trace=True)
        heads = [c.head for _, c in traced.trace[: len("abb") + 2]]
        assert heads[: len("abb") + 1] == [1, 2, 3, 0]


def test_ensure_full_read_idempotent_semantics(ident):
    once = ensure_full_read(ident)
    twice = ensure_full_read(once)
    assert len(twice.polarity) == len(once.polarity) + 1
    for u in words_upto("ab", 4):
        assert semantics(twice, u) == semantics(ident, u)


def test_ensure_full_read_preserves_partial_domain(ident):
    # copier that cannot read 'b': domain a*, unchanged by the sweep
    partial = ident.replace(
        transitions=tuple(t for t in ident.transitions if t.letter != Symbol("b"))
    )
    swept = ensure_full_read(partial)
    for u in words_upto("ab", 4):
        assert semantics(swept, u) == semantics(partial, u)
    assert semantics(swept, "ab") is None
    assert semantics(swept, "aa") is not None


def test_separate_drop_lift_moves(sq, prefixes):
    for machine in (sq, prefixes):
        flat = separate_drop_lift_moves(machine)
        assert len(flat.polarity) <= separate_moves_bound(len(machine.polarity), machine.k)
        assert is_reversible(flat)
        assert all(t.op.is_nop() or flat.pol(t.dst) == 0 for t in flat.transitions)
        for u in words_upto("ab", 4):
            assert semantics(flat, u) == semantics(machine, u)


def test_separate_adds_one_held_state_per_distinct_op():
    # a middle state with all 2k pebble operations gets 2k held states:
    # 11 states from 3, above 3|Q| = 9 and within (2k+1)|Q| = 27
    a = Symbol("a")
    ts = [Transition("i", ENDMARKER, TRUE, NOP, "m"), Transition("m", ENDMARKER, TRUE, NOP, "f")]
    ts += [Transition("m", a, TRUE, op(j), "m") for op in (drop, lift) for j in range(1, 5)]
    machine = Transducer("all_ops", 4, frozenset({a}), frozenset({a}),
                         {"i": 0, "m": 1, "f": 0}, "i", "f", tuple(ts))
    assert validate(machine) == []
    flat = separate_ops_unchecked(machine)
    assert len(flat.polarity) == 11 > 3 * len(machine.polarity)
    assert len(flat.polarity) <= separate_moves_bound(len(machine.polarity), machine.k)


def test_separate_noop_on_pure_nop_machine(itrev):
    assert separate_drop_lift_moves(itrev).transitions == itrev.transitions


def test_separate_requires_reversible():
    probe = equality_pair_probe()
    with pytest.raises(NotReversibleError):
        separate_drop_lift_moves(probe)
