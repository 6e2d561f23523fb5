"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding to its stated time budget."""

import itertools
import random
import time

import pytest

from machines import (
    brute_force_satisfiable,
    compose_general_bound,
    compose_simple_bound,
    drop_two_then_copy_rest,
    drop_two_then_copy_rest_fn,
    eliminate_equality_bound,
    equality_pair_probe,
    pick_any_letter,
    random_machine,
    squaring_fn,
    words_upto,
)
from pebbletx.analysis import (
    is_deterministic,
    is_reverse_deterministic,
    is_reversible,
    validate,
)
from pebbletx.builtins import (
    all_prefixes_reversed,
    copier,
    iterated_reverse,
    modified_squaring,
    squaring,
    squaring_variant,
)
from pebbletx.compose import compose, compose_simple
from pebbletx.core import (
    NOP,
    Symbol,
    Test,
    TRUE,
    Transition,
    drop,
    head_eq,
    lift,
    peb_eq,
    satisfiable,
    test_of_op,
)
from pebbletx.decompose import build_config_enumerator, build_equality_annotator, decompose
from pebbletx.runner import enumerate_runs, run, semantics
from pebbletx.transforms import eliminate_equality, reverse_transducer
from pebbletx.twoway import two_way_to_zero_pebble, zero_pebble_to_two_way
from pebbletx.uniformize import uniformize_pipeline

test_of_op.__test__ = False


class _Watch:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.number:>2} [{self.name}]: {verdict} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def render(out) -> str:
    return "".join(s.render() for s in out)


def test_criterion_1_builtin_fidelity():
    with _Watch(1, "builtin fidelity", 1.0):
        assert render(run(all_prefixes_reversed("ab"), "abb").output) == "a!ba!bba!"
        sq = squaring("ab")
        for w in words_upto("ab", 5):
            assert run(sq, w).output == squaring_fn(w)
        c1 = run(build_config_enumerator(1, "ab"), "ab").output
        assert [(s.base, s.bits) for s in c1] == [
            ("#", (1,)), ("a", (0,)), ("b", (0,)),
            ("#", (0,)), ("a", (1,)), ("b", (0,)),
            ("#", (0,)), ("a", (0,)), ("b", (1,)),
        ]


def test_criterion_2_reversibility_verdicts():
    with _Watch(2, "reversibility verdicts", 5.0):
        positives = [
            squaring("ab"),
            squaring_variant("ab"),
            all_prefixes_reversed("ab"),
            iterated_reverse("ab"),
            build_config_enumerator(1, "ab"),
            build_config_enumerator(2, "ab"),
            build_equality_annotator(2, "ab"),
        ]
        for machine in positives:
            assert is_reversible(machine), machine.name
            assert is_reversible(reverse_transducer(machine)), machine.name
        # mutated negatives, each with a semantically confirmed witness
        sq = squaring("ab")
        mutants = [
            sq.replace(transitions=sq.transitions + (
                Transition("q5", Symbol("a"), TRUE, NOP, "q1"),)),
            sq.replace(transitions=sq.transitions + (
                Transition("q4", Symbol("a"), TRUE, NOP, "q4", (Symbol("a"),)),)),
            sq.replace(transitions=sq.transitions + (
                Transition("q3", Symbol("a"), TRUE, NOP, "q4"),)),
        ]
        confirmed = 0
        for mutant in mutants:
            assert not is_reversible(mutant)
            for check in (is_deterministic, is_reverse_deterministic):
                ok, witness = check(mutant)
                if not ok:
                    assert brute_force_satisfiable(
                        witness.joint_test, mutant.k, mutant.k + 2
                    )
                    confirmed += 1
        assert confirmed >= 3


def test_criterion_3_reversal_law():
    with _Watch(3, "reversal law", 10.0):
        cases = [
            (squaring("ab"), "ab"),
            (squaring_variant("ab"), "ab"),
            (all_prefixes_reversed("ab"), "ab"),
            (iterated_reverse("ab"), "ab!"),
            (modified_squaring("ab"), "ab"),
            (copier("ab"), "ab"),
        ]
        for machine, alphabet in cases:
            rev = reverse_transducer(machine)
            for u in words_upto(alphabet, 5):
                fwd = semantics(machine, u)
                bwd = semantics(rev, u)
                if fwd is None:
                    assert bwd is None
                else:
                    assert bwd == tuple(reversed(fwd)), (machine.name, u)


def test_criterion_4_equality_elimination():
    with _Watch(4, "equality elimination", 60.0):
        rng = random.Random(20240817)
        machines = [equality_pair_probe(), pick_any_letter(), drop_two_then_copy_rest()]
        machines += [random_machine(rng) for _ in range(50)]
        budget = 200
        for m in machines:
            assert validate(m) == [], m.name
            basic = eliminate_equality(m)
            assert validate(basic) == [], m.name
            assert len(basic.polarity) <= eliminate_equality_bound(len(m.polarity), m.k), m.name
            assert not basic.equality_tests_allowed
            if is_deterministic(m)[0]:
                assert is_deterministic(basic)[0], m.name
            if is_reverse_deterministic(m)[0]:
                assert is_reverse_deterministic(basic)[0], m.name
            for u in words_upto("ab", 3):
                a = enumerate_runs(m, u, budget=budget)
                b = enumerate_runs(basic, u, budget=budget)
                assert a.outputs == b.outputs, (m.name, u)


def test_criterion_5_simple_composition():
    with _Watch(5, "simple composition", 60.0):
        modsq = modified_squaring("bcd")
        itrev_bcd = iterated_reverse("bcd")
        sq = squaring("ab")
        ident = copier(sorted(sq.output_alphabet))
        prefixes = all_prefixes_reversed("ab")
        itrev_ab = iterated_reverse("ab")
        pairs = [
            (modsq, itrev_bcd, "bcd"),
            (sq, ident, "ab"),
            (prefixes, itrev_ab, "ab"),
        ]
        for first, second, alphabet in pairs:
            comp = compose_simple(first, second)
            tn = comp.metadata["first_normalized"]
            sn = comp.metadata["second_normalized"]
            assert len(comp.polarity) <= compose_simple_bound(len(tn.polarity), len(sn.polarity))
            assert is_deterministic(comp)[0]
            if is_reversible(second):
                assert is_reversible(comp)
            for u in words_upto(alphabet, 4):
                mid = semantics(first, u)
                want = semantics(second, mid) if mid is not None else None
                assert semantics(comp, u) == want, (first.name, u)
        # the endmarker-prefixed intermediate string, reproduced exactly
        comp = compose_simple(modsq, itrev_bcd)
        intermediate = run(comp.metadata["first_normalized"], "bcd").output
        assert render(intermediate) == "#!cdb!dbc!"


def test_criterion_6_general_composition():
    with _Watch(6, "general composition", 120.0):
        first = squaring("ab")
        second = squaring(sorted(first.output_alphabet))
        comp = compose(first, second)
        assert comp.k == 3 == (first.k + 1) * (second.k + 1) - 1
        assert is_deterministic(comp)[0]
        assert is_reverse_deterministic(comp)[0]
        tn = comp.metadata["first_normalized"]
        sn = comp.metadata["second_normalized"]
        bound = compose_general_bound(len(tn.polarity), len(sn.polarity), tn.k, sn.k)
        assert len(comp.polarity) <= bound
        gadget_tags = ("liftg", "dropg", "liftg0")
        for u in words_upto("ab", 3):
            mid = semantics(first, u)
            want = semantics(second, mid) if mid is not None else None
            result = run(comp, u, trace=True)
            got = result.output if result.accepted else None
            assert got == want, u
            if not result.accepted:
                continue
            # gadget head-neutrality on the trace
            entry_head, prev_head = None, 0
            for t, c in result.trace:
                tag = c.state[0]
                if tag in gadget_tags and entry_head is None:
                    entry_head = prev_head
                elif tag not in gadget_tags and entry_head is not None:
                    assert c.head == entry_head, u
                    entry_head = None
                prev_head = c.head
            # segment structure: between consecutive sync states only
            # simulation/gadget states occur, and segments count the second
            # machine's steps
            states = [c.state[0] for _, c in result.trace]
            assert all(
                tag in ("sync", "sim") + gadget_tags for tag in states
            )
            sync_count = states.count("sync")
            mid_prefixed = run(comp.metadata["first_normalized"], u).output
            second_steps = run(sn, mid_prefixed[1:]).steps
            assert sync_count == second_steps, u


def test_criterion_7_decomposition_pipeline():
    with _Watch(7, "decomposition pipeline", 120.0):
        cases = [
            (squaring("ab"), 1, lambda u: squaring_fn(u)),
            (drop_two_then_copy_rest(), 2, drop_two_then_copy_rest_fn),
        ]
        for machine, k, oracle in cases:
            ck = build_config_enumerator(k, "ab")
            ckeq = build_equality_annotator(k, "ab")
            t0 = decompose(machine)
            chained = compose(compose(ck, ckeq), t0)
            assert chained.k == k
            for u in words_upto("ab", 3):
                want = oracle(u)
                direct = semantics(machine, u)
                assert direct == want, (machine.name, u)
                w1 = semantics(ck, u)
                w2 = semantics(ckeq, w1)
                assert semantics(t0, w2) == want, (machine.name, u)
                assert semantics(chained, u) == want, (machine.name, u)


def test_criterion_8_two_way_round_trip():
    with _Watch(8, "two-way round trip", 10.0):
        cases = [(iterated_reverse("ab"), "ab!"), (copier("ab"), "ab")]
        for machine, alphabet in cases:
            t2 = zero_pebble_to_two_way(machine)
            n = len(machine.polarity)
            assert len(t2.states) <= 4 * n + 2  # O(n)
            back = two_way_to_zero_pebble(t2)
            assert len(back.polarity) == len(t2.states)  # exactly n
            assert is_reversible(machine) == is_reversible(back)
            for u in words_upto(alphabet, 5):
                assert semantics(back, u) == semantics(machine, u), u


def test_criterion_9_satisfiability_oracle():
    with _Watch(9, "satisfiability oracle", 30.0):
        rng = random.Random(99)
        for k in (1, 2, 3):
            literals = [head_eq(i, n) for i in range(1, k + 1) for n in (False, True)]
            literals += [
                peb_eq(i, j, n)
                for i in range(1, k + 1)
                for j in range(i, k + 1)
                for n in (False, True)
            ]
            grid = [Test.of(*pair) for pair in itertools.combinations(literals, 2)]
            grid += [Test.of(a) for a in literals] + [TRUE]
            grid += [
                Test.of(*rng.sample(literals, min(6, len(literals))))
                for _ in range(60)
            ]
            ops = [NOP] + [f(i) for f in (drop, lift) for i in range(1, k + 1)]
            grid += [
                test_of_op(o1, k).conjoin(test_of_op(o2, k))
                for o1 in ops
                for o2 in ops
            ]
            for t in grid:
                assert satisfiable(t, k) == brute_force_satisfiable(t, k, k + 2), (
                    k, t.render(),
                )


def test_criterion_10_uniformization_bound_excluded():
    with _Watch(10, "external uniformizer bound excluded", 5.0):
        result = uniformize_pipeline(squaring("ab"), hook="identity")
        assert "2^O((kn)^2)" in result.notes
        assert "not asserted" in result.notes
        # the seam is explicit: nondeterministic input without a hook fails
        from pebbletx.core import HookRequiredError

        with pytest.raises(HookRequiredError):
            uniformize_pipeline(pick_any_letter())
