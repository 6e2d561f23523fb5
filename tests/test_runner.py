import random

import pytest

from machines import (
    all_configurations,
    iterated_reverse_fn,
    prefixes_reversed_fn,
    random_machine,
    squaring_fn,
    two_branch_toy,
    words_upto,
)
from pebbletx import builtins
from pebbletx.analysis import is_deterministic, is_reverse_deterministic
from pebbletx.core import (
    ENDMARKER,
    NOP,
    Configuration,
    PebbleError,
    Symbol,
    TRUE,
    Transducer,
    Transition,
    WordError,
    drop,
    word_symbols,
)
from pebbletx.decompose import build_config_enumerator, build_equality_annotator
from pebbletx.runner import (
    NondeterministicChoiceError,
    default_budget,
    enumerate_runs,
    initial_configuration,
    run,
    semantics,
    step,
    step_back,
)


def _t0(machine):
    (t,) = [t for t in machine.transitions if t.src == machine.initial]
    return t


def test_enabled_examples(sq):
    # a transition fires from a configuration iff step lists it
    word = word_symbols("ab")
    t0 = _t0(sq)
    assert t0 in [t for t, _ in step(sq, Configuration("q0", (), 0), word)]
    assert step(sq, Configuration("q0", (), 1), word) == []  # letter mismatch
    lift_t = next(t for t in sq.transitions if t.op.kind == "lift")
    longer = word_symbols("abb")
    fired = [t for t, _ in step(sq, Configuration(lift_t.src, (2,), 3), longer)]
    assert lift_t not in fired


def test_step_from_initial(sq):
    word = word_symbols("ab")
    succ = step(sq, Configuration("q0", (), 0), word)
    assert len(succ) == 1
    t, c = succ[0]
    assert t.letter == ENDMARKER
    assert c == Configuration("q1", (), 1)
    assert sq.pol("q1") == 1


def test_step_head_wraps(sq):
    # from the last position, a right-moving target lands on the endmarker
    word = word_symbols("ab")
    succ = step(sq, Configuration("q3", (1,), 2), word)
    assert succ and all(c.head == 0 for _, c in succ)


def test_no_step_from_final(sq):
    word = word_symbols("ab")
    assert step(sq, Configuration("q2", (), 0), word) == []


def test_step_back_round_trip(sq):
    # every reached forward edge is recovered by step_back
    for u in ["a", "ab", "abb"]:
        word = word_symbols(u)
        c = initial_configuration(sq)
        while True:
            succ = step(sq, c, word)
            if not succ:
                break
            t, c2 = succ[0]
            assert (t, c) in step_back(sq, c2, word)
            c = c2


def _step_back_cases():
    for make in (builtins.squaring, builtins.squaring_variant, builtins.modified_squaring,
                 builtins.all_prefixes_reversed, builtins.iterated_reverse, builtins.copier):
        yield make()
    rng = random.Random(5)
    for k in (0, 1, 2, 3, 1, 2):
        yield random_machine(rng, k=k)


@pytest.mark.parametrize("machine", list(_step_back_cases()), ids=lambda m: m.name)
def test_step_back_is_exactly_the_inverse_of_step(machine):
    sigma = "".join(sorted(s.base for s in machine.input_alphabet))
    for u in words_upto(sigma, 2):
        word = word_symbols(u)
        preds: dict = {}
        for c in all_configurations(machine, u):
            for t, c2 in step(machine, c, word):
                preds.setdefault(c2, set()).add((t, c))
        for c2 in all_configurations(machine, u):
            back = step_back(machine, c2, word)
            assert len(back) == len(set(back))
            assert set(back) == preds.get(c2, set()), (u, c2)


def test_op_index_beyond_k_is_a_pebble_error():
    # neither the run nor the analysis path validates the machine first
    sig = frozenset({Symbol("a")})
    ts = (Transition("i", ENDMARKER, TRUE, drop(2), "f"), Transition("i", ENDMARKER, TRUE, NOP, "f"))
    bad = Transducer("bad", 1, sig, sig, {"i": 0, "f": 0}, "i", "f", ts)
    for check in (run, enumerate_runs):
        with pytest.raises(PebbleError):
            check(bad, "a")
    for check in (is_deterministic, is_reverse_deterministic):
        with pytest.raises(PebbleError):
            check(bad)


def test_step_back_of_accepting_config(sq):
    word = word_symbols("a")
    back = step_back(sq, Configuration("q2", (), 0), word)
    assert len(back) == 1


def test_run_squaring_matches_functional_oracle(sq):
    for u in words_upto("ab", 4):
        result = run(sq, u)
        assert result.accepted
        assert result.output == squaring_fn(u)


def test_run_prefixes_example(prefixes):
    result = run(prefixes, "abb")
    assert result.accepted
    assert result.output == prefixes_reversed_fn("abb")
    assert "".join(s.render() for s in result.output) == "a!ba!bba!"


def test_run_iterated_reverse_example(itrev):
    result = run(itrev, "ab!a!")
    assert result.accepted
    assert "".join(s.render() for s in result.output) == "ba!a!"
    for u in ["", "!", "a!b", "!!", "ab!ba"]:
        assert run(itrev, u).output == iterated_reverse_fn(u)


def test_run_empty_word(sq, itrev):
    assert run(sq, "").accepted
    assert run(sq, "").output == ()
    assert run(itrev, "").accepted


def test_run_traces_are_opt_in(sq):
    assert run(sq, "ab").trace is None
    traced = run(sq, "ab", trace=True)
    assert traced.trace is not None and len(traced.trace) == traced.steps


def test_run_rejects_outside_domain():
    fx = __import__("machines").drop_two_then_copy_rest()
    assert run(fx, "a").verdict == "reject"
    assert run(fx, "ab").accepted


def test_run_raises_on_nondeterminism():
    toy = two_branch_toy()
    with pytest.raises(NondeterministicChoiceError):
        run(toy, "a")


def test_enumerate_runs_deterministic_singleton(sq):
    for u in ["", "a", "ab"]:
        e = enumerate_runs(sq, u)
        assert e.outputs == frozenset({run(sq, u).output})
        assert not e.truncated


def test_enumerate_runs_empty_when_rejecting():
    fx = __import__("machines").drop_two_then_copy_rest()
    e = enumerate_runs(fx, "a")
    assert e.outputs == frozenset()


def test_enumerate_runs_two_branches():
    toy = two_branch_toy()
    e = enumerate_runs(toy, "aa")
    assert {tuple(s.render() for s in o) for o in e.outputs} == {("x",), ("y",)}


def test_enumerate_runs_truncation_flag():
    # a machine that can emit arbitrarily long outputs: the search reports
    # the cut instead of silently under-approximating
    sig = frozenset({Symbol("a")})
    pol = {"u0": 0, "u1": 0, "uf": 0}
    ts = (
        Transition("u0", ENDMARKER, TRUE, NOP, "u1"),
        Transition("u1", ENDMARKER, TRUE, NOP, "u1", (Symbol("a"),)),
        Transition("u1", ENDMARKER, TRUE, NOP, "uf"),
    )
    pump = Transducer("pump", 0, sig, sig, pol, "u0", "uf", ts)
    e = enumerate_runs(pump, "", budget=10)
    assert e.truncated
    # an accepting run emitting n letters takes n+2 steps, so n <= 8
    assert {len(o) for o in e.outputs} == set(range(9))


def test_divergence_budget_and_loop_detection():
    # right-spinning machine that never accepts
    sig = frozenset({Symbol("a")})
    pol = {"z0": 0, "z1": 1, "zf": 0}
    ts = (
        Transition("z0", ENDMARKER, TRUE, NOP, "z1"),
        Transition("z1", Symbol("a"), TRUE, NOP, "z1"),
        Transition("z1", ENDMARKER, TRUE, NOP, "z1"),
    )
    spin = Transducer("spin", 0, sig, sig, pol, "z0", "zf", ts)
    result = run(spin, "aa")
    assert result.verdict == "diverge"
    assert result.steps == default_budget(spin, word_symbols("aa"))
    looped = run(spin, "aa", detect_loop=True)
    assert looped.verdict == "diverge"
    assert looped.repeated_configuration is not None
    # with loop detection the stop happens as soon as a configuration repeats
    assert looped.steps <= result.steps


def test_accepting_run_configurations_pairwise_distinct(sq, prefixes, itrev, ident):
    for machine in (sq, prefixes, itrev, ident):
        for u in words_upto("ab", 4):
            result = run(machine, u, trace=True)
            if not result.accepted:
                continue
            configs = [initial_configuration(machine)] + [c for _, c in result.trace]
            assert len(set(configs)) == len(configs)


def test_budget_soundness(sq):
    # a deterministic accepting run never exceeds the configuration count
    for u in words_upto("ab", 4):
        result = run(sq, u)
        assert result.steps <= default_budget(sq, word_symbols(u))


@pytest.mark.parametrize("fn", [run, semantics, enumerate_runs])
@pytest.mark.parametrize(
    "word", ["a#b", "#", ("a", "b"), [Symbol("a"), 3], (ENDMARKER,), "abz"]
)
def test_malformed_words_raise_word_error(sq, fn, word):
    with pytest.raises(WordError):
        fn(sq, word)


def test_annotated_endmarker_is_an_ordinary_letter():
    # C_1 writes letters such as {#;1}; only the bare '#' is reserved
    sigma = frozenset(word_symbols("ab"))
    marked = run(build_config_enumerator(1, sigma), "ab").output
    assert Symbol("#", (1,)) in marked
    assert run(build_equality_annotator(1, sigma), marked).accepted
