"""Differential tests: the compiled ``run`` / ``enumerate_runs`` against
reference loops written here over the unchanged ``runner.step``."""

import random
import sys
import threading
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machines import (
    drop_two_then_copy_rest,
    equality_pair_probe,
    pick_any_letter,
    random_machine,
    two_branch_toy,
)
from pebbletx import machinefile
from pebbletx.builtins import BUILTIN_CONSTRUCTORS, squaring
from pebbletx.compose import compose
from pebbletx.core import (
    ENDMARKER,
    FALSE,
    NOP,
    TRUE,
    Symbol,
    Transducer,
    Transition,
    word_symbols,
)
from pebbletx.runner import (
    EnumResult,
    NondeterministicChoiceError,
    RunResult,
    default_budget,
    enumerate_runs,
    initial_configuration,
    is_final_configuration,
    run,
    step,
)
from pebbletx.transforms import eliminate_equality
from pebbletx.uniformize import uniformize_pipeline

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def reference_run(machine, u, budget=None, trace=False, detect_loop=False):
    """``run`` as a loop over ``step``: final, successors, nondeterminism,
    then the budget."""
    word = word_symbols(u)
    if budget is None:
        budget = default_budget(machine, word)
    c = initial_configuration(machine)
    output, path = [], []
    steps = max_depth = 0
    visited = {c}

    def result(verdict, out=None, repeated=None):
        return RunResult(verdict, out, steps, tuple(path) if trace else None,
                         repeated, budget, max_depth)

    while True:
        if is_final_configuration(machine, c):
            return result("accept", tuple(output))
        succ = step(machine, c, word)
        if len(succ) > 1:
            raise NondeterministicChoiceError(c, succ[0][0], succ[1][0])
        if not succ:
            return result("reject")
        if steps >= budget:
            return result("diverge")
        t, c = succ[0]
        output.extend(t.out)
        steps += 1
        max_depth = max(max_depth, len(c.peb))
        path.append((t, c))
        if detect_loop:
            if c in visited:
                return result("diverge", repeated=c)
            visited.add(c)


def reference_enumerate(machine, u, budget):
    """Breadth-first search over ``step`` on (configuration, output) pairs."""
    word = word_symbols(u)
    outputs = set()
    frontier = {(initial_configuration(machine), ())}
    seen = set(frontier)
    for _ in range(budget + 1):
        if not frontier:
            break
        nxt = set()
        for c, out in frontier:
            if is_final_configuration(machine, c):
                outputs.add(out)
                continue
            for t, c2 in step(machine, c, word):
                node = (c2, out + t.out)
                if node not in seen:
                    seen.add(node)
                    nxt.add(node)
        frontier = nxt
    return EnumResult(frozenset(outputs), bool(frontier))


def assert_same(got, want):
    """``got == want``, failing with a message that stays short: pytest's own
    diff of two traces of thousands of steps takes gigabytes."""
    if got == want:
        return
    if isinstance(got, RunResult) and isinstance(want, RunResult):
        for f in fields(RunResult):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if a != b:
                pytest.fail(f"{f.name}: compiled {a!r:.400} != reference {b!r:.400}")
    pytest.fail(f"compiled {got!r:.400} != reference {want!r:.400}")


def outcome(fn, *args, **kwargs):
    """The result, or the nondeterministic choice with its configuration and
    candidates in bucket order."""
    try:
        return fn(*args, **kwargs)
    except NondeterministicChoiceError as e:
        return ("nondeterministic", e.config, e.candidates)


@lru_cache(maxsize=None)
def fixed_machines() -> dict:
    """The six builtins, the corpus, sq∘sq and both identity-hook
    uniformizations by name, built once: later examples run on warm tables.
    Examples draw names, because Hypothesis prints what it draws."""
    machines = {name: ctor("bcd" if name == "modified-squaring" else "ab")
                for name, ctor in BUILTIN_CONSTRUCTORS.items()}
    machines.update((p.name, machinefile.load(p)) for p in CORPUS.glob("*.ptx"))
    sq = squaring("ab")
    machines["sq.sq"] = compose(sq, squaring(sorted(sq.output_alphabet)))
    machines["uniformize(squaring)"] = uniformize_pipeline(sq, hook="identity").transducer
    machines["uniformize(drop_two)"] = uniformize_pipeline(
        drop_two_then_copy_rest(), hook="identity").transducer
    return machines


@lru_cache(maxsize=None)
def enumerated_machines() -> dict:
    """The nondeterministic fixtures, their equality-free images and the
    builtins."""
    fixtures = [pick_any_letter(), equality_pair_probe(), two_branch_toy()]
    machines = {m.name: m for m in fixtures}
    machines.update((f"eliminate_equality({m.name})", eliminate_equality(m)) for m in fixtures)
    machines.update((name, fixed_machines()[name]) for name in BUILTIN_CONSTRUCTORS)
    return machines


def _words(machine):
    return st.lists(st.sampled_from(sorted(machine.input_alphabet)), max_size=6)


_budgets = st.none() | st.integers(0, 40)


@settings(max_examples=300, deadline=None)
@given(st.data(), _budgets, st.booleans(), st.booleans())
def test_run_matches_reference_on_fixed_machines(data, budget, trace, detect_loop):
    machine = fixed_machines()[data.draw(st.sampled_from(sorted(fixed_machines())))]
    u = data.draw(_words(machine))
    assert_same(outcome(run, machine, u, budget, trace, detect_loop),
                outcome(reference_run, machine, u, budget, trace, detect_loop))


@settings(max_examples=60, deadline=None)
@given(st.text("ab", max_size=6), st.booleans())
def test_run_matches_reference_on_annotated_words(u, trace):
    # C_1^='s inputs are C_1's outputs: annotated letters, annotated '#' included
    enumerator, annotator = (machinefile.load(CORPUS / f"{name}_1.ptx")
                             for name in ("config_enumerator", "equality_annotator"))
    marked = run(enumerator, u).output
    assert_same(run(annotator, marked, trace=trace), reference_run(annotator, marked, trace=trace))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3),
       st.text("ab", max_size=6), _budgets, st.booleans(), st.booleans())
def test_run_matches_reference_on_random_machines(seed, k, u, budget, trace, detect_loop):
    machine = random_machine(random.Random(seed), k=k)
    assert_same(outcome(run, machine, u, budget, trace, detect_loop),
                outcome(reference_run, machine, u, budget, trace, detect_loop))


# Budgets stay small: a random machine that branches while it writes has
# exponentially many (configuration, output) pairs per level.
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.text("ab", max_size=6),
       st.integers(0, 10))
def test_enumerate_runs_matches_bfs_on_random_machines(seed, k, u, budget):
    machine = random_machine(random.Random(seed), k=k)
    assert_same(enumerate_runs(machine, u, budget), reference_enumerate(machine, u, budget))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 40))
def test_enumerate_runs_matches_bfs_on_fixed_machines(data, budget):
    machine = enumerated_machines()[data.draw(st.sampled_from(sorted(enumerated_machines())))]
    u = data.draw(_words(machine))
    assert_same(enumerate_runs(machine, u, budget), reference_enumerate(machine, u, budget))


def test_loop_detection_matches_reference():
    sig = frozenset({Symbol("a")})
    spin = Transducer("spin", 0, sig, sig, {"z0": 0, "z1": 1, "zf": 0}, "z0", "zf", (
        Transition("z0", ENDMARKER, TRUE, NOP, "z1"),
        Transition("z1", Symbol("a"), TRUE, NOP, "z1"),
        Transition("z1", ENDMARKER, TRUE, NOP, "z1"),
    ))
    for u in ("", "a", "aaa"):
        looped = run(spin, u, trace=True, detect_loop=True)
        assert looped.repeated_configuration is not None
        assert_same(looped, reference_run(spin, u, trace=True, detect_loop=True))


def test_constant_false_guard_never_fires():
    sig = frozenset({Symbol("a")})
    machine = Transducer("blocked", 0, sig, sig, {"b0": 0, "b1": 1, "bf": 0}, "b0", "bf", (
        Transition("b0", ENDMARKER, FALSE, NOP, "bf", (Symbol("a"),)),
        Transition("b0", ENDMARKER, TRUE, NOP, "b1"),
        Transition("b1", Symbol("a"), TRUE, NOP, "b1", (Symbol("a"),)),
        Transition("b1", ENDMARKER, TRUE, NOP, "bf"),
    ))
    for u in ("", "aa"):
        assert_same(run(machine, u, trace=True), reference_run(machine, u, trace=True))


def test_reused_machine_matches_a_fresh_one():
    # a table compiled by earlier runs answers later words as a fresh one does
    warm = squaring("ab")
    for u in ("", "a", "abba", "ba", "b"):
        assert_same(run(warm, u, trace=True), run(squaring("ab"), u, trace=True))


def test_buckets_compile_on_first_visit():
    machine = uniformize_pipeline(drop_two_then_copy_rest(), hook="identity").transducer
    assert machine._run_table is None
    run(machine, "ab")
    compiled = sum(len(node.buckets) for node in machine._run_table.nodes.values())
    assert 0 < compiled < len(machine.groups("src"))


def test_concurrent_first_runs_share_one_table():
    # more threads than cores race to compile the same fresh machine; a lost
    # update would leave two nodes for one state or two letters on one id
    machine = uniformize_pipeline(drop_two_then_copy_rest(), hook="identity").transducer
    words = ["ab", "ba", "abb", "bab", "aab", "bba"]
    want = {u: reference_run(machine, u) for u in words}
    got, errors = {}, []
    start = threading.Barrier(4)

    def worker():
        try:
            start.wait(timeout=60)
            for u in words:
                got.setdefault(u, []).append(run(machine, u))
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert all(results == [want[u]] * 4 for u, results in got.items())
    table = machine._run_table
    for node in table.nodes.values():
        for bucket in node.buckets.values():
            assert all(entry[2] is table.nodes[entry[2].state] for entry in bucket)
    assert sorted(table.letter_ids.values()) == list(range(len(table.letters)))
    assert all(table.letters[i] == sym for sym, i in table.letter_ids.items())


def test_run_result_reports_budget_and_depth():
    sq = squaring("ab")
    assert run(sq, "ab").max_depth == 1
    assert run(sq, "").max_depth == 0
    assert run(sq, "ab").budget == default_budget(sq, word_symbols("ab"))
    stopped = run(sq, "ab", budget=3)
    assert (stopped.verdict, stopped.steps, stopped.budget) == ("diverge", 3, 3)


@pytest.mark.parametrize("machine", [pick_any_letter(), equality_pair_probe(), two_branch_toy()],
                         ids=lambda m: m.name)
def test_nondeterministic_candidates_in_bucket_order(machine):
    with pytest.raises(NondeterministicChoiceError) as e:
        run(machine, "ab")
    t1, t2 = e.value.candidates
    bucket = machine.groups("src")[(e.value.config.state, t1.letter)]
    assert bucket.index(t1) < bucket.index(t2)
