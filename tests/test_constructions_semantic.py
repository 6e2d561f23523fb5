"""Deeper cross-checks: the syntactic verdicts of constructed machines are
re-verified against exhaustive sweeps of their configuration graphs, and the
wrap transition is exercised in both directions."""

import random

import pytest

from machines import (
    drop_two_then_copy_rest,
    eliminate_equality_bound,
    equality_pair_probe,
    pick_any_letter,
    random_machine,
    semantically_deterministic,
    semantically_reverse_deterministic,
    two_branch_toy,
    words_upto,
)
from pebbletx.analysis import is_deterministic, is_reverse_deterministic, is_reversible
from pebbletx.builtins import (
    all_prefixes_reversed,
    copier,
    iterated_reverse,
    modified_squaring,
    squaring,
    squaring_variant,
)
from pebbletx.compose import compose
from pebbletx.decompose import build_config_enumerator, build_equality_annotator, decompose
from pebbletx.machinefile import serialize
from pebbletx.runner import run, semantics
from pebbletx.transforms import eliminate_equality, reverse_transducer
from pebbletx.twoway import two_way_to_zero_pebble, zero_pebble_to_two_way


@pytest.fixture(scope="module")
def constructed():
    sq = squaring("ab")
    return {
        "composed_simple": compose(modified_squaring("ab"), iterated_reverse("ab")),
        "composed_general": compose(sq, squaring(sorted(sq.output_alphabet))),
        "eliminated": eliminate_equality(sq),
        "reversed": reverse_transducer(modified_squaring("ab")),
        "enumerator": build_config_enumerator(1, "ab"),
        "annotator": build_equality_annotator(1, "ab"),
    }


def test_constructed_machines_semantic_agreement(constructed):
    # the syntactic verdict implies the semantic one over the full
    # configuration graph (reachable or not), on every short word
    for name, machine in constructed.items():
        words = ["", "a", "ab"] if machine.k >= 3 else ["", "a", "ab", "ba"]
        det = is_deterministic(machine)[0]
        rev = is_reverse_deterministic(machine)[0]
        for u in words:
            if det:
                assert semantically_deterministic(machine, u), (name, u)
            if rev:
                assert semantically_reverse_deterministic(machine, u), (name, u)


def test_wrap_transition_crossed_in_both_directions():
    # iterated reverse walks off the endmarker leftward on every run and
    # back past the final configuration rightward, so the composed machine
    # must replay the first machine across the wrap both ways; the wrap
    # piece runs between the first machine's final and initial states
    first = modified_squaring("ab")
    comp = compose(first, iterated_reverse("ab"))
    kinds = comp.metadata["kinds"]
    result = run(comp, "ab", trace=True)
    assert result.accepted
    used = {
        (kinds[t], t.src[1], t.dst[1])
        for t, _ in result.trace
        if t.src[0] == "sim" and t.dst[0] == "sim"
    }
    assert ("mv-a", first.final, first.initial) in used  # forward crossing
    assert ("mv-b", first.initial, first.final) in used  # backward crossing


def test_simple_composition_sync_segments_count_second_run():
    first = modified_squaring("ab")
    second = iterated_reverse("ab")
    comp = compose(first, second)
    sn = comp.metadata["second_normalized"]
    for u in ["a", "ab", "ba"]:
        result = run(comp, u, trace=True)
        assert result.accepted
        sync_count = sum(1 for _, c in result.trace if c.state[0] == "sync")
        prefixed = run(comp.metadata["first_normalized"], u).output
        assert sync_count == run(sn, prefixed[1:]).steps, u


def test_decomposed_parts_agree_semantically():
    fx = drop_two_then_copy_rest()
    t0 = decompose(fx)
    det = is_deterministic(t0)[0]
    assert det
    ck = build_config_enumerator(2, "ab")
    ckeq = build_equality_annotator(2, "ab")
    for u in ["", "ab", "aba"]:
        image = semantics(ckeq, semantics(ck, u))
        assert semantically_deterministic(t0, image), u


def test_eliminate_equality_of_composed_machine(constructed):
    # the general composition emits equality tests; compiling them away must
    # preserve the function and the reversibility verdict
    comp = constructed["composed_general"]
    assert comp.equality_tests_allowed
    basic = eliminate_equality(comp)
    assert not basic.equality_tests_allowed
    assert len(basic.polarity) <= eliminate_equality_bound(len(comp.polarity), comp.k)
    for u in words_upto("ab", 2):
        assert semantics(basic, u) == semantics(comp, u), u
    assert is_deterministic(basic)[0]
    assert is_reverse_deterministic(basic)[0]


def test_reversal_law_on_composed_machine(constructed):
    comp = constructed["composed_general"]
    rev = reverse_transducer(comp)
    for u in words_upto("ab", 2):
        fwd = semantics(comp, u)
        assert semantics(rev, u) == tuple(reversed(fwd)), u


def test_compose_with_reversed_first_machine():
    from pebbletx.builtins import all_prefixes_reversed

    rp = reverse_transducer(all_prefixes_reversed("ab"))
    second = iterated_reverse("ab")
    comp = compose(rp, second)
    for u in words_upto("ab", 3):
        mid = semantics(rp, u)
        assert semantics(comp, u) == semantics(second, mid), u


def test_double_composition_associativity_on_functions():
    # (h . g) . f == h . (g . f) at the function level
    f = modified_squaring("ab")
    g = iterated_reverse("ab")
    h = copier(sorted(g.output_alphabet))
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    for u in words_upto("ab", 3):
        assert semantics(left, u) == semantics(right, u) == semantics(
            compose(f, g), u
        ), u


def _explored_outputs():
    """compose, eliminate_equality, decompose and the two-way round trip on
    the builtins, the fixtures and seeded random machines."""
    sq = squaring("ab")
    ident = copier("ab")
    yield compose(sq, squaring(sorted(sq.output_alphabet)))
    yield compose(modified_squaring("bcd"), iterated_reverse("bcd"))
    yield compose(all_prefixes_reversed("ab"), iterated_reverse("ab"))
    machines = [
        sq, squaring_variant("ab"), modified_squaring("ab"), all_prefixes_reversed("ab"),
        iterated_reverse("ab"), ident, drop_two_then_copy_rest(), pick_any_letter(),
        two_branch_toy(), equality_pair_probe(),
    ]
    rng = random.Random(5)
    machines += [random_machine(rng, k=rng.randrange(4)) for _ in range(40)]
    machines += [random_machine(rng, k=0) for _ in range(20)]
    for machine in machines:
        yield eliminate_equality(machine)
        if machine.k >= 1:
            yield decompose(machine)
        else:
            yield two_way_to_zero_pebble(zero_pebble_to_two_way(machine))
        if is_deterministic(machine)[0] and ident.output_alphabet <= machine.input_alphabet:
            yield compose(ident, machine)
        if is_reversible(machine) and machine.output_alphabet <= ident.input_alphabet:
            yield compose(machine, ident)


def test_explored_machines_are_reachable():
    # every state but final is reachable from initial, no transition leaves
    # final, and every transition's endpoints are states
    built = 0
    for machine in _explored_outputs():
        built += 1
        states = machine.states
        succ: dict = {}
        for t in machine.transitions:
            assert t.src in states and t.dst in states, (machine.name, t.render())
            assert t.src != machine.final, (machine.name, t.render())
            succ.setdefault(t.src, set()).add(t.dst)
        reached, todo = {machine.initial}, [machine.initial]
        while todo:
            for dst in succ.get(todo.pop(), ()):
                if dst not in reached:
                    reached.add(dst)
                    todo.append(dst)
        assert states - reached <= {machine.final}, machine.name
    assert built > 100


def _last_in_first_out_explore(initial, final, pol_of, successors):
    """core.explore with a stack for its queue."""
    polarity = {initial: pol_of(initial)}
    if final not in polarity:
        polarity[final] = pol_of(final)
    transitions: list = []
    stack = [initial]
    while stack:
        for t in successors(stack.pop()):
            transitions.append(t)
            if t.dst not in polarity:
                polarity[t.dst] = pol_of(t.dst)
                stack.append(t.dst)
    return polarity, transitions


def _built_by_explore():
    """(serialized machine, compose kinds or None) for each caller of explore."""
    sq = squaring("ab")
    ident = copier("ab")
    composed = [
        compose(sq, squaring(sorted(sq.output_alphabet))),
        compose(modified_squaring("bcd"), iterated_reverse("bcd")),
        compose(sq, copier(sorted(sq.output_alphabet))),
    ]
    rng = random.Random(3)
    machines = [random_machine(rng, k=rng.randrange(4)) for _ in range(30)]
    composed += [compose(ident, m) for m in machines if is_deterministic(m)[0]]
    composed += [compose(m, ident) for m in machines if is_reversible(m)]
    built = [(serialize(c), c.metadata["kinds"]) for c in composed]
    for machine in [sq, drop_two_then_copy_rest(), equality_pair_probe()] + machines:
        built.append((serialize(eliminate_equality(machine)), None))
        if machine.k >= 1:
            built.append((serialize(decompose(machine)), None))
    for machine in [iterated_reverse("ab"), ident] + [m for m in machines if m.k == 0]:
        built.append((serialize(two_way_to_zero_pebble(zero_pebble_to_two_way(machine))), None))
    built += [(serialize(build_config_enumerator(k, "ab")), None) for k in (1, 2, 3)]
    return built


def test_explore_visit_order_does_not_change_what_is_built(monkeypatch):
    # every state's transitions depend on that state alone, so expanding
    # last in first out builds the same machines, tagged with the same kinds
    first_in_first_out = _built_by_explore()
    for module in ("compose", "transforms", "decompose", "twoway"):
        monkeypatch.setattr(f"pebbletx.{module}.explore", _last_in_first_out_explore)
    assert _built_by_explore() == first_in_first_out
    assert len(first_in_first_out) > 40
