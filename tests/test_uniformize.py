import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from machines import (
    bell,
    config_enumerator_states,
    config_markings_fn,
    decompose_bound,
    drop_two_then_copy_rest,
    drop_two_then_copy_rest_fn,
    equality_annotator_states,
    pick_any_letter,
    random_machine,
    words_upto,
)
from pebbletx.analysis import is_deterministic, is_reversible, validate
from pebbletx.builtins import copier, squaring
from pebbletx.compose import compose
from pebbletx.core import ENDMARKER, HookRequiredError, NoPebblesError, PebbleError, Symbol
from pebbletx.decompose import build_config_enumerator, build_equality_annotator, decompose
from pebbletx.runner import enumerate_runs, run, semantics
from pebbletx.twoway import (
    LMARK,
    RMARK,
    TwoWayConventionError,
    TwoWayTransducer,
    TwoWayTransition,
    run_two_way,
    two_way_is_deterministic,
    two_way_is_reverse_deterministic,
    two_way_is_reversible,
    two_way_to_zero_pebble,
    two_way_violations,
    zero_pebble_to_two_way,
)
from pebbletx.uniformize import brute_force_hook, uniformize_pipeline


# ---------------------------------------------------------------------------
# C_k


def test_c1_printed_sequence():
    c1 = build_config_enumerator(1, "ab")
    out = run(c1, "ab").output
    assert [(s.base, s.bits) for s in out] == [
        ("#", (1,)), ("a", (0,)), ("b", (0,)),
        ("#", (0,)), ("a", (1,)), ("b", (0,)),
        ("#", (0,)), ("a", (0,)), ("b", (1,)),
    ]


def test_ck_matches_functional_markings():
    for k in (1, 2):
        ck = build_config_enumerator(k, "ab")
        for u in words_upto("ab", 3 if k == 1 else 2):
            assert semantics(ck, u) == config_markings_fn(k, u), (k, u)


def test_ck_output_length_formula():
    for k in (1, 2):
        ck = build_config_enumerator(k, "ab")
        for u in words_upto("ab", 3):
            out = semantics(ck, u)
            assert len(out) == (len(u) + 1) ** (k + 1)


def test_ck_reversible_and_small():
    for k in (1, 2, 3):
        ck = build_config_enumerator(k, "ab")
        assert validate(ck) == []
        assert is_reversible(ck)
        assert len(ck.polarity) == config_enumerator_states(k)  # O(k) states


def test_ck_ordering_is_lexicographic():
    # decode the marking tuple of each copy and check strict increase
    c2 = build_config_enumerator(2, "ab")
    out = semantics(c2, "ab")
    copy_len = 3
    markings = []
    for idx in range(0, len(out), copy_len):
        copy = out[idx : idx + copy_len]
        marking = tuple(
            next(pos for pos, sym in enumerate(copy) if sym.bits[i]) for i in range(2)
        )
        markings.append(marking)
    assert markings == sorted(markings)
    assert len(set(markings)) == len(markings) == copy_len ** 2


# ---------------------------------------------------------------------------
# C_k^=


def test_annotator_k1_all_ones_matrices():
    c1 = build_config_enumerator(1, "ab")
    c1eq = build_equality_annotator(1, "ab")
    w = semantics(c1eq, semantics(c1, "a"))
    assert all(s.matrix == ((1,),) for s in w)
    assert [(s.base, s.bits) for s in w] == [
        ("#", (1,)), ("a", (0,)), ("#", (0,)), ("a", (1,))
    ]


def test_annotator_preserves_sequence():
    c2 = build_config_enumerator(2, "ab")
    c2eq = build_equality_annotator(2, "ab")
    for u in words_upto("ab", 2):
        marked = semantics(c2, u)
        annotated = semantics(c2eq, marked)
        assert annotated is not None
        assert [(s.base, s.bits) for s in annotated] == [
            (s.base, s.bits) for s in marked
        ]
        # matrix records co-marking within the copy
        copy_len = len(u) + 1
        for idx in range(0, len(marked), copy_len):
            copy = marked[idx : idx + copy_len]
            positions = [
                next(p for p, sym in enumerate(copy) if sym.bits[i]) for i in range(2)
            ]
            want = tuple(
                tuple(1 if positions[i] == positions[j] else 0 for j in range(2))
                for i in range(2)
            )
            for sym in annotated[idx : idx + copy_len]:
                assert sym.matrix == want


def test_annotator_reversible():
    for k in (1, 2, 3, 4):
        ckeq = build_equality_annotator(k, "ab")
        assert validate(ckeq) == []
        assert is_reversible(ckeq), k
        assert ckeq.k == 0
        assert len(ckeq.polarity) == equality_annotator_states(k), k


def _is_total_equivalence(mat) -> bool:
    k = len(mat)
    pebbles = range(k)
    return (
        all(mat[i][i] == 1 for i in pebbles)
        and all(mat[i][j] == mat[j][i] for i in pebbles for j in pebbles)
        and all(
            mat[i][m] == 1
            for i in pebbles for j in pebbles for m in pebbles
            if mat[i][j] == 1 and mat[j][m] == 1
        )
    )


def _sq_sq():
    sq = squaring("ab")
    return compose(sq, squaring(sorted(sq.output_alphabet)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_annotator_alphabet_is_realizable_and_read_by_simulator(k, sq):
    machine = {1: sq, 2: drop_two_then_copy_rest(), 3: _sq_sq()}[k]
    assert machine.k == k
    ckeq = build_equality_annotator(k, "ab")
    assert ckeq.output_alphabet == decompose(machine).input_alphabet
    # a, b and '#', each with B(k+1) (bits, matrix) pairs
    assert len(ckeq.output_alphabet) == 3 * bell(k + 1)
    for sym in ckeq.output_alphabet:
        mat, bits = sym.matrix, sym.bits
        assert _is_total_equivalence(mat), sym
        marked = {i for i in range(k) if bits[i]}
        assert not marked or any(
            marked == {j for j in range(k) if mat[i][j]} for i in marked
        ), sym


def test_annotator_final_only_via_full_matrix():
    c2eq = build_equality_annotator(2, "ab")
    ones = ((1, 1), (1, 1))
    into_final = [t for t in c2eq.transitions if t.dst == c2eq.final]
    assert into_final
    assert all(t.src == (ones, "w") for t in into_final)


def test_annotator_reset_entry_restricted_to_letter_matrix():
    # the undo pass may hand over to the reset sweep only when the leftover
    # matrix is exactly the endmarker letter's own contribution; this is
    # what makes the writing reversible
    c1eq = build_equality_annotator(1, "ab")
    reset = ("reset",)
    for t in c1eq.transitions:
        if t.dst == reset and isinstance(t.src, tuple) and t.src[-1] == "u":
            matrix, _ = t.src
            b = t.letter.bits
            assert matrix == tuple(tuple(x & y for y in b) for x in b)


# ---------------------------------------------------------------------------
# T_0 and the decomposition identity


@pytest.mark.parametrize("maker,oracle,k", [
    ("squaring", None, 1),
    ("fixture", drop_two_then_copy_rest_fn, 2),
    ("squaring.squaring", None, 3),
])
def test_decomposition_identity(maker, oracle, k, sq):
    machine = {
        "squaring": lambda: sq,
        "fixture": drop_two_then_copy_rest,
        "squaring.squaring": _sq_sq,
    }[maker]()
    assert machine.k == k
    ck = build_config_enumerator(k, "ab")
    ckeq = build_equality_annotator(k, "ab")
    t0 = decompose(machine)
    assert validate(t0) == []
    assert is_deterministic(t0)[0]
    assert t0.k == 0
    assert len(t0.polarity) <= decompose_bound(len(machine.polarity), k)
    for u in words_upto("ab", 3):
        w1 = semantics(ck, u)
        w2 = semantics(ckeq, w1)
        got = semantics(t0, w2)
        assert got == semantics(machine, u), u


def test_decomposition_state_bound(sq):
    t0 = decompose(sq)
    assert len(t0.polarity) <= decompose_bound(len(sq.polarity), sq.k)


def test_decompose_endmarker_crossings(sq):
    # squaring's run crosses the endmarker left and right repeatedly; the
    # simulator must route through neighbouring copies on both sides
    ck = build_config_enumerator(1, "ab")
    ckeq = build_equality_annotator(1, "ab")
    t0 = decompose(sq)
    w = semantics(ckeq, semantics(ck, "ba"))
    result = run(t0, w, trace=True)
    assert result.accepted
    modes = {c.state[-1] for _, c in result.trace if isinstance(c.state, tuple) and len(c.state) == 3}
    assert {"s", "mr", "ml"} <= modes


def test_decompose_nondeterministic_relation_preserved():
    nd = pick_any_letter()
    ck = build_config_enumerator(1, "ab")
    ckeq = build_equality_annotator(1, "ab")
    t0 = decompose(nd)
    assert not is_deterministic(t0)[0]
    for u in words_upto("ab", 3):
        w2 = semantics(ckeq, semantics(ck, u))
        got = enumerate_runs(t0, w2, budget=4000)
        want = enumerate_runs(nd, u)
        assert got.outputs == want.outputs, u


_WORDS = list(words_upto("ab", 3))


def _deterministic_draw(seed: int, k: int):
    """The first deterministic random machine drawn from ``seed``."""
    rng = random.Random(seed)
    for _ in range(100):
        machine = random_machine(rng, k=k)
        if is_deterministic(machine)[0]:
            return machine
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2))
def test_decompose_matches_machine_on_generated_machines(seed, k):
    machine = _deterministic_draw(seed, k)
    assume(machine is not None)
    ck = build_config_enumerator(k, "ab")
    ckeq = build_equality_annotator(k, "ab")
    t0 = decompose(machine)
    assert is_deterministic(t0)[0]
    for u in _WORDS:
        assert semantics(t0, semantics(ckeq, semantics(ck, u))) == semantics(machine, u), u


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2))
def test_uniformize_pipeline_on_generated_machines(seed, k):
    machine = _deterministic_draw(seed, k)
    assume(machine is not None)
    want = [semantics(machine, u) for u in _WORDS]
    # most draws accept nothing, and those check only rejection
    assume(any(out is not None for out in want))
    result = uniformize_pipeline(machine)
    assert result.pebbles == k
    assert [result.apply(u) for u in _WORDS] == want


def test_pipeline_through_compose(sq):
    ck = build_config_enumerator(1, "ab")
    ckeq = build_equality_annotator(1, "ab")
    t0 = decompose(sq)
    chained = compose(compose(ck, ckeq), t0)
    for u in words_upto("ab", 3):
        assert semantics(chained, u) == semantics(sq, u), u
    assert chained.k == 1


def test_pipeline_through_compose_k2_fixture():
    fx = drop_two_then_copy_rest()
    ck = build_config_enumerator(2, "ab")
    ckeq = build_equality_annotator(2, "ab")
    t0 = decompose(fx)
    chained = compose(compose(ck, ckeq), t0)
    for u in words_upto("ab", 3):
        assert semantics(chained, u) == drop_two_then_copy_rest_fn(u), u
    assert chained.k == 2


# ---------------------------------------------------------------------------
# Two-way conversions


def test_two_way_round_trip(itrev, ident):
    for machine, alphabet in ((itrev, "ab!"), (ident, "ab")):
        t2 = zero_pebble_to_two_way(machine)
        assert two_way_violations(t2) == []
        assert len(t2.states) <= 4 * len(machine.polarity) + 2
        back = two_way_to_zero_pebble(t2)
        assert len(back.polarity) == len(t2.states)
        assert validate(back) == []
        for u in words_upto(alphabet, 4):
            assert semantics(back, u) == semantics(machine, u), u


def test_two_way_interpreter_matches(itrev, ident):
    for machine, alphabet in ((itrev, "ab!"), (ident, "ab")):
        t2 = zero_pebble_to_two_way(machine)
        for u in words_upto(alphabet, 5):
            verdict, out = run_two_way(t2, u)
            want = semantics(machine, u)
            assert (out if verdict == "accept" else None) == want, u


def test_two_way_preserves_reversibility(itrev, ident):
    for machine in (itrev, ident):
        t2 = zero_pebble_to_two_way(machine)
        assert two_way_is_deterministic(t2)
        assert two_way_is_reverse_deterministic(t2)
        assert two_way_is_reversible(t2) == is_reversible(machine)
        assert is_reversible(two_way_to_zero_pebble(t2))


def _two_way(forward, backward, arcs) -> TwoWayTransducer:
    a = Symbol("a")
    transitions = tuple(TwoWayTransition(src, a if letter == "a" else letter, dst)
                        for src, letter, dst in arcs)
    return TwoWayTransducer("t", frozenset(forward), frozenset(backward), frozenset({a}),
                            frozenset(), "i", "end", transitions)


def _sweeper(sweeps: int) -> TwoWayTransducer:
    """Crosses the whole tape 2 * sweeps - 1 times: forward sweep s reads
    every letter and the right marker, backward sweep s comes back to the
    left marker."""
    fwd = [("f", s) for s in range(1, sweeps + 1)]
    bwd = [("b", s) for s in range(1, sweeps)]
    arcs = [("i", LMARK, fwd[0]), (fwd[-1], RMARK, "end")]
    arcs += [(state, "a", state) for state in fwd + bwd]
    arcs += [(f, RMARK, b) for f, b in zip(fwd, bwd)] + [(b, LMARK, f) for b, f in zip(bwd, fwd[1:])]
    return _two_way(fwd + ["i", "end"], bwd, arcs)


@pytest.mark.parametrize("sweeps, n", [(1, 0), (3, 2), (6, 8)])
def test_run_two_way_default_budget_admits_a_long_accepting_run(sweeps, n):
    # each crossing reads the n letters and one marker: 1 + (2 sweeps - 1)(n + 1)
    # steps, within the default |Q|(n + 3) + 1 and cut off by one step fewer
    t2 = _sweeper(sweeps)
    assert two_way_violations(t2) == [] and two_way_is_deterministic(t2)
    steps = 1 + (2 * sweeps - 1) * (n + 1)
    u = "a" * n
    assert run_two_way(t2, u) == run_two_way(t2, u, budget=steps) == ("accept", ())
    assert run_two_way(t2, u, budget=steps - 1) == ("diverge", None)


def test_run_two_way_reports_a_loop_as_divergence():
    # on a letter, f turns back onto the left marker and b turns forward again
    loop = _two_way(["i", "f", "end"], ["b"],
                    [("i", LMARK, "f"), ("f", "a", "b"), ("b", LMARK, "f"), ("f", RMARK, "end")])
    assert two_way_violations(loop) == [] and two_way_is_deterministic(loop)
    assert run_two_way(loop, "") == ("accept", ())
    assert run_two_way(loop, "a") == ("diverge", None)


def test_two_way_nondeterminism_is_a_pebble_error(ident):
    t2 = zero_pebble_to_two_way(ident)
    first = next(t for t in t2.transitions if t.src == t2.initial)
    extra = TwoWayTransition(first.src, first.letter, t2.final)
    nondet = dataclasses.replace(t2, transitions=t2.transitions + (extra,))
    assert not two_way_is_deterministic(nondet)
    with pytest.raises(PebbleError):
        run_two_way(nondet, "ab")


def test_two_way_run_off_the_left_marker_rejects(ident):
    # a backward state at the left end has no letter to its left; a machine
    # that breaks the marker convention gets there and must be rejected, and
    # converting it must raise rather than yield a machine that accepts
    t2 = zero_pebble_to_two_way(ident)
    first = next(t for t in t2.transitions if t.src == t2.initial)
    assert t2.backward == {("-", "c1")}
    wrong = TwoWayTransition(first.src, first.letter, ("-", "c1"))
    bad = dataclasses.replace(
        t2, transitions=tuple(t for t in t2.transitions if t != first) + (wrong,)
    )
    assert len(two_way_violations(bad)) == 1
    for u in ["", "a", "ab", "ba"]:
        assert run_two_way(bad, u) == ("reject", None), u
    with pytest.raises(TwoWayConventionError, match="left-marker transition into a backward"):
        two_way_to_zero_pebble(bad)
    assert issubclass(TwoWayConventionError, PebbleError)


_TWO_WAY_COPIER = zero_pebble_to_two_way(copier("ab"))
_R0, _R1, _BACK = ("r", "c0"), ("r", "c1"), ("-", "c1")


def _two_way_copier_edited(remove=(), add=(), **fields):
    t2 = _TWO_WAY_COPIER
    kept = tuple(t for t in t2.transitions if (t.src, t.letter) not in remove)
    return dataclasses.replace(t2, transitions=kept + tuple(add), **fields)


@pytest.mark.parametrize("bad, message", [
    (_two_way_copier_edited(final=_BACK), "initial/final must be forward states"),
    (_two_way_copier_edited(remove=[(_R0, RMARK)], add=[TwoWayTransition(_R0, RMARK, _R1)]),
     "right-marker transition must enter backward or final"),
    (_two_way_copier_edited(add=[TwoWayTransition(("i",), Symbol("a"), _R0)]),
     "initial state may only read the left marker"),
    (_two_way_copier_edited(add=[TwoWayTransition(_R0, Symbol("a"), ("f",))]),
     "final state may only be entered reading the right marker"),
    (_two_way_copier_edited(add=[TwoWayTransition(("f",), Symbol("a"), _R1)]),
     "no transitions may leave the final state"),
    (_two_way_copier_edited(add=[TwoWayTransition(_R0, Symbol("a"), ("i",))]),
     "no transitions may enter the initial state"),
])
def test_two_way_conversion_names_each_convention_violation(bad, message):
    # one edit of the copier's two-way machine per convention (the
    # left-marker one is test_two_way_run_off_the_left_marker_rejects);
    # conversion refuses it and names the violation first found
    assert two_way_violations(bad)[0].startswith(message)
    with pytest.raises(TwoWayConventionError, match=message):
        two_way_to_zero_pebble(bad)


def test_two_way_transition_into_an_undeclared_state_is_a_violation():
    # run_two_way would run "ghost" as a backward state between f and the
    # left marker, outside the step budget its declared states give
    a = Symbol("a")
    t2 = TwoWayTransducer(
        "ghost", frozenset({"i", "f", "fin"}), frozenset(), frozenset({a}), frozenset(),
        "i", "fin",
        (TwoWayTransition("i", LMARK, "f"), TwoWayTransition("f", a, "ghost"),
         TwoWayTransition("ghost", LMARK, "f"), TwoWayTransition("f", RMARK, "fin")),
    )
    message = "transition touches a state neither forward nor backward"
    assert [v.split(":")[0] for v in two_way_violations(t2)] == [message] * 2
    with pytest.raises(TwoWayConventionError, match=message):
        two_way_to_zero_pebble(t2)


def test_two_way_marker_transitions_do_not_overlap(itrev):
    t2 = zero_pebble_to_two_way(itrev)
    back = two_way_to_zero_pebble(t2)
    # after merging both markers into '#', determinism survives
    assert is_deterministic(back)[0]


def test_two_way_bridge_on_generated_machines():
    # deterministic draws run alike on the two-way machine, on its round
    # trip and on the draw itself; reversible draws stay reversible
    rng = random.Random(5)
    deterministic = reversible = 0
    for _ in range(400):
        machine = random_machine(rng, k=0)
        t2 = zero_pebble_to_two_way(machine)
        assert two_way_violations(t2) == []
        back = two_way_to_zero_pebble(t2)
        if is_reversible(machine):
            reversible += 1
            assert two_way_is_reversible(t2) and is_reversible(back)
        if not is_deterministic(machine)[0]:
            continue
        deterministic += 1
        for u in words_upto("ab", 4):
            want = semantics(machine, u)
            verdict, out = run_two_way(t2, u)
            assert (out if verdict == "accept" else None) == want, (machine.name, u)
            assert semantics(back, u) == want, (machine.name, u)
    assert deterministic > 50 and reversible > 20


@pytest.mark.parametrize("build", [
    lambda: build_config_enumerator(0, "ab"),
    lambda: build_equality_annotator(0, "ab"),
    lambda: decompose(copier("ab")),
])
def test_zero_pebbles_is_a_pebble_error(build):
    with pytest.raises(NoPebblesError) as info:
        build()
    assert isinstance(info.value, PebbleError)


def test_two_way_rejects_pebbled_machines(sq):
    from pebbletx.core import HasPebblesError

    with pytest.raises(HasPebblesError):
        zero_pebble_to_two_way(sq)


# ---------------------------------------------------------------------------
# Pipeline


def test_uniformize_identity_hook(sq):
    result = uniformize_pipeline(sq, hook="identity")
    assert result.pebbles == sq.k
    assert result.deterministic
    assert result.transducer is not None
    for u in words_upto("ab", 3):
        assert result.apply(u) == semantics(sq, u)
    assert "not asserted" in result.notes


def test_uniformize_requires_hook_for_nondeterministic():
    nd = pick_any_letter()
    with pytest.raises(HookRequiredError):
        uniformize_pipeline(nd)


def test_uniformize_brute_force_hook_membership_and_domain():
    nd = pick_any_letter()
    t0 = decompose(nd)
    result = uniformize_pipeline(nd, hook=brute_force_hook(t0))
    assert result.transducer is None
    assert result.pebbles == nd.k
    for u in words_upto("ab", 3):
        relation = enumerate_runs(nd, u)
        out = result.apply(u)
        if relation.outputs:
            assert out in relation.outputs, u
        else:
            assert out is None, u


def test_uniformize_machine_hook_must_be_reversible(sq):
    from pebbletx.core import NotReversibleError

    nd = pick_any_letter()

    def bogus_hook(machine):
        return machine  # nondeterministic, let alone reversible

    with pytest.raises(NotReversibleError):
        uniformize_pipeline(nd, hook=bogus_hook)


def test_uniformize_machine_hook_semantics_probed(sq, ident):
    from pebbletx.core import NotReversibleError

    # a reversible machine computing the wrong function is rejected
    def wrong_hook(machine):
        silent = machine.replace(
            transitions=tuple(
                t.__class__(t.src, t.letter, t.test, t.op, t.dst, ())
                for t in machine.transitions
            )
        )
        return silent

    with pytest.raises(NotReversibleError, match="probe"):
        uniformize_pipeline(sq, hook=wrong_hook)
    # the honest identity-as-machine-hook passes (squaring's simulator is
    # already reversible) and the composed result computes the function
    result = uniformize_pipeline(sq, hook=lambda m: m)
    assert result.reversible
    for u in words_upto("ab", 3):
        assert result.apply(u) == semantics(sq, u)


def test_uniformize_zero_pebble_machine(itrev):
    result = uniformize_pipeline(itrev, hook="identity")
    assert result.pebbles == 0
    for u in words_upto("ab!", 3):
        assert result.apply(u) == semantics(itrev, u)


def test_uniformize_nondeterministic_equality_machine():
    # 2 pebbles, equality guards, nondeterministic drops: the decomposition
    # still carries the relation, and the brute-force hook picks a member
    from machines import equality_pair_probe

    probe = equality_pair_probe()
    t0 = decompose(probe)
    assert not is_deterministic(t0)[0]
    ck = build_config_enumerator(2, "ab")
    ckeq = build_equality_annotator(2, "ab")
    for u in ["", "a", "ab"]:
        image = semantics(ckeq, semantics(ck, u))
        got = enumerate_runs(t0, image, budget=6000)
        want = enumerate_runs(probe, u)
        assert got.outputs == want.outputs and not got.truncated, u
    result = uniformize_pipeline(probe, hook=brute_force_hook(t0, budget=6000))
    for u in ["", "a", "ab", "ba"]:
        relation = enumerate_runs(probe, u)
        out = result.apply(u)
        if relation.outputs:
            assert out in relation.outputs, u
        else:
            assert out is None, u


def test_endmarker_letter_is_a_pebble_error():
    letters = [Symbol("a"), ENDMARKER]
    for build in (build_config_enumerator, build_equality_annotator):
        with pytest.raises(PebbleError):
            build(1, letters)
    machine = drop_two_then_copy_rest()
    machine = machine.replace(input_alphabet=machine.input_alphabet | {ENDMARKER})
    with pytest.raises(PebbleError):
        uniformize_pipeline(machine)
