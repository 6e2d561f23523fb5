import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from machines import (
    compose_general_bound,
    compose_simple_bound,
    iterated_reverse_fn,
    random_machine,
    words_upto,
)
from pebbletx.analysis import is_deterministic, is_reverse_deterministic, is_reversible, validate
from pebbletx.builtins import copier, iterated_reverse, squaring
from pebbletx.compose import (
    compose,
    compose_simple,
    with_endmarker_prefix,
    xi_bar,
)
from pebbletx.core import (
    AlphabetMismatchError,
    HasPebblesError,
    NOP,
    NotDeterministicError,
    NotReversibleError,
    Symbol,
    Test,
    TRUE,
    Transition,
    drop,
    eval_test,
    head_eq,
    peb_eq,
)
from pebbletx.runner import run, semantics


def render(out) -> str:
    return "".join(s.render() for s in out)


def _chained(first, second, u):
    mid = semantics(first, u)
    return semantics(second, mid) if mid is not None else None


# ---------------------------------------------------------------------------
# Simple case (second machine pebbleless)


def test_compose_with_identity(sq):
    comp = compose(sq, copier(sorted(sq.output_alphabet)))
    assert validate(comp) == []
    for u in words_upto("ab", 4):
        assert semantics(comp, u) == semantics(sq, u)
    assert is_reversible(comp)


def test_compose_modsq_itrev(modsq):
    itrev = iterated_reverse("bcd")
    comp = compose(modsq, itrev)
    # the normalized first machine writes the endmarker-prefixed output
    assert render(run(comp.metadata["first_normalized"], "bcd").output) == "#!cdb!dbc!"
    # applying the iterated-reverse definition to the intermediate string
    assert render(run(comp, "bcd").output) == "!bdc!cbd!"
    for u in words_upto("bcd", 3):
        assert semantics(comp, u) == _chained(modsq, itrev, u)
    assert is_deterministic(comp)[0]
    assert is_reversible(comp)


def test_compose_prefixes_itrev(prefixes, itrev):
    comp = compose(prefixes, itrev)
    for u in words_upto("ab", 4):
        mid = semantics(prefixes, u)
        assert semantics(comp, u) == iterated_reverse_fn(mid)
    assert is_reversible(comp)


def test_compose_simple_state_bound(modsq):
    itrev = iterated_reverse("bcd")
    comp = compose_simple(modsq, itrev)
    tn = comp.metadata["first_normalized"]
    sn = comp.metadata["second_normalized"]
    assert len(comp.polarity) <= compose_simple_bound(len(tn.polarity), len(sn.polarity))


def test_compose_rewind_trace_fragment(modsq):
    """The 12-step fragment of the run on 'bcd' where the second machine
    rewinds the first: transition kinds in the printed order."""
    itrev = iterated_reverse("bcd")
    comp = compose(modsq, itrev)
    kinds = comp.metadata["kinds"]
    result = run(comp, "bcd", trace=True)
    assert result.accepted
    seq = [kinds[t] for t, _ in result.trace]
    expected = ["tr-b", "sw-b", "tr-b", "mv-b", "mv-b", "mv-b",
                "mv-b", "mv-b", "sw-b", "tr-b", "sw-b", "tr-b"]
    # the fragment appears contiguously somewhere in the full run
    assert any(
        seq[i : i + len(expected)] == expected for i in range(len(seq))
    )


def test_compose_preconditions(sq, itrev):
    nondet = sq.replace(
        transitions=sq.transitions
        + (Transition("q1", Symbol("a"), TRUE, NOP, "q1"),)
    )
    with pytest.raises(NotReversibleError):
        compose(nondet, copier(sorted(sq.output_alphabet)))
    with pytest.raises(NotDeterministicError):
        compose(sq, __import__("machines").two_branch_toy().replace(
            input_alphabet=sq.output_alphabet))
    with pytest.raises(AlphabetMismatchError):
        compose(sq, copier("ab"))


def test_compose_reject_agreement(sq):
    # second machine rejects any word containing a marked 'b'
    base = copier(sorted(sq.output_alphabet))
    partial = base.replace(
        transitions=tuple(
            t for t in base.transitions if t.letter.render() != "_b"
        )
    )
    comp = compose(sq, partial)
    for u in words_upto("ab", 4):
        assert semantics(comp, u) == _chained(sq, partial, u)
    assert semantics(comp, "aa") is not None
    assert semantics(comp, "ab") is None


def test_composed_machines_semantically_deterministic(modsq):
    from machines import semantically_deterministic

    comp = compose(modsq, iterated_reverse("bcd"))
    for u in ["", "b", "bc"]:
        assert semantically_deterministic(comp, u)


# ---------------------------------------------------------------------------
# General case (second machine with pebbles)


@pytest.fixture(scope="module")
def general_pair():
    first = squaring("ab")
    second = squaring(sorted(first.output_alphabet))
    return first, second, compose(first, second)


def test_general_pebble_count(general_pair):
    first, second, comp = general_pair
    assert comp.k == (first.k + 1) * (second.k + 1) - 1 == 3


def test_general_semantics(general_pair):
    first, second, comp = general_pair
    for u in words_upto("ab", 3):
        assert semantics(comp, u) == _chained(first, second, u), u


def test_general_is_reversible(general_pair):
    _, _, comp = general_pair
    assert validate(comp) == []
    assert is_deterministic(comp)[0]
    assert is_reverse_deterministic(comp)[0]


def test_general_state_bound(general_pair):
    _, _, comp = general_pair
    tn = comp.metadata["first_normalized"]
    sn = comp.metadata["second_normalized"]
    bound = compose_general_bound(len(tn.polarity), len(sn.polarity), tn.k, sn.k)
    assert len(comp.polarity) <= bound


def test_general_gadget_chain_lengths(general_pair):
    _, _, comp = general_pair
    # drop gadget for z has exactly z chain states, lift gadget y_k + 1;
    # gadget states are (tag, q, q2, [z,] [ell,] *frames)
    drop_chains = {}
    lift_chains = {}
    for state in comp.polarity:
        if state[0] == "dropg":
            _, q, q2, z, ell, *frames = state
            drop_chains.setdefault((q, q2, z, tuple(frames)), set()).add(ell)
        elif state[0] == "liftg":
            _, q, q2, ell, *frames = state
            lift_chains.setdefault((q, q2, tuple(frames)), set()).add(ell)
        elif state[0] == "liftg0":
            _, q, q2, *frames = state
            lift_chains.setdefault((q, q2, tuple(frames)), set()).add(0)
    assert drop_chains and lift_chains
    for (_, _, z, _), ells in drop_chains.items():
        assert ells == set(range(1, z + 1))
    for (_, _, frames), ells in lift_chains.items():
        _, y_k = frames[-1]
        assert ells == set(range(0, y_k + 1))


def test_general_gadget_head_neutrality(general_pair):
    # head position when leaving a gadget equals the position when entering
    _, _, comp = general_pair
    for u in ["ab", "ba", "aab"]:
        result = run(comp, u, trace=True)
        assert result.accepted
        entry_head = None
        prev_head = 0
        for t, c in result.trace:
            tag = c.state[0]
            if tag in ("liftg", "dropg", "liftg0") and entry_head is None:
                entry_head = prev_head
            elif tag not in ("liftg", "dropg", "liftg0") and entry_head is not None:
                assert c.head == entry_head
                entry_head = None
            prev_head = c.head


def test_general_sync_segments_match_second_run(general_pair):
    # segmenting the composed trace at sync states counts the second
    # machine's steps (intermediate states are simulation/gadget states)
    first, second, comp = general_pair
    sn = comp.metadata["second_normalized"]
    for u in ["a", "ab", "ba"]:
        mid = semantics(first, u)
        mid_prefixed = run(with_endmarker_prefix(first), u).output
        second_run = run(sn, mid_prefixed[1:])  # own endmarker re-added by runner
        result = run(comp, u, trace=True)
        sync_count = sum(1 for _, c in result.trace if c.state[0] == "sync")
        assert sync_count == second_run.steps


def test_general_with_pebbleless_first_machine(sq, ident):
    # r = (0+1)(1+1)-1 = 1: identity then squaring through the general case
    comp = compose(ident, sq)
    assert comp.k == 1
    for u in words_upto("ab", 3):
        assert semantics(comp, u) == semantics(sq, u), u
    assert is_reversible(comp)


def test_general_with_two_pebble_second_machine(sq):
    # m = 2: nested segments, both drop gadgets and a two-level lift unwind
    from machines import drop_two_then_copy_rest
    from pebbletx.builtins import mark

    base = drop_two_then_copy_rest("ab").replace(
        input_alphabet=sq.output_alphabet
    )
    widened = []
    for t in base.transitions:
        widened.append(t)
        if not t.letter.is_endmarker():
            widened.append(
                Transition(
                    t.src, mark(t.letter), t.test, t.op, t.dst,
                    tuple(mark(s) if s == t.letter else s for s in t.out),
                )
            )
    second = base.replace(transitions=tuple(widened))
    assert is_deterministic(second)[0]
    comp = compose(sq, second)
    assert comp.k == (sq.k + 1) * (second.k + 1) - 1 == 5
    for u in words_upto("ab", 2):
        mid = semantics(sq, u)
        want = semantics(second, mid)
        assert semantics(comp, u) == want, u
    # squaring('a') = '_a' has length 1 < 2, outside the second's domain
    assert semantics(comp, "a") is None
    assert semantics(comp, "ab") is not None


def test_general_with_deterministic_nonreversible_second(sq, ident):
    # two unreachable states breaking reverse-determinism only: the general
    # construction falls back to the non-reversibility-preserving op split
    # and must still be deterministic and correct
    extra_pol = dict(sq.polarity, x1=1, x2=1, x3=1)
    a = Symbol("a")
    second = sq.replace(
        polarity=extra_pol,
        transitions=sq.transitions
        + (
            Transition("x1", a, TRUE, NOP, "x3"),
            Transition("x2", a, TRUE, NOP, "x3"),
        ),
    )
    assert is_deterministic(second)[0]
    assert not is_reverse_deterministic(second)[0]
    comp = compose(ident, second)
    assert is_deterministic(comp)[0]
    for u in words_upto("ab", 3):
        assert semantics(comp, u) == semantics(sq, u), u


# ---------------------------------------------------------------------------
# Generated machines


_WORDS = list(words_upto("ab", 4))


def _generated(seed: int, k: int, wanted):
    """The first random machine drawn from ``seed`` that satisfies ``wanted``
    and accepts some word of length <= 4 (most random machines accept none,
    and composing those checks nothing)."""
    rng = random.Random(seed)
    for _ in range(300):
        machine = random_machine(rng, k=k)
        if wanted(machine) and any(semantics(machine, u) is not None for u in _WORDS):
            return machine
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2**32), st.integers(0, 2))
def test_compose_matches_chained_semantics_on_generated_machines(seed_f, n, seed_g, m):
    first = _generated(seed_f, n, is_reversible)
    second = _generated(seed_g, m, lambda machine: is_deterministic(machine)[0])
    assume(first is not None and second is not None)
    comp = compose(first, second)
    assert comp.k == (n + 1) * (m + 1) - 1
    assert is_deterministic(comp)[0]
    if is_reversible(second):
        assert is_reversible(comp)
    for u in _WORDS:
        assert semantics(comp, u) == _chained(first, second, u), u


# ---------------------------------------------------------------------------
# xi compilation


def test_xi_bar_true_and_static_false():
    assert xi_bar("q", ("x",), (2,), TRUE, 5) == [TRUE]
    # (h'=p'_1) with x_1 != q is statically false
    assert xi_bar("q", ("other",), (2,), Test.of(head_eq(1)), 5) == []


def test_xi_bar_head_atom_shape():
    [t] = xi_bar("q", ("q",), (2,), Test.of(head_eq(1)), 5)
    assert t == Test.of(peb_eq(3, 1), head_eq(2), peb_eq(4, 4, negated=True))


def test_xi_bar_matches_decoded_evaluation():
    """The encoding contract, checked against explicit stacks.

    Take a frozen configuration (stack+head per segment) and a current
    stack; build the composed stack; the compiled test must agree with
    evaluating the original test on the decoded second-machine view.
    """
    n, m = 1, 1
    r = (n + 1) * (m + 1) - 1
    psi_cases = [
        Test.of(head_eq(1)),
        Test.of(head_eq(1, negated=True)),
        Test.of(peb_eq(1, 1)),
        Test.of(peb_eq(1, 1, negated=True)),
    ]
    positions = range(4)
    for frozen_stack in [(), (0,), (2,)]:
        for frozen_head in positions:
            ybar = (len(frozen_stack) + 1,)
            xbar = ("q",)
            segment = frozen_stack + (frozen_head,)
            for cur_stack in [(), (0,), (2,), (1,)][: n + 1]:
                for head in positions:
                    peb = segment + cur_stack
                    # decoded second-machine view: pebble' 1 sits on the
                    # output position frozen as (q, frozen_stack, frozen_head)
                    same = (
                        cur_stack == frozen_stack and head == frozen_head
                    )
                    for psi in psi_cases:
                        dnf = xi_bar("q", xbar, ybar, psi, r)
                        got = any(eval_test(t, peb, head) for t in dnf)
                        atom = psi.atoms[0]
                        if atom.i == 0:
                            want = same != atom.negated
                        else:
                            want = not atom.negated  # pebble' 1 is dropped
                        assert got == want, (frozen_stack, frozen_head, cur_stack, head, psi)


def test_stack_window():
    # the shifted xi_0 component accepts exactly stack sizes in [d, d+n]
    from pebbletx.compose import _stack_window

    for n in (1, 2):
        for d in range(5):
            r = d + n + 2
            window = _stack_window(d, n, r)
            for size in range(r + 1):
                peb = tuple(0 for _ in range(size))
                assert eval_test(window, peb, 0) == (d <= size <= d + n)


def test_drop_gadget_entry_selects_stack_size(general_pair):
    # the drop(d+z) on the gadget entry can only fire when z = |stack|+1
    _, _, comp = general_pair
    kinds = comp.metadata["kinds"]
    entries = [t for t, kind in kinds.items() if kind == "drop-a"]
    assert entries
    for t in entries:
        z = t.dst[3]
        d = sum(y for _, y in t.src[3:])
        assert t.op == drop(d + z)


@pytest.mark.parametrize("pair", ["modsq.itrev", "prefixes.itrev", "sq.copier"])
def test_pebbleless_second_machine_layout(pair, modsq, prefixes, itrev, sq):
    # m = 0: no segment is ever frozen, so every state is (tag, q, q2) and
    # only the product's own transition kinds occur
    first, second = {
        "modsq.itrev": (modsq, iterated_reverse("bcd")),
        "prefixes.itrev": (prefixes, itrev),
        "sq.copier": (sq, copier(sorted(sq.output_alphabet))),
    }[pair]
    comp = compose(first, second)
    assert comp.k == first.k
    for state in comp.polarity:
        assert len(state) == 3 and state[0] in ("sync", "sim"), state
    assert set(comp.metadata["kinds"].values()) <= {
        "tr-a", "tr-b", "tr-c", "sw-a", "sw-b", "mv-a", "mv-b"
    }
    # compose_simple is the same construction
    assert compose_simple(first, second).transitions == comp.transitions


def test_compose_simple_rejects_pebbles(sq):
    with pytest.raises(HasPebblesError):
        compose_simple(sq, squaring(sorted(sq.output_alphabet)))
