"""Composition of a reversible pebble transducer with a deterministic one.

``compose_general`` builds g∘f as one synchronized product, whatever the
second machine's pebble count m.  Sync states pair up one producing
transition of the first machine with the consuming transition of the
second, and simulation states replay the first machine forward or backward
(using reversed transitions) to find the next or previous produced letter.

A pebble of the second machine sitting on output position i is frozen as
the configuration of the first machine's run at the moment position i was
produced: its stack followed by its head position, pushed as a segment of
the composed stack.  Guards of the second machine are compiled against
those segments (``xi_bar``), and its drop/lift operations become gadgets
that copy or unwind a segment pebble by pebble.  A product state is
``(tag, q, q2)`` followed by one ``(x, y)`` pair per frozen segment: the
first machine's state and the segment's length.

For m = 0 no segment is ever frozen: the states are ``('sync', q, q2)`` and
``('sim', q, q2)``, at most 2·|Q|·|Q'| of them, and the result keeps the
first machine's n pebbles (the (n+1)(m+1)-1 count at m = 0).
``compose_simple`` names that case.

The product is built by ``core.explore`` from the initial sync state, so no
unreachable product state or gadget chain is ever built.  The transitions
out of a product state depend on that state alone: a gadget's end state
(``liftg0`` or the last ``dropg``) builds its exits from the same pairs of
a producing and a consuming transition that its sync state built the
entries from.
"""

from __future__ import annotations

from .analysis import is_deterministic, is_reversible
from .core import (
    ENDMARKER,
    NOP,
    TRUE,
    AlphabetMismatchError,
    Atom,
    HasPebblesError,
    NotDeterministicError,
    NotReversibleError,
    PebbleOp,
    Test,
    Transducer,
    Transition,
    drop,
    explore,
    guard,
    head_eq,
    lift,
    peb_eq,
    reverse_guard,
    reverse_op,
    reverse_test_under_op,
    satisfiable,
    shift_op,
    shift_test,
    test_of_op,
)
from .transforms import ensure_full_read, separate_ops_unchecked, split_outputs

__all__ = ["compose", "compose_simple", "compose_general", "xi_bar"]


# ---------------------------------------------------------------------------
# Normalizations internal to composition


def with_endmarker_prefix(machine: Transducer) -> Transducer:
    """Prefix the produced string with '#': on the circular input ``#u`` the
    machine now writes ``#v``.  Applied to every transition leaving the
    initial state (exactly one can ever fire)."""
    transitions = tuple(
        Transition(t.src, t.letter, t.test, t.op, t.dst, (ENDMARKER,) + t.out)
        if t.src == machine.initial
        else t
        for t in machine.transitions
    )
    return machine.replace(transitions=transitions)


def normalize_first(machine: Transducer) -> Transducer:
    """First-machine normalization: '#'-prefixed output, one letter per
    transition."""
    return split_outputs(with_endmarker_prefix(machine))


def wrap_transition(machine: Transducer) -> Transition:
    """t_{f,i}: silently moves from the final configuration back to the
    initial one, letting the simulated run cross the endmarker of the
    produced circular word.  Never exposed on the machine itself."""
    guard = Test.of(peb_eq(1, 1, negated=True)) if machine.k >= 1 else TRUE
    return Transition(machine.final, ENDMARKER, guard, NOP, machine.initial)


def _check_compose_preconditions(first: Transducer, second: Transducer) -> None:
    if not is_reversible(first):
        raise NotReversibleError(f"{first.name} must be reversible to compose")
    ok, witness = is_deterministic(second)
    if not ok:
        raise NotDeterministicError(
            f"{second.name} must be deterministic to compose (conflict: "
            f"{witness.t1.render()} / {witness.t2.render()})"
        )
    if not first.output_alphabet <= second.input_alphabet:
        missing = first.output_alphabet - second.input_alphabet
        raise AlphabetMismatchError(
            f"{second.name} does not read {sorted(s.render() for s in missing)}"
        )


def compose(first: Transducer, second: Transducer) -> Transducer:
    """g∘f for f computed by a reversible machine and g by a deterministic
    one."""
    return compose_general(first, second)


def compose_simple(first: Transducer, second: Transducer) -> Transducer:
    """The m = 0 case: a pebbleless second machine."""
    if second.k != 0:
        raise HasPebblesError("compose_simple expects a pebbleless second machine")
    return compose_general(first, second)


# ---------------------------------------------------------------------------
# Compiling second-machine guards against frozen segments


def _subst_atom(a: Atom, q, xbar, ybar, r: int):
    """Positive-atom image under the stacked-configuration encoding; ``False``
    when ruled out statically, else a list of literals."""
    k = len(xbar)
    d_k = sum(ybar)
    i, j = a.i, a.j
    if j > k:
        return False
    y = ybar[j - 1]
    dj = sum(ybar[: j - 1])
    if i == 0:  # h = p_j: the current configuration is the one frozen as segment j
        if xbar[j - 1] != q:
            return False
        atoms = [peb_eq(l + d_k, l + dj) for l in range(1, y)]
        atoms.append(head_eq(dj + y))
        if y + d_k <= r:
            atoms.append(peb_eq(y + d_k, y + d_k, negated=True))
        return atoms
    if xbar[i - 1] != xbar[j - 1] or ybar[i - 1] != y:
        return False
    di = sum(ybar[: i - 1])
    return [peb_eq(l + di, l + dj) for l in range(1, y + 1)]


def xi_bar(q, xbar, ybar, psi: Test, r: int) -> list[Test]:
    """Compile a second-machine test against the encoded configuration.

    Negated atoms turn a conjunction image into a disjunction, so the result
    is a disjoint DNF: a list of tests whose union is the compiled formula
    (empty list = false)."""
    if psi.false:
        return []
    dnf: list[tuple[Atom, ...]] = [()]
    for literal in psi.atoms:
        image = _subst_atom(Atom(literal.i, literal.j), q, xbar, ybar, r)
        if image is False:
            if literal.negated:
                continue  # ¬false = true
            return []
        if not literal.negated:
            dnf = [term + tuple(image) for term in dnf]
        else:
            if not image:
                return []  # ¬(empty conjunction) = false
            expansions = [
                tuple(image[:idx]) + (image[idx].negate(),) for idx in range(len(image))
            ]
            dnf = [term + e for term in dnf for e in expansions]
    return [Test.of(*term) for term in dnf]


def _stack_window(d: int, n: int, r: int) -> Test:
    """xi_0 shifted by d: satisfied exactly when d <= |stack| <= d+n."""
    atoms = []
    if d >= 1:
        atoms.append(peb_eq(d, d))
    if n + 1 + d <= r:
        atoms.append(peb_eq(n + 1 + d, n + 1 + d, negated=True))
    return Test.of(*atoms)


def _xi_base(d: int, phi: Test, op: PebbleOp, n: int, r: int) -> Test:
    """xi_0 ∧ phi ∧ test(op), shifted past d frozen pebbles."""
    return (
        _stack_window(d, n, r)
        .conjoin(shift_test(phi, d, r))
        .conjoin(shift_test(test_of_op(op, n), d, r))
    )


# ---------------------------------------------------------------------------
# The product construction


def compose_general(first: Transducer, second: Transducer) -> Transducer:
    _check_compose_preconditions(first, second)
    tn = normalize_first(first)
    sn = separate_ops_unchecked(ensure_full_read(second))
    n, m = tn.k, sn.k
    r = (n + 1) * (m + 1) - 1
    pool = list(tn.transitions) + [wrap_transition(tn)]
    by_src: dict = {}
    by_dst: dict = {}
    for t in pool:
        by_src.setdefault(t.src, []).append(t)
        by_dst.setdefault(t.dst, []).append(t)
    memo: dict = {}  # keyed by id(t); pool keeps every t alive

    def shifted(kind, t, d):
        """First-machine transition t shifted past d frozen pebbles, built once
        per (kind, t, d): "base" is xi_0 ∧ phi ∧ test(op), "fwd" and "bwd" the
        (guard, op) replaying t forward (a producing t only switches to sync)
        and backward."""
        key = (kind, id(t), d)
        found = memo.get(key)
        if found is None:
            if kind == "base":
                found = _xi_base(d, t.test, t.op, n, r)
            elif kind == "fwd":
                test = guard(t, n) if t.out else t.test
                found = (shift_test(test, d, r), NOP if t.out else shift_op(t.op, d, r))
            else:
                test = reverse_test_under_op(t.op, t.test)
                found = (shift_test(test, d, r), shift_op(reverse_op(t.op), d, r))
            memo[key] = found
        return found

    def xi(t, q, xbar, ybar, psi):
        """(xi_0 ∧ phi ∧ test(op)) of t shifted past the frozen segments and
        conjoined with psi compiled against them, as a disjoint DNF."""
        base = shifted("base", t, sum(ybar))
        if base.false:
            return []
        return [base.conjoin(term) for term in xi_bar(q, xbar, ybar, psi, r) if not term.false]

    def pol_of(state) -> int:
        tag = state[0]
        if tag == "sync" or tag == "liftg0":
            return 0
        if tag == "sim":
            return tn.pol(state[1]) * sn.pol(state[2])
        return 1  # gadget-internal states scan right

    init = ("sync", tn.initial, sn.initial)
    fin = ("sync", tn.initial, sn.final)
    kinds: dict[Transition, str] = {}
    all_letters = sorted(tn.input_alphabet) + [ENDMARKER]

    def pairs(q, q2, kind):
        """(t, t2) with t producing, from q, the letter that t2 reads from q2,
        for t2 of operation ``kind``."""
        for t in by_src.get(q, []):
            if t.out:
                for t2 in sn.groups("src").get((q2, t.out[0]), ()):
                    if t2.op.kind == kind:
                        yield t, t2

    def unzip(frames):
        return tuple(x for x, _ in frames), tuple(y for _, y in frames)

    def process_sync(state):
        q, q2, frames = state[1], state[2], state[3:]
        xbar, ybar = unzip(frames)
        d, k = sum(ybar), len(frames)
        for t, t2 in pairs(q, q2, "nop"):
            p2 = sn.pol(t2.dst)
            for test in xi(t, q, xbar, ybar, guard(t2, m)):
                if p2 > 0:
                    yield (t.letter, test, shift_op(t.op, d, r),
                           ("sim", t.dst, t2.dst) + frames, t2.out, "tr-a")
                elif p2 < 0:
                    yield (t.letter, test, NOP,
                           ("sim", q, t2.dst) + frames, t2.out, "tr-b")
                else:
                    yield (t.letter, test, NOP,
                           ("sync", q, t2.dst) + frames, t2.out, "tr-c")
        for t, t2 in pairs(q, q2, "lift"):
            if t2.op.index == k and xbar[-1] == q:
                entry = ("liftg", q, q2, 1) + frames
                for test in xi(t, q, xbar, ybar, guard(t2, m)):
                    yield t.letter, test, NOP, entry, t2.out, "lift-a"
        for t, t2 in pairs(q, q2, "drop"):
            if t2.op.index == k + 1:
                entry_tests = xi(t, q, xbar, ybar, guard(t2, m))
                for z in range(1, n + 2):
                    entry = ("dropg", q, q2, z, 1) + frames
                    for test in entry_tests:
                        yield t.letter, test, drop(d + z), entry, t2.out, "drop-a"

    def process_sim(state):
        q, q2, frames = state[1], state[2], state[3:]
        d = sum(y for _, y in frames)
        if sn.pol(q2) > 0:
            for t in by_src.get(q, []):
                guard, op = shifted("fwd", t, d)
                if t.out:
                    yield t.letter, guard, op, ("sync", q, q2) + frames, (), "sw-a"
                else:
                    yield t.letter, guard, op, ("sim", t.dst, q2) + frames, (), "mv-a"
        else:
            for t in by_dst.get(q, []):
                guard, rop = shifted("bwd", t, d)
                if t.out:
                    yield t.letter, guard, rop, ("sync", t.src, q2) + frames, (), "sw-b"
                else:
                    yield t.letter, guard, rop, ("sim", t.src, q2) + frames, (), "mv-b"

    def process_liftg(state):
        q, q2, ell, frames = state[1], state[2], state[3], state[4:]
        d = sum(y for _, y in frames)
        y = frames[-1][1]
        loop_test = Test.of(
            head_eq(d - ell + 1, negated=True), head_eq(d + y - ell, negated=True)
        )
        for sigma in all_letters:
            yield sigma, loop_test, NOP, state, (), "lift-scan"
            if ell < y:
                yield (sigma, Test.of(head_eq(d - ell)), lift(d + y - ell),
                       ("liftg", q, q2, ell + 1) + frames, (), "lift-pop")
            else:
                yield sigma, TRUE, lift(d), ("liftg0", q, q2) + frames, (), "lift-pop"

    def process_lift_exits(state):
        """Out of ("liftg0", q, q2) + frames, the segment popped: back to the
        sync state each lift of the pair leads to."""
        q, q2, frames = state[1], state[2], state[3:]
        xbar, ybar = unzip(frames)
        # Pin the exact stack size after popping the segment: without it,
        # exits of gadgets with different segment lengths into the same sync
        # state would be jointly reverse-enabled.  The entry test forces this
        # size, so nothing is lost.
        pin = _stack_window(sum(ybar) - 1, 0, r)
        for t, t2 in pairs(q, q2, "lift"):
            if t2.op.index == len(frames):
                target = ("sync", q, t2.dst) + frames[:-1]
                for x in xi(t, q, xbar[:-1], ybar[:-1], reverse_guard(t2, m)):
                    yield t.letter, x.conjoin(pin), NOP, target, (), "lift-b"

    def process_dropg(state):
        q, q2, z, ell, frames = state[1], state[2], state[3], state[4], state[5:]
        d = sum(y for _, y in frames)
        loop_test = Test.of(
            head_eq(d + z + ell - 1, negated=True), head_eq(d + ell, negated=True)
        )
        for sigma in all_letters:
            yield sigma, loop_test, NOP, state, (), "drop-scan"
            if ell < z:
                yield (sigma, Test.of(head_eq(d + ell)), drop(d + z + ell),
                       ("dropg", q, q2, z, ell + 1) + frames, (), "drop-push")
        if ell < z:
            return
        # the segment is pushed: back to the sync state each drop leads to
        xbar, ybar = unzip(frames)
        for t, t2 in pairs(q, q2, "drop"):
            if t2.op.index == len(frames) + 1:
                target = ("sync", q, t2.dst) + frames + ((q, z),)
                for test in xi(t, q, xbar + (q,), ybar + (z,), reverse_guard(t2, m)):
                    yield t.letter, test, NOP, target, (), "drop-b"

    handlers = {
        "sync": process_sync,
        "sim": process_sim,
        "liftg": process_liftg,
        "liftg0": process_lift_exits,
        "dropg": process_dropg,
    }

    def emit(state):
        """The handler's moves (letter, test, op, target, output, kind) out of
        ``state`` that can fire, as transitions tagged with their kind."""
        for letter, test, op, dst, out, kind in handlers[state[0]](state):
            if satisfiable(test.conjoin(test_of_op(op, r)), r):
                t = Transition(state, letter, test, op, dst, out)
                kinds.setdefault(t, kind)
                yield t

    polarity, transitions = explore(init, fin, pol_of, emit)
    eq_used = any(a.i > 0 for t in transitions for a in t.test.atoms)
    return Transducer(
        name=f"compose({first.name},{second.name})",
        k=r,
        input_alphabet=first.input_alphabet,
        output_alphabet=second.output_alphabet,
        polarity=polarity,
        initial=init,
        final=fin,
        transitions=tuple(transitions),
        equality_tests_allowed=eq_used,
        metadata={
            "kinds": kinds,
            "first_normalized": tn,
            "second_normalized": sn,
        },
    )
