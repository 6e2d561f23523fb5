"""Operational semantics: stepping, full runs, and relation enumeration.

``step`` and ``step_back`` are the reference semantics, written over
``core.eval_test`` and ``core.apply_op``: a transition fires from a
configuration iff it is among ``step``'s successors.  ``run`` and
``enumerate_runs`` execute the same semantics on a table that each machine
compiles lazily on its first run (``_RunTable``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core import (
    ENDMARKER,
    Configuration,
    PebbleError,
    Symbol,
    Transducer,
    Transition,
    WordError,
    apply_op,
    eval_test,
    guard,
    letter_at,
    reverse_op,
    word_symbols,
)

Word = Union[str, Iterable[Symbol]]


class NondeterministicChoiceError(PebbleError):
    """Two transitions were enabled at a configuration during run()."""

    def __init__(self, config: Configuration, t1: Transition, t2: Transition):
        super().__init__(
            f"two transitions enabled at {config}: {t1.render()} / {t2.render()}"
        )
        self.config = config
        self.candidates = (t1, t2)


@dataclass(frozen=True)
class RunResult:
    """Outcome of a deterministic run.

    ``verdict`` is one of ``accept`` / ``reject`` / ``diverge``; accepted
    runs end in the configuration (final, empty stack, position 0).  A
    ``diverge`` either names the ``repeated_configuration`` (loop detection)
    or has used up ``budget``, the step limit that was in force.
    ``max_depth`` is the highest stack height the run reached.
    """

    verdict: str
    output: Optional[tuple[Symbol, ...]]
    steps: int
    trace: Optional[tuple[tuple[Transition, Configuration], ...]] = None
    repeated_configuration: Optional[Configuration] = None
    budget: Optional[int] = None
    max_depth: int = 0

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


@dataclass(frozen=True)
class EnumResult:
    outputs: frozenset[tuple[Symbol, ...]]
    truncated: bool


def initial_configuration(machine: Transducer) -> Configuration:
    return Configuration(machine.initial, (), 0)


def is_final_configuration(machine: Transducer, c: Configuration) -> bool:
    return c.state == machine.final and c.peb == () and c.head == 0


def default_budget(machine: Transducer, word: tuple[Symbol, ...]) -> int:
    """Upper bound on distinct configurations, so exceeding it on a
    deterministic machine certifies a revisit (divergence)."""
    n = len(word) + 1
    k = machine.k
    return len(machine.polarity) * (n ** (k + 1)) * (k + 1) + 1


def step(
    machine: Transducer, c: Configuration, word: tuple[Symbol, ...]
) -> list[tuple[Transition, Configuration]]:
    """All successors; the head moves by the polarity of the target state,
    wrapping across the endmarker."""
    n = len(word) + 1
    out = []
    for t in machine.groups("src").get((c.state, letter_at(word, c.head)), ()):
        if not eval_test(t.test, c.peb, c.head):
            continue
        peb = apply_op(t.op, c.peb, c.head)
        if peb is None:
            continue
        head = (c.head + machine.pol(t.dst)) % n
        out.append((t, Configuration(t.dst, peb, head)))
    return out


def step_back(
    machine: Transducer, c_after: Configuration, word: tuple[Symbol, ...]
) -> list[tuple[Transition, Configuration]]:
    """Exactly the (t, c) with c --t--> c_after.

    Every transition into ``c_after.state`` moved the head by that state's
    polarity, so all of them read the letter at the same position h."""
    if c_after.state not in machine.polarity:
        return []
    h = (c_after.head - machine.pol(c_after.state)) % (len(word) + 1)
    out = []
    for t in machine.groups("dst").get((c_after.state, letter_at(word, h)), ()):
        peb = apply_op(reverse_op(t.op), c_after.peb, h)
        if peb is not None and eval_test(t.test, peb, h):
            out.append((t, Configuration(t.src, peb, h)))
    return out


# ---------------------------------------------------------------------------
# Compiled run table

_NOP, _DROP, _LIFT = 0, 1, 2
_OP_KINDS = {"nop": _NOP, "drop": _DROP, "lift": _LIFT}

# Serializes table compilation; runs read compiled entries without it.
_COMPILE_LOCK = threading.Lock()


class _Node:
    """A reached state: its polarity, whether it is final, and its buckets
    (letter id -> compiled transitions), each compiled on first visit."""

    __slots__ = ("state", "pol", "final", "buckets")

    def __init__(self, state, pol: Optional[int], final: bool):
        self.state = state
        self.pol = pol
        self.final = final
        self.buckets: dict[int, tuple] = {}


def _guard(t: Transition, k: int) -> tuple:
    """``core.guard(t, k)`` as a tuple of ``(i, j, negated)`` atoms over
    0-based stack indices, with -1 for the head."""
    return tuple((a.i - 1, a.j - 1, a.negated) for a in guard(t, k).atoms)


def _holds(atoms: tuple, peb: tuple[int, ...], head: int) -> bool:
    """``core.eval_test`` on a flattened guard: an atom reading a pebble
    above the stack is false, its negation true."""
    d = len(peb)
    for i, j, negated in atoms:
        if (j < d and (peb[i] if i >= 0 else head) == peb[j]) == negated:
            return False
    return True


class _RunTable:
    """One machine's interned states and letters.

    Letter id 0 is the endmarker.  A bucket holds the transitions of one
    (state, letter) in ``groups("src")`` order as entries
    ``(guard, kind, dst, out, transition)``: the guard from ``_guard``, the
    op kind (``_NOP``/``_DROP``/``_LIFT``) and the target node.  Transitions
    whose test is the constant false never fire and are left out.
    Compilation cost follows the buckets runs reach, not the machine.
    """

    def __init__(self, machine: Transducer):
        self.machine = machine
        self.nodes: dict = {}
        self.letter_ids: dict[Symbol, int] = {ENDMARKER: 0}
        self.letters: list[Symbol] = [ENDMARKER]
        self.initial = self._node(machine.initial, machine.polarity.get(machine.initial))

    def _node(self, state, pol: Optional[int]) -> _Node:
        node = self.nodes.get(state)
        if node is None:
            node = self.nodes[state] = _Node(state, pol, state == self.machine.final)
        return node

    def intern(self, word: tuple[Symbol, ...]) -> list[int]:
        """Letter ids of ``#u``: index h holds the id of the letter at
        extended position h.  Rejects what ``u`` may not contain."""
        ids = self.letter_ids
        lids = [0]
        for pos, sym in enumerate(word, 1):
            if not isinstance(sym, Symbol):
                raise WordError(f"letter {pos} of the word is {sym!r}, not a Symbol")
            lid = ids.get(sym)
            if lid is None:
                with _COMPILE_LOCK:
                    lid = ids.get(sym)
                    if lid is None:
                        lid = ids[sym] = len(self.letters)
                        self.letters.append(sym)
            elif lid == 0:
                raise WordError(
                    f"letter {pos} of the word is the endmarker '#', "
                    "which only position 0 carries"
                )
            lids.append(lid)
        return lids

    def bucket(self, node: _Node, lid: int) -> tuple:
        """The compiled transitions of (node, letter ``lid``)."""
        with _COMPILE_LOCK:
            bucket = node.buckets.get(lid)
            if bucket is None:
                m = self.machine
                bucket = node.buckets[lid] = tuple(
                    (
                        _guard(t, m.k),
                        _OP_KINDS[t.op.kind],
                        self._node(t.dst, m.pol(t.dst)),
                        t.out,
                        t,
                    )
                    for t in m.groups("src").get((node.state, self.letters[lid]), ())
                    if not t.test.false
                )
            return bucket


def _table(machine: Transducer) -> _RunTable:
    table = machine._run_table
    if table is None:
        with _COMPILE_LOCK:
            table = machine._run_table
            if table is None:
                table = machine._run_table = _RunTable(machine)
    return table


def run(
    machine: Transducer,
    u: Word,
    budget: Optional[int] = None,
    trace: bool = False,
    detect_loop: bool = False,
) -> RunResult:
    """Follow the unique enabled transition from the initial configuration.

    Requires a deterministic machine; raises NondeterministicChoiceError if
    two transitions are ever enabled at once, and WordError if ``u`` holds a
    non-Symbol or the bare endmarker.  ``detect_loop`` trades memory for
    reporting the repeated configuration instead of a bare budget stop.

    Runs on the machine's compiled table; at every configuration it checks,
    in the order of the reference loop over ``step``: final, successors,
    nondeterminism, then the budget.
    """
    word = word_symbols(u)
    table = _table(machine)
    lids = table.intern(word)
    if budget is None:
        budget = default_budget(machine, word)
    n = len(lids)
    node, peb, head = table.initial, (), 0
    output: list[Symbol] = []
    steps = max_depth = 0
    path: Optional[list] = [] if trace else None
    visited = {(node, peb, head)} if detect_loop else None
    while True:
        if node.final and head == 0 and not peb:
            return _result("accept", tuple(output), steps, path, budget, max_depth)
        bucket = node.buckets.get(lids[head])
        if bucket is None:
            bucket = table.bucket(node, lids[head])
        fired = None
        for entry in bucket:
            if entry[0] and not _holds(entry[0], peb, head):
                continue
            if fired is not None:
                config = Configuration(node.state, peb, head)
                raise NondeterministicChoiceError(config, fired[4], entry[4])
            fired = entry
        if fired is None:
            return _result("reject", None, steps, path, budget, max_depth)
        if steps >= budget:
            return _result("diverge", None, steps, path, budget, max_depth)
        _, kind, node, out, t = fired
        if kind == _DROP:
            peb += (head,)
            if len(peb) > max_depth:
                max_depth = len(peb)
        elif kind == _LIFT:
            peb = peb[:-1]
        head = (head + node.pol) % n
        if out:
            output += out
        steps += 1
        if path is not None:
            path.append((t, Configuration(t.dst, peb, head)))
        if visited is not None:
            key = (node, peb, head)
            if key in visited:
                return _result("diverge", None, steps, path, budget, max_depth,
                               Configuration(t.dst, peb, head))
            visited.add(key)


def _result(verdict, output, steps, path, budget, max_depth, repeated=None) -> RunResult:
    return RunResult(verdict, output, steps, None if path is None else tuple(path),
                     repeated, budget, max_depth)


def enumerate_runs(
    machine: Transducer, u: Word, budget: Optional[int] = None
) -> EnumResult:
    """Outputs of all accepting runs of length <= budget (exhaustive search).

    Nondeterministic machines may have unboundedly long runs, so the search
    is budgeted per path and reports truncation.  Search states are
    (configuration, output) pairs, deduplicated so that silent loops do not
    blow the search up.  Successors come from the same compiled buckets as
    ``run``.
    """
    word = word_symbols(u)
    table = _table(machine)
    lids = table.intern(word)
    if budget is None:
        budget = default_budget(machine, word)
    n = len(lids)
    outputs: set[tuple[Symbol, ...]] = set()
    frontier = {(table.initial, (), 0, ())}
    seen = set(frontier)
    for _ in range(budget + 1):
        if not frontier:
            break
        nxt = set()
        for node, peb, head, out in frontier:
            if node.final and head == 0 and not peb:
                outputs.add(out)
                continue
            bucket = node.buckets.get(lids[head])
            if bucket is None:
                bucket = table.bucket(node, lids[head])
            for atoms, kind, dst, t_out, _ in bucket:
                if atoms and not _holds(atoms, peb, head):
                    continue
                if kind == _DROP:
                    new = peb + (head,)
                elif kind == _LIFT:
                    new = peb[:-1]
                else:
                    new = peb
                item = (dst, new, (head + dst.pol) % n, out + t_out)
                if item not in seen:
                    seen.add(item)
                    nxt.add(item)
        frontier = nxt
    return EnumResult(frozenset(outputs), bool(frontier))


def semantics(
    machine: Transducer, u: Word, budget: Optional[int] = None
) -> Optional[tuple[Symbol, ...]]:
    """Partial-function view of a deterministic machine: output or None."""
    result = run(machine, u, budget=budget)
    return result.output if result.accepted else None
