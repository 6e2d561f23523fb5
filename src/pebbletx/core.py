"""Core domain types for pebble transducers with equality tests.

A machine walks a circular word ``#u`` (position 0 carries the reserved
endmarker ``#``) with a stack of up to ``k`` pebbles.  Guards are
conjunctions of (negated) atoms comparing the head with a pebble or two
pebbles with each other.  Everything in this module is an immutable value;
all operations are pure functions.

``guard`` and ``reverse_guard`` are the one definition of when a
transition can fire and when it can be undone; the runner, the analysis
checks and every construction build on them.  ``Transducer.groups`` is the
one transition index, and ``explore`` the one worklist that builds a derived
machine from its initial state and the transitions leaving each state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Union


class PebbleError(Exception):
    """Base class for errors raised by this package."""


class ReservedLetterError(PebbleError):
    """A user alphabet contains the reserved endmarker."""


class NotReversibleError(PebbleError):
    """An operation required a reversible machine."""


class NotDeterministicError(PebbleError):
    """An operation required a deterministic machine."""


class AlphabetMismatchError(PebbleError):
    """Output/input alphabets of chained machines do not line up."""


class HasPebblesError(PebbleError):
    """An operation required a pebbleless machine."""


class NoPebblesError(PebbleError):
    """An operation required a machine with at least one pebble."""


class HookRequiredError(PebbleError):
    """Uniformization needs an external hook for this machine."""


class WordError(PebbleError):
    """A word to run on holds a non-Symbol element or the bare endmarker."""


class PebbleIndexError(PebbleError, IndexError):
    """An operation or test names a pebble outside 1..k."""


# ---------------------------------------------------------------------------
# Symbols


@dataclass(frozen=True)
class Symbol:
    """An input/output letter: a base character plus optional annotations.

    ``bits`` marks which pebbles sit on the position that produced the
    letter; ``matrix`` records pairwise pebble equalities.  The plain,
    unannotated ``#`` is the reserved endmarker and never belongs to a user
    alphabet; annotated ``#`` letters (e.g. produced by the configuration
    enumerator) are ordinary symbols.
    """

    base: str
    bits: Optional[tuple[int, ...]] = None
    matrix: Optional[tuple[tuple[int, ...], ...]] = None

    def sort_key(self):
        return (self.base, self.bits or (), self.matrix or ())

    def __lt__(self, other: "Symbol") -> bool:
        return self.sort_key() < other.sort_key()

    def is_endmarker(self) -> bool:
        return self.base == "#" and self.bits is None and self.matrix is None

    def render(self) -> str:
        """Compact text form used by the CLI (`_a` for a single-mark letter)."""
        if self.bits is None and self.matrix is None:
            return self.base
        if self.bits == (1,) and self.matrix is None:
            return "_" + self.base
        parts = [self.base]
        if self.bits is not None:
            parts.append("".join(str(b) for b in self.bits))
        if self.matrix is not None:
            parts.append("|".join("".join(str(b) for b in row) for row in self.matrix))
        return "{" + ";".join(parts) + "}"

    def __repr__(self) -> str:  # keep machine dumps readable
        return f"Symbol({self.render()!r})"


ENDMARKER = Symbol("#")


def word_symbols(u: Union[str, Iterable[Symbol]]) -> tuple[Symbol, ...]:
    """Coerce a plain string or a symbol iterable into a word."""
    if isinstance(u, str):
        return tuple(Symbol(c) for c in u)
    return tuple(u)


def alphabet_of(sigma: Union[str, Iterable[Symbol]]) -> frozenset[Symbol]:
    """The letters of a user alphabet; the endmarker is reserved."""
    letters = frozenset(word_symbols(sigma))
    if ENDMARKER in letters:
        raise ReservedLetterError("the endmarker '#' cannot be an alphabet letter")
    return letters


def letter_at(word: tuple[Symbol, ...], h: int) -> Symbol:
    """Letter of the circular word ``#u`` at extended position ``h``."""
    return ENDMARKER if h == 0 else word[h - 1]


# ---------------------------------------------------------------------------
# Atoms and tests


@dataclass(frozen=True, order=True)
class Atom:
    """One (possibly negated) equality atom.

    ``kind`` is ``"h"`` for head-pebble atoms ``h = p_i`` (``j`` unused, 0)
    and ``"p"`` for pebble-pebble atoms ``p_i = p_j`` (stored with i <= j).
    """

    kind: str
    i: int
    j: int = 0
    negated: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("h", "p"):
            raise ValueError(f"bad atom kind {self.kind!r}")
        if self.i < 1 or (self.kind == "p" and self.j < 1):
            raise PebbleIndexError(f"pebble indices start at 1: {self.render()}")
        if self.kind == "p" and self.i > self.j:
            i, j = self.i, self.j
            object.__setattr__(self, "i", j)
            object.__setattr__(self, "j", i)

    def negate(self) -> "Atom":
        return Atom(self.kind, self.i, self.j, not self.negated)

    def shifted(self, d: int) -> "Atom":
        if self.kind == "h":
            return Atom("h", self.i + d, 0, self.negated)
        return Atom("p", self.i + d, self.j + d, self.negated)

    def max_index(self) -> int:
        return self.i if self.kind == "h" else self.j

    def render(self) -> str:
        body = f"h=p{self.i}" if self.kind == "h" else f"p{self.i}=p{self.j}"
        return ("!" if self.negated else "") + body


def head_eq(i: int, negated: bool = False) -> Atom:
    return Atom("h", i, 0, negated)


def peb_eq(i: int, j: int, negated: bool = False) -> Atom:
    return Atom("p", i, j, negated)


@dataclass(frozen=True)
class Test:
    """A conjunction of atoms (empty = true), or the unsatisfiable constant.

    Atoms are kept sorted and deduplicated so structural equality of
    transitions is stable.
    """

    atoms: tuple[Atom, ...] = ()
    false: bool = False

    @staticmethod
    def of(*atoms: Atom) -> "Test":
        return Test(tuple(sorted(set(atoms))))

    def conjoin(self, other: "Test") -> "Test":
        if self.false or other.false:
            return FALSE
        if not other.atoms:
            return self
        return Test.of(*(self.atoms + other.atoms))

    def shifted(self, d: int, k: Optional[int] = None) -> "Test":
        return shift_test(self, d, k)

    def max_index(self) -> int:
        return max((a.max_index() for a in self.atoms), default=0)

    def render(self) -> str:
        if self.false:
            return "false"
        if not self.atoms:
            return "true"
        return " & ".join(a.render() for a in self.atoms)

    def __repr__(self) -> str:
        return f"Test({self.render()})"


TRUE = Test()
FALSE = Test((), True)


# ---------------------------------------------------------------------------
# Pebble operations


@dataclass(frozen=True, order=True)
class PebbleOp:
    """``nop``, ``drop(i)`` or ``lift(i)``; index 0 is reserved for nop."""

    kind: str
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("nop", "drop", "lift"):
            raise ValueError(f"bad op kind {self.kind!r}")
        if (self.kind == "nop") != (self.index == 0):
            raise ValueError(f"bad op index {self.index} for {self.kind}")

    def is_nop(self) -> bool:
        return self.kind == "nop"

    def shifted(self, d: int, k: Optional[int] = None) -> "PebbleOp":
        return shift_op(self, d, k)

    def render(self) -> str:
        return "nop" if self.is_nop() else f"{self.kind}{self.index}"

    def __repr__(self) -> str:
        return f"PebbleOp({self.render()})"


NOP = PebbleOp("nop")


def drop(i: int) -> PebbleOp:
    return PebbleOp("drop", i)


def lift(i: int) -> PebbleOp:
    return PebbleOp("lift", i)


def reverse_op(op: PebbleOp) -> PebbleOp:
    """The reverse operation: nop<->nop, drop_i<->lift_i (an involution)."""
    if op.kind == "nop":
        return op
    return PebbleOp("lift" if op.kind == "drop" else "drop", op.index)


def test_of_op(op: PebbleOp, k: int) -> Test:
    """The test equivalent to "op is executable".

    The ``p_0 = p_0`` conjunct of ``drop_1`` is identified with true, and the
    ``p_{k+1}`` conjunct of ``lift_k`` is dropped since pebble k+1 cannot
    exist.
    """
    if op.is_nop():
        return TRUE
    if not 1 <= op.index <= k:
        raise PebbleIndexError(f"operation {op.render()} out of range for k={k}")
    i = op.index
    atoms: list[Atom] = []
    if op.kind == "drop":
        if i > 1:
            atoms.append(peb_eq(i - 1, i - 1))
        atoms.append(peb_eq(i, i, negated=True))
    else:
        atoms.append(head_eq(i))
        if i < k:
            atoms.append(peb_eq(i + 1, i + 1, negated=True))
    return Test.of(*atoms)


# an atom image under an op is True (drop the literal), False, or an atom
_Image = Union[bool, Atom]


def _image(op: PebbleOp, a: Atom) -> _Image:
    if op.is_nop():
        return Atom(a.kind, a.i, a.j, False)
    ell = op.index
    if op.kind == "drop":
        if a.kind == "h":
            return head_eq(a.i) if a.i < ell else False
        return peb_eq(a.i, a.j) if a.j < ell else False
    # lift
    if a.kind == "h":
        if a.i < ell:
            return head_eq(a.i)
        return True if a.i == ell else False
    i, j = a.i, a.j
    if j < ell:
        return peb_eq(i, j)
    if i == j == ell:
        return True
    if i < j == ell:
        return head_eq(i)
    return False


def reverse_test_under_op(op: PebbleOp, t: Test) -> Test:
    """The test op(t): ``peb, h |= t`` iff ``op(peb, h), h |= op(t)``
    whenever op(peb, h) is defined.

    Homomorphic over conjunction and negation; see the case table.
    """
    if t.false:
        return FALSE
    atoms: list[Atom] = []
    for a in t.atoms:
        img = _image(op, a)
        if isinstance(img, bool):
            value = img != a.negated
            if not value:
                return FALSE
            continue  # literal is identically true, drop it
        atoms.append(img.negate() if a.negated else img)
    return Test.of(*atoms)


def op_enabled(op: PebbleOp, peb: tuple[int, ...], h: int) -> bool:
    if op.kind == "nop":
        return True
    if op.kind == "drop":
        return len(peb) == op.index - 1
    return len(peb) == op.index and peb[-1] == h


def apply_op(op: PebbleOp, peb: tuple[int, ...], h: int) -> Optional[tuple[int, ...]]:
    """Execute ``op`` on a pebble stack; ``None`` means not enabled."""
    if not op_enabled(op, peb, h):
        return None
    if op.kind == "nop":
        return peb
    if op.kind == "drop":
        return peb + (h,)
    return peb[:-1]


def shift_op(op: PebbleOp, d: int, k: Optional[int] = None) -> PebbleOp:
    if op.is_nop():
        return op
    shifted = PebbleOp(op.kind, op.index + d)
    if k is not None and shifted.index > k:
        raise PebbleIndexError(f"shifted op {shifted.render()} exceeds k={k}")
    return shifted


def shift_test(t: Test, d: int, k: Optional[int] = None) -> Test:
    if t.false:
        return FALSE
    shifted = Test.of(*(a.shifted(d) for a in t.atoms)) if d else t
    if k is not None and shifted.max_index() > k:
        raise PebbleIndexError(f"shifted test {shifted.render()} exceeds k={k}")
    return shifted


# ---------------------------------------------------------------------------
# Atom/test evaluation


def eval_atom(atom: Atom, peb: tuple[int, ...], h: int) -> bool:
    """Out-of-stack indices make positive atoms false, negated ones true."""
    if atom.kind == "h":
        value = atom.i <= len(peb) and peb[atom.i - 1] == h
    else:
        value = atom.j <= len(peb) and peb[atom.i - 1] == peb[atom.j - 1]
    return value != atom.negated


def eval_test(t: Test, peb: tuple[int, ...], h: int) -> bool:
    if t.false:
        return False
    return all(eval_atom(a, peb, h) for a in t.atoms)


# ---------------------------------------------------------------------------
# Satisfiability of guard conjunctions


@lru_cache(maxsize=65536)
def satisfiable(t: Test, k: int) -> bool:
    """Is there a word, stack (size <= k) and head satisfying ``t``?

    Only one stack size s needs checking: the largest pebble index of a
    positive atom.  A smaller stack lacks a pebble a positive atom needs,
    and a larger one keeps the same positive atoms while more negated atoms
    apply.  Positive equalities are merged with a union-find over
    {h, p_1..p_s}, and a negated atom inside one class rejects.  Any
    remaining family of classes is realizable on a long enough word.
    """
    if t.false:
        return False
    s = max((a.max_index() for a in t.atoms if not a.negated), default=0)
    if s > k:
        return False
    parent = list(range(s + 1))  # 0 = head, 1..s = pebbles

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def ends(a: Atom) -> tuple[int, int]:
        return (0 if a.kind == "h" else a.i), a.max_index()

    for a in t.atoms:
        if not a.negated:
            x, y = ends(a)
            parent[find(x)] = find(y)
    return all(
        find(x) != find(y)
        for x, y in (ends(a) for a in t.atoms if a.negated and a.max_index() <= s)
    )


# ---------------------------------------------------------------------------
# Transitions, transducers, configurations

State = object  # any hashable


@dataclass(frozen=True)
class Transition:
    src: object
    letter: Symbol
    test: Test
    op: PebbleOp
    dst: object
    out: tuple[Symbol, ...] = ()

    def render(self) -> str:
        out = "".join(s.render() for s in self.out) or "eps"
        return (
            f"{self.src} --{self.letter.render()},{self.test.render()},"
            f"{self.op.render()}--> {self.dst} | {out}"
        )


def guard(t: Transition, k: int) -> Test:
    """When ``t`` can fire: its test holds and its operation is executable."""
    return t.test.conjoin(test_of_op(t.op, k))


def reverse_guard(t: Transition, k: int) -> Test:
    """When ``t`` can be undone: the guard of the reversed transition, read
    on the configuration ``t`` produced (at the head position it read)."""
    return reverse_test_under_op(t.op, t.test).conjoin(test_of_op(reverse_op(t.op), k))


@dataclass
class Transducer:
    """A k-pebble transducer over a circular word.

    ``polarity`` maps each state to -1/0/+1; the head moves by the polarity
    of a transition's *target* state.  The machine is a plain value: nothing
    mutates it after construction, so concurrent use is safe.  Two things
    are derived from the fields and built on first use: the transition
    index of ``groups`` and the run table the runner compiles.  Being
    derived, neither may be mutated.  Concurrent first calls of ``groups``
    may each build an equal dict; one of them is kept.
    """

    name: str
    k: int
    input_alphabet: frozenset[Symbol]
    output_alphabet: frozenset[Symbol]
    polarity: dict
    initial: object
    final: object
    transitions: tuple[Transition, ...]
    equality_tests_allowed: bool = True
    metadata: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.transitions = tuple(dict.fromkeys(self.transitions))
        self._groups: dict = {}  # end -> index, built by groups() on first use
        self._run_table = None  # compiled by the runner on first use

    @property
    def states(self) -> set:
        return set(self.polarity)

    def pol(self, state) -> int:
        return self.polarity[state]

    def groups(self, end: str) -> dict:
        """Transitions grouped by (``t.src`` or ``t.dst``, letter), for
        ``end`` ``"src"`` or ``"dst"``, each group in ``transitions`` order.

        Built on the first call for each ``end`` and cached."""
        index = self._groups.get(end)
        if index is None:
            index = {}
            for t in self.transitions:
                index.setdefault((getattr(t, end), t.letter), []).append(t)
            self._groups[end] = index
        return index

    def letters(self) -> frozenset[Symbol]:
        return self.input_alphabet | {ENDMARKER}

    def replace(self, **changes) -> "Transducer":
        fields = dict(
            name=self.name,
            k=self.k,
            input_alphabet=self.input_alphabet,
            output_alphabet=self.output_alphabet,
            polarity=dict(self.polarity),
            initial=self.initial,
            final=self.final,
            transitions=self.transitions,
            equality_tests_allowed=self.equality_tests_allowed,
            metadata=dict(self.metadata),
        )
        fields.update(changes)
        return Transducer(**fields)


def explore(initial, final, pol_of, successors) -> tuple[dict, list]:
    """The states and transitions reachable from ``initial``:
    ``successors(state)`` yields the transitions leaving ``state``, and
    ``pol_of`` gives each new state its polarity.  ``final`` is a state even
    when unreached, and is never expanded.  Returns the polarity dict and
    the transitions, both in discovery order.

    States are expanded first in, first out, but the visit order decides
    only the discovery order: every caller's transitions out of a state are
    a function of that state alone, so any order builds the same machine."""
    polarity = {initial: pol_of(initial)}
    if final not in polarity:
        polarity[final] = pol_of(final)
    transitions: list = []
    queue = deque([initial])
    while queue:
        for t in successors(queue.popleft()):
            transitions.append(t)
            if t.dst not in polarity:
                polarity[t.dst] = pol_of(t.dst)
                queue.append(t.dst)
    return polarity, transitions


@dataclass(frozen=True)
class Configuration:
    state: object
    peb: tuple[int, ...]
    head: int
