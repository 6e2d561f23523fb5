"""Core domain types for pebble transducers with equality tests.

A machine walks a circular word ``#u`` (position 0 carries the reserved
endmarker ``#``) with a stack of up to ``k`` pebbles.  Guards are
conjunctions of (negated) equality atoms ``x_i = x_j`` over the positions
``x_0`` (the head) and ``x_1..x_k`` (the pebbles, bottom first), so an atom
comparing the head with a pebble and one comparing two pebbles are one
type, read one way.  Everything in this module is an immutable value; all
operations are pure functions.  ``Symbol``, ``Atom``, ``Test``, ``PebbleOp``
and ``Transition`` are tuple-backed: each equals the plain tuple of its
fields and hashes, compares and sorts in C (``Symbol`` by ``sort_key``).

``guard`` and ``reverse_guard`` are the one definition of when a
transition can fire and when it can be undone; the runner, the analysis
checks and every construction build on them.  ``Transducer.groups`` is the
one transition index, and ``explore`` the one worklist that builds a derived
machine from its initial state and the transitions leaving each state.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Union


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


class Symbol(NamedTuple):
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

    def __le__(self, other: "Symbol") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Symbol") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Symbol") -> bool:
        return self.sort_key() >= other.sort_key()

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


@classmethod
def _make_through_new(cls, iterable):
    """The namedtuple ``_make``, which ``_replace`` also calls, built through
    ``cls.__new__`` so that neither skips its validation."""
    return cls(*iterable)


class Atom(NamedTuple("Atom", [("i", int), ("j", int), ("negated", bool)])):
    """One (possibly negated) equality atom ``x_i = x_j``.

    ``x_0`` is the head and ``x_1..x_k`` are the pebbles, so ``h = p_j`` is
    ``Atom(0, j)`` and ``p_i = p_j`` is ``Atom(i, j)``.  The indices are
    stored with ``0 <= i <= j`` and ``j >= 1``.  The field order sorts head
    atoms before pebble atoms, each by pebble index.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, negated: bool = False) -> "Atom":
        atom = tuple.__new__(cls, (i, j, negated) if i <= j else (j, i, negated))
        if atom.i < 0 or atom.j < 1:
            raise PebbleIndexError(f"pebble indices start at 1: {atom.render()}")
        return atom

    _make = _make_through_new

    def negate(self) -> "Atom":
        return Atom(self.i, self.j, not self.negated)

    def render(self) -> str:
        body = f"h=p{self.j}" if self.i == 0 else f"p{self.i}=p{self.j}"
        return ("!" if self.negated else "") + body


def head_eq(i: int, negated: bool = False) -> Atom:
    """``h = p_i``."""
    return Atom(0, i, negated)


def peb_eq(i: int, j: int, negated: bool = False) -> Atom:
    """``p_i = p_j``; both indices name pebbles, so neither may be 0."""
    if min(i, j) < 1:
        raise PebbleIndexError(f"pebble indices start at 1: p{i}=p{j}")
    return Atom(i, j, negated)


class Test(NamedTuple):
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


class PebbleOp(NamedTuple("PebbleOp", [("kind", str), ("index", int)])):
    """``nop``, ``drop(i)`` or ``lift(i)``; index 0 is reserved for nop."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int = 0) -> "PebbleOp":
        if kind not in ("nop", "drop", "lift"):
            raise ValueError(f"bad op kind {kind!r}")
        if (kind == "nop") != (index == 0):
            raise ValueError(f"bad op index {index} for {kind}")
        return tuple.__new__(cls, (kind, index))

    _make = _make_through_new

    def is_nop(self) -> bool:
        return self.kind == "nop"

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
    """The positive atom of ``a`` read after ``op``: pebbles below the op's
    index keep their places, ``drop(ell)`` has no pebble ``ell`` before it,
    and after ``lift(ell)`` the head sits where pebble ``ell`` was."""
    ell = op.index
    if op.is_nop() or a.j < ell:
        return Atom(a.i, a.j) if a.negated else a
    if a.j > ell or op.kind == "drop":
        return False
    return True if a.i in (0, ell) else Atom(0, a.i)


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
    """``t`` read ``d`` pebbles higher on the stack; the head stays ``x_0``."""
    if t.false:
        return FALSE
    if not d:
        shifted = t
    else:
        shifted = Test.of(*(Atom(a.i and a.i + d, a.j + d, a.negated) for a in t.atoms))
    if k is not None and max((a.j for a in shifted.atoms), default=0) > k:
        raise PebbleIndexError(f"shifted test {shifted.render()} exceeds k={k}")
    return shifted


# ---------------------------------------------------------------------------
# Atom/test evaluation


def eval_atom(atom: Atom, peb: tuple[int, ...], h: int) -> bool:
    """Out-of-stack indices make positive atoms false, negated ones true."""
    x = (h,) + peb  # x_0 is the head
    value = atom.j < len(x) and x[atom.i] == x[atom.j]
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
    s = max((a.j for a in t.atoms if not a.negated), default=0)
    if s > k:
        return False
    parent = list(range(s + 1))  # x_0..x_s

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in t.atoms:
        if not a.negated:
            parent[find(a.i)] = find(a.j)
    return all(find(a.i) != find(a.j) for a in t.atoms if a.negated and a.j <= s)


# ---------------------------------------------------------------------------
# Transitions, transducers, configurations

State = object  # any hashable


class Transition(NamedTuple):
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
        return dataclasses.replace(self, **changes)


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
