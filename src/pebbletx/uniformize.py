"""The uniformization pipeline: decompose T = T_0 . C_k^= . C_k, make the
pebbleless simulator T_0 reversible, and compose the parts back.

Reversible uniformization of T_0 goes through two-way transducers (DFJL17),
which this package deliberately does not implement: ``uniformize_pipeline``
takes that step as a hook, and ``twoway`` holds the bridge such a hook
would cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import is_deterministic, is_reverse_deterministic, is_reversible
from .compose import compose
from .core import (
    HasPebblesError,
    HookRequiredError,
    NotReversibleError,
    Transducer,
    word_symbols,
)
from .decompose import build_config_enumerator, build_equality_annotator, decompose
from .runner import semantics

__all__ = ["OracleHook", "UniformizeResult", "uniformize_pipeline", "brute_force_hook"]


@dataclass(frozen=True)
class OracleHook:
    """Function-level uniformizer: maps a word to one output of the relation
    (or None outside the domain).  Used where a machine-level reversible
    uniformizer is unavailable."""

    fn: Callable
    name: str = "oracle"


@dataclass
class UniformizeResult:
    """Outcome of the uniformization pipeline.

    ``transducer`` is None when the hook is function-level.  ``reversible``
    records whether the reversibility guarantee holds; with the identity
    hook the result is only deterministic.  The 2^{O((kn)^2)} state bound of
    the full construction depends on the external reversible uniformizer
    supplied through the hook and is deliberately not asserted here.
    """

    transducer: Optional[Transducer]
    apply: Callable
    pebbles: int
    deterministic: bool
    reversible: bool
    notes: str


def brute_force_hook(machine: Transducer, budget: Optional[int] = None) -> OracleHook:
    """Lexicographically-least-run selector over a (possibly nondeterministic)
    pebbleless machine, as a function.  Depth-first over loop-free paths,
    trying transitions in a canonical order."""
    from .runner import default_budget, initial_configuration, is_final_configuration, step

    order = {t: i for i, t in enumerate(sorted(machine.transitions, key=lambda t: repr(t)))}

    def fn(u):
        word = word_symbols(u)
        limit = budget if budget is not None else default_budget(machine, word)

        def dfs(c, out, depth, on_path):
            if is_final_configuration(machine, c):
                return out
            if depth >= limit:
                return None
            for t, c2 in sorted(step(machine, c, word), key=lambda tc: order[tc[0]]):
                if c2 in on_path:
                    continue
                res = dfs(c2, out + t.out, depth + 1, on_path | {c2})
                if res is not None:
                    return res
            return None

        c0 = initial_configuration(machine)
        return dfs(c0, (), 0, frozenset((c0,)))

    return OracleHook(fn, name=f"brute_force({machine.name})")


_EXCLUSION_NOTE = (
    "reversible uniformization of the pebbleless simulator is delegated to an "
    "external hook; the 2^O((kn)^2) state bound that would follow from it is "
    "not asserted"
)


def _probe_hook(machine, image, simulator, hooked) -> None:
    """Spot-check the hook contract on images of a few short words: the
    hooked machine must compute exactly the simulator's function on every
    output that actually arises in the pipeline."""
    letters = sorted(machine.input_alphabet)[:2]
    probes = [()] + [(a,) for a in letters] + [
        (a, b) for a in letters for b in letters
    ]
    for u in probes:
        w = image(u)
        if semantics(hooked, w) != semantics(simulator, w):
            raise NotReversibleError(
                "hook output disagrees with the simulator on a probe word"
            )


def uniformize_pipeline(machine: Transducer, hook=None) -> UniformizeResult:
    """Decompose, uniformize the pebbleless part via the hook, recompose.

    ``hook`` may be None/'identity' (legal when the simulator is already
    deterministic; the result is deterministic but not necessarily
    reversible), a callable turning the simulator into an equivalent
    reversible machine, or an :class:`OracleHook` for a function-level
    uniformizer (then no machine is produced, only ``apply``).
    """
    k = machine.k
    if k == 0:
        enumerator = annotator = None
        simulator = machine
    else:
        enumerator = build_config_enumerator(k, machine.input_alphabet)
        annotator = build_equality_annotator(k, machine.input_alphabet)
        simulator = decompose(machine)

    def image(u):
        """The word the simulator reads for u, or None outside the domain."""
        if enumerator is None:
            return word_symbols(u)
        copies = semantics(enumerator, u)
        return None if copies is None else semantics(annotator, copies)

    if isinstance(hook, OracleHook):

        def apply(u):
            w = image(u)
            return None if w is None else hook.fn(w)

        return UniformizeResult(
            transducer=None,
            apply=apply,
            pebbles=k,
            deterministic=True,
            reversible=False,
            notes=f"function-level hook {hook.name}; " + _EXCLUSION_NOTE,
        )
    if hook is None or hook == "identity":
        if not is_deterministic(simulator)[0]:
            raise HookRequiredError(
                "the pebbleless simulator is nondeterministic; supply a hook"
            )
        hooked = simulator
        reversible = is_reverse_deterministic(simulator)[0]
        note = "identity hook; result deterministic" + (
            "" if reversible else ", not reversible"
        )
    else:
        hooked = hook(simulator)
        if hooked.k != 0:
            raise HasPebblesError("hook must return a pebbleless machine")
        if not is_reversible(hooked):
            raise NotReversibleError("hook must return a reversible machine")
        _probe_hook(machine, image, simulator, hooked)
        reversible = True
        note = "machine-level hook"
    if enumerator is None:
        result = hooked
    else:
        result = compose(compose(enumerator, annotator), hooked)
    return UniformizeResult(
        transducer=result,
        apply=lambda u: semantics(result, u),
        pebbles=result.k,
        deterministic=True,
        reversible=reversible and is_reversible(result),
        notes=note + "; " + _EXCLUSION_NOTE,
    )
