#!/usr/bin/env python3
"""Measure construction sizes against their stated bounds on the corpus.

The bounds are the functions in ``tests/machines.py`` that the tests
assert, so the printed bound is the tested one.  The last rows time the
left-associated squaring chains sq∘sq and sq^3, each with a cold
``satisfiable`` cache: the build (``compose``, whose precondition checks
run ``is_reversible`` on the first machine) and ``is_reversible`` on the
result.
"""

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from machines import (  # noqa: E402
    compose_general_bound,
    compose_simple_bound,
    config_enumerator_states,
    decompose_bound,
    eliminate_equality_bound,
    equality_annotator_states,
    separate_moves_bound,
)

from pebbletx.analysis import is_reversible  # noqa: E402
from pebbletx.builtins import (  # noqa: E402
    all_prefixes_reversed,
    copier,
    iterated_reverse,
    modified_squaring,
    squaring,
)
from pebbletx.compose import compose  # noqa: E402
from pebbletx.core import satisfiable  # noqa: E402
from pebbletx.decompose import (  # noqa: E402
    build_config_enumerator,
    build_equality_annotator,
    decompose,
)
from pebbletx.transforms import eliminate_equality, separate_drop_lift_moves  # noqa: E402


def row(label, actual, bound):
    print(f"{label:<46} {actual:>7}  <= {bound}")


def main() -> int:
    sq = squaring("ab")
    print("equality elimination (states <= n * 2^(k^2)):")
    for machine in (sq, all_prefixes_reversed("ab")):
        basic = eliminate_equality(machine)
        n, k = len(machine.polarity), machine.k
        row(f"  eliminate_equality({machine.name})", len(basic.polarity),
            eliminate_equality_bound(n, k))

    print("\nop/move separation (states <= (2k+1)|Q|):")
    flat = separate_drop_lift_moves(sq)
    row("  separate_drop_lift_moves(squaring)", len(flat.polarity),
        separate_moves_bound(len(sq.polarity), sq.k))

    print("\nsimple composition (states <= 2|Q||Q'| post-normalization):")
    comp = compose(modified_squaring("bcd"), iterated_reverse("bcd"))
    tn = comp.metadata["first_normalized"]
    sn = comp.metadata["second_normalized"]
    row("  modified_squaring . iterated_reverse", len(comp.polarity),
        compose_simple_bound(len(tn.polarity), len(sn.polarity)))

    print("\ngeneral composition (states <= O(|Q|^(m+2) |Q'| (n+1)^(m+3))):")
    second = squaring(sorted(sq.output_alphabet))
    general = compose(sq, second)
    tn = general.metadata["first_normalized"]
    sn = general.metadata["second_normalized"]
    q, qp, n, m = len(tn.polarity), len(sn.polarity), tn.k, sn.k
    row("  squaring . squaring-on-marked", len(general.polarity),
        compose_general_bound(q, qp, n, m))
    print(f"  (pebbles: {general.k} = (n+1)(m+1)-1 with n={n}, m={m})")

    print("\ndecomposition parts:")
    for k in (1, 2, 3):
        ck = build_config_enumerator(k, "ab")
        ckeq = build_equality_annotator(k, "ab")
        row(f"  config_enumerator k={k} (O(k))", len(ck.polarity),
            f"5k+1 = {config_enumerator_states(k)}")
        row(f"  equality_annotator k={k} (O(B(k+1)))", len(ckeq.polarity),
            f"2B(k+1)+2B(k)+3 = {equality_annotator_states(k)}")
    t0 = decompose(sq)
    row("  simulator(squaring) (O(kn))", len(t0.polarity),
        f"6k(3n)+2 = {decompose_bound(len(sq.polarity), sq.k)}")

    print("\nsquaring chains (cold satisfiable cache):")
    chain = sq
    for power in (2, 3):
        satisfiable.cache_clear()
        start = time.perf_counter()
        chain = compose(chain, squaring(sorted(chain.output_alphabet)))
        built = time.perf_counter() - start
        satisfiable.cache_clear()
        start = time.perf_counter()
        reversible = is_reversible(chain)
        checked = time.perf_counter() - start
        print(f"  sq^{power}: {len(chain.polarity)} states, {len(chain.transitions)} "
              f"transitions, k={chain.k}, build {built:.3f} s, "
              f"is_reversible {checked:.3f} s ({reversible})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
