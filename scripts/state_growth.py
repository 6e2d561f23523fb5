#!/usr/bin/env python3
"""Measure construction sizes against their stated bounds on the corpus."""

import pathlib
import sys
from math import comb

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pebbletx.builtins import (  # noqa: E402
    all_prefixes_reversed,
    copier,
    iterated_reverse,
    modified_squaring,
    squaring,
)
from pebbletx.compose import compose  # noqa: E402
from pebbletx.decompose import (  # noqa: E402
    build_config_enumerator,
    build_equality_annotator,
    decompose,
)
from pebbletx.transforms import eliminate_equality, separate_drop_lift_moves  # noqa: E402


def bell(n):
    """B(n), the number of partitions of an n-element set."""
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, i) * b[i] for i in range(m + 1)))
    return b[n]


def row(label, actual, bound):
    print(f"{label:<46} {actual:>7}  <= {bound}")


def main() -> int:
    sq = squaring("ab")
    print("equality elimination (states <= n * 2^(k^2)):")
    for machine in (sq, all_prefixes_reversed("ab")):
        basic = eliminate_equality(machine)
        n, k = len(machine.polarity), machine.k
        row(f"  eliminate_equality({machine.name})", len(basic.polarity), n * 2 ** (k * k))

    print("\nop/move separation (states <= 3|Q|):")
    flat = separate_drop_lift_moves(sq)
    row("  separate_drop_lift_moves(squaring)", len(flat.polarity), 3 * len(sq.polarity))

    print("\nsimple composition (states <= 2|Q||Q'| post-normalization):")
    comp = compose(modified_squaring("bcd"), iterated_reverse("bcd"))
    tn = comp.metadata["first_normalized"]
    sn = comp.metadata["second_normalized"]
    row("  modified_squaring . iterated_reverse", len(comp.polarity),
        2 * len(tn.polarity) * len(sn.polarity))

    print("\ngeneral composition (states <= O(|Q|^(m+2) |Q'| (n+1)^(m+3))):")
    second = squaring(sorted(sq.output_alphabet))
    general = compose(sq, second)
    tn = general.metadata["first_normalized"]
    sn = general.metadata["second_normalized"]
    q, qp, n, m = len(tn.polarity), len(sn.polarity), tn.k, sn.k
    row("  squaring . squaring-on-marked", len(general.polarity),
        q ** (m + 2) * qp * (n + 1) ** (m + 3))
    print(f"  (pebbles: {general.k} = (n+1)(m+1)-1 with n={n}, m={m})")

    print("\ndecomposition parts:")
    for k in (1, 2, 3):
        ck = build_config_enumerator(k, "ab")
        ckeq = build_equality_annotator(k, "ab")
        row(f"  config_enumerator k={k} (O(k))", len(ck.polarity), f"5k+1 = {5 * k + 1}")
        row(f"  equality_annotator k={k} (O(B(k+1)))", len(ckeq.polarity),
            f"2B(k+1)+2B(k)+3 = {2 * bell(k + 1) + 2 * bell(k) + 3}")
    t0 = decompose(sq)
    row("  simulator(squaring) (O(kn))", len(t0.polarity),
        f"6k(3n)+2 = {6 * sq.k * 3 * len(sq.polarity) + 2}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
