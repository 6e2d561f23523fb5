#!/usr/bin/env python3
"""Print one ``name sha256`` line per construction output.

Each digest is the SHA-256 of ``machinefile.serialize`` of the built
machine, which is canonical (states and transitions sorted), so two trees
that build the same machines print the same lines whatever order they
build them in.  Run it on two checkouts and diff the outputs to check that
a refactor left every construction unchanged:

    python3 scripts/construction_digests.py > after.txt

Two runs under different ``PYTHONHASHSEED`` values must print the same
lines; a construction whose output depends on hash order shows as a diff.

``construction_digests.txt`` next to this script holds the expected output,
and ``tests/test_scripts.py`` compares ``main()`` against it, so a change to
any construction's output fails the tests.  A change that alters outputs by
design (say, trimming states that cannot reach ``final``) regenerates it:

    python3 scripts/construction_digests.py > scripts/construction_digests.txt

and lists in its description the lines that moved and why.
"""

import hashlib
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from machines import (  # noqa: E402
    drop_two_then_copy_rest,
    equality_pair_probe,
    pick_any_letter,
    random_machine,
    two_branch_toy,
)
from pebbletx.analysis import is_deterministic, is_reversible  # noqa: E402
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
from pebbletx.machinefile import serialize  # noqa: E402
from pebbletx.transforms import eliminate_equality  # noqa: E402
from pebbletx.twoway import two_way_to_zero_pebble, zero_pebble_to_two_way  # noqa: E402
from pebbletx.uniformize import uniformize_pipeline  # noqa: E402

RANDOM_DRAWS = 200


def digest(machine) -> str:
    return hashlib.sha256(serialize(machine).encode("utf-8")).hexdigest()


def constructions():
    """(name, machine) for every construction output that is checked."""
    sq = squaring("ab")
    over_sq = sorted(sq.output_alphabet)
    sq_sq = compose(sq, squaring(over_sq))
    yield "compose(sq,sq)", sq_sq
    yield "compose(modsq,itrev)", compose(modified_squaring("bcd"), iterated_reverse("bcd"))
    yield "compose(sq,copier)", compose(sq, copier(over_sq))
    yield "compose(prefixes,itrev)", compose(all_prefixes_reversed("ab"), iterated_reverse("ab"))
    drop_two = drop_two_then_copy_rest()
    for machine in (sq, drop_two, sq_sq):
        yield f"decompose({machine.name})", decompose(machine)
    for machine in (sq, drop_two):
        yield f"uniformize_pipeline({machine.name})", uniformize_pipeline(machine).transducer
    for k in (1, 2, 3):
        yield f"build_config_enumerator({k})", build_config_enumerator(k, "ab")
        yield f"build_equality_annotator({k})", build_equality_annotator(k, "ab")
    for machine in (pick_any_letter(), equality_pair_probe(), two_branch_toy(), sq_sq):
        yield f"eliminate_equality({machine.name})", eliminate_equality(machine)


def random_constructions(rng: random.Random):
    """(name, machine) for the constructions each random draw admits:
    equality elimination always, decomposition of a deterministic draw
    with pebbles, and composition after the copier (a deterministic draw)
    or before it (a reversible one)."""
    ident = copier("ab")
    for n in range(RANDOM_DRAWS):
        machine = random_machine(rng, k=rng.randrange(4))
        yield f"{n} eliminate_equality", eliminate_equality(machine)
        if is_deterministic(machine)[0]:
            yield f"{n} compose(copier,draw)", compose(ident, machine)
            if machine.k >= 1:
                yield f"{n} decompose", decompose(machine)
        if is_reversible(machine):
            yield f"{n} compose(draw,copier)", compose(machine, ident)


def two_way_round_trip(machine):
    return two_way_to_zero_pebble(zero_pebble_to_two_way(machine))


def combined_digest(named_machines) -> str:
    combined = hashlib.sha256()
    for name, machine in named_machines:
        combined.update(f"{name} {digest(machine)}\n".encode("utf-8"))
    return combined.hexdigest()


def main() -> int:
    for name, machine in constructions():
        print(name, digest(machine))
    print(f"random_machine x{RANDOM_DRAWS}", combined_digest(random_constructions(random.Random(3))))
    for machine in (iterated_reverse("ab"), copier("ab")):
        print(f"two_way_round_trip({machine.name})", digest(two_way_round_trip(machine)))
    rng = random.Random(5)
    draws = ((str(n), two_way_round_trip(random_machine(rng, k=0))) for n in range(RANDOM_DRAWS))
    print(f"two_way_round_trip random_machine(k=0) x{RANDOM_DRAWS}", combined_digest(draws))
    return 0


if __name__ == "__main__":
    sys.exit(main())
