"""Command-line front end.

Every command is a thin wrapper over one library operation; exit codes are
0 success / 1 negative verdict / 2 I-O or parse failure / 3 precondition
failure.  ``run`` uses 0 accept / 1 reject / 2 diverge.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from . import analysis, builtins as builtin_machines, machinefile, transforms, uniformize
from .compose import compose
from .core import PebbleError
from .decompose import build_config_enumerator, build_equality_annotator, decompose
from .machinefile import MachineFileError
from .runner import run, semantics


def _render(out) -> str:
    return " ".join(s.render() for s in out)


def _load(path: str):
    try:
        return machinefile.load(path)
    except OSError as e:
        raise _CliFailure(2, f"cannot read {path}: {e}")
    except MachineFileError as e:
        raise _CliFailure(2, f"{path}: {e}")


def _save(machine, path: str) -> None:
    try:
        machinefile.save(machine, path)
    except OSError as e:
        raise _CliFailure(2, f"cannot write {path}: {e}")


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _cmd_run(args) -> int:
    machine = _load(args.machine)
    result = run(
        machine,
        args.input,
        budget=args.budget,
        trace=args.trace,
        detect_loop=args.detect_loop,
    )
    if args.trace and result.trace:
        for t, c in result.trace:
            print(f"  {t.render()}  ->  ({c.state}, {list(c.peb)}, {c.head})", file=sys.stderr)
    if result.verdict == "accept":
        print(_render(result.output))
        return 0
    print(result.verdict.upper())
    if result.repeated_configuration is not None:
        print(f"repeated configuration: {result.repeated_configuration}", file=sys.stderr)
    return 1 if result.verdict == "reject" else 2


def _cmd_check(args) -> int:
    machine = _load(args.machine)
    violations = analysis.validate(machine)
    for v in violations:
        print(f"violation: {v}")
    det, w1 = analysis.is_deterministic(machine)
    rev, w2 = analysis.is_reverse_deterministic(machine)
    print(f"valid: {'yes' if not violations else 'no'}")
    for label, ok, w in (("deterministic", det, w1), ("reverse-deterministic", rev, w2)):
        print(f"{label}: {'yes' if ok else 'no'}")
        if w:
            print(f"  conflict: {w.t1.render()}")
            print(f"       and: {w.t2.render()}")
            print(f"  joint test: {w.joint_test.render()}")
    reversible = not violations and det and rev
    print(f"reversible: {'yes' if reversible else 'no'}")
    return 0 if reversible else 1


def _cmd_reverse(args) -> int:
    machine = _load(args.machine)
    _save(transforms.reverse_transducer(machine), args.output)
    return 0


def _cmd_eliminate_eq(args) -> int:
    machine = _load(args.machine)
    _save(transforms.eliminate_equality(machine), args.output)
    return 0


def _cmd_compose(args) -> int:
    first = _load(args.first)
    second = _load(args.second)
    _save(compose(first, second), args.output)
    return 0


_PASSES = {
    "split-outputs": transforms.split_outputs,
    "full-read": transforms.ensure_full_read,
    "separate-moves": transforms.separate_drop_lift_moves,
}


def _cmd_normalize(args) -> int:
    machine = _load(args.machine)
    _save(_PASSES[args.pass_name](machine), args.output)
    return 0


def _cmd_decompose(args) -> int:
    machine = _load(args.machine)
    simulator = decompose(machine)
    enumerator = build_config_enumerator(machine.k, machine.input_alphabet)
    annotator = build_equality_annotator(machine.k, machine.input_alphabet)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    _save(enumerator, out / "config_enumerator.ptx")
    _save(annotator, out / "equality_annotator.ptx")
    _save(simulator, out / "simulator.ptx")
    print(f"wrote {out}/config_enumerator.ptx, equality_annotator.ptx, simulator.ptx")
    return 0


def _cmd_uniformize(args) -> int:
    machine = _load(args.machine)
    result = uniformize.uniformize_pipeline(machine, hook=args.hook)
    print(f"pebbles: {result.transducer.k}")
    print("deterministic: yes")
    print(f"reversible: {'yes' if result.reversible else 'no'}")
    print(f"notes: {result.notes}")
    _save(result.transducer, args.output)
    return 0


def _cmd_builtin(args) -> int:
    ctor = builtin_machines.BUILTIN_CONSTRUCTORS.get(args.name)
    if ctor is None:
        known = ", ".join(sorted(builtin_machines.BUILTIN_CONSTRUCTORS))
        raise _CliFailure(3, f"unknown builtin {args.name!r} (known: {known})")
    _save(ctor(args.alphabet), args.output)
    return 0


def _cmd_oracle_compose(args) -> int:
    first = _load(args.first)
    second = _load(args.second)
    composed = compose(first, second)
    alphabet = sorted(first.input_alphabet)
    failures = 0
    for length in range(args.maxlen + 1):
        for tup in itertools.product(alphabet, repeat=length):
            word = tuple(tup)
            mid = semantics(first, word)
            want = semantics(second, mid) if mid is not None else None
            got = semantics(composed, word)
            if got != want:
                failures += 1
                text = "".join(s.render() for s in word) or "(empty)"
                print(f"MISMATCH on {text}: composed={got} chained={want}")
    total = sum(len(alphabet) ** L for L in range(args.maxlen + 1))
    print(f"checked {total} words up to length {args.maxlen}: "
          f"{'all agree' if not failures else f'{failures} mismatches'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebbletx", description="Reversible pebble transducer toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a machine on a word")
    p.add_argument("machine")
    p.add_argument("--input", default="")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--detect-loop", action="store_true", dest="detect_loop")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("check", help="validate + determinism verdicts")
    p.add_argument("machine")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("reverse", help="output-reversing machine")
    p.add_argument("machine")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_reverse)

    p = sub.add_parser("eliminate-eq", help="compile equality tests away")
    p.add_argument("machine")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_eliminate_eq)

    p = sub.add_parser("compose", help="compose two machines")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("normalize", help="apply one normalization pass")
    p.add_argument("machine")
    p.add_argument("--pass", dest="pass_name", required=True, choices=sorted(_PASSES))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("decompose", help="emit enumerator/annotator/simulator")
    p.add_argument("machine")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("uniformize", help="uniformization pipeline")
    p.add_argument("machine")
    p.add_argument("--hook", default="identity", choices=["identity"])
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_uniformize)

    p = sub.add_parser("builtin", help="write a builtin machine file")
    p.add_argument("name")
    p.add_argument("--alphabet", default="ab")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_builtin)

    p = sub.add_parser("oracle", help="differential checks")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser("compose", help="composed machine vs chained runs")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--maxlen", type=int, default=3)
    q.set_defaults(fn=_cmd_oracle_compose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except MachineFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PebbleError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
