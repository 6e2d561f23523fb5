"""The three workloads: ``interpret``, ``construct`` and ``cli``.

Each workload is a closed loop: one caller runs the operations of a pass in
turn.  ``setup`` builds what every pass needs and is timed on its own;
``operations`` lists one pass.  Every operation carries a check against an
independent reference, run once on the first pass outside the timed region,
and a signature that every later pass must reproduce.

pebbletx is always called through module attributes (``runner.run``, not a
name imported from it), so that the tracing wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from pebbletx import analysis, builtins, cli, machinefile, runner, transforms, uniformize
from pebbletx import compose as composition

import reference as ref
from reference import render, seeded_words, words_upto


@dataclass
class Op:
    label: str
    fn: Callable[[], object]
    check: Callable[[object], Optional[str]]
    signature: Callable[[object], object]
    is_run: bool = False  # a deterministic run whose steps count in steps_per_s


class RunMeter:
    """Steps and seconds of deterministic runs, for ``steps_per_s``."""

    def __init__(self) -> None:
        self.steps = 0
        self.seconds = 0.0

    def add(self, steps: int, seconds: float) -> None:
        self.steps += steps
        self.seconds += seconds

    def run(self, machine, w):
        t0 = time.perf_counter()
        result = runner.run(machine, w)
        self.add(result.steps, time.perf_counter() - t0)
        return result


class Outputs:
    """Totals over the machines a workload builds, for the out_* metrics."""

    def __init__(self) -> None:
        self.states = self.transitions = self.bytes = 0

    def add(self, machine, nbytes: Optional[int] = None) -> None:
        self.states += len(machine.polarity)
        self.transitions += len(machine.transitions)
        if nbytes is None:
            nbytes = len(machinefile.serialize(machine).encode("utf-8"))
        self.bytes += nbytes


def run_signature(result):
    return (result.verdict, result.output, result.steps)


def check_function(meter: RunMeter, machine, words, fn, label: str,
                   to_input=None) -> Optional[str]:
    """The machine maps ``to_input(w)`` (default ``w``) to ``fn(w)``, None
    meaning no accepting run, for every word ``w``."""
    for w in words:
        result = meter.run(machine, w if to_input is None else to_input(w))
        got = result.output if result.accepted else None
        if got != fn(w):
            via = "" if to_input is None else "the reference image of "
            return f"{label}: output differs from the reference on {via}input {render(w)}"
    return None


def check_relation(machine, words, rel, label: str, budget: int = 200) -> Optional[str]:
    """The machine's accepted outputs are exactly ``rel(w)`` on every word."""
    for w in words:
        if runner.enumerate_runs(machine, w, budget=budget).outputs != rel(w):
            return f"{label}: outputs differ from the reference on input {render(w)}"
    return None


# ---------------------------------------------------------------------------


class Interpret:
    """Long deterministic runs of machines built in set-up, plus exhaustive
    ``enumerate_runs`` on fixed nondeterministic fixtures."""

    name = "interpret"
    cold_cache = False  # one long-lived process: the satisfiability cache stays warm

    def __init__(self, root: Path, seed: int) -> None:
        self.corpus = root / "corpus"
        self.meter = RunMeter()
        rng = random.Random(seed)
        ab = ref.word("ab")
        sq_ref = ref.squaring_ref
        w_sq = seeded_words(rng, ab, 128, 1)[0]
        w_sqsq = [seeded_words(rng, ab, n, 1)[0] for n in (8, 10)]
        w_chain = seeded_words(rng, ab, 64, 1)[0]
        w_uni = seeded_words(rng, ab, 4, 1)[0]
        self.w_enum = [seeded_words(rng, ab, n, 1)[0] for n in (12, 14, 16)]
        markings = ref.config_markings_ref(1, w_chain)
        # (machine, input, reference output, input shown on failure)
        self.runs = [("squaring", w_sq, sq_ref(w_sq), w_sq)]
        self.runs += [("sq.sq", w, sq_ref(sq_ref(w)), w) for w in w_sqsq]
        self.runs += [
            ("C_1", w_chain, markings, w_chain),
            ("C_1^=", markings, ref.equality_annotation_ref(1, w_chain), w_chain),
            ("uniformize(squaring)", w_uni, sq_ref(w_uni), w_uni),
            ("uniformize(drop_two)", w_uni, ref.drop_two_then_copy_rest_ref(w_uni), w_uni),
        ]

    def setup(self) -> None:
        sq = machinefile.load(self.corpus / "squaring.ptx")
        sq2 = builtins.squaring(sorted(sq.output_alphabet))
        nondet = {
            "pick_any_letter": (ref.pick_any_letter(), ref.pick_any_letter_rel),
            "equality_pair_probe": (ref.equality_pair_probe(), ref.equality_pair_probe_rel),
        }
        self.m = {
            "squaring": sq,
            "sq.sq": composition.compose(sq, sq2),
            "C_1": machinefile.load(self.corpus / "config_enumerator_1.ptx"),
            "C_1^=": machinefile.load(self.corpus / "equality_annotator_1.ptx"),
            "uniformize(squaring)": uniformize.uniformize_pipeline(sq).transducer,
            "uniformize(drop_two)": uniformize.uniformize_pipeline(
                ref.drop_two_then_copy_rest()
            ).transducer,
        }
        self.enum = {}
        for name, (machine, rel) in nondet.items():
            self.enum[name] = (machine, rel)
            self.enum[f"eliminate_equality({name})"] = (
                transforms.eliminate_equality(machine), rel,
            )

    def _run(self, key: str, w, want, shown) -> Op:
        def check(result):
            if not result.accepted or result.output != want:
                return f"run {key}: output differs from the reference on input {render(shown)}"
            return None

        return Op(f"run {key} |u|={len(w)}", lambda: runner.run(self.m[key], w),
                  check, run_signature, is_run=True)

    def _enumerate(self, key: str, w) -> Op:
        machine, rel = self.enum[key]
        want = rel(w)

        def check(result):
            if result.truncated or result.outputs != want:
                return f"enumerate_runs {key}: outputs differ on input {render(w)}"
            return None

        return Op(f"enumerate_runs {key} |u|={len(w)}",
                  lambda: runner.enumerate_runs(machine, w), check,
                  lambda r: (r.outputs, r.truncated))

    def operations(self, pass_no: int) -> list[Op]:
        ops = [self._run(*run) for run in self.runs]
        ops += [self._enumerate(key, w) for key in self.enum for w in self.w_enum]
        return ops

    def outputs(self) -> tuple[Outputs, list]:
        """The machines built in set-up; the passes build none."""
        out = Outputs()
        for key in ("sq.sq", "uniformize(squaring)", "uniformize(drop_two)"):
            out.add(self.m[key])
        for key, (machine, _) in self.enum.items():
            if key.startswith("eliminate_equality"):
                out.add(machine)
        return out, []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


@dataclass
class Construction:
    label: str
    build: Callable[[], object]
    verdict: Callable[[object], object]
    bound_key: str  # "states" or "pebbles": the size the paper bounds
    bound: Callable[[object], int]
    semantic: Callable[[object], Optional[str]]


class Construct:
    """Every construction, built from machines already in memory, each with
    a cold satisfiability cache and followed by a determinism or
    reversibility verdict on the result.  No runs and no file I/O are timed."""

    name = "construct"
    cold_cache = True
    N_RANDOM = 30

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.meter = RunMeter()
        self.rows: list[tuple] = []
        rng = random.Random(f"words-{seed}")
        self.words = {
            alpha: list(words_upto(ref.word(alpha), 4))
            + seeded_words(rng, ref.word(alpha), 6, 2)
            for alpha in ("ab", "bcd", "ab!")
        }
        self.sqsq_words = list(words_upto(ref.word("ab"), 3)) + seeded_words(
            rng, ref.word("ab"), 5, 4)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        sq = builtins.squaring("ab")
        self.inputs = {
            "squaring": sq,
            "squaring(marked)": builtins.squaring(sorted(sq.output_alphabet)),
            "copier(marked)": builtins.copier(sorted(sq.output_alphabet)),
            "modified_squaring": builtins.modified_squaring("bcd"),
            "iterated_reverse(bcd)": builtins.iterated_reverse("bcd"),
            "iterated_reverse(ab)": builtins.iterated_reverse("ab"),
            "all_prefixes_reversed": builtins.all_prefixes_reversed("ab"),
            "squaring_variant": builtins.squaring_variant("ab"),
            "copier": builtins.copier("ab"),
            "drop_two_then_copy_rest": ref.drop_two_then_copy_rest(),
            "pick_any_letter": ref.pick_any_letter(),
            "equality_pair_probe": ref.equality_pair_probe(),
        }
        self.randoms = [ref.random_machine(rng) for _ in range(self.N_RANDOM)]

    def _constructions(self) -> list[Construction]:
        m = self.inputs
        sq_ref = ref.squaring_ref
        words = self.words
        reversible = analysis.is_reversible

        def is_det(machine):
            return analysis.is_deterministic(machine)[0]

        def function(ws, fn, label, to_input=None):
            return lambda machine: check_function(self.meter, machine, ws, fn, label, to_input)

        def simple_bound(machine):
            md = machine.metadata
            return 2 * len(md["first_normalized"].polarity) * len(md["second_normalized"].polarity)

        def compose_op(first, second, ws, fn):
            label = f"compose {first}.{second}"
            a, b = m[first], m[second]
            general = b.k > 0
            return Construction(
                label, lambda: composition.compose(a, b), reversible,
                "pebbles" if general else "states",
                (lambda _: (a.k + 1) * (b.k + 1) - 1) if general else simple_bound,
                function(ws, fn, label),
            )

        cs = [
            compose_op("squaring", "squaring(marked)", self.sqsq_words,
                       lambda w: sq_ref(sq_ref(w))),
            compose_op("modified_squaring", "iterated_reverse(bcd)", words["bcd"],
                       lambda w: ref.iterated_reverse_ref(ref.modified_squaring_ref(w))),
            compose_op("all_prefixes_reversed", "iterated_reverse(ab)", words["ab"],
                       lambda w: ref.iterated_reverse_ref(ref.prefixes_reversed_ref(w))),
            compose_op("squaring", "copier(marked)", words["ab"], sq_ref),
        ]
        for key, alpha, fn in (
            ("squaring", "ab", sq_ref),
            ("squaring_variant", "ab", sq_ref),
            ("all_prefixes_reversed", "ab", ref.prefixes_reversed_ref),
            ("iterated_reverse(ab)", "ab!", ref.iterated_reverse_ref),
            ("modified_squaring", "bcd", ref.modified_squaring_ref),
            ("copier", "ab", tuple),
        ):
            label = f"reverse_transducer {key}"
            machine = m[key]
            cs.append(Construction(
                label, lambda machine=machine: transforms.reverse_transducer(machine),
                reversible, "states", lambda _, machine=machine: len(machine.polarity),
                function(words[alpha], lambda w, fn=fn: tuple(reversed(fn(w))), label),
            ))
        fixtures = [
            ("equality_pair_probe", ref.equality_pair_probe_rel),
            ("pick_any_letter", ref.pick_any_letter_rel),
            ("drop_two_then_copy_rest", ref.drop_two_then_copy_rest_rel),
        ]
        elim = [(key, m[key], rel) for key, rel in fixtures]
        elim += [(machine.name, machine, None) for machine in self.randoms]
        short = list(words_upto(ref.word("ab"), 3))
        for key, machine, rel in elim:
            label = f"eliminate_equality {key}"
            budget = 200
            if rel is None:
                # The reference is the input machine's own relation.  The
                # elimination maps runs step for step, so the two agree at any
                # budget; a small one bounds the check's cost for every seed.
                budget = 10
                rel = (lambda w, machine=machine:
                       runner.enumerate_runs(machine, w, budget=10).outputs)
            cs.append(Construction(
                label, lambda machine=machine: transforms.eliminate_equality(machine),
                is_det, "states",
                lambda _, machine=machine: len(machine.polarity) * 2 ** (machine.k ** 2),
                lambda basic, rel=rel, label=label, budget=budget: check_relation(
                    basic, short, rel, label, budget),
            ))
        for k in (1, 2, 3):
            ws = list(words_upto(ref.word("ab"), 3 if k < 3 else 2))
            label = f"build_config_enumerator k={k}"
            cs.append(Construction(
                label, lambda k=k: uniformize.build_config_enumerator(k, "ab"),
                reversible, "states", lambda _, k=k: 5 * k + 1,
                function(ws, lambda w, k=k: ref.config_markings_ref(k, w), label),
            ))
            label = f"build_equality_annotator k={k}"
            cs.append(Construction(
                label, lambda k=k: uniformize.build_equality_annotator(k, "ab"),
                reversible, "states", lambda _, k=k: 4 * 2 ** (k * k) + 3,
                function(ws, lambda w, k=k: ref.equality_annotation_ref(k, w), label,
                         lambda w, k=k: ref.config_markings_ref(k, w)),
            ))
        for key, fn in (("squaring", sq_ref),
                        ("drop_two_then_copy_rest", ref.drop_two_then_copy_rest_ref)):
            machine = m[key]
            k = machine.k
            label = f"decompose {key} k={k}"
            cs.append(Construction(
                label, lambda machine=machine: uniformize.decompose(machine), is_det,
                "states", lambda _, machine=machine: 6 * machine.k * 3 * len(machine.polarity) + 2,
                function(words["ab"], fn, label,
                         lambda w, k=k: ref.equality_annotation_ref(k, w)),
            ))
            label = f"uniformize_pipeline {key} k={k}"
            cs.append(Construction(
                label,
                lambda machine=machine: uniformize.uniformize_pipeline(machine).transducer,
                is_det, "pebbles", lambda _, k=k: k,
                function(words["ab"], fn, label),
            ))
        return cs

    def operations(self, pass_no: int) -> list[Op]:
        ops = []
        for c in self._constructions():
            def build(c=c):
                machine = c.build()
                return machine, c.verdict(machine)

            ops.append(Op(c.label, build, lambda value, c=c: self._check(c, *value),
                          lambda value: (len(value[0].polarity), len(value[0].transitions),
                                         value[0].k, value[1])))
        return ops

    def _check(self, c: Construction, machine, verdict) -> Optional[str]:
        sizes = {"states": len(machine.polarity), "pebbles": machine.k}
        bound = c.bound(machine)
        ok = sizes[c.bound_key] <= bound
        self.rows.append((c.label, len(machine.polarity), len(machine.transitions),
                          machine.k, c.bound_key, bound, ok))
        if not ok:
            return f"{c.label}: {c.bound_key} {sizes[c.bound_key]} exceed the bound {bound}"
        return c.semantic(machine)

    def outputs(self) -> tuple[Outputs, list]:
        """Sizes of one pass's machines.  They are built again here, one at a
        time, so that serializing them stays out of the timed passes and out
        of peak_rss_mb."""
        out = Outputs()
        for c in self._constructions():
            try:
                out.add(c.build())
            except Exception:  # already counted as a failure in the passes
                pass
        return out, []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Cli:
    """``pebbletx.cli.main(argv)`` in-process on corpus files and files
    written in set-up, each command with a cold satisfiability cache, as a
    fresh process would have."""

    name = "cli"
    cold_cache = True  # every command is a fresh process for a real user

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.corpus = root / "corpus"
        self.meter = RunMeter()
        self.pending: list[tuple] = []  # (label, file, semantic check) of the first pass
        rng = random.Random(seed)
        self.w_sq = seeded_words(rng, ref.word("ab"), 24, 1)[0]
        self.w_pre = seeded_words(rng, ref.word("ab"), 24, 1)[0]
        self.words_ab = list(words_upto(ref.word("ab"), 4)) + seeded_words(
            rng, ref.word("ab"), 6, 2)
        self.words_bcd = list(words_upto(ref.word("bcd"), 4)) + seeded_words(
            rng, ref.word("bcd"), 6, 2)
        out_root = root / ".perfbench_out"
        out_root.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=out_root))
        self.setups = 0

    # Every set-up and every pass writes into a directory of its own: on ext4,
    # truncating a file written moments earlier flushes it to disk (about
    # 80 ms per file on a 2-core VM), which would time the file system
    # rather than pebbletx.

    def setup(self) -> None:
        inputs = self.dir / f"setup{self.setups}"
        self.setups += 1
        inputs.mkdir()
        sq = builtins.squaring("ab")
        self.files = {
            "squaring(marked)": inputs / "squaring_marked.ptx",
            "drop_two": inputs / "drop_two.ptx",
            "probe": inputs / "equality_pair_probe.ptx",
        }
        machinefile.save(builtins.squaring(sorted(sq.output_alphabet)),
                         self.files["squaring(marked)"])
        machinefile.save(ref.drop_two_then_copy_rest(), self.files["drop_two"])
        machinefile.save(ref.equality_pair_probe(), self.files["probe"])

    @staticmethod
    def _main(argv: list[str], out_dir: Path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
        return code, out.getvalue().replace(str(out_dir), "$OUT"), err.getvalue()

    def operations(self, pass_no: int) -> list[Op]:
        c = self.corpus
        out = self.dir / f"pass{pass_no}"
        out.mkdir()
        if pass_no >= 2:  # the first pass's files are kept for the checks after timing
            shutil.rmtree(self.dir / f"pass{pass_no - 1}")
        sqm, d2, probe = (str(self.files[k]) for k in ("squaring(marked)", "drop_two", "probe"))
        sq, modsq, itrev, prefixes = (str(c / f) for f in (
            "squaring.ptx", "modsq.ptx", "itrev.ptx", "prefixes.ptx"))
        sq_ref = ref.squaring_ref
        a_b = ref.word("ab")
        def silent(lines):
            return True

        def reversible(lines):
            return "reversible: yes" in lines

        commands = [
            (["compose", sq, sqm, "-o", f"{out}/sqsq.ptx"], silent,
             {"sqsq.ptx": self._function(self.words_ab, lambda w: sq_ref(sq_ref(w)))}),
            (["compose", modsq, itrev, "-o", f"{out}/modsq_itrev.ptx"], silent,
             {"modsq_itrev.ptx": self._function(self.words_bcd, lambda w: ref.iterated_reverse_ref(
                 ref.modified_squaring_ref(w)))}),
            (["check", sq], reversible, {}),
            (["check", sqm], reversible, {}),
            (["reverse", prefixes, "-o", f"{out}/prefixes_rev.ptx"], silent,
             {"prefixes_rev.ptx": self._function(
                 self.words_ab, lambda w: tuple(reversed(ref.prefixes_reversed_ref(w))))}),
            (["eliminate-eq", probe, "-o", f"{out}/probe_basic.ptx"], silent,
             {"probe_basic.ptx": lambda m, label: check_relation(
                 m, list(words_upto(a_b, 3)), ref.equality_pair_probe_rel, label)}),
        ]
        for name, path, k, fn in (("sq", sq, 1, sq_ref),
                                  ("drop_two", d2, 2, ref.drop_two_then_copy_rest_ref)):
            dec = f"{out}/decompose_{name}"
            commands.append((["decompose", path, "-o", dec], bool, {
                f"decompose_{name}/config_enumerator.ptx": self._function(
                    list(words_upto(a_b, 3)), lambda w, k=k: ref.config_markings_ref(k, w)),
                f"decompose_{name}/equality_annotator.ptx": self._function(
                    list(words_upto(a_b, 3)), lambda w, k=k: ref.equality_annotation_ref(k, w),
                    lambda w, k=k: ref.config_markings_ref(k, w)),
                f"decompose_{name}/simulator.ptx": self._function(
                    self.words_ab, fn, lambda w, k=k: ref.equality_annotation_ref(k, w)),
            }))
        for name, path, k, fn in (("sq", sq, 1, sq_ref),
                                  ("drop_two", d2, 2, ref.drop_two_then_copy_rest_ref)):
            commands.append((
                ["uniformize", path, "-o", f"{out}/uniformize_{name}.ptx"],
                lambda lines, k=k: {f"pebbles: {k}", "deterministic: yes"} <= set(lines),
                {f"uniformize_{name}.ptx": self._function(self.words_ab, fn)},
            ))
        def printed(out_word):
            return lambda lines: lines[:1] == [" ".join(s.render() for s in out_word)]

        def agree(n_words):
            return lambda lines: f"checked {n_words} words up to length 5: all agree" in lines

        commands += [
            (["run", sq, "--input", render(self.w_sq)], printed(sq_ref(self.w_sq)), {}),
            (["run", prefixes, "--input", render(self.w_pre)],
             printed(ref.prefixes_reversed_ref(self.w_pre)), {}),
            (["oracle", "compose", modsq, itrev, "--maxlen", "5"],
             agree(sum(3 ** n for n in range(6))), {}),
            (["oracle", "compose", sq, sqm, "--maxlen", "5"],
             agree(sum(2 ** n for n in range(6))), {}),
        ]
        ops = []
        for argv, want, files in commands:
            op = self._op(argv, out, want, [out / f for f in files])
            ops.append(op)
            if pass_no == 0:
                self.pending += [(op.label, out / f, chk) for f, chk in files.items()]
        return ops

    def _op(self, argv, out_dir: Path, want, files: list[Path]) -> Op:
        """``want`` judges the stdout lines of a command that exited 0."""
        label = "pebbletx " + " ".join(
            a if not a.startswith(str(self.root)) else Path(a).name for a in argv)

        def check(value):
            code, stdout, _ = value
            if code != 0:
                return f"{label}: exit code {code}"
            return None if want(stdout.splitlines()) else f"{label}: unexpected stdout"

        def signature(value):
            code, stdout, _ = value
            return code, stdout, tuple(
                hashlib.sha1(p.read_bytes()).hexdigest() if p.exists() else None for p in files)

        return Op(label, lambda: self._main(argv, out_dir), check, signature)

    def _function(self, words, fn, to_input=None):
        return lambda machine, label: check_function(
            self.meter, machine, words, fn, label, to_input)

    def outputs(self) -> tuple[Outputs, list]:
        """Parse the files the first pass wrote and check them against the
        references; every later pass wrote the same bytes."""
        out = Outputs()
        failures = []
        for label, path, semantic in self.pending:
            try:
                text = path.read_text(encoding="utf-8")
                machine = machinefile.parse(text)
            except Exception as e:
                failures.append((label, f"{label}: cannot read {path.name}: {e}"))
                continue
            out.add(machine, len(text.encode("utf-8")))
            msg = semantic(machine, f"{label} [{path.name}]")
            if msg:
                failures.append((label, msg))
        return out, failures

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Interpret, Construct, Cli)}
