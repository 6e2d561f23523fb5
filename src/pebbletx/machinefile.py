"""The ``.ptx`` machine file format (JSON-based, canonical on output).

The reserved endmarker never appears in files: a transition reading it
stores ``null`` as its letter.  Plain letters are one-character strings,
annotated letters objects ``{"base": ..., "bits": ..., "matrix": ...}``.
Unknown fields are rejected so files round-trip losslessly.

The canonical form ``serialize`` writes: states sorted by id; transitions
sorted by their compact sorted-keys JSON (``json.dumps(t, sort_keys=True)``,
non-ASCII escaped); the whole file indented by 2 spaces with UTF-8 left
unescaped (``json.dumps(doc, indent=2, ensure_ascii=False)``) plus a final
newline.  ``serialize`` writes it from per-value fragments, each distinct
field value encoded once, and ``tests/machines.serialize_reference``, which
encodes the whole document with ``json.dumps``, pins it byte for byte.
"""

from __future__ import annotations

import json
from operator import itemgetter

from .core import (
    ENDMARKER,
    FALSE,
    NOP,
    PebbleError,
    PebbleOp,
    Symbol,
    Test,
    Transducer,
    Transition,
    head_eq,
    peb_eq,
)

FORMAT_VERSION = 1


class MachineFileError(PebbleError):
    """Syntax or semantic error in a machine file, tagged with a location."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise MachineFileError(where, f"expected a list, got {value!r}")
    return value


def _bits(value, where: str) -> tuple[int, ...]:
    bits = tuple(_list(value, where))
    if not all(_is_int(b) and b in (0, 1) for b in bits):
        raise MachineFileError(where, f"bits are 0 or 1, got {value!r}")
    return bits


# ---------------------------------------------------------------------------
# Symbols


def _symbol_to_json(sym: Symbol):
    if sym.bits is None and sym.matrix is None:
        return None if sym.base == "#" else sym.base
    obj = {"base": None if sym.base == "#" else sym.base}
    if sym.bits is not None:
        obj["bits"] = list(sym.bits)
    if sym.matrix is not None:
        obj["matrix"] = [list(row) for row in sym.matrix]
    return obj


def _symbol_from_json(value, where: str) -> Symbol:
    if value is None:
        return ENDMARKER
    if isinstance(value, str):
        if len(value) != 1:
            raise MachineFileError(where, f"letters are single characters, got {value!r}")
        if value == "#":
            raise MachineFileError(where, "'#' is implicit and may not appear in files")
        return Symbol(value)
    if not isinstance(value, dict):
        raise MachineFileError(where, f"bad symbol {value!r}")
    unknown = set(value) - {"base", "bits", "matrix"}
    if unknown:
        raise MachineFileError(where, f"unknown symbol fields {sorted(unknown)}")
    base = value.get("base")
    base = "#" if base is None else base
    if not isinstance(base, str) or len(base) != 1:
        raise MachineFileError(where, f"bad symbol base {base!r}")
    bits = value.get("bits")
    matrix = value.get("matrix")
    return Symbol(
        base,
        None if bits is None else _bits(bits, f"{where}.bits"),
        None if matrix is None else tuple(
            _bits(row, f"{where}.matrix[{i}]")
            for i, row in enumerate(_list(matrix, f"{where}.matrix"))
        ),
    )


def _alphabet(doc: dict, key: str) -> frozenset:
    """An alphabet field; annotated '#' letters are letters, the endmarker is not."""
    letters = [_symbol_from_json(v, f"{key}[{i}]") for i, v in enumerate(_list(doc[key], key))]
    if ENDMARKER in letters:
        where = f"{key}[{letters.index(ENDMARKER)}]"
        raise MachineFileError(where, "the endmarker '#' cannot be an alphabet letter")
    return frozenset(letters)


# ---------------------------------------------------------------------------
# Tests and operations


def _test_to_json(test: Test):
    if test.false:
        return "false"
    out = []
    for a in test.atoms:
        obj = {"kind": "head", "i": a.j} if a.i == 0 else {"kind": "peb", "i": a.i, "j": a.j}
        if a.negated:
            obj["negated"] = True
        out.append(obj)
    return out


def _test_from_json(value, where: str, k: int) -> Test:
    if value == "false":
        return FALSE
    if not isinstance(value, list):
        raise MachineFileError(where, f"test must be a list of atoms or \"false\"")
    atoms = []
    for idx, obj in enumerate(value):
        w = f"{where}[{idx}]"
        if not isinstance(obj, dict):
            raise MachineFileError(w, f"bad atom {obj!r}")
        unknown = set(obj) - {"kind", "i", "j", "negated"}
        if unknown:
            raise MachineFileError(w, f"unknown atom fields {sorted(unknown)}")
        kind = obj.get("kind")
        i = obj.get("i")
        neg = bool(obj.get("negated", False))
        if kind == "head":
            if "j" in obj:
                raise MachineFileError(w, "head atoms take no 'j'")
            if not _is_int(i) or not 1 <= i <= k:
                raise MachineFileError(w, f"IndexOutOfRange: i={i!r} with k={k}")
            atoms.append(head_eq(i, neg))
        elif kind == "peb":
            j = obj.get("j")
            if not _is_int(i) or not _is_int(j) or not (
                1 <= i <= k and 1 <= j <= k
            ):
                raise MachineFileError(w, f"IndexOutOfRange: i={i!r}, j={j!r} with k={k}")
            atoms.append(peb_eq(i, j, neg))
        else:
            raise MachineFileError(w, f"bad atom kind {kind!r}")
    return Test.of(*atoms)


def _op_to_json(op: PebbleOp):
    if op.is_nop():
        return {"kind": "nop"}
    return {"kind": op.kind, "index": op.index}


def _op_from_json(value, where: str, k: int) -> PebbleOp:
    if not isinstance(value, dict):
        raise MachineFileError(where, f"bad op {value!r}")
    unknown = set(value) - {"kind", "index"}
    if unknown:
        raise MachineFileError(where, f"unknown op fields {sorted(unknown)}")
    kind = value.get("kind")
    if kind == "nop":
        if "index" in value:
            raise MachineFileError(where, "nop takes no index")
        return NOP
    if kind not in ("drop", "lift"):
        raise MachineFileError(where, f"bad op kind {kind!r}")
    index = value.get("index")
    if not _is_int(index) or not 1 <= index <= k:
        raise MachineFileError(where, f"IndexOutOfRange: index={index!r} with k={k}")
    return PebbleOp(kind, index)


# ---------------------------------------------------------------------------
# Whole machines


def state_name(state) -> str:
    return state if isinstance(state, str) else repr(state)


# Compact sorted-keys JSON (the transition sort key) and the file's text.
_KEY = json.JSONEncoder(sort_keys=True).encode
_TEXT = json.JSONEncoder(indent=2, ensure_ascii=False).encode
_FIELD_BREAK = "\n" + " " * 6  # a transition field sits 6 spaces deep


class _Fragments(dict):
    """Field value -> (``_KEY`` text, ``_TEXT`` text at a transition field's
    depth), each distinct value encoded once.  Encoded JSON holds no raw
    newline, so re-indenting is one ``replace``.  One memo per field: values
    of different fields can compare equal (tuple-backed values equal plain
    tuples) and still encode differently."""

    def __init__(self, to_json):
        self.to_json = to_json

    def __missing__(self, value):
        obj = self.to_json(value)
        pair = self[value] = (_KEY(obj), _TEXT(obj).replace("\n", _FIELD_BREAK))
        return pair


def _output_to_json(out: tuple[Symbol, ...]) -> list:
    return [_symbol_to_json(s) for s in out]


def serialize(machine: Transducer) -> str:
    """The canonical text of ``machine`` (see the module docstring)."""
    names = {s: state_name(s) for s in machine.polarity}
    if len(set(names.values())) != len(names):
        raise MachineFileError("states", "state names collide under stringification")
    ids = {s: (_KEY(n), _TEXT(n)) for s, n in names.items()}
    polarities = {p: _TEXT(p) for p in set(machine.polarity.values())}
    letters, tests, ops, outputs = (
        _Fragments(f) for f in (_symbol_to_json, _test_to_json, _op_to_json, _output_to_json)
    )
    rows = []
    for t in machine.transitions:
        src, dst = ids[t.src], ids[t.dst]
        letter, test, op, out = letters[t.letter], tests[t.test], ops[t.op], outputs[t.out]
        rows.append((
            f'{{"from": {src[0]}, "letter": {letter[0]}, "op": {op[0]}, '
            f'"output": {out[0]}, "test": {test[0]}, "to": {dst[0]}}}',
            f'    {{\n      "from": {src[1]},\n      "letter": {letter[1]},'
            f'\n      "test": {test[1]},\n      "op": {op[1]},'
            f'\n      "to": {dst[1]},\n      "output": {out[1]}\n    }}',
        ))
    rows.sort(key=itemgetter(0))
    states = [
        f'    {{\n      "id": {ids[s][1]},\n      "polarity": {polarities[machine.pol(s)]}\n    }}'
        for s in sorted(names, key=names.__getitem__)
    ]
    header = _TEXT({
        "format_version": FORMAT_VERSION,
        "name": machine.name,
        "pebbles": machine.k,
        "equality_tests": machine.equality_tests_allowed,
        "input_alphabet": [_symbol_to_json(s) for s in sorted(machine.input_alphabet, key=Symbol.sort_key)],
        "output_alphabet": [_symbol_to_json(s) for s in sorted(machine.output_alphabet, key=Symbol.sort_key)],
    })
    return "".join((  # the header up to its closing "\n}", then the other fields
        header[:-2], ',\n  "states": ', _block(states),
        ',\n  "initial": ', ids[machine.initial][1],
        ',\n  "final": ', ids[machine.final][1],
        ',\n  "transitions": ', _block([text for _, text in rows]), "\n}\n",
    ))


def _block(items: list[str]) -> str:
    """A top-level list of pre-indented items."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


_TOP_FIELDS = {
    "format_version", "name", "pebbles", "equality_tests", "input_alphabet",
    "output_alphabet", "states", "initial", "final", "transitions",
}


def parse(text: str) -> Transducer:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MachineFileError(f"line {e.lineno}, column {e.colno}", e.msg) from e
    if not isinstance(doc, dict):
        raise MachineFileError("document", "expected a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise MachineFileError("document", f"unknown fields {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise MachineFileError("document", f"missing fields {sorted(missing)}")
    if not _is_int(doc["format_version"]) or doc["format_version"] != FORMAT_VERSION:
        raise MachineFileError("format_version", f"unsupported version {doc['format_version']!r}")
    for key, kind in (("name", str), ("equality_tests", bool)):
        if not isinstance(doc[key], kind):
            raise MachineFileError(key, f"expected {kind.__name__}, got {doc[key]!r}")
    k = doc["pebbles"]
    if not _is_int(k) or k < 0:
        raise MachineFileError("pebbles", f"bad pebble count {k!r}")
    input_alphabet = _alphabet(doc, "input_alphabet")
    output_alphabet = _alphabet(doc, "output_alphabet")
    polarity: dict = {}
    for i, st in enumerate(_list(doc["states"], "states")):
        where = f"states[{i}]"
        if not isinstance(st, dict) or set(st) != {"id", "polarity"}:
            raise MachineFileError(where, f"expected {{id, polarity}}, got {st!r}")
        if not isinstance(st["id"], str):
            raise MachineFileError(where, f"state ids are strings, got {st['id']!r}")
        if not _is_int(st["polarity"]) or st["polarity"] not in (-1, 0, 1):
            raise MachineFileError(where, f"bad polarity {st['polarity']!r}")
        if st["id"] in polarity:
            raise MachineFileError(where, f"duplicate state {st['id']!r}")
        polarity[st["id"]] = st["polarity"]

    def known_state(s, where):
        if not isinstance(s, str) or s not in polarity:
            raise MachineFileError(where, f"UnknownState: {s!r}")
        return s

    transitions = []
    for i, tr in enumerate(_list(doc["transitions"], "transitions")):
        where = f"transitions[{i}]"
        if not isinstance(tr, dict):
            raise MachineFileError(where, f"expected an object, got {tr!r}")
        unknown = set(tr) - {"from", "letter", "test", "op", "to", "output"}
        if unknown:
            raise MachineFileError(where, f"unknown fields {sorted(unknown)}")
        missing = {"from", "to"} - set(tr)
        if missing:
            raise MachineFileError(where, f"missing fields {sorted(missing)}")
        transitions.append(
            Transition(
                known_state(tr["from"], f"{where}.from"),
                _symbol_from_json(tr.get("letter"), f"{where}.letter"),
                _test_from_json(tr.get("test", []), f"{where}.test", k),
                _op_from_json(tr.get("op", {"kind": "nop"}), f"{where}.op", k),
                known_state(tr["to"], f"{where}.to"),
                tuple(
                    _symbol_from_json(v, f"{where}.output[{j}]")
                    for j, v in enumerate(_list(tr.get("output", []), f"{where}.output"))
                ),
            )
        )
    return Transducer(
        name=doc["name"],
        k=k,
        input_alphabet=input_alphabet,
        output_alphabet=output_alphabet,
        polarity=polarity,
        initial=known_state(doc["initial"], "initial"),
        final=known_state(doc["final"], "final"),
        transitions=tuple(transitions),
        equality_tests_allowed=doc["equality_tests"],
    )


def load(path) -> Transducer:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save(machine: Transducer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(machine))
