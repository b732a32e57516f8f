"""Command-line front end: JSON automaton files, subcommands, DOT export.

File kinds are discriminated by a top-level "kind": "ordered-buchi" states
are listed in ascending order (the list *is* the order), tiles are given by
their skeletons and closed on load; "parity"/"det-parity" carry transitions
as [src, letter, priority, dst] with the letter "eps" reserved for ε.
Serialization is deterministic (sorted letters, transitions and initial
sets), so equal automata produce byte-identical files: exactly
``json.dumps(doc, indent=2)`` and a newline.

Exit codes: 0 ok/true, 1 false/violation, 2 usage (an unwritable output path
too), 3 validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import suppress
from itertools import chain
from json.encoder import encode_basestring_ascii

from .automata import (
    EPS,
    DpaOracle,
    Morphism,
    NpaOracle,
    ObaOracle,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    UPWord,
    _check_morphism,
    oba_validate,
)
from .convert import NotEpsComplete, RabinSpec, check_eps_complete, parity_to_oba, rabin_to_oba
from .determinize import (
    apply_eps_completion,
    determinize,
    record_count_bound,
    residual_budget,
)
from .tiles import NotUpwardClosed, StateUniverse, Tile, UsageError, ValidationError
from .tiles import skeleton, tile_of, upward_closure
from .verify import check_local_preference, equiv_up

OK, FALSE, USAGE, INVALID = 0, 1, 2, 3


# --- parsing ----------------------------------------------------------------


def _load_json(path: str) -> dict:
    """The JSON object in ``path``, read as bytes and decoded as strict UTF-8 whatever the locale.

    Carriage returns are translated as text-mode reading does, so a parse
    error keeps its line and column; a leading BOM stays a parse error.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ValidationError(f"{path}: {e.strerror or e}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not valid UTF-8: {e.reason} at byte offset {e.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ValidationError(f"{path}: parse error: arrays or objects nested too deeply") from None
    return _typed(doc, dict, "top level", path)


_JSON_NAMES = {dict: "object", list: "array", int: "integer", str: "string"}


def _typed(value, kind: type, what: str, path: str):
    """``value`` if it is a JSON ``kind`` (dict or list), else a validation error naming ``what``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{path}: {what} must be a JSON {_JSON_NAMES[kind]}, got {type(value).__name__}")
    return value


def _require(columns, kind: type, what: str, path: str) -> None:
    """A validation error unless every value in ``columns`` is of type ``kind`` (true and 1.0 are not ints).

    One type-set test over the columns decides.  Only when it fails are
    the rows walked, to name the first offender in document order.
    """
    if {*map(type, chain.from_iterable(columns))} <= {kind}:
        return
    for row in zip(*columns):
        for x in row:
            if type(x) is not kind:
                raise ValidationError(f"{path}: {what} must be a JSON {_JSON_NAMES[kind]}, got {type(x).__name__}")


def _universe(names: list, path: str) -> StateUniverse:
    try:
        return StateUniverse(tuple(names))
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _entry_types(letters: list, path: str) -> None:
    """A validation error unless every generator entry of every letter is an int.

    ``letters`` holds (letter, rows) pairs in document order.  One type-set
    test over all their entries decides; only when it fails are the letters
    walked, to name the first offender in document order.
    """
    if {*map(type, chain.from_iterable(chain.from_iterable(rows for _, rows in letters)))} <= {int}:
        return
    for letter, rows in letters:
        _require(tuple(zip(*rows)), int, f"tile {letter!r} entry", path)


def _parse_oba(doc: dict, path: str) -> tuple[OrderedBuchiAutomaton, Morphism | None]:
    """The automaton and morphism of an ordered-Büchi document, or its first fault in document order.

    Each letter is checked and built in turn, but the entry types of all
    letters are tested once, after the loop, since a build can only fail on
    a non-int entry or make a tile that is then discarded.  A fault met in
    the loop is raised only once the letters read so far pass that test: a
    wrong entry type comes before every later fault of its letter and of the
    letters after it.
    """
    letters: list[tuple[str, list]] = []  # (letter, generator rows) for each letter read
    try:
        universe = _universe(_typed(doc["states"], list, "states", path), path)
        initial = frozenset(universe.index(s) for s in _typed(doc["initial"], list, "initial", path))
        alphabet: dict[str, Tile] = {}
        for letter, body in _typed(doc["alphabet"], dict, "alphabet", path).items():
            if "skeleton" in body:
                build, key = upward_closure, "skeleton"
            elif "transitions" in body:
                build, key = tile_of, "transitions"
            else:
                raise ValidationError(f"{path}: tile {letter!r} needs 'skeleton' or 'transitions'")
            rows = body[key]
            if not isinstance(rows, list):  # the message is formatted only for a fault
                _typed(rows, list, f"tile {letter!r} {key}", path)
            triples = [(p, c, q) for (p, c, q) in rows]
            letters.append((letter, triples))
            try:
                alphabet[letter] = build(universe, frozenset(triples))
            except NotUpwardClosed as e:
                raise ValidationError(f"{path}: tile-not-upward-closed: tile {letter!r} {e}") from None
            except ValidationError as e:
                raise ValidationError(f"{path}: tile {letter!r}: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        _entry_types(letters, path)
        if isinstance(e, ValidationError):
            raise
        raise ValidationError(f"{path}: malformed ordered-buchi document ({e})") from None
    _entry_types(letters, path)
    try:
        a = OrderedBuchiAutomaton(universe=universe, initial=initial, alphabet=alphabet)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None
    morphism = None
    if "morphism" in doc:
        morphism = Morphism.from_dict(_typed(doc["morphism"], dict, "morphism", path))
        try:
            _check_morphism(morphism, alphabet)
        except UsageError as e:
            raise ValidationError(f"{path}: {e}") from None
    return a, morphism


def _parse_parity(doc: dict, path: str, deterministic: bool) -> ParityAutomaton:
    record_doc = _typed(doc["records"], dict, "records", path) if "records" in doc else None
    try:
        states = tuple(_typed(doc["states"], list, "states", path))
        initial = frozenset(_typed(doc["initial"], list, "initial", path))
        lo, hi = _typed(doc["index"], list, "index", path)
        _require(((lo, hi),), int, "index bound", path)
        transitions = [(p, x, c, q) for (p, x, c, q) in _typed(doc["transitions"], list, "transitions", path)]
        ends, letters, priorities, dsts = zip(*transitions) if transitions else ((),) * 4
        _require((ends, dsts), str, "transition endpoint", path)
        _require((letters,), str, "transition letter", path)
        _require((priorities,), int, "transition priority", path)
        alphabet = None
        if "alphabet" in doc:
            alphabet = frozenset(_typed(doc["alphabet"], list, "alphabet", path))
        records = universe = None
        if record_doc is not None:
            universe = _universe(_typed(doc["universe"], list, "universe", path), path)
            records = {
                name: tuple(universe.index(s) for s in _typed(entries, list, f"record {name!r}", path))
                for name, entries in record_doc.items()
            }
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ValidationError):
            raise
        raise ValidationError(f"{path}: malformed parity document ({e})") from None
    try:
        return ParityAutomaton(
            states=states,
            initial=initial,
            index=(lo, hi),
            transitions=frozenset(transitions),
            deterministic=deterministic,
            alphabet=alphabet,
            records=records,
            universe=universe,
        )
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def load_document(path: str):
    """Returns (kind, automaton, morphism-or-None)."""
    doc = _load_json(path)
    kind = doc.get("kind")
    if kind == "ordered-buchi":
        a, m = _parse_oba(doc, path)
        return kind, a, m
    if kind in ("parity", "det-parity"):
        return kind, _parse_parity(doc, path, deterministic=(kind == "det-parity")), None
    raise ValidationError(f"{path}: unknown or missing kind {kind!r}")


def parse_rabin_spec(path: str) -> RabinSpec:
    doc = _load_json(path)
    try:
        alphabet = tuple(_typed(doc["alphabet"], list, "alphabet", path))
        pairs = tuple(
            (frozenset(_typed(p["G"], list, "G", path)), frozenset(_typed(p["R"], list, "R", path)))
            for p in _typed(doc["pairs"], list, "pairs", path)
        )
    except (KeyError, TypeError) as e:
        raise ValidationError(f"{path}: malformed Rabin specification ({e})") from None
    try:
        return RabinSpec(alphabet=alphabet, pairs=pairs)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


# --- serialization ----------------------------------------------------------


def oba_to_doc(a: OrderedBuchiAutomaton, morphism: Morphism | None = None) -> dict:
    doc = {
        "kind": "ordered-buchi",
        "states": list(a.universe.states),
        "initial": [a.universe.name(q) for q in sorted(a.initial)],
        "alphabet": {
            letter: {"skeleton": sorted([p, c, q] for (p, c, q) in skeleton(a.alphabet[letter]).transitions)}
            for letter in sorted(a.alphabet)
        },
    }
    if morphism is not None:
        doc["morphism"] = morphism.as_dict()
    return doc


def parity_to_doc(a: ParityAutomaton) -> dict:
    doc = {
        "kind": "det-parity" if a.deterministic else "parity",
        "states": list(a.states),
        "initial": sorted(a.initial),
        "index": list(a.index),
        "transitions": list(map(list, sorted(a.transitions))),
    }
    if a.alphabet is not None:
        doc["alphabet"] = sorted(a.alphabet)
    if a.records is not None:
        name = a.universe.states.__getitem__
        doc["records"] = {state: list(map(name, a.records[state])) for state in a.states}
        doc["universe"] = list(a.universe.states)
    return doc


_LEAF = {str: encode_basestring_ascii, int: int.__repr__}  # as json.dumps writes them
_NESTED = {dict, list}
_BATCH = 256  # lists of scalar lists go to the C encoder this many at a time


def _leaf(x) -> str:
    encode = _LEAF.get(type(x))
    return encode(x) if encode else json.dumps(x)


def _chunks(value, indent: str):
    """The text of ``json.dumps(value, indent=2)`` in pieces; ``indent`` is "\\n" and ``value``'s spaces.

    A list of scalars is one join.  A list of nonempty scalar lists goes to
    the C encoder a batch at a time, with the elements' indent in its item
    separator; the boundaries between elements are then re-indented.  That
    replace is exact because an encoded string never holds a raw newline.
    """
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            yield "{}"
            return
        sep = "{"
        for key, item in value.items():
            yield sep + inner + encode_basestring_ascii(key) + ": "
            yield from _chunks(item, inner)
            sep = ","
        yield indent + "}"
    elif type(value) is list:
        kinds = set(map(type, value))
        if not value:
            yield "[]"
        elif kinds.isdisjoint(_NESTED):
            encode = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
            yield "[" + inner + ("," + inner).join(map(encode or _leaf, value)) + indent + "]"
        elif kinds == {list} and all(value) and _NESTED.isdisjoint(map(type, chain.from_iterable(value))):
            deeper = inner + "  "
            encode = json.JSONEncoder(separators=("," + deeper, ": "), check_circular=False).encode
            boundary, reindented = "]," + deeper + "[", inner + "]," + inner + "[" + deeper
            sep = "[" + inner
            for start in range(0, len(value), _BATCH):
                text = encode(value[start : start + _BATCH])  # [[a,<deeper>b],<deeper>[c, ...]]
                yield sep + "[" + deeper + text[2:-2].replace(boundary, reindented) + inner + "]"
                sep = "," + inner
            yield indent + "]"
        else:
            sep = "["
            for item in value:
                yield sep + inner
                yield from _chunks(item, inner)
                sep = ","
            yield indent + "]"
    else:
        yield _leaf(value)


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s opener for mode "w" without its ``O_TRUNC``.

    Truncating to zero on open makes the file system free (and on some
    mounts discard) every old block before the same blocks are written again.
    """
    return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)


def _write(path: str, chunks) -> None:
    """Write the strings ``chunks`` to ``path`` as UTF-8; an unwritable path is a usage error.

    An existing file is overwritten in place, not truncated first: a regular
    file is cut at the end of what was written, also when writing fails, so
    it keeps its inode, links and mode and never a tail of its old bytes.
    A write that ends at or past the old size leaves no tail, so a new file
    or a rewrite at least as long is not cut.  Devices and pipes are only
    written to.
    """
    try:
        with open(path, "w", encoding="utf-8", opener=_open_in_place) as f:
            fd = f.fileno()
            info = os.fstat(fd)
            regular = stat.S_ISREG(info.st_mode)
            try:
                f.writelines(chunks)
                f.flush()
            except BaseException:
                if regular:
                    with suppress(OSError):
                        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
                raise
            if regular and (end := os.lseek(fd, 0, os.SEEK_CUR)) < info.st_size:
                os.ftruncate(fd, end)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror or e}") from None


def write_doc(doc: dict, path: str) -> None:
    """Write exactly the bytes of ``json.dumps(doc, indent=2) + "\\n"``, streamed."""
    _write(path, chain(_chunks(doc, "\n"), ("\n",)))


# --- DOT export -------------------------------------------------------------


def _q(s: str) -> str:
    return '"%s"' % s.replace('"', '\\"')


def oba_to_dot(a: OrderedBuchiAutomaton, morphism: Morphism | None = None) -> str:
    """Skeleton edges per letter, Büchi edges marked, states stacked by order."""
    lines = ["digraph oba {", "  rankdir=TB;", "  node [shape=circle];"]
    names = a.universe.states
    for name in reversed(names):  # highest on top
        lines.append(f"  {_q(name)};")
    for hi, lo in zip(reversed(names), list(reversed(names))[1:]):
        lines.append(f"  {_q(hi)} -> {_q(lo)} [style=invis, weight=100];")
    if a.initial:
        top = names[max(a.initial)]
        lines.append("  __init [shape=none, label=\"\"];")
        lines.append(f"  __init -> {_q(top)} [color=orange];")
    rename = {}
    if morphism is not None:
        for letter, tile_name in morphism.mapping:
            rename.setdefault(tile_name, []).append(letter)
    for letter in sorted(a.alphabet):
        label_base = ",".join(rename.get(letter, [letter]))
        for (p, c, q) in sorted(skeleton(a.alphabet[letter]).transitions):
            label = f"{label_base} ●" if c == 0 else label_base
            style = ", style=bold" if c == 0 else ""
            lines.append(f"  {_q(names[p])} -> {_q(names[q])} [label={_q(label)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parity_to_dot(a: ParityAutomaton) -> str:
    lines = ["digraph parity {", "  node [shape=circle];"]
    for s in a.states:
        shape = ", peripheries=2" if s in a.initial else ""
        lines.append(f"  {_q(s)} [label={_q(s)}{shape}];")
    for (p, x, c, q) in sorted(a.transitions):
        style = ", style=dashed" if x == EPS else ""
        lines.append(f"  {_q(p)} -> {_q(q)} [label={_q(f'{x}:{c}')}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- membership helpers -----------------------------------------------------


def _oracle_for(kind: str, automaton, morphism):
    if kind == "ordered-buchi":
        return ObaOracle(automaton, morphism)
    if kind == "det-parity" and not any(x == EPS for (_, x, _, _) in automaton.transitions):
        return DpaOracle(automaton)
    return NpaOracle(automaton)


def _split_letters(raw: str) -> tuple[str, ...]:
    return tuple(raw.split())


# --- commands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        kind, automaton, _ = load_document(args.file)
    except ValidationError as e:
        print(e)
        return FALSE
    unreachable = oba_validate(automaton) if kind == "ordered-buchi" else ()
    for name in unreachable:
        print(f"warning (unreachable-state): state {name} is unreachable from the initial set")
    if not unreachable:
        print("valid")
    return OK


def cmd_member(args) -> int:
    kind, automaton, morphism = load_document(args.file)
    w = UPWord(_split_letters(args.prefix), _split_letters(args.period))
    answer = _oracle_for(kind, automaton, morphism)(w)
    print("true" if answer else "false")
    return OK if answer else FALSE


def cmd_determinize(args) -> int:
    kind, automaton, _ = load_document(args.file)
    if kind != "ordered-buchi":
        raise UsageError("determinize expects an ordered Büchi automaton")
    det = determinize(automaton)
    n = len(det.states)
    bound = record_count_bound(automaton.universe.size)
    print(f"{n} state{'s' if n != 1 else ''}, bound {bound}")
    if args.output:
        write_doc(parity_to_doc(det), args.output)
    return OK


def cmd_eps_complete(args) -> int:
    kind, automaton, _ = load_document(args.file)
    if kind != "det-parity" or automaton.records is None:
        raise UsageError("eps-complete expects a determinization output with record states")
    augmented = apply_eps_completion(automaton)
    report = check_eps_complete(augmented)
    added = len(augmented.transitions) - len(automaton.transitions)
    print(f"added {added} ε-transitions; check: {report}")
    if args.output:
        write_doc(parity_to_doc(augmented), args.output)
    return OK if report.ok else FALSE


def cmd_convert_rabin(args) -> int:
    spec = parse_rabin_spec(args.file)
    oba, morphism = rabin_to_oba(spec)
    print(f"{oba.universe.size} states, {len(oba.alphabet)} tile letters")
    if args.output:
        write_doc(oba_to_doc(oba, morphism), args.output)
    return OK


def cmd_convert_parity(args) -> int:
    kind, automaton, _ = load_document(args.file)
    if kind == "ordered-buchi":
        raise UsageError("convert parity expects a parity automaton")
    if args.check_only:
        report = check_eps_complete(automaton)
        print(report)
        return OK if report.ok else FALSE
    try:
        oba, morphism = parity_to_oba(automaton)  # decides ε-completeness first
    except NotEpsComplete as e:
        print(e.report)
        return FALSE
    print(f"{oba.universe.size} states, {len(oba.alphabet)} tile letters")
    if args.output:
        write_doc(oba_to_doc(oba, morphism), args.output)
    return OK


def cmd_equiv(args) -> int:
    o1 = _oracle_for(*load_document(args.file1))
    o2 = _oracle_for(*load_document(args.file2))
    if o1.alphabet != o2.alphabet:
        raise UsageError(f"alphabets differ: {sorted(o1.alphabet)} vs {sorted(o2.alphabet)}")
    cex = equiv_up(o1, o2, o1.alphabet, args.max_prefix, args.max_period)
    if cex is None:
        print(f"equal within bounds (prefix <= {args.max_prefix}, period <= {args.max_period})")
        return OK
    print(f"counterexample: {cex}")
    return FALSE


def cmd_posi_check(args) -> int:
    oracle = _oracle_for(*load_document(args.file))
    report = check_local_preference(oracle, oracle.alphabet, max_u=args.max_prefix, max_period=args.max_period)
    print(report)
    return OK if report.ok else FALSE


def cmd_stats(args) -> int:
    kind, automaton, _ = load_document(args.file)
    if kind == "ordered-buchi":
        residuals, budget = residual_budget(automaton)
        print(f"|Q| = {automaton.universe.size}")
        print(f"|Gamma| = {len(automaton.alphabet)}")
        print(f"R_A = {{{', '.join(automaton.universe.name(q) for q in sorted(residuals))}}}")
        print(f"|S_R| = {budget}")
        print(f"record bound = {record_count_bound(automaton.universe.size)}")
    else:
        print(f"states = {len(automaton.states)}")
        print(f"index = {list(automaton.index)}")
        print(f"transitions = {len(automaton.transitions)}")
    return OK


def cmd_dot(args) -> int:
    kind, automaton, morphism = load_document(args.file)
    text = oba_to_dot(automaton, morphism) if kind == "ordered-buchi" else parity_to_dot(automaton)
    if args.output:
        _write(args.output, (text,))
    else:
        sys.stdout.write(text)
    return OK


# --- dispatch ---------------------------------------------------------------


def _int_at_least(lo: int):
    """argparse type for an integer bound; smaller values are usage errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obat",
        description="Ordered Büchi automata: constructions, determinization, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a file's structural invariants")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("member", help="UP-word membership u·v^ω")
    p.add_argument("file")
    p.add_argument("--prefix", default="", help="space-separated letters")
    p.add_argument("--period", required=True, help="space-separated letters, nonempty")
    p.set_defaults(run=cmd_member)

    p = sub.add_parser("determinize", help="record-based determinization")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_determinize)

    p = sub.add_parser("eps-complete", help="add the lexicographic ε-completion")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_eps_complete)

    convert = sub.add_parser("convert", help="constructions into ordered Büchi automata")
    csub = convert.add_subparsers(dest="what", required=True)
    p = csub.add_parser("rabin", help="Rabin pair specification to ordered Büchi")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_convert_rabin)
    p = csub.add_parser("parity", help="ε-complete parity to ordered Büchi")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--check-only", action="store_true")
    p.set_defaults(run=cmd_convert_parity)

    p = sub.add_parser("equiv", help="compare two automata on bounded UP words")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-prefix", type=_int_at_least(0), default=3)
    p.add_argument("--max-period", type=_int_at_least(1), default=4)
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("posi-check", help="sample the local preference properties")
    p.add_argument("file")
    p.add_argument("--max-prefix", type=_int_at_least(1), default=2)
    p.add_argument("--max-period", type=_int_at_least(1), default=2)
    p.set_defaults(run=cmd_posi_check)

    p = sub.add_parser("stats", help="sizes, reachable residuals, record budget")
    p.add_argument("file")
    p.set_defaults(run=cmd_stats)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_dot)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """``parser``'s subcommand parsers by name; empty if it has none."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def main(argv=None) -> int:
    """Run one command; safe to call repeatedly in one process.

    The parsers are built on the first call and reused: parsing keeps no
    state between calls, and each command resolves what it uses at call
    time.  The leading words that name a subcommand (``equiv``, or
    ``convert parity``) select its own parser, which parses the rest alone.
    The top-level parser runs only when no subcommand is named (none, an
    unknown one, or a top-level option such as ``-h`` first) and when
    arguments are left over, so its usage and "unrecognized arguments"
    wording are those of a full ``build_parser().parse_args(argv)``.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, rest = _parser, argv
    while rest and rest[0] in (named := _subcommands(parser)):
        parser, rest = named[rest[0]], rest[1:]
    try:
        if parser is _parser:  # no subcommand named
            args = _parser.parse_args(argv)
        else:
            args, extra = parser.parse_known_args(rest)
            if extra:  # the top-level parser words the "unrecognized arguments" error
                args = _parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    try:
        return args.run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return INVALID
    except UnicodeEncodeError as e:  # text the standard output's encoding cannot hold, such as a state name
        print(f"usage error: cannot write {e.object[e.start:e.end]!r} as {e.encoding}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
