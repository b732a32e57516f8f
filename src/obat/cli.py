"""Command-line front end: JSON automaton files, subcommands, DOT export.

File kinds are discriminated by a top-level "kind": "ordered-buchi" states
are listed in ascending order (the list *is* the order), tiles are given by
their skeletons and closed on load; "parity"/"det-parity" carry transitions
as [src, letter, priority, dst] with the letter "eps" reserved for ε.
Serialization is deterministic (sorted letters, transitions and initial
sets), so equal automata produce byte-identical files.

Exit codes: 0 ok/true, 1 false/violation, 2 usage, 3 validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import (
    EPS,
    DpaOracle,
    Morphism,
    NpaOracle,
    ObaOracle,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    UPWord,
    oba_validate,
)
from .convert import RabinSpec, check_eps_complete, parity_to_oba, rabin_to_oba
from .determinize import (
    apply_eps_completion,
    candidate_records,
    determinize,
    record_count_bound,
    reachable_residuals,
)
from .tiles import NotUpwardClosed, StateUniverse, Tile, UsageError, ValidationError
from .tiles import skeleton, tile_of, upward_closure
from .verify import check_local_preference, equiv_up

OK, FALSE, USAGE, INVALID = 0, 1, 2, 3


# --- parsing ----------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ValidationError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


def _parse_oba(doc: dict, path: str) -> tuple[OrderedBuchiAutomaton, Morphism | None]:
    try:
        universe = StateUniverse(tuple(doc["states"]))
        initial = frozenset(universe.index(s) for s in doc["initial"])
        alphabet: dict[str, Tile] = {}
        for letter, body in doc["alphabet"].items():
            if letter == EPS:
                raise ValidationError(f"{path}: tile letter name {EPS!r} is reserved")
            if "skeleton" in body:
                build, key = upward_closure, "skeleton"
            elif "transitions" in body:
                build, key = tile_of, "transitions"
            else:
                raise ValidationError(f"{path}: tile {letter!r} needs 'skeleton' or 'transitions'")
            triples = frozenset((int(p), int(c), int(q)) for (p, c, q) in body[key])
            try:
                alphabet[letter] = build(universe, triples)
            except NotUpwardClosed as e:
                raise ValidationError(f"{path}: tile-not-upward-closed: tile {letter!r} {e}") from None
            except ValidationError as e:
                raise ValidationError(f"{path}: tile {letter!r}: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ValidationError):
            raise
        raise ValidationError(f"{path}: malformed ordered-buchi document ({e})") from None
    a = OrderedBuchiAutomaton(universe=universe, initial=initial, alphabet=alphabet)
    report = oba_validate(a)
    if not report.valid:
        raise ValidationError(f"{path}: {report.issues[0].kind}: {report.issues[0].message}")
    morphism = Morphism.from_dict(doc["morphism"]) if "morphism" in doc else None
    if morphism is not None:
        for letter, name in morphism.mapping:
            if name not in alphabet:
                raise ValidationError(f"{path}: morphism maps {letter!r} to unknown tile {name!r}")
    return a, morphism


def _parse_parity(doc: dict, path: str, deterministic: bool) -> ParityAutomaton:
    try:
        states = tuple(doc["states"])
        lo, hi = doc["index"]
        transitions = frozenset(
            (str(p), str(x), int(c), str(q)) for (p, x, c, q) in doc["transitions"]
        )
        alphabet = frozenset(doc["alphabet"]) if "alphabet" in doc else None
        records = None
        universe = None
        if "records" in doc:
            universe = StateUniverse(tuple(doc["universe"]))
            records = {
                name: tuple(universe.index(s) for s in entries)
                for name, entries in doc["records"].items()
            }
        return ParityAutomaton(
            states=states,
            initial=frozenset(doc["initial"]),
            index=(int(lo), int(hi)),
            transitions=transitions,
            deterministic=deterministic,
            alphabet=alphabet,
            records=records,
            universe=universe,
        )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ValidationError):
            raise ValidationError(f"{path}: {e}") from None
        raise ValidationError(f"{path}: malformed parity document ({e})") from None


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


def parse_automaton(path: str):
    """Validated automaton from a JSON file (morphism, if any, is dropped)."""
    _, automaton, _ = load_document(path)
    return automaton


def parse_rabin_spec(path: str) -> RabinSpec:
    doc = _load_json(path)
    try:
        return RabinSpec(
            alphabet=tuple(doc["alphabet"]),
            pairs=tuple((frozenset(p["G"]), frozenset(p["R"])) for p in doc["pairs"]),
        )
    except (KeyError, TypeError) as e:
        raise ValidationError(f"{path}: malformed Rabin specification ({e})") from None


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
        "transitions": sorted([p, x, c, q] for (p, x, c, q) in a.transitions),
    }
    if a.alphabet is not None:
        doc["alphabet"] = sorted(a.alphabet)
    if a.records is not None:
        doc["records"] = {
            name: [a.universe.name(q) for q in a.records[name]] for name in a.states
        }
        doc["universe"] = list(a.universe.states)
    return doc


def write_doc(doc: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


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


def _alphabet_for(kind: str, automaton, morphism):
    if kind == "ordered-buchi":
        if morphism is not None:
            return frozenset(dict(morphism.mapping)) - {EPS}
        return frozenset(automaton.alphabet)
    return automaton.effective_alphabet


def _split_letters(raw: str) -> tuple[str, ...]:
    return tuple(raw.split())


# --- commands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        kind, automaton, _ = load_document(args.file)
    except ValidationError as e:
        print(e)
        return FALSE
    if kind == "ordered-buchi":
        print(oba_validate(automaton))
    else:
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
    report = check_eps_complete(automaton)
    if not report.ok:
        print(report)
        return FALSE
    if args.check_only:
        print("ε-complete")
        return OK
    oba, morphism = parity_to_oba(automaton)
    print(f"{oba.universe.size} states, {len(oba.alphabet)} tile letters")
    if args.output:
        write_doc(oba_to_doc(oba, morphism), args.output)
    return OK


def cmd_equiv(args) -> int:
    kind1, a1, m1 = load_document(args.file1)
    kind2, a2, m2 = load_document(args.file2)
    alpha1, alpha2 = _alphabet_for(kind1, a1, m1), _alphabet_for(kind2, a2, m2)
    if alpha1 != alpha2:
        raise UsageError(
            f"alphabets differ: {sorted(alpha1)} vs {sorted(alpha2)}"
        )
    cex = equiv_up(
        _oracle_for(kind1, a1, m1),
        _oracle_for(kind2, a2, m2),
        alpha1,
        args.max_prefix,
        args.max_period,
    )
    if cex is None:
        print(f"equal within bounds (prefix <= {args.max_prefix}, period <= {args.max_period})")
        return OK
    print(f"counterexample: {cex}")
    return FALSE


def cmd_posi_check(args) -> int:
    kind, automaton, morphism = load_document(args.file)
    report = check_local_preference(
        _oracle_for(kind, automaton, morphism),
        _alphabet_for(kind, automaton, morphism),
        max_u=args.max_prefix,
        max_period=args.max_period,
    )
    print(report)
    return OK if report.ok else FALSE


def cmd_stats(args) -> int:
    kind, automaton, _ = load_document(args.file)
    if kind == "ordered-buchi":
        residuals = reachable_residuals(automaton)
        print(f"|Q| = {automaton.universe.size}")
        print(f"|Γ| = {len(automaton.alphabet)}")
        print(f"R_A = {{{', '.join(automaton.universe.name(q) for q in sorted(residuals))}}}")
        print(f"|S_R| = {len(candidate_records(automaton))}")
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
        with open(args.output, "w") as f:
            f.write(text)
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
    p.add_argument("--max-prefix", type=_int_at_least(0), default=2)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
