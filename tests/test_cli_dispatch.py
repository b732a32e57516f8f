"""``main`` parses with the named subcommand's own parser, and answers as one full parse would.

The top-level parser runs only for a missing or unknown command, a
top-level option, and the "unrecognized arguments" error.  Every command
line below must give the exit code, standard output, standard error and
``-o`` bytes of a fresh ``build_parser().parse_args(argv)``.
"""

import argparse
import json
import shlex
import sys

import pytest

from obat.cli import INVALID, OK, USAGE, build_parser, main, oba_to_doc, parity_to_doc, write_doc
from obat.determinize import determinize
from obat.tiles import UsageError, ValidationError

from zoo import eps_figure, inf_a, rabin_two_pair

def full_parse_main(argv) -> int:
    """``main`` with one fresh top-level parse of the whole command line."""
    try:
        args = build_parser().parse_args(argv)
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


@pytest.fixture
def files(tmp_path):
    spec = rabin_two_pair()
    paths = {name: str(tmp_path / f"{name}.json") for name in ("A", "DET", "EPS", "SPEC")}
    write_doc(oba_to_doc(inf_a()), paths["A"])
    write_doc(parity_to_doc(determinize(inf_a())), paths["DET"])
    write_doc(parity_to_doc(eps_figure()), paths["EPS"])
    with open(paths["SPEC"], "w") as f:
        json.dump({"alphabet": list(spec.alphabet), "pairs": [{"G": sorted(g), "R": sorted(r)} for g, r in spec.pairs]}, f)
    paths["OUT"] = str(tmp_path / "out")
    return paths


# {A}, {DET}, {EPS} and {SPEC} are input files, {OUT} is the -o target.
CORPUS = [
    # no command, top-level options, unknown commands
    "",
    "-h",
    "--help",
    "--he",
    "-x",
    "--version",
    "-h validate",
    "-- validate {A}",
    "frobnicate",
    "frobnicate {A}",
    "Validate {A}",
    # validate
    "validate {A}",
    "validate",
    "validate {A} extra",
    "validate {A} --bogus",
    "validate -h",
    "validate {A} -h",
    "validate {A} --",
    "validate -- {A}",
    "validate {A} B",
    "validate missing.json",
    # member
    "member {A} --period a",
    "member {A} --prefix b --period 'a b'",
    "member {A} --per a",
    "member {A} --period=a",
    "member {A}",
    "member {A} --period c",
    "member {A} --period b",
    "member missing.json --period a",
    "member {A} --period",
    # determinize and eps-complete, with every spelling of the output option
    "determinize {A}",
    "determinize {A} -o {OUT}",
    "determinize {A} --output {OUT}",
    "determinize {A} --output={OUT}",
    "determinize {A} -o{OUT}",
    "determinize {A} --out {OUT}",
    "determinize {A} -o",
    "determinize",
    "determinize {DET}",
    "eps-complete {DET} -o {OUT}",
    "eps-complete {DET} --output={OUT}",
    "eps-complete {A}",
    "eps-complete",
    # convert, with and without its subcommand
    "convert",
    "convert -h",
    "convert --help",
    "convert frobnicate",
    "convert {A}",
    "convert rabin",
    "convert rabin {SPEC}",
    "convert rabin {SPEC} -o {OUT}",
    "convert rabin {SPEC} -o{OUT} extra",
    "convert rabin {SPEC} --bogus",
    "convert rabin -h",
    "convert parity {EPS}",
    "convert parity {EPS} --check-only",
    "convert parity {EPS} --check",
    "convert parity {EPS} -o {OUT}",
    "convert parity {EPS} --output={OUT} --check-only",
    "convert parity {A}",
    "convert parity -h",
    # equiv: abbreviations, bad integers, missing positionals
    "equiv {A} {A}",
    "equiv {A} {A} --max-pre 2",
    "equiv {A} {A} --max-prefix=1 --max-period=1",
    "equiv {A} {A} --max-p 2",
    "equiv {A} {A} --max-prefix x",
    "equiv {A} {A} --max-prefix -1",
    "equiv {A} {A} --max-period 0",
    "equiv {A} {A} --max-period 1.5",
    "equiv {A} {A} --max-period",
    "equiv {A}",
    "equiv",
    "equiv {A} {DET} --max-prefix 1 --max-period 2",
    "equiv {A} {EPS}",
    "equiv {A} {A} extra",
    # posi-check
    "posi-check {A}",
    "posi-check {A} --max-prefix 0",
    "posi-check {A} --max-prefix 1 --max-period 1",
    "posi-check {A} --max-pre 1 --max-per 1",
    "posi-check {DET} --max-prefix 1",
    "posi-check",
    # stats and dot
    "stats {A}",
    "stats {DET}",
    "stats",
    "stats {A} --bogus=1",
    "dot {A}",
    "dot {A} -o {OUT}",
    "dot {A} -o{OUT}",
    "dot",
]


def _argv(line: str, files: dict) -> list[str]:
    return shlex.split(line.format(**files))


def _outcome(run, argv, files, capsys):
    out = files["OUT"]
    with open(out, "w"):
        pass  # every run starts from the same empty output file
    code = run(argv)
    captured = capsys.readouterr()
    with open(out, "rb") as f:
        return code, captured.out, captured.err, f.read()


@pytest.mark.parametrize("line", CORPUS)
def test_same_outcome_as_a_full_parse(files, capsys, line):
    argv = _argv(line, files)
    assert _outcome(main, argv, files, capsys) == _outcome(full_parse_main, argv, files, capsys)


def test_argv_defaults_to_the_command_line(files, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["obat", "equiv", files["A"], files["A"], "--max-pre", "1"])
    assert _outcome(main, None, files, capsys) == _outcome(full_parse_main, None, files, capsys)


@pytest.mark.parametrize(
    "line, parsers",
    [
        ("validate {A}", ["obat validate"]),
        ("convert parity {EPS} --check-only", ["obat convert parity"]),
        ("equiv {A} {A} --max-pre 1", ["obat equiv"]),
        ("convert", ["obat convert"]),
        ("frobnicate", ["obat"]),
        ("-h", ["obat"]),
        # left-over arguments: the subcommand's parse, then the top level words the error
        ("validate {A} extra", ["obat validate", "obat", "obat validate"]),
    ],
)
def test_which_parsers_run(files, capsys, monkeypatch, line, parsers):
    main(["validate", files["A"]])  # build the parsers
    ran = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "parse_known_args",
        lambda self, *args, **kwargs: ran.append(self.prog) or parse(self, *args, **kwargs),
    )
    main(_argv(line, files))
    assert ran == parsers
