import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import obat
from obat import OrderedBuchiAutomaton, StateUniverse
from obat.cli import (
    FALSE,
    INVALID,
    OK,
    USAGE,
    build_parser,
    load_document,
    main,
    oba_to_doc,
    parity_to_doc,
    write_doc,
)
from obat.convert import check_eps_complete, horizontal_complete_alphabet
from obat.determinize import apply_eps_completion, determinize, residual_budget

from zoo import eps_figure, fig_inf_aa_fin_bb, fig_inf_b_or_bb_inf_a, inf_a, rabin_two_pair

INF_A_DOC = {
    "kind": "ordered-buchi",
    "states": ["s0", "s1"],
    "initial": ["s0", "s1"],
    "alphabet": {"a": {"skeleton": [[1, 0, 1]]}, "b": {"skeleton": [[0, 1, 0], [1, 1, 1]]}},
}

GENBUCHI_DOC = {
    "kind": "det-parity",
    "states": ["w", "sa"],
    "initial": ["w"],
    "index": [0, 1],
    "transitions": [
        ["w", "a", 1, "sa"],
        ["w", "b", 1, "w"],
        ["sa", "a", 1, "sa"],
        ["sa", "b", 0, "w"],
    ],
}


@pytest.fixture
def inf_a_file(tmp_path):
    path = tmp_path / "inf-a.oba.json"
    path.write_text(json.dumps(INF_A_DOC))
    return str(path)


@pytest.fixture
def genbuchi_file(tmp_path):
    path = tmp_path / "genbuchi.json"
    path.write_text(json.dumps(GENBUCHI_DOC))
    return str(path)


@pytest.fixture
def eps_decisions(monkeypatch):
    """One entry per ε-completeness decision (a call of ``obat.convert._eps_violations``)."""
    calls = []
    decide = obat.convert._eps_violations
    monkeypatch.setattr(obat.convert, "_eps_violations", lambda *a: calls.append(1) or decide(*a))
    return calls


class TestParsing:
    def test_inf_a_round_trip_object(self, inf_a_file):
        a = load_document(inf_a_file)[1]
        ref = inf_a()
        assert a.universe == ref.universe
        assert a.initial == ref.initial
        assert a.alphabet == ref.alphabet

    def test_non_downward_closed_initial_rejected(self, tmp_path):
        doc = dict(INF_A_DOC, initial=["s1"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception) as err:
            load_document(str(path))[1]
        assert "s0" in str(err.value)

    def test_priority_outside_index_rejected(self, tmp_path):
        doc = {
            "kind": "parity",
            "states": ["q"],
            "initial": ["q"],
            "index": [0, 1],
            "transitions": [["q", "a", 2, "q"]],
        }
        path = tmp_path / "bad-parity.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception) as err:
            load_document(str(path))[1]
        assert "index" in str(err.value)

    def test_round_trip_serialization_is_canonical(self, tmp_path):
        a = inf_a()
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        write_doc(oba_to_doc(a), str(p1))
        kind, a2, _ = load_document(str(p1))
        assert kind == "ordered-buchi" and a2.alphabet == a.alphabet
        write_doc(oba_to_doc(a2), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("which", ["determinization", "eps-completion"])
    def test_written_bytes_are_indented_json(self, tmp_path, which):
        det = determinize(fig_inf_b_or_bb_inf_a())
        doc = parity_to_doc(det if which == "determinization" else apply_eps_completion(det))
        path = tmp_path / "out.json"
        write_doc(doc, str(path))
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()

    def test_det_parity_round_trip(self, tmp_path):
        det = determinize(inf_a())
        path = tmp_path / "det.json"
        write_doc(parity_to_doc(det), str(path))
        kind, got, _ = load_document(str(path))
        assert kind == "det-parity"
        assert got == det

    def test_parity_round_trip(self, tmp_path):
        a = eps_figure()
        path = tmp_path / "parity.json"
        write_doc(parity_to_doc(a), str(path))
        kind, got, _ = load_document(str(path))
        assert kind == "parity"
        assert got == a

    def test_reserved_eps_tile_letter(self, tmp_path):
        doc = dict(INF_A_DOC, alphabet={"eps": {"skeleton": [[1, 0, 1]]}})
        path = tmp_path / "eps-letter.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception) as err:
            load_document(str(path))[1]
        assert "reserved" in str(err.value)


class TestCommands:
    def test_member_true_and_false(self, inf_a_file, capsys):
        assert main(["member", inf_a_file, "--prefix", "", "--period", "a b"]) == OK
        assert capsys.readouterr().out.strip() == "true"
        assert main(["member", inf_a_file, "--period", "b"]) == FALSE
        assert capsys.readouterr().out.strip() == "false"

    def test_validate(self, inf_a_file, tmp_path, capsys):
        assert main(["validate", inf_a_file]) == OK
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(INF_A_DOC, initial=["s1"])))
        assert main(["validate", str(bad)]) == FALSE

    def test_determinize_output(self, inf_a_file, tmp_path, capsys):
        out = tmp_path / "det.json"
        assert main(["determinize", inf_a_file, "-o", str(out)]) == OK
        assert capsys.readouterr().out.strip() == "1 state, bound 3"
        kind, det, _ = load_document(str(out))
        assert kind == "det-parity" and det.deterministic

    def test_eps_complete_command(self, inf_a_file, tmp_path, capsys):
        det_path, aug_path = tmp_path / "det.json", tmp_path / "aug.json"
        main(["determinize", inf_a_file, "-o", str(det_path)])
        capsys.readouterr()
        assert main(["eps-complete", str(det_path), "-o", str(aug_path)]) == OK
        assert "ε-complete" in capsys.readouterr().out
        kind, aug, _ = load_document(str(aug_path))
        assert kind == "parity"
        assert aug.transitions == apply_eps_completion(determinize(inf_a())).transitions

    def test_convert_rabin(self, tmp_path, capsys):
        spec_path, out = tmp_path / "spec.json", tmp_path / "rabin.oba.json"
        spec_path.write_text(
            json.dumps(
                {
                    "alphabet": ["a", "b", "c", "d"],
                    "pairs": [{"G": ["d"], "R": ["a", "c"]}, {"G": ["b"], "R": ["d"]}],
                }
            )
        )
        assert main(["convert", "rabin", str(spec_path), "-o", str(out)]) == OK
        kind, oba, morphism = load_document(str(out))
        assert kind == "ordered-buchi" and morphism is not None
        assert main(["member", str(out), "--period", "d"]) == OK

    def test_convert_parity(self, tmp_path, capsys):
        src, out = tmp_path / "eps.json", tmp_path / "from-parity.oba.json"
        write_doc(parity_to_doc(eps_figure()), str(src))
        assert main(["convert", "parity", str(src), "--check-only"]) == OK
        assert main(["convert", "parity", str(src), "-o", str(out)]) == OK
        kind, oba, morphism = load_document(str(out))
        assert kind == "ordered-buchi" and oba.universe.size == 5

    @pytest.mark.parametrize("argv", [["--check-only"], ["-o", "out.json"], []], ids=["check-only", "output", "stdout-only"])
    def test_convert_parity_decides_eps_completeness_once(self, tmp_path, capsys, eps_decisions, argv):
        src = tmp_path / "eps.json"
        write_doc(parity_to_doc(eps_figure()), str(src))
        argv = [str(tmp_path / x) if x.endswith(".json") else x for x in argv]
        assert main(["convert", "parity", str(src), *argv]) == OK
        assert len(eps_decisions) == 1

    def test_convert_parity_reports_every_failed_axiom_once(self, genbuchi_file, capsys, eps_decisions):
        expected = str(check_eps_complete(load_document(genbuchi_file)[1])) + "\n"
        assert expected.count("\n") > 1  # several axioms fail, and each is reported
        for extra in ([], ["--check-only"]):
            eps_decisions.clear()
            assert main(["convert", "parity", genbuchi_file, *extra]) == FALSE
            assert capsys.readouterr() == (expected, "")
            assert len(eps_decisions) == 1

    def test_equiv_oba_vs_determinization(self, inf_a_file, tmp_path, capsys):
        det_path = tmp_path / "det.json"
        main(["determinize", inf_a_file, "-o", str(det_path)])
        capsys.readouterr()
        code = main(["equiv", inf_a_file, str(det_path), "--max-prefix", "2", "--max-period", "3"])
        assert code == OK
        assert "equal within bounds" in capsys.readouterr().out

    def test_equiv_converted_parity_against_source(self, tmp_path, capsys):
        src, out = tmp_path / "eps.json", tmp_path / "converted.json"
        write_doc(parity_to_doc(eps_figure()), str(src))
        main(["convert", "parity", str(src), "-o", str(out)])
        capsys.readouterr()
        code = main(["equiv", str(src), str(out), "--max-prefix", "2", "--max-period", "3"])
        assert code == OK

    def test_round_trip_through_eps_completion(self, tmp_path, capsys):
        """determinize, eps-complete and convert parity give back an automaton equal to the source."""
        src = tmp_path / "fig.json"
        write_doc(oba_to_doc(fig_inf_aa_fin_bb()), str(src))
        det, eps, back = (str(tmp_path / f"fig.{x}.json") for x in ("det", "eps", "oba"))
        assert main(["determinize", str(src), "-o", det]) == OK
        assert main(["eps-complete", det, "-o", eps]) == OK
        assert main(["convert", "parity", eps, "-o", back]) == OK
        capsys.readouterr()
        assert main(["equiv", str(src), back, "--max-prefix", "2", "--max-period", "3"]) == OK
        assert "equal within bounds" in capsys.readouterr().out

    def test_equiv_counterexample(self, inf_a_file, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(
            json.dumps(dict(INF_A_DOC, alphabet={"a": {"skeleton": [[1, 0, 1]]}, "b": {"skeleton": [[1, 0, 1]]}}))
        )
        assert main(["equiv", inf_a_file, str(other)]) == FALSE
        assert "counterexample" in capsys.readouterr().out

    def test_posi_check_clean_and_violated(self, inf_a_file, genbuchi_file, capsys):
        assert main(["posi-check", inf_a_file]) == OK
        capsys.readouterr()
        assert main(["posi-check", genbuchi_file]) == FALSE
        out = capsys.readouterr().out
        assert "property (3)" in out and "u=ε, v=a, v'=b" in out

    def test_stats(self, inf_a_file, capsys):
        assert main(["stats", inf_a_file]) == OK
        out = capsys.readouterr().out
        assert "|Q| = 2" in out and "record bound = 3" in out and "s1" in out

    def test_stats_counts_records_in_closed_form(self, tmp_path, capsys):
        # one letter, all 12 states initial: R_A = {s11}, and S_R holds the 11! records headed by it
        names = [f"s{i}" for i in range(12)]
        doc = {"kind": "ordered-buchi", "states": names, "initial": names, "alphabet": {"a": {"skeleton": [[11, 1, 11]]}}}
        path = tmp_path / "twelve.json"
        path.write_text(json.dumps(doc))
        assert main(["stats", str(path)]) == OK
        out = capsys.readouterr().out
        assert "R_A = {s11}" in out and "|S_R| = 39916800\n" in out

    def test_stats_walks_the_top_maps_once(self, tmp_path, capsys, monkeypatch):
        a = fig_inf_b_or_bb_inf_a()
        path = tmp_path / "fig.json"
        write_doc(oba_to_doc(a), str(path))
        walks = []
        module = importlib.import_module("obat.determinize")  # the package's `determinize` is the function
        walk = module._walk_from_initial
        monkeypatch.setattr(module, "_walk_from_initial", lambda b: walks.append(1) or walk(b))
        assert main(["stats", str(path)]) == OK
        assert len(walks) == 1
        heads = sorted(obat.reachable_residuals(a))
        assert capsys.readouterr().out == (
            f"|Q| = {a.universe.size}\n|Gamma| = {len(a.alphabet)}\n"
            f"R_A = {{{', '.join(a.universe.name(q) for q in heads)}}}\n"
            f"|S_R| = {residual_budget(a)[1]}\nrecord bound = {obat.record_count_bound(a.universe.size)}\n"
        )

    def test_dot(self, inf_a_file, tmp_path):
        out = tmp_path / "graph.dot"
        assert main(["dot", inf_a_file, "-o", str(out)]) == OK
        text = out.read_text()
        assert text.startswith("digraph") and "orange" in text and "●" in text

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["determinize", "eps-complete", "convert rabin", "convert parity", "dot"])
    def test_unwritable_output_usage(self, inf_a_file, tmp_path, capsys, command, target):
        inputs = {"determinize": inf_a_file, "dot": inf_a_file}
        inputs["eps-complete"] = str(tmp_path / "det.json")
        write_doc(parity_to_doc(determinize(inf_a())), inputs["eps-complete"])
        inputs["convert parity"] = str(tmp_path / "eps.json")
        write_doc(parity_to_doc(eps_figure()), inputs["convert parity"])
        inputs["convert rabin"] = str(tmp_path / "spec.json")
        (tmp_path / "spec.json").write_text(json.dumps({"alphabet": ["a", "b"], "pairs": [{"G": ["a"], "R": ["b"]}]}))
        out = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
        assert main([*command.split(), inputs[command], "-o", str(out)]) == USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/null and /dev/full devices")
    @pytest.mark.parametrize("command", ["determinize", "dot"])
    def test_device_outputs(self, inf_a_file, capsys, command):
        """Devices are written to as before: /dev/null takes everything, /dev/full is a usage error."""
        assert main([command, inf_a_file, "-o", "/dev/null"]) == OK
        assert capsys.readouterr().err == ""
        assert main([command, inf_a_file, "-o", "/dev/full"]) == USAGE
        assert capsys.readouterr().err == "usage error: cannot write /dev/full: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_output_to_standard_output_pipe(self, inf_a_file, tmp_path, capsys):
        """-o /dev/stdout with the standard output a pipe sends the document down the pipe."""
        out = tmp_path / "det.json"
        assert main(["determinize", inf_a_file, "-o", str(out)]) == OK
        summary, doc = capsys.readouterr().out.encode(), out.read_bytes()
        src = str(Path(obat.__file__).resolve().parents[1])
        code = "import sys\nfrom obat.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        done = subprocess.run(
            [sys.executable, "-c", code, "determinize", inf_a_file, "-o", "/dev/stdout"],
            capture_output=True,
            env={"PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (OK, b"")
        assert doc in done.stdout and done.stdout.replace(doc, b"", 1) == summary

    def test_unknown_subcommand_usage(self, capsys):
        assert main(["frobnicate"]) == USAGE

    def test_unknown_letter_usage(self, inf_a_file):
        assert main(["member", inf_a_file, "--period", "z"]) == USAGE

    @pytest.mark.parametrize("text", ["[]", "3", '"ordered-buchi"', "null"])
    def test_non_object_document_invalid(self, tmp_path, capsys, text):
        path = tmp_path / "not-an-object.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == FALSE
        assert "JSON object" in capsys.readouterr().out
        assert main(["stats", str(path)]) == INVALID
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds",
        [["--max-prefix", "-1"], ["--max-period", "0"], ["--max-prefix", "-1", "--max-period", "0"]],
    )
    def test_vacuous_enumeration_bounds_usage(self, inf_a_file, capsys, bounds):
        assert main(["equiv", inf_a_file, inf_a_file, *bounds]) == USAGE
        assert main(["posi-check", inf_a_file, *bounds]) == USAGE
        captured = capsys.readouterr()
        assert "must be at least" in captured.err and "equal within bounds" not in captured.out

    def test_posi_check_prefix_bound_zero_usage(self, genbuchi_file, capsys):
        """posi-check bounds its periods by --max-prefix too, so 0 would check nothing."""
        assert main(["posi-check", genbuchi_file, "--max-prefix", "0"]) == USAGE
        captured = capsys.readouterr()
        assert "must be at least 1, got 0" in captured.err and "no violation" not in captured.out

    def test_smallest_enumeration_bounds_accepted(self, inf_a_file, capsys):
        assert main(["equiv", inf_a_file, inf_a_file, "--max-prefix", "0", "--max-period", "1"]) == OK
        assert main(["posi-check", inf_a_file, "--max-prefix", "1", "--max-period", "1"]) == OK

    @pytest.mark.parametrize("entry", [[0, 0, 5], [-1, 1, 0], [0, 7, 0]])
    @pytest.mark.parametrize("key", ["skeleton", "transitions"])
    def test_out_of_range_tile_entry_invalid(self, tmp_path, capsys, key, entry):
        path = tmp_path / "out-of-range.json"
        path.write_text(json.dumps(dict(INF_A_DOC, alphabet={"a": {key: [entry]}})))
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out.startswith(f"{path}: tile 'a': ")
        assert main(["stats", str(path)]) == INVALID
        assert capsys.readouterr().err.startswith(f"validation error: {path}: tile 'a': ")

    def test_non_closed_transitions_tile_invalid(self, tmp_path, capsys):
        path = tmp_path / "not-closed.json"
        path.write_text(json.dumps(dict(INF_A_DOC, alphabet={"a": {"transitions": [[0, 1, 1]]}})))
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == (
            f"{path}: tile-not-upward-closed: tile 'a' contains (0, 1, 1) "
            "but not the dominating (0, 0, 0)\n"
        )

    def test_unparseable_file_invalid(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == FALSE
        assert main(["member", str(path), "--period", "a"]) == INVALID

    def test_deeply_nested_file_invalid(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == f"{path}: parse error: arrays or objects nested too deeply\n"
        assert main(["stats", str(path)]) == INVALID
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"kind": \xff}', "invalid start byte at byte offset 9"),
            (b'{"kind": "ordered-buchi\xc3', "unexpected end of data at byte offset 23"),
            (b'{"states": ["s\xc3(", "t"]}', "invalid continuation byte at byte offset 14"),
            (b'{"s": "\xed\xa0\x80"}', "invalid continuation byte at byte offset 7"),
        ],
        ids=["stray-byte", "truncated-sequence", "bad-continuation", "encoded-surrogate"],
    )
    def test_undecodable_document_invalid(self, tmp_path, capsys, data, message):
        path = tmp_path / "bytes.json"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == f"{path}: not valid UTF-8: {message}\n"
        for argv in (["stats", str(path)], ["member", str(path), "--period", "a"], ["convert", "rabin", str(path)]):
            assert main(argv) == INVALID
            assert capsys.readouterr().err == f"validation error: {path}: not valid UTF-8: {message}\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'\xef\xbb\xbf{"kind": "parity"}', "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            (b'{\r"kind":\r\rx}', "line 4, column 1: Expecting value"),
            (b'{\r\n"kind":\r\n\r\nx}', "line 4, column 1: Expecting value"),
            (b'{"kind": "ordered-buchi",\x00}', "line 1, column 26: Expecting property name enclosed in double quotes"),
        ],
        ids=["bom", "carriage-returns", "crlf", "nul"],
    )
    def test_parse_error_positions_as_text_mode_reads_them(self, tmp_path, capsys, data, message):
        """Carriage returns end lines, as in text-mode reading, and a BOM is not skipped."""
        path = tmp_path / "bytes.json"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == f"{path}: parse error at {message}\n"

    def _run_ascii_locale(self, tmp_path, *argv):
        """Run the CLI in a subprocess whose locale encoding is ASCII."""
        src = str(Path(obat.__file__).resolve().parents[1])
        env = {"PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        code = "import sys\nfrom obat.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env)

    def test_reading_and_writing_do_not_depend_on_locale(self, tmp_path):
        """A UTF-8 document reads, and its DOT file is written, the same under an ASCII locale."""
        path = tmp_path / "names.json"
        path.write_bytes(json.dumps(dict(INF_A_DOC, states=["é0", "é1"], initial=["é0", "é1"]), ensure_ascii=False).encode())
        done = self._run_ascii_locale(tmp_path, "validate", str(path))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"valid\n", b"")
        ascii_dot, here_dot = tmp_path / "ascii.dot", tmp_path / "here.dot"
        done = self._run_ascii_locale(tmp_path, "dot", str(path), "-o", str(ascii_dot))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert main(["dot", str(path), "-o", str(here_dot)]) == OK
        assert ascii_dot.read_bytes() == here_dot.read_bytes()
        assert "é0".encode() in ascii_dot.read_bytes()

    def test_stats_output_is_ascii(self, tmp_path, capsys):
        """stats on an ordered Büchi file with ASCII state names runs to the end under an ASCII locale."""
        path = tmp_path / "inf_a.json"
        path.write_text(json.dumps(INF_A_DOC))
        done = self._run_ascii_locale(tmp_path, "stats", str(path))
        assert (done.returncode, done.stderr) == (OK, b"")
        assert main(["stats", str(path)]) == OK
        here = capsys.readouterr().out
        assert done.stdout.decode("ascii") == here and here.startswith("|Q| = 2\n|Gamma| = 2\nR_A = ")

    def test_unencodable_standard_output_is_a_usage_error(self, tmp_path):
        """stats prints a state name that ASCII cannot hold: one stderr line and exit 2, no traceback."""
        path = tmp_path / "names.json"
        path.write_bytes(json.dumps(dict(INF_A_DOC, states=["é0", "é1"], initial=["é0", "é1"]), ensure_ascii=False).encode())
        done = self._run_ascii_locale(tmp_path, "stats", str(path))
        assert done.returncode == USAGE
        assert done.stdout == b"|Q| = 2\n|Gamma| = 2\n"
        assert done.stderr == b"usage error: cannot write '\\xe9' as ascii\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            (dict(INF_A_DOC, alphabet=[]), "alphabet must be a JSON object, got list"),
            (dict(INF_A_DOC, morphism=["a"]), "morphism must be a JSON object, got list"),
            (dict(INF_A_DOC, morphism={"y": ["x"]}), "morphism maps 'y' to unknown tile ['x']"),
            (dict(INF_A_DOC, states=["s0", 1]), "state identifiers must be strings"),
            (dict(GENBUCHI_DOC, records=[], universe=["s0"]), "records must be a JSON object, got list"),
            (dict(GENBUCHI_DOC, states=["w", "sa", 1]), "state identifiers must be strings"),
            (dict(INF_A_DOC, states="s0s1"), "states must be a JSON array, got str"),
            (dict(INF_A_DOC, initial="s0"), "initial must be a JSON array, got str"),
            (dict(INF_A_DOC, alphabet={"a": {"skeleton": [[1.7, 0, True]]}}), "tile 'a' entry must be a JSON integer, got float"),
            (dict(INF_A_DOC, alphabet={"a": {"skeleton": [[1, True, 1]]}}), "tile 'a' entry must be a JSON integer, got bool"),
            (dict(INF_A_DOC, alphabet={"a": {"transitions": "abc"}}), "tile 'a' transitions must be a JSON array, got str"),
            (dict(GENBUCHI_DOC, states="w"), "states must be a JSON array, got str"),
            (dict(GENBUCHI_DOC, initial="w"), "initial must be a JSON array, got str"),
            (dict(GENBUCHI_DOC, alphabet="ab"), "alphabet must be a JSON array, got str"),
            (dict(GENBUCHI_DOC, alphabet=["a", 2]), "alphabet letters must be strings"),
            (dict(GENBUCHI_DOC, index=[0, 1.5]), "index bound must be a JSON integer, got float"),
            (dict(GENBUCHI_DOC, index=[False, 1]), "index bound must be a JSON integer, got bool"),
            (dict(GENBUCHI_DOC, transitions=[["w", "a", 1.0, "w"]]), "transition priority must be a JSON integer, got float"),
            (
                dict(GENBUCHI_DOC, transitions=[["w", "a", 1, "sa"], ["sa", "a", 1, 1]]),
                "transition endpoint must be a JSON string, got int",
            ),
            (dict(GENBUCHI_DOC, transitions=[["w", None, 1, "sa"]]), "transition letter must be a JSON string, got NoneType"),
            (
                dict(GENBUCHI_DOC, records={"w": "s0", "sa": []}, universe=["s", "0"]),
                "record 'w' must be a JSON array, got str",
            ),
            (dict(GENBUCHI_DOC, records={"w": ["s0"]}, universe=["s0"]), "records omit state 'sa'"),
            (
                dict(GENBUCHI_DOC, records={"w": ["s0"], "sa": [], "x": []}, universe=["s0"]),
                "record 'x' is not a declared state",
            ),
            (
                {"kind": "parity", "states": ["x", "x"], "initial": ["x"], "index": [0, 1], "transitions": [["x", "a", 0, "x"]]},
                "state identifiers must be pairwise distinct",
            ),
        ],
        ids=[
            "alphabet-list", "morphism-list", "morphism-unhashable", "oba-int-state", "records-list",
            "parity-int-state", "oba-states-string", "oba-initial-string", "skeleton-float", "skeleton-bool",
            "transitions-string", "parity-states-string", "parity-initial-string", "parity-alphabet-string",
            "parity-int-letter", "index-float", "index-bool", "priority-float", "int-endpoint", "null-letter", "record-string",
            "records-omit-state", "records-undeclared-state", "parity-repeated-state",
        ],
    )
    def test_malformed_document_invalid(self, tmp_path, capsys, doc, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == f"{path}: {message}\n"
        assert main(["stats", str(path)]) == INVALID
        assert capsys.readouterr().err == f"validation error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                dict(INF_A_DOC, alphabet={"a": {"skeleton": [[0, 0, 2], [1, 0, 3]]}}),
                "tile 'a': transition (1, 0, 3) out of range for |Q|=2 and priorities 0, 1",
            ),
            (
                dict(INF_A_DOC, alphabet={"a": {"skeleton": [[1, 2, 0], [3, 0, 0]]}}),
                "tile 'a': transition (3, 0, 0) out of range for |Q|=2 and priorities 0, 1",
            ),
            (dict(INF_A_DOC, alphabet={"a": {"skeleton": [[0, 1.5, 0], [1, 1, "x"]]}}), "tile 'a' entry must be a JSON integer, got float"),
            (dict(INF_A_DOC, alphabet={"a": {"skeleton": [[0, 1, "x"], [True, 1, 0]]}}), "tile 'a' entry must be a JSON integer, got str"),
            (
                dict(GENBUCHI_DOC, transitions=GENBUCHI_DOC["transitions"] + [["w", "c", 1, 3], [None, "d", 0, "w"]]),
                "transition endpoint must be a JSON string, got int",
            ),
            (
                dict(GENBUCHI_DOC, transitions=GENBUCHI_DOC["transitions"] + [[None, "d", 0, "w"], ["w", "c", 1, 3]]),
                "transition endpoint must be a JSON string, got NoneType",
            ),
            (
                dict(GENBUCHI_DOC, transitions=GENBUCHI_DOC["transitions"] + [["x", "c", 1, "y"]]),
                "transition ('x', 'c', 1, 'y') uses undeclared state",
            ),
            (dict(GENBUCHI_DOC, transitions=GENBUCHI_DOC["transitions"] + [["w", "a", 0, "sa"]]), "nondeterministic on ('w', 'a')"),
        ],
        ids=[
            "two-out-of-range-rows", "out-of-range-priority-and-row", "two-non-integer-entries", "str-before-bool",
            "two-non-string-endpoints", "null-before-int", "two-undeclared-states", "repeated-state-letter",
        ],
    )
    def test_two_faults_name_the_first_offender(self, tmp_path, capsys, doc, message):
        """Skeleton rows are checked in the set's order, entry types in document order."""
        path = tmp_path / "two-faults.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == f"{path}: {message}\n"
        assert main(["stats", str(path)]) == INVALID
        assert capsys.readouterr().err == f"validation error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([["x", "c", 1, "w"], ["w", "d", 1, "y"]], "transition {} uses undeclared state"),
            ([["w", "c", 2, "w"], ["sa", "d", -1, "w"]], "priority {0[2]} of transition {0} outside index [0,1]"),
        ],
        ids=["two-undeclared-states", "two-priorities-outside-index"],
    )
    def test_two_transition_faults_name_the_least(self, tmp_path, capsys, rows, message):
        """String rows iterate in hash order, so the offender named is the least, not the first met."""
        least = min(tuple(t) for t in rows)
        path = tmp_path / "two-faults.json"
        path.write_text(json.dumps(dict(GENBUCHI_DOC, transitions=GENBUCHI_DOC["transitions"] + rows)))
        assert main(["stats", str(path)]) == INVALID
        assert capsys.readouterr().err == f"validation error: {path}: {message.format(least)}\n"

    @pytest.mark.parametrize(
        "records, message",
        [({"w": ["s0"]}, "records omit state 'sa'"), ({"w": ["s0"], "sa": [], "x": []}, "record 'x' is not a declared state")],
        ids=["omit-state", "undeclared-state"],
    )
    def test_eps_complete_on_mismatched_records_invalid(self, tmp_path, capsys, records, message):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(dict(GENBUCHI_DOC, records=records, universe=["s0"])))
        assert main(["eps-complete", str(path)]) == INVALID
        assert capsys.readouterr().err == f"validation error: {path}: {message}\n"

    @pytest.mark.parametrize("kind", ["det-parity", "parity"])
    def test_reserved_eps_in_parity_alphabet_invalid(self, tmp_path, capsys, kind):
        path = tmp_path / "eps-alphabet.json"
        path.write_text(json.dumps(dict(GENBUCHI_DOC, kind=kind, alphabet=["a", "b", "eps"])))
        message = f"{path}: alphabet letter 'eps' is reserved for ε-transitions"
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == f"{message}\n"
        assert main(["member", str(path), "--prefix", "a", "--period", "eps"]) == INVALID
        assert main(["equiv", str(path), str(path)]) == INVALID
        assert main(["posi-check", str(path)]) == INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"validation error: {message}\n" * 3

    @pytest.mark.parametrize("kind", ["det-parity", "parity"])
    def test_transition_letter_outside_declared_alphabet_is_a_usage_error(self, tmp_path, capsys, kind):
        doc = {
            "kind": kind,
            "states": ["x", "y"],
            "initial": ["x"],
            "index": [0, 1],
            "alphabet": ["a"],
            "transitions": [["x", "a", 0, "x"], ["x", "b", 1, "y"], ["y", "b", 0, "y"]],
        }
        path = tmp_path / "undeclared.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: transition ('x', 'b', 1, 'y') uses undeclared letter"
        assert main(["validate", str(path)]) == FALSE
        assert capsys.readouterr().out == message + "\n"
        p = str(path)
        for argv in (["stats", p], ["member", p, "--period", "a"], ["member", p, "--period", "b"], ["convert", "parity", p]):
            assert main(argv) == INVALID
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"validation error: {message}\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"alphabet": "ab", "pairs": [{"G": ["a"], "R": []}]}, "alphabet must be a JSON array, got str"),
            ({"alphabet": ["a", "b"], "pairs": [{"G": "a", "R": []}]}, "G must be a JSON array, got str"),
            ({"alphabet": ["a"], "pairs": {"G": ["a"], "R": []}}, "pairs must be a JSON array, got dict"),
        ],
        ids=["alphabet-string", "letters-string", "pairs-object"],
    )
    def test_malformed_rabin_spec_invalid(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["convert", "rabin", str(path)]) == INVALID
        assert capsys.readouterr().err == f"validation error: {path}: {message}\n"

    def test_non_string_rabin_letter_invalid(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"alphabet": ["a", 1], "pairs": [{"G": ["a"], "R": []}]}))
        assert main(["convert", "rabin", str(path)]) == INVALID
        assert capsys.readouterr().err == f"validation error: {path}: Rabin alphabet letters must be strings\n"


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see another's arguments."""

    def test_calls_do_not_share_arguments(self, inf_a_file, tmp_path, capsys):
        assert main(["equiv", inf_a_file, inf_a_file, "--max-prefix", "0", "--max-period", "1"]) == OK
        assert "(prefix <= 0, period <= 1)" in capsys.readouterr().out
        assert main(["equiv", inf_a_file, inf_a_file]) == OK
        assert "(prefix <= 3, period <= 4)" in capsys.readouterr().out

        src, out = tmp_path / "eps.json", tmp_path / "from-parity.oba.json"
        write_doc(parity_to_doc(eps_figure()), str(src))
        assert main(["convert", "parity", str(src), "--check-only"]) == OK
        assert capsys.readouterr().out == "ε-complete\n"
        assert main(["convert", "parity", str(src), "-o", str(out)]) == OK
        assert load_document(str(out))[0] == "ordered-buchi"

        assert main(["equiv", inf_a_file, inf_a_file, "--max-period", "0"]) == USAGE
        assert "must be at least 1" in capsys.readouterr().err
        assert main(["equiv", inf_a_file, inf_a_file]) == OK

    @pytest.mark.parametrize("argv", [["--help"], ["convert", "--help"]])
    def test_help_matches_a_fresh_parser(self, inf_a_file, capsys, argv):
        assert main(["validate", inf_a_file]) == OK
        capsys.readouterr()
        assert main(argv) == OK
        reused = capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 0
        fresh = capsys.readouterr()
        assert reused.out.startswith("usage: obat") and (reused.out, reused.err) == (fresh.out, fresh.err)

    def test_second_call_builds_no_parser(self, inf_a_file, capsys, monkeypatch):
        assert main(["validate", inf_a_file]) == OK
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["stats", inf_a_file]) == OK
        assert main(["frobnicate"]) == USAGE
        assert built == []
        build_parser()
        assert built[0] == "obat"

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
            "import obat, obat.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(obat.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={"PYTHONPATH": src}
        )
        assert done.stdout == "0\n"


class TestHashSeedIndependence:
    """Equal inputs give byte-identical output whatever the interpreter's hash seed.

    Each seed runs the same command lines, one after another, in a fresh
    interpreter started with that ``PYTHONHASHSEED``, in its own directory.
    """

    DRIVER = (
        "import json, sys\n"
        "from obat.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = main(argv)\n"
        "    sys.stdout.flush()\n"
        "    print(f'-- {argv[0]} exit {code}', flush=True)\n"
    )

    @staticmethod
    def _inputs(root):
        u = StateUniverse(tuple(f"q{i}" for i in range(4)))
        obas = {
            "inf-a": inf_a(),
            "fig-aa-bb": fig_inf_aa_fin_bb(),
            "fig-b-bb-a": fig_inf_b_or_bb_inf_a(),
            "horizontal-4": OrderedBuchiAutomaton(u, frozenset(range(4)), horizontal_complete_alphabet(u)),
        }
        argv = []
        for name, a in obas.items():
            write_doc(oba_to_doc(a), str(root / f"{name}.json"))
            argv += [
                ["stats", f"{name}.json"],
                ["determinize", f"{name}.json", "-o", f"{name}.det.json"],
                ["stats", f"{name}.det.json"],
                ["eps-complete", f"{name}.det.json", "-o", f"{name}.eps.json"],
                ["stats", f"{name}.eps.json"],
                ["convert", "parity", f"{name}.eps.json", "-o", f"{name}.oba.json"],
            ]
        write_doc(parity_to_doc(eps_figure()), str(root / "eps-figure.json"))
        (root / "genbuchi.json").write_text(json.dumps(GENBUCHI_DOC))
        spec = rabin_two_pair()
        rabin = {"alphabet": list(spec.alphabet), "pairs": [{"G": sorted(g), "R": sorted(r)} for g, r in spec.pairs]}
        (root / "rabin.json").write_text(json.dumps(rabin))
        argv += [
            ["convert", "parity", "eps-figure.json", "-o", "eps-figure.oba.json"],
            ["determinize", "eps-figure.json"],
            ["convert", "parity", "genbuchi.json"],
            ["convert", "rabin", "rabin.json", "-o", "rabin.oba.json"],
            ["determinize", "rabin.oba.json", "-o", "rabin.det.json"],
            ["stats", "rabin.oba.json"],
        ]
        # two faults each, which frozenset order would name by hash seed
        for name, rows in (
            ("two-undeclared", [["x", "c", 1, "w"], ["w", "d", 1, "y"]]),
            ("two-priorities", [["w", "c", 2, "w"], ["sa", "d", -1, "w"]]),
            ("two-repeated-pairs", [["w", "a", 0, "sa"], ["sa", "b", 1, "sa"]]),
        ):
            (root / f"{name}.json").write_text(json.dumps(dict(GENBUCHI_DOC, transitions=GENBUCHI_DOC["transitions"] + rows)))
            argv += [["validate", f"{name}.json"], ["stats", f"{name}.json"]]
        return argv

    def test_outputs_do_not_depend_on_hash_seed(self, tmp_path):
        src = str(Path(obat.__file__).resolve().parents[1])
        runs = []
        for seed in ("0", "5"):
            root = tmp_path / f"seed-{seed}"
            root.mkdir()
            argv = self._inputs(root)
            done = subprocess.run(
                [sys.executable, "-c", self.DRIVER, json.dumps(argv)],
                capture_output=True,
                cwd=root,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
            )
            assert done.returncode == 0, done.stderr
            files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
            runs.append((done.stdout, done.stderr, files))
        (out0, err0, files0), (out5, err5, files5) = runs
        codes = [line.rsplit(b" ", 1)[1] for line in out0.splitlines() if line.startswith(b"-- ")]
        # success, not ε-complete or invalid, usage, validation error
        assert len(codes) == len(argv) and set(codes) == {b"0", b"1", b"2", b"3"}
        assert (out0, err0) == (out5, err5)
        assert files0.keys() == files5.keys() and len(files0) == 25
        for name in files0:
            assert files0[name] == files5[name], name
