import json

import pytest

from obat.cli import (
    FALSE,
    INVALID,
    OK,
    USAGE,
    load_document,
    main,
    oba_to_doc,
    parity_to_doc,
    parse_automaton,
    write_doc,
)
from obat.determinize import apply_eps_completion, determinize

from zoo import eps_figure, inf_a

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


class TestParsing:
    def test_inf_a_round_trip_object(self, inf_a_file):
        a = parse_automaton(inf_a_file)
        ref = inf_a()
        assert a.universe == ref.universe
        assert a.initial == ref.initial
        assert a.alphabet == ref.alphabet

    def test_non_downward_closed_initial_rejected(self, tmp_path):
        doc = dict(INF_A_DOC, initial=["s1"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(Exception) as err:
            parse_automaton(str(path))
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
            parse_automaton(str(path))
        assert "index" in str(err.value)

    def test_round_trip_serialization_is_canonical(self, tmp_path):
        a = inf_a()
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        write_doc(oba_to_doc(a), str(p1))
        kind, a2, _ = load_document(str(p1))
        assert kind == "ordered-buchi" and a2.alphabet == a.alphabet
        write_doc(oba_to_doc(a2), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

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
            parse_automaton(str(path))
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

    def test_dot(self, inf_a_file, tmp_path):
        out = tmp_path / "graph.dot"
        assert main(["dot", inf_a_file, "-o", str(out)]) == OK
        text = out.read_text()
        assert text.startswith("digraph") and "orange" in text and "●" in text

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

    def test_smallest_enumeration_bounds_accepted(self, inf_a_file, capsys):
        assert main(["equiv", inf_a_file, inf_a_file, "--max-prefix", "0", "--max-period", "1"]) == OK
        assert main(["posi-check", inf_a_file, "--max-prefix", "0", "--max-period", "1"]) == OK

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
