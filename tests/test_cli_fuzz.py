"""Fuzz of the CLI error contract: a mutated document gets an exit code, never a traceback.

Valid ordered-Büchi, det-parity (one of them a determinization carrying
``records``/``universe``), parity and Rabin documents are mutated
(values swapped for other JSON types, keys dropped, ``eps`` inserted, lists
turned into strings) and fed to the file-reading commands through
``obat.cli.main``.  The same documents are also mutated as bytes: invalid
UTF-8, truncation, a byte-order mark, NUL bytes and stray bytes.  Every run
must end in one of the documented exit codes 0-3; an exception escaping
``main`` fails the test.  The examples are derandomized, so the run is the
same each time.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obat.cli import main

BASES = {
    "ordered-buchi": {
        "kind": "ordered-buchi",
        "states": ["s0", "s1"],
        "initial": ["s0", "s1"],
        "alphabet": {"t": {"skeleton": [[1, 0, 1]]}, "u": {"transitions": [[0, 1, 0], [1, 1, 1]]}},
        "morphism": {"a": "t", "b": "u"},
    },
    "det-parity": {
        "kind": "det-parity",
        "states": ["w", "sa"],
        "initial": ["w"],
        "index": [0, 1],
        "transitions": [["w", "a", 1, "sa"], ["w", "b", 1, "w"], ["sa", "a", 1, "sa"], ["sa", "b", 0, "w"]],
        "alphabet": ["a", "b"],
    },
    "determinization": {
        "kind": "det-parity",
        "states": ["(p,q,r)", "(p,r,q)"],
        "initial": ["(p,q,r)"],
        "index": [-1, 5],
        "transitions": [
            ["(p,q,r)", "a", 2, "(p,q,r)"], ["(p,q,r)", "b", 3, "(p,r,q)"],
            ["(p,r,q)", "a", 3, "(p,q,r)"], ["(p,r,q)", "b", 1, "(p,r,q)"],
        ],
        "alphabet": ["a", "b"],
        "records": {"(p,q,r)": ["p", "q", "r"], "(p,r,q)": ["p", "r", "q"]},
        "universe": ["r", "q", "p"],
    },
    "parity": {
        "kind": "parity",
        "states": ["p", "q"],
        "initial": ["p"],
        "index": [0, 2],
        "transitions": [["p", "a", 1, "q"], ["q", "eps", 2, "p"], ["q", "b", 0, "q"]],
    },
    "rabin": {"alphabet": ["a", "b"], "pairs": [{"G": ["a"], "R": ["b"]}, {"G": ["b"], "R": []}]},
}

FILE = object()  # stands for the mutated document's path

COMMANDS = [
    ["validate", FILE],
    ["stats", FILE],
    ["member", FILE, "--prefix", "a", "--period", "a b"],
    ["dot", FILE],
    ["convert", "rabin", FILE],
    ["eps-complete", FILE],
    ["convert", "parity", FILE, "--check-only"],
    ["determinize", FILE],
    ["posi-check", FILE, "--max-prefix", "1", "--max-period", "2"],
    ["equiv", FILE, FILE, "--max-prefix", "1", "--max-period", "2"],
]

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([0.5, 1.0, -1.7]),
    st.sampled_from(["", "a", "eps", "s0", "ab", "ordered-buchi"]),
    st.lists(st.sampled_from(["a", "eps", "s0", 0, 1, True]), max_size=3),
    st.sampled_from([{}, {"eps": "t"}, {"skeleton": []}]),
)


def _paths(node, prefix=()):
    """Every path (tuple of keys and indices) below the root of a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, op, value):
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    node = parent[last]
    if op == "drop":
        del parent[last]
    elif op == "replace":
        parent[last] = copy.deepcopy(value)
    elif op == "stringify":
        parent[last] = "".join(map(str, node)) if isinstance(node, list) else str(node)
    elif isinstance(node, list):  # op == "eps"
        node.append("eps")
    elif isinstance(node, dict):
        node["eps"] = copy.deepcopy(next(iter(node.values()), "eps"))
    else:
        parent[last] = "eps"


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        _mutate(
            doc,
            draw(st.sampled_from(paths)),
            draw(st.sampled_from(["drop", "replace", "stringify", "eps"])),
            draw(JSON_VALUES),
        )
    return doc


@settings(max_examples=150, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_mutated_documents_get_documented_exit_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        for command in COMMANDS:
            argv = [path if arg is FILE else arg for arg in command]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, doc)


# byte strings that no UTF-8 decoder accepts where they stand, plus valid ones that JSON rejects
BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80", b"\xc0\xaf"]
ODD_BYTES = [b"\x00", b"\xef\xbb\xbf", b"\r", b"\xc3\xa9", b"\\", b'"', b"]", b"{"]


@st.composite
def mutated_bytes(draw):
    doc = BASES[draw(st.sampled_from(sorted(BASES)))]
    data = json.dumps(doc, indent=draw(st.sampled_from([None, 2])), ensure_ascii=False).encode()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "replace", "truncate", "bom"]))
        at = draw(st.integers(0, len(data)))
        if op == "truncate":
            data = data[:at]
        elif op == "bom":
            data = b"\xef\xbb\xbf" + data
        else:
            piece = draw(st.sampled_from(BAD_BYTES + ODD_BYTES))
            data = data[:at] + piece + data[at + (op == "replace") :]
    return data


@settings(max_examples=120, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_bytes())
def test_mutated_bytes_get_documented_exit_codes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as f:
            f.write(data)
        undecodable = False
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            undecodable = True
        for command in COMMANDS:
            argv = [path if arg is FILE else arg for arg in command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, data)
            if undecodable and command[0] != "validate":
                assert code == 3 and "not valid UTF-8" in err.getvalue(), (argv, data)
