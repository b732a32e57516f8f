"""``write_doc`` writes exactly ``json.dumps(doc, indent=2)`` and a newline, in bounded memory.

The writer streams leaves and batches of scalar lists through the C JSON
encoder, so it is checked differentially against ``json.dumps`` on every
document shape the CLI writes and on the edges of its batching.
"""

import json
import tracemalloc

import pytest

from obat import OrderedBuchiAutomaton, StateUniverse, unit_tile, upward_closure
from obat.cli import _BATCH, oba_to_doc, parity_to_doc, write_doc
from obat.convert import NotEpsComplete, horizontal_complete_alphabet, parity_to_oba, rabin_to_oba
from obat.determinize import apply_eps_completion, determinize
from obat.tiles import UsageError

from zoo import determinization_corpus, eps_complete_corpus, rabin_behavioral_two_pair, rabin_two_pair


def _converted(parity):
    """The ordered Büchi document of an ε-complete parity automaton, or None if it does not convert."""
    try:
        return oba_to_doc(*parity_to_oba(parity))
    except (UsageError, NotEpsComplete):
        return None


def _corpus():
    for name, a in determinization_corpus():
        det = determinize(a)
        eps = apply_eps_completion(det)
        yield f"{name}.oba", oba_to_doc(a)
        yield f"{name}.det", parity_to_doc(det)
        yield f"{name}.eps", parity_to_doc(eps)
        yield f"{name}.eps.oba", _converted(eps)
    for name, p in eps_complete_corpus():
        yield f"{name}.parity", parity_to_doc(p)
        yield f"{name}.parity.oba", _converted(p)


def _rabin():
    for spec in (rabin_two_pair(), rabin_behavioral_two_pair()):
        oba, morphism = rabin_to_oba(spec)
        yield f"rabin-{len(spec.pairs)}-pairs", oba_to_doc(oba, morphism)


def _horizontal_complete(n):
    u = StateUniverse(tuple(f"q{i}" for i in range(n)))
    return OrderedBuchiAutomaton(u, frozenset(range(n)), horizontal_complete_alphabet(u))


def _horizontal():
    for n in range(1, 6):
        a = _horizontal_complete(n)
        yield f"hc{n}.oba", oba_to_doc(a)
        yield f"hc{n}.det", parity_to_doc(determinize(a))


def _awkward():
    """Names that JSON escapes, an empty skeleton, an empty record and an empty alphabet."""
    u = StateUniverse(('quote"', "back\\slash", "new\nline"))
    a = OrderedBuchiAutomaton(
        u,
        frozenset(range(3)),
        {"é∅": upward_closure(u, [(2, 0, 2), (1, 1, 0)]), "𝔸\t": upward_closure(u, []), "b": unit_tile(u)},
    )
    det = determinize(a)
    assert [] in parity_to_doc(det)["records"].values()
    yield "awkward.oba", oba_to_doc(a)
    yield "awkward.det", parity_to_doc(det)
    yield "awkward.eps", parity_to_doc(apply_eps_completion(det))
    letterless = OrderedBuchiAutomaton(u, frozenset({0}), {})
    yield "letterless.oba", oba_to_doc(letterless)
    yield "letterless.det", parity_to_doc(determinize(letterless))
    yield "scalars", {"k": ["x", 1, -2, None, True, 1.5], "e": [], "o": {}, "n": [[], [[1]], [{}], [[], 2]]}
    yield "uneven rows", {"empty row": [[1], [], [2]], "nested row": [[1], [[2], 3]], "dict row": [["x"], [{"y": 1}]]}


def _batch_edges():
    """Lists of scalar lists just below, at and just above the C encoder's batch boundaries."""
    for size in (1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH, 2 * _BATCH + 1):
        rows = [[f"q{i}", "a", i % 3 - 1, f"q{i + 1}"] for i in range(size)]
        yield f"rows-{size}", {"transitions": rows, "deeper": {"rows": rows}}


GROUPS = {
    "corpus": _corpus,
    "rabin": _rabin,
    "horizontal-complete": _horizontal,
    "awkward": _awkward,
    "batch-edges": _batch_edges,
}


@pytest.mark.parametrize("group", GROUPS)
def test_bytes_match_json_dumps(tmp_path, group):
    path = tmp_path / "out.json"
    written = 0
    for name, doc in GROUPS[group]():
        if doc is None:
            continue
        write_doc(doc, str(path))
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode(), name
        written += 1
    assert written >= {"corpus": 190, "rabin": 2, "horizontal-complete": 10, "awkward": 7, "batch-edges": 6}[group]


def test_write_memory_stays_below_the_file_size(tmp_path):
    # building the whole text once would cost more than the file itself
    doc = parity_to_doc(determinize(_horizontal_complete(5)))
    path = tmp_path / "hc5.det.json"
    tracemalloc.start()
    try:
        write_doc(doc, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert len(doc["transitions"]) == 8505 and size > 600_000
    assert peak < size / 4
