"""``write_doc`` writes exactly ``json.dumps(doc, indent=2)`` and a newline, in bounded memory.

The writer streams leaves and batches of scalar lists through the C JSON
encoder, so it is checked differentially against ``json.dumps`` on every
document shape the CLI writes and on the edges of its batching.  An existing
file is rewritten in place: it keeps its inode, links and mode, and no byte
of its old content survives, even when the write fails.
"""

import errno
import json
import os
import stat
import tracemalloc

import pytest

from obat import OrderedBuchiAutomaton, StateUniverse, unit_tile, upward_closure
from obat.cli import _BATCH, _write, load_document, oba_to_doc, parity_to_doc, write_doc
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
    """Written fresh, and over stale files twice as long, as long and half as long."""
    path = tmp_path / "out.json"
    written = 0
    for name, doc in GROUPS[group]():
        if doc is None:
            continue
        expected = (json.dumps(doc, indent=2) + "\n").encode()
        path.unlink(missing_ok=True)
        write_doc(doc, str(path))
        assert path.read_bytes() == expected, name
        for stale in (2 * len(expected), len(expected), len(expected) // 2):
            path.write_bytes(b"#" * stale)
            write_doc(doc, str(path))
            assert path.read_bytes() == expected, (name, stale)
        written += 1
    assert written >= {"corpus": 190, "rabin": 2, "horizontal-complete": 10, "awkward": 7, "batch-edges": 6}[group]


def _library_built():
    """(name, automaton, morphism): the zoo and the 54-automaton corpus, both Rabin specs and the
    ε-corpus with its conversions, each ordered Büchi automaton with its determinization and
    that determinization's ε-completion."""
    obas = [(name, a, None) for name, a in determinization_corpus()]
    for spec in (rabin_two_pair(), rabin_behavioral_two_pair()):
        obas.append((f"rabin-{len(spec.alphabet)}-letters", *rabin_to_oba(spec)))
    for name, p in eps_complete_corpus():
        yield f"{name}.parity", p, None
        obas.append((f"{name}.parity.oba", *parity_to_oba(p)))
    for name, a, morphism in obas:
        det = determinize(a)
        yield name, a, morphism
        yield f"{name}.det", det, None
        yield f"{name}.eps", apply_eps_completion(det), None


def test_documents_load_back_equal(tmp_path):
    """``load_document`` refuses no document written from a library-built automaton, and gives it back equal."""
    path = str(tmp_path / "doc.json")
    count = 0
    for name, a, morphism in _library_built():
        write_doc(oba_to_doc(a, morphism) if isinstance(a, OrderedBuchiAutomaton) else parity_to_doc(a), path)
        assert load_document(path)[1:] == (a, morphism), name
        count += 1
    assert count == 3 * (54 + 2 + 6) + 6


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


DOC = {"kind": "det-parity", "index": [0, 1], "transitions": [["q0", "a", 1, "q0"]]}
EXPECTED = (json.dumps(DOC, indent=2) + "\n").encode()


def test_rewrite_keeps_inode_links_and_mode(tmp_path):
    path, link = tmp_path / "out.json", tmp_path / "link.json"
    path.write_bytes(b"#" * 3 * len(EXPECTED))
    path.chmod(0o604)
    os.link(path, link)
    inode = path.stat().st_ino
    write_doc(DOC, str(path))
    assert path.read_bytes() == link.read_bytes() == EXPECTED
    assert path.stat().st_ino == inode and path.stat().st_nlink == 2
    assert stat.S_IMODE(path.stat().st_mode) == 0o604


def test_symlinked_target_is_written_through(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"#" * 3 * len(EXPECTED))
    link.symlink_to(target)
    write_doc(DOC, str(link))
    assert link.is_symlink() and target.read_bytes() == EXPECTED


def test_new_file_mode_follows_the_umask(tmp_path):
    path = tmp_path / "new.json"
    old = os.umask(0o027)
    try:
        write_doc(DOC, str(path))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
    assert path.read_bytes() == EXPECTED


def test_existing_file_is_not_opened_for_truncation(tmp_path, monkeypatch):
    """The old file is overwritten and cut at the end, never emptied first by ``O_TRUNC``."""
    path = tmp_path / "out.json"
    path.write_bytes(b"#" * 3 * len(EXPECTED))
    opened, real_open = [], os.open

    def recording_open(name, flags, *args, **kwargs):
        opened.append((name, flags))
        return real_open(name, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    write_doc(DOC, str(path))
    assert [name for name, _ in opened] == [str(path)]
    assert not opened[0][1] & os.O_TRUNC
    assert path.read_bytes() == EXPECTED


@pytest.mark.parametrize("before_failure", [0, 3, 5000])
def test_failed_write_leaves_no_old_tail(tmp_path, before_failure):
    """A write that fails part-way leaves the chunks written so far, and none of the old bytes after them."""
    path = tmp_path / "out.json"
    chunks = [f"chunk {i}\n" for i in range(before_failure)]
    path.write_bytes(b"#" * 2 * len("".join(chunks).encode()) + b"#" * 100)

    def failing():
        yield from chunks
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(UsageError) as raised:
        _write(str(path), failing())
    assert str(raised.value) == f"cannot write {path}: No space left on device"
    assert path.read_bytes() == "".join(chunks).encode()


@pytest.mark.parametrize("old_size, truncates", [(None, 0), (0, 0), (len(EXPECTED), 0), (2 * len(EXPECTED), 1)])
def test_file_is_cut_only_when_shorter_than_before(tmp_path, monkeypatch, old_size, truncates):
    """A new file, an empty one and a same-size rewrite need no ``ftruncate``; a shorter rewrite needs one."""
    path = tmp_path / "out.json"
    if old_size is not None:
        path.write_bytes(b"#" * old_size)
    calls, real_ftruncate = [], os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: calls.append(length) or real_ftruncate(fd, length))
    write_doc(DOC, str(path))
    assert path.read_bytes() == EXPECTED
    assert calls == [len(EXPECTED)] * truncates
