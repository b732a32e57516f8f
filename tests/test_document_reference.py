"""Differential test of the bulk document layer against its per-row predecessor.

The references below keep the earlier per-row code: ``_parse_oba`` with an
unpack, a per-entry type loop and eager messages; ``upward_closure`` with a
running maximum from ``itertools.accumulate`` and a separate corner scan;
``_parse_parity`` with per-column type loops and ``universe.index`` per
record entry; the ``ParityAutomaton`` checks one transition at a time, in
sorted order so that the offender named is the least; and
``parity_to_doc`` sorting list rows; and ``ref_oba_issues``, the report of
every violated ordered-Büchi invariant that loading and ``oba_validate``
read before ``OrderedBuchiAutomaton`` raised the first one itself.  The
library checks the entry types of an ordered-Büchi document with one
type-set test per document, after building its letters, and parity columns with one type-set test each; it
walks rows only to name an offender, so a fault in an earlier letter must
still come before a wrong entry type in a later one.  Its
``ParityAutomaton`` checks make one pass in set order and sort only on a
fault, and the reference pins them for any later bulk version.  Both must build equal automata and
equal documents on the zoo, the 54-automaton corpus, seeded random automata,
the horizontal-complete alphabets and their determinizations and
ε-completions, and must raise the same exception type and message on every
malformed document, each under this process's hash seed, so that a check
that reports a different offender than the per-row order shows here.
"""

import copy
import itertools
import json
import random

import pytest

from obat import (
    EPS,
    Morphism,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    StateUniverse,
    Tile,
    ValidationError,
    upward_closure,
)
from obat.cli import _parse_oba, _parse_parity, oba_to_doc, parity_to_doc
from obat.convert import horizontal_complete_alphabet, parity_to_oba, rabin_to_oba
from obat.determinize import apply_eps_completion, determinize
from obat.tiles import NotUpwardClosed, trans_leq

from zoo import (
    determinization_corpus,
    eps_complete_corpus,
    rabin_behavioral_two_pair,
    rabin_two_pair,
    random_oba,
    rich_oba,
)

PATH = "doc.json"


# --- per-row references ----------------------------------------------------------


def ref_upward_closure(universe, generators):
    n = universe.size
    best = [-1] * n
    buchi = set()
    for (p, c, q) in generators:
        if not (0 <= p < n and 0 <= q < n and c in (0, 1)):
            raise ValidationError(f"transition {(p, c, q)} out of range for |Q|={n} and priorities 0, 1")
        best[p] = max(best[p], q)
        if c == 0:
            buchi.add((p, q))
    top = tuple(itertools.accumulate(best, max))
    corners = [p for p, t in enumerate(top) if t >= 0 and (p == 0 or top[p - 1] < t)]
    ones = frozenset(p for p in corners if (p, top[p]) not in buchi)
    return Tile(universe, top, ones)


def ref_tile_of(universe, transitions):
    trans = frozenset(transitions)
    tile = ref_upward_closure(universe, trans)
    missing = sorted(tile.transitions - trans)
    for d in trans:
        for d2 in missing:
            if trans_leq(d, d2):
                raise NotUpwardClosed(f"contains {d} but not the dominating {d2}")
    return tile


_JSON_NAMES = {dict: "object", list: "array", int: "integer", str: "string"}


def ref_typed(value, kind, what, path):
    if not isinstance(value, kind):
        raise ValidationError(f"{path}: {what} must be a JSON {_JSON_NAMES[kind]}, got {type(value).__name__}")
    return value


def ref_require(values, kind, what, path):
    for x in values:
        if type(x) is not kind:
            raise ValidationError(f"{path}: {what} must be a JSON {_JSON_NAMES[kind]}, got {type(x).__name__}")


def ref_universe(names, path):
    try:
        return StateUniverse(tuple(names))
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def ref_oba_issues(universe, initial, alphabet):
    """The violated ordered-Büchi invariants as (kind, message) pairs, every one, in report order.

    The library's report before ``OrderedBuchiAutomaton`` checked its own
    invariants: out-of-range initial states, then initial states with a gap
    below them, then tiles over another universe, each in sorted order.
    """
    issues = []
    names = universe.states
    for q in sorted(initial):
        if not 0 <= q < universe.size:
            issues.append(("initial", f"state index {q} out of range"))
    for q in sorted(initial & frozenset(range(universe.size))):
        for q2 in range(q):
            if q2 not in initial:
                issues.append(("initial-not-downward-closed", f"{names[q]} is initial but {names[q2]} below it is not"))
                break
    for letter in sorted(x for x, t in alphabet.items() if t.universe is not universe and t.universe != universe):
        issues.append(("tile-universe", f"tile {letter!r} built over a different universe"))
    return issues


def ref_parse_oba(doc, path):
    try:
        universe = ref_universe(ref_typed(doc["states"], list, "states", path), path)
        initial = frozenset(universe.index(s) for s in ref_typed(doc["initial"], list, "initial", path))
        alphabet = {}
        for letter, body in ref_typed(doc["alphabet"], dict, "alphabet", path).items():
            if "skeleton" in body:
                build, key = ref_upward_closure, "skeleton"
            elif "transitions" in body:
                build, key = ref_tile_of, "transitions"
            else:
                raise ValidationError(f"{path}: tile {letter!r} needs 'skeleton' or 'transitions'")
            triples = [(p, c, q) for (p, c, q) in ref_typed(body[key], list, f"tile {letter!r} {key}", path)]
            ref_require((x for t in triples for x in t), int, f"tile {letter!r} entry", path)
            try:
                alphabet[letter] = build(universe, frozenset(triples))
            except NotUpwardClosed as e:
                raise ValidationError(f"{path}: tile-not-upward-closed: tile {letter!r} {e}") from None
            except ValidationError as e:
                raise ValidationError(f"{path}: tile {letter!r}: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ValidationError):
            raise
        raise ValidationError(f"{path}: malformed ordered-buchi document ({e})") from None
    if EPS in alphabet:  # a document's letter names are strings
        raise ValidationError(f"{path}: tile letter name {EPS!r} is reserved")
    issues = ref_oba_issues(universe, initial, alphabet)
    if issues:
        raise ValidationError(f"{path}: {issues[0][0]}: {issues[0][1]}")
    a = OrderedBuchiAutomaton(universe=universe, initial=initial, alphabet=alphabet)
    morphism = None
    if "morphism" in doc:
        morphism = Morphism.from_dict(ref_typed(doc["morphism"], dict, "morphism", path))
        for letter, name in morphism.mapping:
            if not isinstance(name, str) or name not in alphabet:
                raise ValidationError(f"{path}: morphism maps {letter!r} to unknown tile {name!r}")
    return a, morphism


def ref_check_parity(states, initial, index, transitions, deterministic, alphabet=None, records=None, universe=None):
    """The checks of ``ParityAutomaton.__post_init__``, one transition at a time in sorted order."""
    if alphabet is not None:
        if not all(isinstance(x, str) for x in alphabet):
            raise ValidationError("alphabet letters must be strings")
        if EPS in alphabet:
            raise ValidationError(f"alphabet letter {EPS!r} is reserved for ε-transitions")
    lo, hi = index
    if type(lo) is not int or type(hi) is not int:
        raise ValidationError("index bounds must be ints")
    if lo > hi:
        raise ValidationError(f"empty priority index [{lo},{hi}]")
    if not all(isinstance(s, str) for s in states):
        raise ValidationError("state identifiers must be strings")
    stateset = set(states)
    if len(stateset) != len(states):
        raise ValidationError("state identifiers must be pairwise distinct")
    if not initial <= stateset:
        raise ValidationError("initial states must be declared states")
    for t in transitions:
        if not isinstance(t[1], str):
            raise ValidationError("transition letters must be strings")
    for t in transitions:
        if type(t[2]) is not int:
            raise ValidationError("transition priorities must be ints")
    for t in transitions:
        if not (isinstance(t[0], str) and isinstance(t[3], str)):
            raise ValidationError("transition endpoints must be strings")
    for (p, a, c, q) in sorted(transitions):
        if p not in stateset or q not in stateset:
            raise ValidationError(f"transition {(p, a, c, q)} uses undeclared state")
        if not lo <= c <= hi:
            raise ValidationError(f"priority {c} of transition {(p, a, c, q)} outside index [{lo},{hi}]")
    if deterministic:
        if len(initial) != 1:
            raise ValidationError("deterministic automaton needs exactly one initial state")
        seen = set()
        for (p, a, _, _) in sorted(transitions):
            if a == EPS:
                continue
            if (p, a) in seen:
                raise ValidationError(f"nondeterministic on ({p!r}, {a!r})")
            seen.add((p, a))
    if alphabet is not None:
        for t in sorted(transitions):
            if t[1] != EPS and t[1] not in alphabet:
                raise ValidationError(f"transition {t} uses undeclared letter")
    if (records is None) != (universe is None):
        raise ValidationError("records and universe must be given together")
    if records is not None:
        for name in records:
            if name not in stateset:
                raise ValidationError(f"record {name!r} is not a declared state")
        for name in states:
            if name not in records:
                raise ValidationError(f"records omit state {name!r}")
        for name in states:
            for q in records[name]:
                if type(q) is not int or not 0 <= q < universe.size:
                    raise ValidationError(f"record {name!r} entry {q!r} is not a state of the universe")


def ref_parity(**fields):
    ref_check_parity(
        fields["states"],
        fields["initial"],
        fields["index"],
        fields["transitions"],
        fields["deterministic"],
        fields.get("alphabet"),
        fields.get("records"),
        fields.get("universe"),
    )
    return ParityAutomaton(**fields)


def ref_parse_parity(doc, path, deterministic):
    record_doc = ref_typed(doc["records"], dict, "records", path) if "records" in doc else None
    try:
        states = tuple(ref_typed(doc["states"], list, "states", path))
        initial = frozenset(ref_typed(doc["initial"], list, "initial", path))
        lo, hi = ref_typed(doc["index"], list, "index", path)
        ref_require((lo, hi), int, "index bound", path)
        transitions = [(p, x, c, q) for (p, x, c, q) in ref_typed(doc["transitions"], list, "transitions", path)]
        ref_require((x for t in transitions for x in (t[0], t[3])), str, "transition endpoint", path)
        ref_require((t[1] for t in transitions), str, "transition letter", path)
        ref_require((t[2] for t in transitions), int, "transition priority", path)
        alphabet = None
        if "alphabet" in doc:
            alphabet = frozenset(ref_typed(doc["alphabet"], list, "alphabet", path))
        records = universe = None
        if record_doc is not None:
            universe = ref_universe(ref_typed(doc["universe"], list, "universe", path), path)
            records = {
                name: tuple(universe.index(s) for s in ref_typed(entries, list, f"record {name!r}", path))
                for name, entries in record_doc.items()
            }
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ValidationError):
            raise
        raise ValidationError(f"{path}: malformed parity document ({e})") from None
    try:
        a = ref_parity(
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
    return a


def ref_parity_to_doc(a):
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
        doc["records"] = {name: [a.universe.name(q) for q in a.records[name]] for name in a.states}
        doc["universe"] = list(a.universe.states)
    return doc


# --- comparison helpers -----------------------------------------------------------


def _outcome(f, *args):
    """("ok", value) or ("raised", exception type, message)."""
    try:
        return ("ok", f(*args))
    except Exception as e:  # noqa: BLE001 - the type is part of what is compared
        return ("raised", type(e), str(e))


def _same(new, ref, *args):
    got, want = _outcome(new, *args), _outcome(ref, *args)
    assert got == want, args
    return got


def _at_path(parse):
    """``parse`` called as the reference is, with a path after the document; its validation
    errors get that path as their prefix, as ``load_document`` gives them."""

    def parse_at(doc, path, *args):
        try:
            return parse(doc, *args)
        except ValidationError as e:
            raise ValidationError(f"{path}: {e}") from None

    return parse_at


def _parse(doc):
    """The new and the per-row parse of a document, by its kind."""
    kind = doc.get("kind") if type(doc) is dict else None
    if kind in ("parity", "det-parity"):
        return _same(_at_path(_parse_parity), ref_parse_parity, doc, PATH, kind == "det-parity")
    return _same(_at_path(_parse_oba), ref_parse_oba, doc, PATH)


def _json(doc):
    return json.loads(json.dumps(doc))


# --- corpora ---------------------------------------------------------------------


def _universe(n):
    return StateUniverse(tuple(f"q{i}" for i in range(n)))


def _horizontal_complete(n):
    u = _universe(n)
    return OrderedBuchiAutomaton(u, frozenset(range(n)), horizontal_complete_alphabet(u))


def _automata():
    """(name, automaton, morphism) over the zoo, the corpus, random and horizontal-complete cases."""
    for name, a in determinization_corpus():
        yield name, a, None
    for spec in (rabin_two_pair(), rabin_behavioral_two_pair()):
        oba, morphism = rabin_to_oba(spec)
        yield f"rabin-{len(spec.alphabet)}-letters", oba, morphism
    for name, p in eps_complete_corpus():
        yield f"parity-{name}", *parity_to_oba(p)
    rng = random.Random(4242)
    cases = [random_oba(rng, max_states=6) for _ in range(300)]
    assert {a.universe.size for a in cases} == set(range(1, 7))
    for i, a in enumerate(cases):
        yield f"random-{i}", a, None
    for n in range(1, 6):
        yield f"horizontal-complete-{n}", _horizontal_complete(n), None


def _tile_bodies(a):
    """The same alphabet three ways: skeletons, every transition as a generator, explicit transitions."""
    skeletons = oba_to_doc(a)["alphabet"]
    every = {x: {"skeleton": sorted(map(list, a.alphabet[x].transitions))} for x in sorted(a.alphabet)}
    explicit = {x: {"transitions": body["skeleton"]} for x, body in every.items()}
    return skeletons, every, explicit


class TestWellFormedDocuments:
    def test_ordered_buchi_and_their_determinizations(self):
        parities = 0
        for name, a, morphism in _automata():
            doc = _json(oba_to_doc(a, morphism))
            for alphabet in _tile_bodies(a):
                assert _parse(dict(doc, alphabet=_json(alphabet))) == ("ok", (a, morphism)), name
            det = determinize(a)
            for p in (det, apply_eps_completion(det)):
                doc = _same(parity_to_doc, ref_parity_to_doc, p)[1]
                assert json.dumps(doc, indent=2) == json.dumps(ref_parity_to_doc(p), indent=2), name
                outcome = _parse(_json(doc))
                assert outcome == ("ok", p), name
                parities += 1
        assert parities > 700

    def test_parity_corpus(self):
        for name, p in eps_complete_corpus():
            doc = _same(parity_to_doc, ref_parity_to_doc, p)[1]
            assert _parse(_json(doc)) == ("ok", p), name


# --- malformed documents ------------------------------------------------------------

OBA = {
    "kind": "ordered-buchi",
    "states": ["s0", "s1", "s2"],
    "initial": ["s0", "s1"],
    "alphabet": {"a": {"skeleton": [[2, 0, 2], [1, 1, 0]]}, "b": {"skeleton": [[0, 1, 0], [2, 1, 1]]}},
}

DET = {
    "kind": "det-parity",
    "states": ["(p,q)", "(q,p)", "(p)"],
    "initial": ["(p,q)"],
    "index": [-1, 3],
    "transitions": [
        ["(p,q)", "a", 2, "(q,p)"], ["(p,q)", "b", 3, "(p)"],
        ["(q,p)", "a", 1, "(p,q)"], ["(q,p)", "b", 0, "(q,p)"],
        ["(p)", "a", -1, "(p)"], ["(p)", "b", 1, "(p,q)"],
    ],
    "alphabet": ["a", "b"],
    "records": {"(p,q)": ["p", "q"], "(q,p)": ["q", "p"], "(p)": ["p"]},
    "universe": ["q", "p"],
}

PARITY = {
    "kind": "parity",
    "states": ["x", "y", "z"],
    "initial": ["x", "y"],
    "index": [0, 2],
    "transitions": [["x", "a", 1, "y"], ["y", "eps", 2, "x"], ["y", "eps", 0, "z"], ["z", "b", 0, "z"]],
}


def _with(base, **changes):
    doc = copy.deepcopy(base)
    doc.update(changes)
    return doc


def _rows(base, *rows):
    return _with(base, transitions=copy.deepcopy(base["transitions"]) + [list(r) for r in rows])


MALFORMED = {
    # two faults of one kind: the message names the first in the per-row order
    "oba-two-out-of-range-rows": _with(OBA, alphabet={"a": {"skeleton": [[0, 0, 5], [4, 1, 0], [1, 1, 1]]}}),
    "oba-two-out-of-range-priorities": _with(OBA, alphabet={"a": {"skeleton": [[0, 2, 0], [1, 1, 1], [2, -1, 2]]}}),
    "oba-out-of-range-in-second-letter": _with(
        OBA, alphabet={"a": {"skeleton": [[0, 0, 0]]}, "b": {"transitions": [[3, 0, 0], [0, 0, 7]]}}
    ),
    "oba-two-non-integer-entries": _with(OBA, alphabet={"a": {"skeleton": [[0, 0, 0], [1, 1.0, 1], [2, "x", 2]]}}),
    "oba-bool-and-null": _with(OBA, alphabet={"a": {"skeleton": [[True, 0, 0], [1, 1, None]]}}),
    "oba-short-and-long-rows": _with(OBA, alphabet={"a": {"skeleton": [[0, 0, 0], [1, 1], [1, 1, 1, 1]]}}),
    "oba-long-then-short-rows": _with(OBA, alphabet={"a": {"skeleton": [[1, 1, 1, 1], [1, 1]]}}),
    "oba-short-row-and-bad-type": _with(OBA, alphabet={"a": {"skeleton": [[0, "x", 0], [1, 1]]}}),
    "oba-non-array-row": _with(OBA, alphabet={"a": {"skeleton": [[0, 0, 0], 7]}}),
    "oba-string-row": _with(OBA, alphabet={"a": {"skeleton": ["abc"]}}),
    "oba-object-row": _with(OBA, alphabet={"a": {"skeleton": [{"p": 0, "c": 0, "q": 0}]}}),
    "oba-not-closed": _with(OBA, alphabet={"a": {"transitions": [[0, 1, 1], [1, 1, 2]]}}),
    # faults in two letters: the earlier letter's is named, whatever the kinds
    "oba-out-of-range-then-bool-two-letters-on": _with(
        OBA, alphabet={"a": {"skeleton": [[0, 0, 5]]}, "b": {"skeleton": [[0, 0, 0]]}, "c": {"skeleton": [[True, 0, 0]]}}
    ),
    "oba-out-of-range-then-float-two-letters-on": _with(
        OBA, alphabet={"a": {"skeleton": [[4, 1, 0]]}, "b": {"skeleton": [[0, 0, 0]]}, "c": {"skeleton": [[1, 1.0, 1]]}}
    ),
    "oba-not-closed-then-bad-type": _with(
        OBA,
        alphabet={
            "a": {"skeleton": [[0, 0, 0]]},
            "b": {"transitions": [[0, 1, 1], [1, 1, 2]]},
            "c": {"skeleton": [[0, "x", 0]]},
        },
    ),
    "oba-bad-type-then-not-closed": _with(
        OBA,
        alphabet={
            "a": {"skeleton": [[0, 1.0, 0]]},
            "b": {"transitions": [[0, 1, 1], [1, 1, 2]]},
            "c": {"skeleton": [[2, 0, 2]]},
        },
    ),
    "oba-eps-after-bad-type": _with(
        OBA, alphabet={"a": {"skeleton": [[0, 0, 0]]}, "b": {"skeleton": [[1, 1.0, 1]]}, "eps": {"skeleton": []}}
    ),
    "oba-eps-after-bool": _with(OBA, alphabet={"a": {"skeleton": [[True, 0, 0]]}, "eps": {"skeleton": [[0, 0, 0]]}}),
    "oba-short-row-after-bad-type": _with(
        OBA, alphabet={"a": {"skeleton": [[0, 1.0, 0]]}, "b": {"skeleton": [[0, 0]]}}
    ),
    "oba-skeleton-string": _with(OBA, alphabet={"a": {"skeleton": "abc"}}),
    "oba-no-tile-key": _with(OBA, alphabet={"a": {"rows": []}}),
    "oba-eps-letter": _with(OBA, alphabet={"eps": {"skeleton": []}}),
    # the letter-name rules are the constructors': checked after every letter is built and typed
    "oba-eps-before-bad-type": _with(OBA, alphabet={"eps": {"skeleton": []}, "b": {"skeleton": [[1, 1.0, 1]]}}),
    "oba-eps-before-not-closed": _with(OBA, alphabet={"eps": {"skeleton": []}, "b": {"transitions": [[0, 1, 1], [1, 1, 2]]}}),
    "oba-eps-and-initial-not-downward-closed": _with(OBA, initial=["s1"], alphabet={"eps": {"skeleton": []}}),
    "det-alphabet-int-and-universe-int": _with(DET, alphabet=[1, "b"], universe=["q", "p", 3]),
    "det-alphabet-eps-and-record-unknown": _with(DET, alphabet=["a", "b", "eps"], records={"(p,q)": ["x"]}),
    "parity-alphabet-eps-and-index-reversed": _with(PARITY, alphabet=["a", "eps"], index=[2, 0]),
    "oba-initial-unknown": _with(OBA, initial=["s0", "s9"]),
    "oba-initial-not-downward-closed": _with(OBA, initial=["s1"]),
    "oba-morphism-unknown": _with(OBA, morphism={"x": "a", "y": "c"}),
    "oba-states-repeated": _with(OBA, states=["s0", "s0", "s1"]),
    "oba-states-missing": {k: v for k, v in OBA.items() if k != "states"},
    "det-two-undeclared-states": _rows(DET, ["(x)", "a", 0, "(p)"], ["(p)", "c", 0, "(y)"]),
    "det-undeclared-both-ends": _rows(DET, ["(x)", "c", 0, "(y)"]),
    "det-two-priorities-outside": _rows(DET, ["(p)", "c", 4, "(p)"], ["(q,p)", "c", -2, "(p)"]),
    "det-undeclared-and-priority": _rows(DET, ["(x)", "c", 1, "(p)"], ["(p)", "d", 9, "(p)"]),
    "det-repeated-pair": _rows(DET, ["(p,q)", "a", 0, "(p)"]),
    "det-two-repeated-pairs": _rows(DET, ["(p,q)", "a", 0, "(p)"], ["(p)", "b", 0, "(p)"]),
    "det-eps-shared-source": _rows(DET, ["(p)", "eps", 0, "(p,q)"], ["(p)", "eps", 1, "(q,p)"]),
    "det-two-initial": _with(DET, initial=["(p,q)", "(p)"]),
    "det-two-non-string-endpoints": _rows(DET, ["(p)", "c", 0, 3], [None, "d", 0, "(p)"]),
    "det-two-non-string-letters": _rows(DET, ["(p)", 1, 0, "(p)"], ["(p)", None, 0, "(p)"]),
    "det-two-non-integer-priorities": _rows(DET, ["(p)", "c", 1.0, "(p)"], ["(p)", "d", "1", "(p)"]),
    "det-endpoint-after-letter": _rows(DET, ["(p)", 1, 0, "(p)"], [2, "d", 0, "(p)"]),
    "det-short-row": _rows(DET, ["(p)", "c", 0]),
    "det-index-reversed": _with(DET, index=[3, -1]),
    "det-index-float": _with(DET, index=[-1, 3.0]),
    "det-index-bool-both": _with(DET, index=[False, True]),
    "det-record-unknown-states": _with(DET, records={"(p,q)": ["p", "x"], "(q,p)": ["y"], "(p)": ["p"]}),
    "det-record-unhashable-entry": _with(DET, records={"(p,q)": ["p", ["q"]], "(q,p)": ["q"], "(p)": ["p"]}),
    "det-record-not-array": _with(DET, records={"(p,q)": ["p", "q"], "(q,p)": "qp", "(p)": ["p"]}),
    "det-records-omit": _with(DET, records={"(p,q)": ["p", "q"]}),
    "det-records-extra": _with(DET, records={"(p,q)": ["p", "q"], "(q,p)": ["q", "p"], "(p)": ["p"], "(z)": []}),
    "det-records-extra-and-omit": _with(DET, records={"(z)": [], "(p,q)": ["p", "q"]}),
    "det-records-swap-one": _with(DET, records={"(p,q)": ["p", "q"], "(q,p)": ["q", "p"], "(z)": ["p"]}),
    "det-universe-missing": {k: v for k, v in DET.items() if k != "universe"},
    "det-states-repeated": _with(DET, states=["(p,q)", "(p)", "(p)"]),
    "det-initial-undeclared": _with(DET, initial=["(z)"]),
    "parity-two-undeclared": _rows(PARITY, ["x", "eps", 0, "w"], ["v", "a", 1, "x"]),
    "parity-two-priorities-outside": _rows(PARITY, ["x", "eps", 3, "y"], ["z", "a", -1, "x"]),
    "parity-alphabet-eps": _with(PARITY, alphabet=["a", "eps"]),
    "parity-alphabet-int": _with(PARITY, alphabet=["a", 1]),
    "parity-states-int": _with(PARITY, states=["x", "y", 3]),
    "parity-no-transitions": _with(PARITY, transitions=[]),
    "parity-two-undeclared-letters": _with(_rows(PARITY, ["x", "c", 0, "y"]), alphabet=["a"]),
    "det-undeclared-letter-and-repeated-pair": _with(_rows(DET, ["(p,q)", "a", 0, "(p)"]), alphabet=["b"]),
    "det-undeclared-letter-and-records-omit": _with(DET, alphabet=["a"], records={"(p,q)": ["p", "q"]}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_same_error(name):
    outcome = _parse(copy.deepcopy(MALFORMED[name]))
    if name not in ("det-eps-shared-source", "parity-no-transitions"):
        assert outcome[0] == "raised", outcome


_VALUES = [None, True, 0, 1, 5, -1, 1.5, "", "a", "eps", "s0", "(p)", "p", [], [0, 0, 0], ["p"], {}, {"a": 1}]


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(rng, base):
    doc = copy.deepcopy(base)
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = rng.choice(paths)
        parent = doc
        for key in head:
            parent = parent[key]
        op = rng.randrange(3)
        if op == 0:
            del parent[last]
        elif op == 1:
            parent[last] = copy.deepcopy(rng.choice(_VALUES))
        elif isinstance(parent[last], list):
            parent[last].append(copy.deepcopy(rng.choice(_VALUES + [parent[last][:1]])))
        else:
            parent[last] = [parent[last], rng.choice(_VALUES)]
    return doc


def test_random_mutations_same_outcome():
    rng = random.Random(515)
    raised = 0
    for base in (OBA, DET, PARITY):
        for _ in range(400):
            raised += _parse(_mutated(rng, base))[0] == "raised"
    assert raised > 600


# --- the library entry points -------------------------------------------------------------


def _generator(rng, n):
    """A generator inside the states and priorities, or now and then one that may fall outside."""
    if rng.random() < 0.15:
        return (rng.randint(-1, n), rng.randint(-1, 2), rng.randint(-1, n))
    return (rng.randrange(n), rng.randint(0, 1), rng.randrange(n))


def test_upward_closure_same_tile_or_error():
    rng = random.Random(77)
    for _ in range(3000):
        n = rng.randint(1, 6)
        u = _universe(n)
        gens = frozenset(_generator(rng, n) for _ in range(rng.randint(0, 2 * n)))
        _same(upward_closure, ref_upward_closure, u, gens)


def test_parity_automaton_same_checks():
    """Random fields, declared alphabets that may miss a transition's letter, and records that may
    miss or add a state; the alphabets and records come from a second generator, the record
    entries and the universe, which may be missing or given alone, from a third, and a priority,
    endpoint or index bound of a wrong type from a fourth, so the other fields are drawn as
    before they were added."""
    rng, extra, third, typed = random.Random(99), random.Random(98), random.Random(97), random.Random(96)
    states = ("x", "y", "z")
    faults = {
        "undeclared letter": "letter",
        "is not a declared state": "record-extra",
        "records omit state": "record-omit",
        "records and universe must be given together": "records-universe",
        "is not a state of the universe": "record-entry",
        "index bounds must be ints": "index-type",
        "transition priorities must be ints": "priority-type",
        "transition endpoints must be strings": "endpoint-type",
    }
    seen = set()
    for _ in range(3000):
        lo = rng.randint(-1, 1)
        hi = lo + rng.randint(-1, 3)
        transitions = frozenset(
            (rng.choice(states + ("w",)), rng.choice(("a", "b", EPS)), rng.randint(lo - 1, hi + 1), rng.choice(states + ("v",)))
            for _ in range(rng.randint(0, 6))
        )
        fields = dict(
            states=states,
            initial=frozenset(rng.sample(states, rng.randint(1, 2))),
            index=(lo, hi),
            transitions=transitions,
            deterministic=rng.random() < 0.7,
            alphabet=extra.choice((None, None, frozenset("a"), frozenset("ab"))),
        )
        if extra.random() < 0.3:
            names = set(extra.sample(states, extra.choice((2, 3, 3)))) | set(extra.sample(("v", "w"), extra.choice((0, 0, 1))))
            fields["records"] = {
                name: third.choice(((), (), (0,), (1, 0), (2,), (-1,))) for name in extra.sample(sorted(names), len(names))
            }
        if third.random() < (0.9 if "records" in fields else 0.05):
            fields["universe"] = _universe(2)
        if typed.random() < 0.1:
            wrong = typed.choice((0.0, True, "0", 1, None))
            if typed.random() < 0.2:
                fields["index"] = (wrong, hi) if typed.random() < 0.5 else (lo, wrong)
            elif transitions:
                p, x, c, q = typed.choice(sorted(transitions))
                column = typed.randrange(3)
                row = ((wrong, x, c, q), (p, x, wrong, q), (p, x, c, wrong))[column]
                fields["transitions"] = transitions | {row}
        outcome = _same(lambda: ParityAutomaton(**fields), lambda: ref_parity(**fields))
        if outcome[0] == "ok":
            seen.add("ok")
        else:
            seen.add(next((kind for text, kind in faults.items() if text in outcome[2]), "other"))
    assert seen == {"ok", "other", *faults.values()}
    mixed = dict(  # one transition with a fifth element among four-element ones
        states=states,
        initial=frozenset({"x"}),
        index=(0, 1),
        transitions=frozenset({("x", "a", 0, "y"), ("y", "a", 1, "z", "extra")}),
        deterministic=False,
    )
    assert _same(lambda: ParityAutomaton(**mixed), lambda: ref_parity(**mixed))[:2] == ("raised", ValueError)


def test_malformed_corpus_covers_each_check():
    """Each two-fault document really has two offenders, so a bulk check that names the wrong one shows."""
    two = [name for name in MALFORMED if name.startswith(("oba-two", "det-two", "parity-two"))]
    messages = {name: _parse(copy.deepcopy(MALFORMED[name]))[2] for name in two}
    assert "out of range" in messages["oba-two-out-of-range-rows"]
    assert "uses undeclared state" in messages["det-two-undeclared-states"]
    assert "outside index" in messages["det-two-priorities-outside"]
    assert "nondeterministic on" in messages["det-two-repeated-pairs"]
    assert "must be a JSON string, got int" in messages["det-two-non-string-endpoints"]
    assert "must be a JSON integer, got float" in messages["det-two-non-integer-priorities"]
    assert messages["parity-two-undeclared-letters"] == f"{PATH}: transition ('x', 'c', 0, 'y') uses undeclared letter"
    assert "nondeterministic on" in _parse(copy.deepcopy(MALFORMED["det-undeclared-letter-and-repeated-pair"]))[2]
    assert "uses undeclared letter" in _parse(copy.deepcopy(MALFORMED["det-undeclared-letter-and-records-omit"]))[2]


def test_cross_letter_faults_name_the_earlier_letter():
    """A build fault or a short row in one letter and a wrong entry type in another: the
    reference names whichever letter comes first, so a library that tests entry types before
    building, or only after the loop, shows here.  The letter-name rules belong to the
    constructors, so an ``eps`` tile letter or a bad declared parity alphabet is named only
    after every letter is built and typed, and after the universe and the records are read,
    but before the other construction checks."""
    expected = {
        "oba-out-of-range-then-bool-two-letters-on": "tile 'a': transition (0, 0, 5) out of range",
        "oba-out-of-range-then-float-two-letters-on": "tile 'a': transition (4, 1, 0) out of range",
        "oba-not-closed-then-bad-type": "tile-not-upward-closed: tile 'b' contains",
        "oba-bad-type-then-not-closed": "tile 'a' entry must be a JSON integer, got float",
        "oba-eps-after-bad-type": "tile 'b' entry must be a JSON integer, got float",
        "oba-eps-after-bool": "tile 'a' entry must be a JSON integer, got bool",
        "oba-short-row-after-bad-type": "tile 'a' entry must be a JSON integer, got float",
        "oba-eps-before-bad-type": "tile 'b' entry must be a JSON integer, got float",
        "oba-eps-before-not-closed": "tile-not-upward-closed: tile 'b' contains",
        "oba-eps-and-initial-not-downward-closed": "tile letter name 'eps' is reserved",
        "det-alphabet-int-and-universe-int": "state identifiers must be strings",
        "det-alphabet-eps-and-record-unknown": "malformed parity document (unknown state 'x')",
        "parity-alphabet-eps-and-index-reversed": "alphabet letter 'eps' is reserved for ε-transitions",
    }
    for name, start in expected.items():
        outcome = _parse(copy.deepcopy(MALFORMED[name]))
        assert outcome[:2] == ("raised", ValidationError), name
        assert outcome[2].startswith(f"{PATH}: {start}"), (name, outcome[2])


# --- the ordered-Büchi invariants ------------------------------------------------------------


def _initial(rng, n):
    """{0..k-1}, a random subset of the states, often with gaps, or one of -2..n+1 that may leave the range."""
    states = rng.choice((None, range(n), range(-2, n + 2)))
    if states is None:
        return frozenset(range(rng.randint(0, n)))
    return frozenset(rng.sample(states, rng.randint(0, min(len(states), n + 1))))


def _tile_universe(rng, u):
    """The automaton's universe itself, an equal copy, or one of other names or size."""
    n = u.size
    return rng.choice((u, u, _universe(n), StateUniverse(tuple(f"r{i}" for i in range(n))), _universe(n % 6 + 1)))


def test_oba_construction_raises_the_first_reference_issue():
    """Construction raises iff the reference reports an issue, with that report's first issue as message."""
    rng = random.Random(2027)
    kinds = {}
    for _ in range(4000):
        u = _universe(rng.randint(1, 6))
        initial = _initial(rng, u.size)
        alphabet = {}
        for x in rng.sample("abcd", rng.randint(0, 4)):
            v = _tile_universe(rng, u)
            alphabet[x] = upward_closure(v, {(rng.randrange(v.size), rng.randint(0, 1), rng.randrange(v.size))})
        issues = ref_oba_issues(u, initial, alphabet)
        outcome = _outcome(OrderedBuchiAutomaton, u, initial, alphabet)
        if issues:
            assert outcome == ("raised", ValidationError, f"{issues[0][0]}: {issues[0][1]}"), (u, initial)
        else:
            assert outcome == ("ok", OrderedBuchiAutomaton(u, initial, alphabet))
        kind = issues[0][0] if issues else "ok"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"ok", "initial", "initial-not-downward-closed", "tile-universe"}
    assert min(kinds.values()) >= 200, kinds


def test_oba_corpora_construct():
    """The corpus, the Rabin and ε conversions, random, horizontal-complete and rich automata
    pass the reference's checks, and constructing each again gives an equal automaton."""
    rng = random.Random(2028)
    cases = [(name, a) for name, a, _ in _automata()]
    cases += [(f"rich-{n}-{i}", rich_oba(rng, n)) for n in (4, 5) for i in range(10)]
    for name, a in cases:
        assert ref_oba_issues(a.universe, a.initial, a.alphabet) == [], name
        assert OrderedBuchiAutomaton(a.universe, a.initial, a.alphabet) == a, name
