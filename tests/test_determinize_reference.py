"""Differential test of ``delta`` and ``determinize`` against a Record-level step.

The references below keep the earlier, Record-level step: a dict of top
successors, the live indices, a leader map, a sorted preserved list, the
reached set from ``successors`` and an ``is_buchi`` scan for the Büchi
index, with a validated :class:`obat.verify.Record` per step.  The library
steps plain entry tuples instead; both must give the same priority and next
record for every record at n <= 6 against seeded random and
horizontal-complete tiles, and the same determinization (states in order,
transitions, records) on the zoo, the determinization corpus, seeded random
automata, the richer ``rich_oba`` automata at n = 4..6, whose reached
records must also lie in S_R, and the horizontal-complete alphabets.
"""

import random

import pytest

from obat import OrderedBuchiAutomaton, ParityAutomaton, StateUniverse, upward_closure
from obat.convert import horizontal_complete_alphabet, parity_to_oba, rabin_to_oba
from obat.determinize import delta, determinize
from obat.tiles import is_buchi, successors, top_successor
from obat.verify import EMPTY_RECORD, Record, candidate_records, enumerate_records

from zoo import (
    determinization_corpus,
    eps_complete_corpus,
    rabin_behavioral_two_pair,
    random_oba,
    rich_oba,
)


# --- Record-level references ---------------------------------------------------


def ref_delta(s, t):
    """The priority and the next :class:`Record` after reading t from record s."""
    best = {i: top_successor(t, q) for i, q in enumerate(s.entries)}
    live = [i for i in range(len(s)) if best[i] is not None]
    leader_of_state = {}
    for i in live:
        leader_of_state.setdefault(best[i], i)
    preserved = sorted(set(leader_of_state.values()))
    reached = successors(t, s.entries)
    fresh = sorted(reached - {best[i] for i in preserved}, reverse=True)
    nxt = Record(tuple(best[i] for i in preserved) + tuple(fresh))

    default = len(reached)
    green = default
    for i in range(min(len(s), len(nxt))):
        if is_buchi(t, s.entries[i], nxt.entries[i]):
            green = i
            break
    forgotten = [i for i in range(len(s)) if i not in preserved]
    red = forgotten[0] if forgotten else default
    return min(2 * green, 2 * red - 1), nxt


def ref_determinize(a):
    def record_name(r):
        return "(" + ",".join(a.universe.name(q) for q in r.entries) + ")"

    n = a.universe.size
    letters = sorted(a.alphabet)
    start = Record(tuple(sorted(a.initial, reverse=True)))
    order = [start]
    name = {start: record_name(start)}
    transitions = set()
    i = 0
    while i < len(order):
        rec = order[i]
        i += 1
        src = name[rec]
        for letter in letters:
            priority, nxt = ref_delta(rec, a.alphabet[letter])
            if nxt not in name:
                name[nxt] = record_name(nxt)
                order.append(nxt)
            transitions.add((src, letter, priority, name[nxt]))
    names = tuple(name.values())
    return ParityAutomaton(
        states=names,
        initial=frozenset({names[0]}),
        index=(-1, 2 * n - 1),
        transitions=frozenset(transitions),
        deterministic=True,
        alphabet=frozenset(letters),
        records={name[r]: r.entries for r in order},
        universe=a.universe,
    )


# --- inputs --------------------------------------------------------------------


def _universe(n):
    return StateUniverse(tuple(f"q{i}" for i in range(n)))


def _rich_tile(rng, universe):
    """Up to 2n random generators: richer staircases than `random_tile`'s three."""
    n = universe.size
    gens = {(rng.randrange(n), rng.randint(0, 1), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
    return upward_closure(universe, gens)


def _zoo():
    yield from determinization_corpus()
    yield "rabin-behavioral-two-pair", rabin_to_oba(rabin_behavioral_two_pair())[0]
    for name, p in eps_complete_corpus():
        yield f"parity-{name}", parity_to_oba(p)[0]


# --- the comparisons -------------------------------------------------------------


class TestDeltaAgainstReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_record(self, n):
        u = _universe(n)
        rng = random.Random(700 + n)
        horizontal = list(horizontal_complete_alphabet(u).values())
        if n == 6:  # test_horizontal_complete[6] already steps all 155 records through all 729 letters
            horizontal = rng.sample(horizontal, 60)
        tiles = [_rich_tile(rng, u) for _ in range(40)] + horizontal
        records = list(enumerate_records(n))
        assert EMPTY_RECORD in records and len(records) == len(set(records))
        for r in records:
            for t in tiles:
                priority, nxt = ref_delta(r, t)
                assert delta(r.entries, t) == (priority, nxt.entries), (r.entries, t.top, sorted(t.ones))


class TestDeterminizeAgainstReference:
    @staticmethod
    def _check(name, a):
        det, ref = determinize(a), ref_determinize(a)
        assert det.states == ref.states, name
        assert det.transitions == ref.transitions, name
        assert det.records == ref.records, name
        assert det == ref, name

    def test_zoo(self):
        for name, a in _zoo():
            self._check(name, a)

    def test_seeded_random_automata(self):
        rng = random.Random(8080)
        cases = [random_oba(rng, max_states=6) for _ in range(300)]
        assert {a.universe.size for a in cases} == set(range(1, 7))
        for i, a in enumerate(cases):
            self._check(f"random-{i}", a)

    def test_rich_random_automata(self):
        rng = random.Random(8081)
        for i in range(60):
            n = rng.randint(3, 6)
            u = _universe(n)
            letters = "abcd"[: rng.randint(1, 4)]
            a = OrderedBuchiAutomaton(u, frozenset(range(rng.randint(0, n))), {x: _rich_tile(rng, u) for x in letters})
            self._check(f"rich-{i}", a)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_rich_automata_reach_only_candidate_records(self, n):
        rng = random.Random(8090 + n)
        sizes = []
        for i in range(20):
            a = rich_oba(rng, n)
            self._check(f"rich-oba-{n}-{i}", a)
            det = determinize(a)
            budget = {r.entries for r in candidate_records(a)}
            assert set(det.records.values()) <= budget, (n, i)
            sizes.append(len(det.states))
        assert max(sizes) > 2 * n, sizes  # records well past the trivial ones

    @pytest.mark.parametrize("n", range(1, 7))
    def test_horizontal_complete(self, n):
        u = _universe(n)
        self._check(f"horizontal-complete-{n}", OrderedBuchiAutomaton(u, frozenset(range(n)), horizontal_complete_alphabet(u)))
