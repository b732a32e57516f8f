import random

import pytest

from obat import (
    EPS,
    DpaOracle,
    ObaOracle,
    OrderedBuchiAutomaton,
    StateUniverse,
    UsageError,
    unit_tile,
    upward_closure,
)
from obat.convert import check_eps_complete, horizontal_complete_alphabet
from obat.determinize import (
    EMPTY_RECORD,
    Record,
    apply_eps_completion,
    candidate_records,
    delta,
    determinize,
    enumerate_records,
    eps_complete_det,
    initial_record,
    kills_initial,
    reachable_residuals,
    record_count_bound,
)
from obat.convert import parity_to_oba, rabin_to_oba
from obat.tiles import ValidationError, successors
from obat.verify import equiv_up, monoid_residuals, tile_monoid

from zoo import (
    determinization_corpus,
    eps_complete_corpus,
    inf_a,
    rabin_behavioral_two_pair,
    random_oba,
    random_tile,
)


class TestRecord:
    def test_rejects_non_downward_closed_image(self):
        with pytest.raises(ValidationError):
            Record((1,))

    def test_rejects_wrong_head(self):
        with pytest.raises(ValidationError):
            Record((0, 1))

    def test_empty_is_fine(self):
        assert EMPTY_RECORD.head is None


class TestInitialRecord:
    def test_two_initial(self):
        assert initial_record(inf_a()).entries == (1, 0)

    def test_single_initial(self):
        a = inf_a()
        a.initial = frozenset({0})
        assert initial_record(a).entries == (0,)

    def test_empty_initial(self):
        a = inf_a()
        a.initial = frozenset()
        assert initial_record(a) == EMPTY_RECORD


class TestDelta:
    def test_inf_a_on_a(self):
        a = inf_a()
        priority, nxt = delta(Record((1, 0)), a.alphabet["a"])
        assert (priority, nxt.entries) == (0, (1, 0))

    def test_inf_a_on_unit(self):
        a = inf_a()
        priority, nxt = delta(Record((1, 0)), a.alphabet["b"])
        assert (priority, nxt.entries) == (3, (1, 0))

    def test_worked_six_state_example(self):
        # record (q5,q3,q4,q0,q2,q1); the tile's top-successor map sends
        # q0,q1 -> q1, q2,q3 -> q3, q4,q5 -> q4.  Preserved leaders are
        # indices {0,1,3}, reset states {q0,q2} fill the tail in
        # descending order.
        u = StateUniverse(tuple(f"q{i}" for i in range(6)))
        t = upward_closure(u, [(0, 1, 1), (2, 1, 3), (4, 1, 4)])
        priority, nxt = delta(Record((5, 3, 4, 0, 2, 1)), t)
        assert nxt.entries == (4, 3, 1, 2, 0)
        assert set(nxt.entries[:3]) == {4, 3, 1}  # best(P), oldest first
        assert nxt.entries[3] == 2 and nxt.entries[4] == 0  # R descending
        # index 0 keeps its run through a dominated Büchi transition
        assert priority == 0

    def test_record_collapse_gives_minus_one(self):
        u = StateUniverse(("s0", "s1"))
        t = upward_closure(u, [(1, 1, 0)])
        first = delta(Record((1, 0)), t)
        assert first.next.entries == (0,)
        assert first.priority == 1
        second = delta(first.next, t)
        assert second.next == EMPTY_RECORD
        assert second.priority == -1
        assert delta(EMPTY_RECORD, t) == (-1, EMPTY_RECORD)

    def test_image_tracks_successors(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_oba(rng)
            det = determinize(a)
            for name in det.states:
                rec = Record(det.records[name])
                for tile in a.alphabet.values():
                    _, nxt = delta(rec, tile)
                    assert set(nxt.entries) == set(successors(tile, rec.entries))

    def test_priority_bounds(self):
        rng = random.Random(4)
        for _ in range(40):
            a = random_oba(rng)
            n = a.universe.size
            for (_, _, c, _) in determinize(a).transitions:
                assert -1 <= c <= 2 * n - 1


class TestDeterminize:
    def test_inf_a(self):
        det = determinize(inf_a())
        assert len(det.states) == 1
        assert det.transitions == {
            ("(s1,s0)", "a", 0, "(s1,s0)"),
            ("(s1,s0)", "b", 3, "(s1,s0)"),
        }

    def test_empty_alphabet(self):
        u = StateUniverse(("s0",))
        det = determinize(OrderedBuchiAutomaton(u, frozenset({0}), {}))
        assert len(det.states) == 1 and not det.transitions

    def test_language_equality_random(self):
        rng = random.Random(6)
        for _ in range(12):
            a = random_oba(rng)
            cex = equiv_up(
                ObaOracle(a), DpaOracle(determinize(a)), sorted(a.alphabet), 3, 4
            )
            assert cex is None

    def test_reachable_count_within_bound(self):
        rng = random.Random(8)
        for _ in range(40):
            a = random_oba(rng)
            assert len(determinize(a).states) <= record_count_bound(a.universe.size)


class TestEpsCompleteDet:
    def test_single_record_only_odd_self_loops(self):
        det = determinize(inf_a())
        eps = eps_complete_det(det)
        (name,) = det.states
        assert eps == {(name, EPS, 2 * i + 1, name) for i in range(2)}

    def test_two_record_example(self):
        u = StateUniverse(("s0", "s1"))
        a = OrderedBuchiAutomaton(
            u, frozenset({0, 1}), {"a": upward_closure(u, [(1, 1, 0)])}
        )
        det = determinize(a)
        eps = eps_complete_det(det)
        big, small = "(s1,s0)", "(s0)"
        assert (big, EPS, 0, small) in eps  # strictly lex-greater at level 0
        assert (big, EPS, 1, small) in eps
        assert (small, EPS, 1, small) in eps
        assert (small, EPS, 0, big) not in eps

    def test_augmented_inf_a_checks_out(self):
        assert check_eps_complete(apply_eps_completion(determinize(inf_a()))).ok

    def test_requires_records(self):
        det = determinize(inf_a())
        det.records = None
        with pytest.raises(UsageError):
            eps_complete_det(det)


class TestReachableResiduals:
    def test_inf_a_contains_top(self):
        assert 1 in reachable_residuals(inf_a())

    def test_unit_only_alphabet(self):
        u = StateUniverse(("s0", "s1", "s2"))
        a = OrderedBuchiAutomaton(u, frozenset({0, 1}), {"e": unit_tile(u)})
        assert reachable_residuals(a) == {1}

    def test_horizontal_complete_heads(self):
        u = StateUniverse(("q0", "q1", "q2"))
        a = OrderedBuchiAutomaton(
            u, frozenset({0, 1, 2}), horizontal_complete_alphabet(u)
        )
        heads = reachable_residuals(a)
        det = determinize(a)
        for name in det.states:
            entries = det.records[name]
            assert not entries or entries[0] in heads

    def test_empty_initial(self):
        a = inf_a()
        a.initial = frozenset()
        assert reachable_residuals(a) == frozenset()


class TestCandidateRecords:
    def test_two_states_top_head(self):
        u = StateUniverse(("s0", "s1"))
        a = OrderedBuchiAutomaton(u, frozenset({0, 1}), {"e": unit_tile(u)})
        assert reachable_residuals(a) == {1}
        cands = {r.entries for r in candidate_records(a)}
        assert cands == {(1, 0)}  # head 1 forces the full image; nothing kills I

    def test_killing_product_adds_empty_record(self):
        u = StateUniverse(("s0", "s1"))
        dead = upward_closure(u, [(1, 1, 0)])  # second application kills {0,1}
        a = OrderedBuchiAutomaton(u, frozenset({0, 1}), {"a": dead})
        assert kills_initial(a)
        assert EMPTY_RECORD in candidate_records(a)

    def test_empty_initial_budget_is_the_empty_record(self):
        a = inf_a()
        a.initial = frozenset()
        assert candidate_records(a) == {EMPTY_RECORD}

    def test_empty_tile_detection(self):
        u = StateUniverse(("s0", "s1"))
        a = OrderedBuchiAutomaton(
            u, frozenset({0, 1}), {"z": upward_closure(u, [])}
        )
        assert tile_monoid(a).has_empty_tile


def _random_walk_case(rng: random.Random) -> OrderedBuchiAutomaton:
    """1-5 states, 0-4 letters, possibly empty (always downward-closed) initial set."""
    n = rng.randint(1, 5)
    u = StateUniverse(tuple(f"q{i}" for i in range(n)))
    letters = "abcd"[: rng.randint(0, 4)]
    initial = frozenset(range(rng.randint(0, n)))
    return OrderedBuchiAutomaton(u, initial, {x: random_tile(rng, u) for x in letters})


def _zoo_automata():
    yield from determinization_corpus()
    yield "rabin-behavioral-two-pair", rabin_to_oba(rabin_behavioral_two_pair())[0]
    for name, p in eps_complete_corpus():
        yield f"parity-{name}", parity_to_oba(p)[0]


class TestResidualWalkAgainstMonoid:
    """The top-successor walk agrees with R_A and S_R read off the whole monoid."""

    @staticmethod
    def _check(name, a):
        heads, kills = monoid_residuals(a)
        assert reachable_residuals(a) == heads, name
        assert kills_initial(a) == kills, name
        expected = {r for r in enumerate_records(a.universe.size) if r.head in heads}
        if kills:
            expected.add(EMPTY_RECORD)
        assert candidate_records(a) == expected, name

    def test_seeded_random_automata(self):
        rng = random.Random(4242)
        cases = [_random_walk_case(rng) for _ in range(320)]
        assert any(not a.initial for a in cases) and any(not a.alphabet for a in cases)
        assert {a.universe.size for a in cases} == {1, 2, 3, 4, 5}
        for i, a in enumerate(cases):
            self._check(f"random-{i}", a)

    def test_zoo(self):
        for name, a in _zoo_automata():
            self._check(name, a)


class TestRecordCountBound:
    def test_small_values(self):
        assert record_count_bound(1) == 2
        assert record_count_bound(2) == 3

    def test_enumeration_matches_formula(self):
        for n in range(1, 6):
            records = list(enumerate_records(n))
            assert len(records) == len(set(records))
            assert len(records) == record_count_bound(n)

    def test_zero_states_rejected(self):
        with pytest.raises(UsageError):
            record_count_bound(0)

    def test_enumerated_records_are_valid(self):
        for r in enumerate_records(4):
            assert len(set(r.entries)) == len(r.entries)
            assert set(r.entries) == set(range(len(r.entries)))
