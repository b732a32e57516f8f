import random

import pytest

from obat import ObaOracle, StateUniverse, UsageError, up, upward_closure, unit_tile
from obat.tiles import skeleton
from obat.verify import (
    check_local_preference,
    enumerate_up_words,
    enumerate_upward_closed_tiles,
    equiv_up,
    skeleton_oracle,
)

from zoo import genbuchi_oracle, inf_a, random_tile, rabin_two_pair

U2 = StateUniverse(("s0", "s1"))


class TestSkeletonOracle:
    def test_empty(self):
        t = upward_closure(U2, [])
        assert skeleton_oracle(t).transitions == frozenset()

    def test_unit(self):
        assert skeleton_oracle(unit_tile(U2)).transitions == {(0, 1, 0), (1, 1, 1)}

    def test_agrees_exhaustively_two_states(self):
        for t in enumerate_upward_closed_tiles(U2):
            assert skeleton_oracle(t).transitions == skeleton(t).transitions

    def test_agrees_on_random_three_state_tiles(self):
        rng = random.Random(17)
        u = StateUniverse(("q0", "q1", "q2"))
        for _ in range(60):
            t = random_tile(rng, u)
            assert skeleton_oracle(t).transitions == skeleton(t).transitions

    def test_large_universe_rejected(self):
        u = StateUniverse(tuple(f"q{i}" for i in range(4)))
        with pytest.raises(UsageError):
            skeleton_oracle(unit_tile(u))


class TestEquivUp:
    def test_equal_oracle(self):
        oracle = ObaOracle(inf_a())
        assert equiv_up(oracle, oracle, "ab", 2, 2) is None

    def test_counterexample_against_false(self):
        oracle = ObaOracle(inf_a())
        cex = equiv_up(oracle, lambda w: False, "ab", 3, 4)
        assert cex == up((), "a")  # first enumerated accepted word

    def test_symmetric(self):
        oracle = ObaOracle(inf_a())
        fake = lambda w: False
        assert equiv_up(oracle, fake, "ab", 2, 2) == equiv_up(fake, oracle, "ab", 2, 2)

    def test_enumeration_order(self):
        words = list(enumerate_up_words("ab", 1, 2))
        assert words[0] == up((), "a")
        assert words[:4] == [up((), "a"), up((), "b"), up((), "aa"), up((), "ab")]
        lengths = [(len(w.prefix), len(w.period)) for w in words]
        assert lengths == sorted(lengths, key=lambda t: (t[0],))


class TestLocalPreference:
    def test_inf_a_clean(self):
        report = check_local_preference(ObaOracle(inf_a()), "ab")
        assert report.ok

    def test_generalized_buchi_forced_witness(self):
        report = check_local_preference(genbuchi_oracle, "ab")
        assert not report.ok
        first = next(v for v in report.violations if v.prop == 3)
        assert first.witness["u"] == ()
        assert first.witness["v"] == ("a",)
        assert first.witness["v'"] == ("b",)

    def test_rabin_language_clean(self):
        from obat.convert import rabin_to_oba

        spec = rabin_two_pair()
        oba, morphism = rabin_to_oba(spec)
        report = check_local_preference(ObaOracle(oba, morphism), spec.alphabet)
        assert report.ok

    def test_report_mentions_up_restriction(self):
        report = check_local_preference(ObaOracle(inf_a()), "ab")
        assert "ultimately-periodic" in str(report)

    def test_any_two_mandatory_letters_violate_property_three(self):
        # generalized Büchi with mandatory {a, b} over a larger alphabet
        def oracle(w):
            return {"a", "b"} <= set(w.period)

        report = check_local_preference(oracle, "abc")
        assert any(v.prop == 3 for v in report.violations)
