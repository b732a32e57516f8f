import random

import pytest

from obat import (
    EPS,
    DpaOracle,
    NpaOracle,
    ObaOracle,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    StateUniverse,
    UsageError,
    ValidationError,
    dpa_member_up,
    npa_member_up,
    oba_member_up,
    oba_validate,
    omega_power_accepts,
    residual_initial_set,
    tile_of,
    unit_tile,
    up,
    upward_closure,
)
from obat.verify import enumerate_up_words

from zoo import inf_a, inf_a_oracle, random_oba


class TestObaValidate:
    def test_inf_a_valid(self):
        assert oba_validate(inf_a()).valid

    def test_initial_not_downward_closed(self):
        a = inf_a()
        a.initial = frozenset({1})
        report = oba_validate(a)
        assert not report.valid
        assert any("s0" in issue.message for issue in report.issues)

    def test_tile_missing_closure_element(self):
        tile = inf_a().alphabet["a"]
        broken = max(tile.transitions)  # drop a maximal transition
        with pytest.raises(ValidationError, match="but not the dominating"):
            tile_of(tile.universe, tile.transitions - {broken})

    def test_unreachable_state_warned(self):
        u = StateUniverse(("s0", "s1"))
        a = OrderedBuchiAutomaton(u, frozenset({0}), {"a": upward_closure(u, [(0, 1, 0)])})
        report = oba_validate(a)
        assert report.valid
        assert any(w.kind == "unreachable-state" for w in report.warnings)

    def test_unreachable_states_match_explicit_search(self):
        rng = random.Random(31)
        for _ in range(300):
            a = random_oba(rng, max_states=6)
            seen, frontier = set(a.initial), set(a.initial)
            while frontier:
                step = {q for t in a.alphabet.values() for (p, _, q) in t.transitions if p in frontier}
                frontier = step - seen
                seen |= frontier
            warned = {w.message.split()[1] for w in oba_validate(a).warnings}
            assert warned == {a.universe.name(q) for q in range(a.universe.size) if q not in seen}

    def test_out_of_range_initial_reported(self):
        a = inf_a()
        a.initial = frozenset({0, 1, 5})
        report = oba_validate(a)
        assert [issue.kind for issue in report.issues] == ["initial"]


class TestObaMembership:
    def test_spec_examples(self):
        a = inf_a()
        assert oba_member_up(a, up((), "a"))
        assert not oba_member_up(a, up((), "b"))
        assert oba_member_up(a, up((), ("a", "b")))

    def test_matches_hand_oracle(self):
        oracle = ObaOracle(inf_a())
        for w in enumerate_up_words("ab", 3, 3):
            assert oracle(w) == inf_a_oracle(w)

    def test_unknown_letter(self):
        with pytest.raises(UsageError):
            oba_member_up(inf_a(), up((), "z"))

    def test_empty_initial_rejects_everything(self):
        a = inf_a()
        a.initial = frozenset()
        oracle = ObaOracle(a)
        assert not any(oracle(w) for w in enumerate_up_words("ab", 2, 2))

    def test_monotone_in_initial_set(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_oba(rng)
            for k in range(len(a.initial), a.universe.size):
                bigger = OrderedBuchiAutomaton(a.universe, frozenset(range(k + 1)), a.alphabet)
                small, large = ObaOracle(a), ObaOracle(bigger)
                for w in enumerate_up_words(sorted(a.alphabet), 2, 2):
                    if small(w):
                        assert large(w)


class TestOmegaPower:
    def test_unit_rejects(self):
        a = inf_a()
        assert not omega_power_accepts(a, unit_tile(a.universe))

    def test_horizontal_buchi_accepts(self):
        a = inf_a()
        assert omega_power_accepts(a, a.alphabet["a"])

    def test_agrees_with_member_on_all_tiles(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_oba(rng)
            oracle = ObaOracle(a)
            for letter, tile in a.alphabet.items():
                assert omega_power_accepts(a, tile) == oracle(up((), (letter,)))


class TestResiduals:
    def test_empty_word_gives_initial(self):
        a = inf_a()
        assert residual_initial_set(a, ()) == a.initial

    def test_after_a(self):
        assert residual_initial_set(inf_a(), ("a",)) == {0, 1}

    def test_totally_ordered(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_oba(rng)
            sets = [
                residual_initial_set(a, w)
                for n in range(0, 4)
                for w in __import__("itertools").product(sorted(a.alphabet), repeat=n)
            ]
            for s1 in sets:
                for s2 in sets:
                    assert s1 <= s2 or s2 <= s1


def _single_loop(priority: int) -> ParityAutomaton:
    return ParityAutomaton(
        states=("q",),
        initial=frozenset({"q"}),
        index=(0, 1),
        transitions=frozenset({("q", "a", priority, "q")}),
    )


class TestNpaMembership:
    def test_even_loop_accepts(self):
        assert npa_member_up(_single_loop(0), up((), "a"))

    def test_odd_loop_rejects(self):
        assert not npa_member_up(_single_loop(1), up((), "a"))

    def test_rejects_all_eps_period(self):
        with pytest.raises(UsageError):
            npa_member_up(_single_loop(0), up((), (EPS,)))

    def test_min_parity_liminf(self):
        # period ab sees priorities {0, 1}; min is 0, accepting
        a = ParityAutomaton(
            states=("x", "y"),
            initial=frozenset({"x"}),
            index=(0, 2),
            transitions=frozenset({("x", "a", 1, "y"), ("y", "b", 0, "x"), ("x", "b", 2, "x")}),
        )
        assert npa_member_up(a, up((), ("a", "b")))
        assert not npa_member_up(a, up((), ("b", "a", "a")))  # a from y undefined: only b^ω survives
        assert npa_member_up(a, up(("a",), ("b", "a")))

    def test_eps_free_deterministic_agrees_with_simulation(self):
        rng = random.Random(5)
        states = ("s0", "s1", "s2")
        for _ in range(20):
            trans = set()
            for p in states:
                for x in "ab":
                    if rng.random() < 0.85:
                        trans.add((p, x, rng.randint(0, 3), rng.choice(states)))
            d = ParityAutomaton(
                states=states,
                initial=frozenset({"s0"}),
                index=(0, 3),
                transitions=frozenset(trans),
                deterministic=True,
            )
            npa, dpa = NpaOracle(d), DpaOracle(d)
            for w in enumerate_up_words("ab", 2, 3):
                assert npa(w) == dpa(w)

    def test_eps_closure_shortcuts(self):
        # accepting only through an ε hop between the letters
        a = ParityAutomaton(
            states=("x", "y"),
            initial=frozenset({"x"}),
            index=(0, 1),
            transitions=frozenset({("x", "a", 1, "x"), ("x", EPS, 1, "y"), ("y", "b", 0, "x")}),
        )
        assert npa_member_up(a, up((), ("a", "b")))
        assert not npa_member_up(a, up((), ("a",)))


class TestDpaOracle:
    def test_requires_deterministic(self):
        with pytest.raises(UsageError):
            DpaOracle(_single_loop(0))

    def test_basic(self):
        d = ParityAutomaton(
            states=("q",),
            initial=frozenset({"q"}),
            index=(0, 1),
            transitions=frozenset({("q", "a", 0, "q"), ("q", "b", 1, "q")}),
            deterministic=True,
        )
        assert dpa_member_up(d, up((), ("a", "b")))
        assert not dpa_member_up(d, up(("a",), ("b",)))
