import dataclasses
import itertools

import pytest

from obat import (
    EPS,
    NpaOracle,
    ObaOracle,
    ParityAutomaton,
    StateUniverse,
    UsageError,
    intertwine,
    oba_validate,
    unit_tile,
    up,
)
from obat.convert import (
    NotEpsComplete,
    check_eps_complete,
    horizontal_complete_alphabet,
    parity_to_oba,
    rabin_tile_generator,
    rabin_to_oba,
)
from obat.determinize import apply_eps_completion, determinize
from obat.verify import enumerate_up_words, equiv_up

from test_eps_reference import pref_leq
from zoo import determinization_corpus, eps_complete_corpus, eps_figure, make_eps_complete, rabin_two_pair


class TestRabin:
    def test_tile_generators_from_worked_pairs(self):
        spec = rabin_two_pair()
        assert rabin_tile_generator(spec, "a") == {(2, 1, 2), (1, 1, 1)}
        assert rabin_tile_generator(spec, "b") == {(2, 1, 2), (0, 1, 0), (1, 0, 1), (1, 1, 1)}

    def test_d_omega_accepted(self):
        spec = rabin_two_pair()
        assert spec.accepts_up(up((), "d"))
        oba, morphism = rabin_to_oba(spec)
        assert ObaOracle(oba, morphism)(up((), "d"))

    def test_construction_shape(self):
        oba, morphism = rabin_to_oba(rabin_two_pair())
        assert oba.universe.states == ("0", "1", "2")
        assert oba.initial == {0, 1, 2}
        assert oba_validate(oba) == ()
        assert set(morphism.as_dict()) == {"a", "b", "c", "d"}
        # a and c share a behaviour, hence a tile
        m = morphism.as_dict()
        assert m["a"] == m["c"]

    def test_agreement_with_direct_evaluation(self):
        spec = rabin_two_pair()
        oba, morphism = rabin_to_oba(spec)
        cex = equiv_up(ObaOracle(oba, morphism), spec.accepts_up, spec.alphabet, 2, 3)
        assert cex is None

    def test_unknown_letter(self):
        spec = rabin_two_pair()
        with pytest.raises(UsageError):
            spec.accepts_up(up((), "z"))


class TestCheckEpsComplete:
    def test_figure_passes(self):
        assert check_eps_complete(eps_figure()).ok

    def test_no_eps_transitions_fails(self):
        a = ParityAutomaton(
            states=("x", "y"),
            initial=frozenset({"x"}),
            index=(0, 1),
            transitions=frozenset({("x", "a", 0, "y")}),
        )
        report = check_eps_complete(a)
        assert not report.ok
        assert {v.axiom for v in report.violations} >= {"reflexivity", "totality"}

    def test_single_state_with_odd_self_loops_passes(self):
        a = ParityAutomaton(
            states=("q",),
            initial=frozenset({"q"}),
            index=(0, 3),
            transitions=frozenset({("q", EPS, 1, "q"), ("q", EPS, 3, "q")}),
        )
        assert check_eps_complete(a).ok

    def test_even_index_bound_rejected(self):
        a = ParityAutomaton(
            states=("q",), initial=frozenset({"q"}), index=(0, 2), transitions=frozenset()
        )
        with pytest.raises(UsageError):
            check_eps_complete(a)

    def test_each_broken_axiom_detected(self):
        base = eps_figure()

        def drop(pred):
            return ParityAutomaton(
                states=base.states,
                initial=base.initial,
                index=base.index,
                transitions=frozenset(t for t in base.transitions if not pred(t)),
                alphabet=base.alphabet,
            )

        refl = check_eps_complete(drop(lambda t: t == ("p", EPS, 1, "p")))
        assert any(v.axiom == "reflexivity" and v.priority == 1 for v in refl.violations)

        total = check_eps_complete(
            drop(lambda t: t[1] == EPS and t[2] == 3 and {t[0], t[3]} == {"p", "r"})
        )
        assert any(v.axiom == "totality" and v.priority == 3 for v in total.violations)

        trans = check_eps_complete(drop(lambda t: t == ("p", EPS, 1, "s")))
        assert any(v.axiom in ("transitivity", "totality") for v in trans.violations)

        strict = check_eps_complete(drop(lambda t: t == ("p", EPS, 2, "r")))
        assert any(v.axiom == "strict-variant" for v in strict.violations)

        # refinement: make level-2 relate a pair that level 1 separates
        extra = ParityAutomaton(
            states=base.states,
            initial=base.initial,
            index=base.index,
            transitions=base.transitions | {("s", EPS, 3, "p")},
            alphabet=base.alphabet,
        )
        report = check_eps_complete(extra)
        assert any(v.axiom == "refinement" for v in report.violations)


def labels_desc(a):
    """``parity_to_oba``'s state labels ``{members}_d``, greatest first: the ε-tree in depth-first order."""
    return list(reversed(parity_to_oba(a)[0].universe.states))


class TestEpsTree:
    """The ε-tree of odd classes, read off the states of ``parity_to_oba``."""

    def test_figure_tree_order(self):
        assert labels_desc(eps_figure()) == ["{p,q,r}_1", "{p,q}_2", "{r}_2", "{s}_1", "{s}_2"]

    def test_path_tree_when_single_classes(self):
        a = make_eps_complete(
            ("x", "y"), [[["x", "y"]], [["x", "y"]]], {("x", "a", 0, "y")}
        )
        assert labels_desc(a) == ["{x,y}_1", "{x,y}_2"]

    def test_node_count_bound(self):
        for name, a in eps_complete_corpus():
            levels = (a.index[1] + 1) // 2
            assert parity_to_oba(a)[0].universe.size <= levels * len(a.states), name

    def test_children_partition_parents(self):
        for name, a in eps_complete_corpus():
            nodes = [(int(d), frozenset(inner[1:-1].split(","))) for inner, d in (x.rsplit("_", 1) for x in labels_desc(a))]
            deepest = max(d for d, _ in nodes)
            for depth, members in nodes:
                if depth < deepest:
                    kids = [m for d, m in nodes if d == depth + 1 and m <= members]
                    assert sum(map(len, kids)) == len(members) and frozenset().union(*kids) == members, name

    def test_non_complete_input_rejected(self):
        a = ParityAutomaton(
            states=("x", "y"),
            initial=frozenset({"x"}),
            index=(0, 1),
            transitions=frozenset(),
        )
        with pytest.raises(NotEpsComplete):
            parity_to_oba(a)


class TestPrefOrder:
    def test_shape(self):
        # 0 < 2 < 4 < 5 < 3 < 1 for an index up to 5
        chain = [0, 2, 4, 5, 3, 1]
        for i, c in enumerate(chain):
            for x in chain[i:]:
                assert pref_leq(c, x)
        assert not pref_leq(1, 3)
        assert not pref_leq(3, 4)
        assert pref_leq(2, 3)


class TestParityToOba:
    def test_figure_five_nodes_and_unit_eps(self):
        oba, morphism = parity_to_oba(eps_figure())
        assert oba.universe.size == 5
        assert oba.alphabet[morphism.as_dict()[EPS]] == unit_tile(oba.universe)
        assert oba_validate(oba) == ()

    def test_one_state_buchi_loop(self):
        a = make_eps_complete(
            ("q",), [[["q"]], [["q"]]], {("q", "a", 0, "q")}
        )
        oba, morphism = parity_to_oba(a)
        tile = oba.alphabet[morphism.as_dict()["a"]]
        # one node per level, horizontal Büchi at every depth
        assert oba.universe.size == 2
        assert all((i, 0, i) in tile.transitions for i in range(2))
        assert ObaOracle(oba, morphism)(up((), "a"))
        assert NpaOracle(a)(up((), "a"))

    def test_state_count_bound(self):
        for name, a in eps_complete_corpus():
            oba, _ = parity_to_oba(a)
            levels = (a.index[1] + 1) // 2
            assert oba.universe.size <= levels * len(a.states), name

    def test_language_agreement_on_corpus(self):
        for name, a in eps_complete_corpus():
            oba, morphism = parity_to_oba(a)
            cex = equiv_up(
                NpaOracle(a), ObaOracle(oba, morphism), sorted(a.effective_alphabet), 2, 3
            )
            assert cex is None, f"{name}: {cex}"

    def test_any_initial_set_is_closed_by_the_converter(self):
        """Every initial subset of the corpus automata and every single-state initial set
        of the ε-completed determinizations: the OBA matches the NPA, which may take
        ε-moves before the first letter."""
        cases = [
            (name, a, frozenset(init))
            for name, a in eps_complete_corpus()
            for k in range(len(a.states) + 1)
            for init in itertools.combinations(a.states, k)
        ]
        cases += [
            (name, det, frozenset({q}))
            for name, a in determinization_corpus()
            for det in [apply_eps_completion(determinize(a))]
            for q in det.states
        ]
        for name, a, init in cases:
            a = dataclasses.replace(a, initial=init)
            oba, morphism = parity_to_oba(a)
            cex = equiv_up(NpaOracle(a), ObaOracle(oba, morphism), sorted(a.effective_alphabet), 2, 3)
            assert cex is None, f"{name} from {sorted(init)}: {cex}"
        assert len(cases) == 168


class TestIntertwine:
    def test_period_weaving(self):
        assert intertwine(up((), "a")) == up((), (EPS, "a", EPS))

    def test_empty_prefix_unchanged(self):
        assert intertwine(up((), ("a", "b"))).prefix == ()

    def test_membership_equivalence_on_eps_complete(self):
        for name, a in eps_complete_corpus():
            oracle = NpaOracle(a)
            for w in enumerate_up_words(sorted(a.effective_alphabet), 2, 2):
                assert oracle(w) == oracle(intertwine(w)), (name, w)


class TestHorizontalCompleteAlphabet:
    def test_singleton_universe(self):
        u = StateUniverse(("q",))
        tiles = horizontal_complete_alphabet(u)
        assert len(tiles) == 3
        assert frozenset() in {t.transitions for t in tiles.values()}

    def test_two_states_nine_tiles(self):
        u = StateUniverse(("q0", "q1"))
        assert len(horizontal_complete_alphabet(u)) == 9
        assert list(horizontal_complete_alphabet(u)) == ["--", "-1", "-0", "1-", "11", "10", "0-", "01", "00"]
        for n in range(1, 7):  # 3^n distinct tiles, named in itertools.product order
            tiles = horizontal_complete_alphabet(StateUniverse(tuple(f"q{i}" for i in range(n))))
            assert list(tiles) == ["".join(x) for x in itertools.product("-10", repeat=n)]
            assert len(set(tiles.values())) == len(tiles) == 3**n

    def test_contains_unit(self):
        for n in (1, 2, 3):
            u = StateUniverse(tuple(f"q{i}" for i in range(n)))
            assert unit_tile(u) in set(horizontal_complete_alphabet(u).values())

    def test_oversize_rejected(self):
        u = StateUniverse(tuple(f"q{i}" for i in range(7)))
        with pytest.raises(UsageError):
            horizontal_complete_alphabet(u)
