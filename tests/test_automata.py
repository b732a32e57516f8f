import dataclasses
import importlib
import itertools
import operator
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
    Tile,
    UsageError,
    ValidationError,
    oba_validate,
    omega_power_accepts,
    parity_to_oba,
    rabin_to_oba,
    tile_of,
    unit_tile,
    up,
    upward_closure,
)
from obat.determinize import apply_eps_completion, determinize
from obat.cli import FALSE, OK, load_document, main, oba_to_doc, parity_to_doc, write_doc
from obat.verify import enumerate_up_words

from zoo import (
    determinization_corpus,
    eps_complete_corpus,
    inf_a,
    inf_a_oracle,
    rabin_behavioral_two_pair,
    rabin_two_pair,
    random_oba,
    reached_states,
)


class TestObaValidate:
    def test_inf_a_valid(self):
        assert oba_validate(inf_a()) == ()

    def test_initial_not_downward_closed(self):
        """Refused at construction, so ``determinize`` cannot emit records like (s1) from {s1}."""
        a = inf_a()
        with pytest.raises(ValidationError) as e:
            OrderedBuchiAutomaton(a.universe, frozenset({1}), a.alphabet)
        assert str(e.value) == "initial-not-downward-closed: s1 is initial but s0 below it is not"

    def test_tile_missing_closure_element(self):
        tile = inf_a().alphabet["a"]
        broken = max(tile.transitions)  # drop a maximal transition
        with pytest.raises(ValidationError, match="but not the dominating"):
            tile_of(tile.universe, tile.transitions - {broken})

    def test_unreachable_state_warned(self):
        u = StateUniverse(("s0", "s1"))
        a = OrderedBuchiAutomaton(u, frozenset({0}), {"a": upward_closure(u, [(0, 1, 0)])})
        assert oba_validate(a) == ("s1",)

    def test_unreachable_states_match_explicit_search(self):
        rng = random.Random(31)
        for _ in range(300):
            a = random_oba(rng, max_states=6)
            seen, frontier = set(a.initial), set(a.initial)
            while frontier:
                step = {q for t in a.alphabet.values() for (p, _, q) in t.transitions if p in frontier}
                frontier = step - seen
                seen |= frontier
            assert oba_validate(a) == tuple(a.universe.name(q) for q in range(a.universe.size) if q not in seen)

    def test_only_validate_and_stats_walk_from_the_initial_set(self, tmp_path, monkeypatch, capsys):
        """Loading checks the invariants without the reachability walk; ``validate`` and ``stats`` walk once."""
        walk = importlib.import_module("obat.automata")._walk_from_initial
        calls = []

        def counted(a):
            calls.append(a)
            return walk(a)

        u = StateUniverse(("s0", "s1"))
        cases = [OrderedBuchiAutomaton(u, frozenset({0}), {"a": upward_closure(u, [(0, 1, 0)])})]
        rng = random.Random(31)
        cases += [random_oba(rng, max_states=6) for _ in range(40)]
        warning = "warning (unreachable-state): state {} is unreachable from the initial set\n"
        expected = ["".join(map(warning.format, oba_validate(a))) or "valid\n" for a in cases]
        assert sum(text.count("unreachable-state") for text in expected) >= 10
        for name in ("obat.automata", "obat.determinize", "obat.verify"):
            monkeypatch.setattr(importlib.import_module(name), "_walk_from_initial", counted)
        for i, (a, text) in enumerate(zip(cases, expected)):
            path = str(tmp_path / f"a{i}.json")
            write_doc(oba_to_doc(a), path)
            calls.clear()
            assert load_document(path)[1] == a
            assert len(calls) == 0
            capsys.readouterr()
            assert main(["validate", path]) == OK
            assert capsys.readouterr().out == text
            assert len(calls) == 1
            assert main(["stats", path]) == OK
            assert len(calls) == 2

    def test_tile_universe_compared_by_value(self):
        u = StateUniverse(("s0", "s1"))
        same, other = StateUniverse(("s0", "s1")), StateUniverse(("s0", "s2"))
        tiles = {x: upward_closure(v, [(0, 1, 0)]) for x, v in (("c", other), ("a", same), ("b", other), ("d", u))}
        with pytest.raises(ValidationError) as e:
            OrderedBuchiAutomaton(u, frozenset({0}), tiles)
        assert str(e.value) == "tile-universe: tile 'b' built over a different universe"
        del tiles["b"], tiles["c"]  # 'a' over an equal universe, 'd' over u itself
        assert OrderedBuchiAutomaton(u, frozenset({0}), tiles).alphabet == tiles

    def test_out_of_range_initial_reported(self):
        a = inf_a()
        with pytest.raises(ValidationError) as e:
            OrderedBuchiAutomaton(a.universe, frozenset({0, 1, 5}), a.alphabet)
        assert str(e.value) == "initial: state index 5 out of range"


class TestObaMembership:
    def test_spec_examples(self):
        oracle = ObaOracle(inf_a())
        assert oracle(up((), "a"))
        assert not oracle(up((), "b"))
        assert oracle(up((), ("a", "b")))

    def test_matches_hand_oracle(self):
        oracle = ObaOracle(inf_a())
        for w in enumerate_up_words("ab", 3, 3):
            assert oracle(w) == inf_a_oracle(w)

    def test_unknown_letter(self):
        with pytest.raises(UsageError):
            ObaOracle(inf_a())(up((), "z"))

    def test_empty_initial_rejects_everything(self):
        a = dataclasses.replace(inf_a(), initial=frozenset())
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

    def test_queries_never_read_transition_sets(self, monkeypatch):
        """With ``Tile.transitions`` raising, every answer equals the one given before."""
        cases = [(name, a, None) for name, a in determinization_corpus()]
        cases += [("rabin-two-pair-morphism", *rabin_to_oba(rabin_two_pair()))]
        cases += [("rabin-behavioural-morphism", *rabin_to_oba(rabin_behavioral_two_pair()))]
        cases += [(f"eps-{name}", *parity_to_oba(p)) for name, p in eps_complete_corpus()]
        queries = []
        for name, a, morphism in cases:
            letters = sorted(morphism.as_dict() if morphism is not None else a.alphabet)
            bounds = (2, 3) if len(letters) <= 3 else (1, 2)
            queries.append((name, a, morphism, list(enumerate_up_words(letters, *bounds))))
        before = [[ObaOracle(a, morphism)(w) for w in words] for _, a, morphism, words in queries]
        assert {v for answers in before for v in answers} == {True, False}

        def unread(tile):
            raise AssertionError("a membership query read Tile.transitions")

        monkeypatch.setattr(Tile, "transitions", property(unread))
        for (name, a, morphism, words), answers in zip(queries, before):
            oracle = ObaOracle(a, morphism)
            assert [oracle(w) for w in words] == answers, name


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
    """The set reached after a word, found through the tiles' explicit transitions, is the
    {0..m} that ``ObaOracle.after`` walks to, and these sets form a chain under inclusion."""

    def test_empty_word_gives_initial(self):
        a = inf_a()
        assert reached_states(a, ()) == a.initial == set(range(ObaOracle(a).after(()) + 1))

    def test_after_a(self):
        a = inf_a()
        assert reached_states(a, ("a",)) == {0, 1} == set(range(ObaOracle(a).after(("a",)) + 1))
        a = dataclasses.replace(a, initial=frozenset({0}))
        oracle = ObaOracle(a)
        for word, m in [((), 0), (("b",), 0), (("a",), -1), (("b", "a"), -1), (("a", "b"), -1)]:
            assert oracle.after(word) == m, word
            assert reached_states(a, word) == set(range(m + 1)), word

    def test_totally_ordered(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_oba(rng)
            oracle = ObaOracle(a)
            sets = []
            for n in range(0, 4):
                for w in itertools.product(sorted(a.alphabet), repeat=n):
                    reached = reached_states(a, w)
                    assert reached == set(range(oracle.after(w) + 1)), w
                    sets.append(reached)
            for s1, s2 in itertools.combinations(sets, 2):
                assert s1 <= s2 or s2 <= s1


def _single_loop(priority: int, letter="a") -> ParityAutomaton:
    return ParityAutomaton(
        states=("q",),
        initial=frozenset({"q"}),
        index=(0, 1),
        transitions=frozenset({("q", letter, priority, "q")}),
    )


# (index, priority of the one loop, accepted): priorities beyond 2^30 and below zero
FAR_PRIORITIES = [([0, 2**32], 2**32, True), ([0, 2**32 + 1], 2**32 + 1, False), ([-7, -5], -6, True)]


def _far_loop(index, priority) -> tuple[ParityAutomaton, ParityAutomaton]:
    """A one-state a-loop at ``priority``, nondeterministic and deterministic."""
    return tuple(
        ParityAutomaton(
            states=("p",),
            initial=frozenset({"p"}),
            index=tuple(index),
            transitions=frozenset({("p", "a", priority, "p")}),
            deterministic=det,
        )
        for det in (False, True)
    )


class TestParityAutomaton:
    def test_repeated_state_rejected(self):
        with pytest.raises(ValidationError, match="state identifiers must be pairwise distinct"):
            ParityAutomaton(
                states=("x", "x"),
                initial=frozenset({"x"}),
                index=(0, 1),
                transitions=frozenset({("x", "a", 0, "x")}),
            )


def _det_fields(**changes) -> dict:
    """The constructor fields of ``inf_a``'s determinization, with ``changes``."""
    det = determinize(inf_a())
    return {f.name: getattr(det, f.name) for f in dataclasses.fields(det)} | changes


def _with_letter(name) -> OrderedBuchiAutomaton:
    """``inf_a`` with its letter b renamed to ``name``."""
    a = inf_a()
    return OrderedBuchiAutomaton(a.universe, a.initial, {"a": a.alphabet["a"], name: a.alphabet["b"]})


def _parity(index=(0, 1), transitions=(("q", "a", 0, "q"),)) -> ParityAutomaton:
    return ParityAutomaton(states=("q",), initial=frozenset({"q"}), index=index, transitions=frozenset(transitions))


# one probe per letter, type, alphabet and record rule of the constructors, with the message it raises
CONSTRUCTION_PROBES = {
    "tile-letter-eps": (lambda: _with_letter(EPS), "tile letter name 'eps' is reserved"),
    "tile-letter-int": (lambda: _with_letter(1), "tile letter names must be strings"),
    "parity-alphabet-eps": (
        lambda: ParityAutomaton(**_det_fields(alphabet=frozenset({"a", "b", EPS}))),
        "alphabet letter 'eps' is reserved for ε-transitions",
    ),
    "parity-alphabet-int": (
        lambda: ParityAutomaton(**_det_fields(alphabet=frozenset({"a", "b", 1}))),
        "alphabet letters must be strings",
    ),
    "transition-letter-int": (lambda: _single_loop(0, letter=1), "transition letters must be strings"),
    "index-bound-float": (lambda: _parity(index=(0, 1.0)), "index bounds must be ints"),
    "index-bound-bool": (lambda: _parity(index=(False, 1)), "index bounds must be ints"),
    "index-bound-str": (lambda: _parity(index=("0", 1)), "index bounds must be ints"),
    "transition-priority-float": (lambda: _single_loop(0.0), "transition priorities must be ints"),
    "transition-priority-bool": (lambda: _single_loop(True), "transition priorities must be ints"),
    "transition-priority-str": (lambda: _single_loop("0"), "transition priorities must be ints"),
    "transition-endpoint-int": (
        lambda: _parity(transitions=[(1, "a", 0, "q"), ("q", "a", 0, "q")]),
        "transition endpoints must be strings",
    ),
    "transition-target-int": (lambda: _parity(transitions=[("q", "a", 0, 1)]), "transition endpoints must be strings"),
    "records-without-universe": (
        lambda: ParityAutomaton(**_det_fields(universe=None)),
        "records and universe must be given together",
    ),
    "universe-without-records": (
        lambda: ParityAutomaton(**_det_fields(records=None)),
        "records and universe must be given together",
    ),
    "record-entry-outside-universe": (
        lambda: ParityAutomaton(**_det_fields(records={"(s1,s0)": (1, 2)})),
        "record '(s1,s0)' entry 2 is not a state of the universe",
    ),
}


class TestFrozenValues:
    """Both automaton types are frozen values: every change goes through the constructor's checks."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTION_PROBES))
    def test_construction_probe_raises(self, name):
        probe, message = CONSTRUCTION_PROBES[name]
        with pytest.raises(ValidationError) as e:
            probe()
        assert str(e.value) == message

    def test_every_field_assignment_raises(self):
        det = determinize(inf_a())
        for value in (inf_a(), det, apply_eps_completion(det), _single_loop(0)):
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, f.name)

    def test_every_mapping_write_raises(self):
        a, det = inf_a(), determinize(inf_a())
        for mapping, key, value in ((a.alphabet, "a", a.alphabet["b"]), (det.records, det.states[0], ())):
            writes = ((operator.setitem, (key, value)), (operator.setitem, ("new", value)), (operator.delitem, (key,)))
            for write, args in writes:
                with pytest.raises(TypeError):  # 'mappingproxy' object does not support item assignment
                    write(mapping, *args)
            for method in ("clear", "pop", "popitem", "setdefault", "update"):
                assert not hasattr(mapping, method), method
        assert a == inf_a() and det == determinize(inf_a())

    def test_the_given_mappings_are_copied(self):
        tiles = dict(inf_a().alphabet)
        a = OrderedBuchiAutomaton(inf_a().universe, inf_a().initial, tiles)
        records = dict(determinize(inf_a()).records)
        det = ParityAutomaton(**_det_fields(records=records))
        tiles["c"] = tiles.pop("a")
        records.clear()
        assert a == inf_a() and det == determinize(inf_a())

    def test_replace_checks_again(self):
        """A changed copy is checked as a new automaton is: an initial set {s1} would make ``determinize``
        emit the records (s1) and (s1,s0), which are not records."""
        with pytest.raises(ValidationError) as e:
            dataclasses.replace(inf_a(), initial=frozenset({1}))
        assert str(e.value) == "initial-not-downward-closed: s1 is initial but s0 below it is not"
        with pytest.raises(ValidationError, match="records and universe must be given together"):
            dataclasses.replace(determinize(inf_a()), records=None)
        with pytest.raises(ValidationError, match="tile letter name 'eps' is reserved"):
            dataclasses.replace(inf_a(), alphabet={EPS: unit_tile(inf_a().universe)})

    def test_equal_values_hash_alike(self):
        det = determinize(inf_a())
        for value in (inf_a(), det, apply_eps_completion(det), _single_loop(0)):
            copy = dataclasses.replace(value)
            assert copy == value and hash(copy) == hash(value)
        assert len({inf_a(), inf_a(), dataclasses.replace(inf_a(), initial=frozenset({0}))}) == 2


class TestNpaMembership:
    def test_even_loop_accepts(self):
        assert NpaOracle(_single_loop(0))(up((), "a"))

    def test_odd_loop_rejects(self):
        assert not NpaOracle(_single_loop(1))(up((), "a"))

    def test_rejects_all_eps_period(self):
        with pytest.raises(UsageError):
            NpaOracle(_single_loop(0))(up((), (EPS,)))

    def test_min_parity_liminf(self):
        # period ab sees priorities {0, 1}; min is 0, accepting
        a = ParityAutomaton(
            states=("x", "y"),
            initial=frozenset({"x"}),
            index=(0, 2),
            transitions=frozenset({("x", "a", 1, "y"), ("y", "b", 0, "x"), ("x", "b", 2, "x")}),
        )
        assert NpaOracle(a)(up((), ("a", "b")))
        assert not NpaOracle(a)(up((), ("b", "a", "a")))  # a from y undefined: only b^ω survives
        assert NpaOracle(a)(up(("a",), ("b", "a")))

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
        assert NpaOracle(a)(up((), ("a", "b")))
        assert not NpaOracle(a)(up((), ("a",)))

    @pytest.mark.parametrize("index, priority, accepted", FAR_PRIORITIES)
    def test_priorities_far_from_zero(self, index, priority, accepted):
        nondet, det = _far_loop(index, priority)
        w = up((), "a")
        assert NpaOracle(nondet)(w) == NpaOracle(det)(w) == DpaOracle(det)(w) == accepted

    @pytest.mark.parametrize("index, priority, accepted", FAR_PRIORITIES)
    def test_priorities_far_from_zero_through_the_cli(self, tmp_path, capsys, index, priority, accepted):
        paths = [str(tmp_path / f"{k}.json") for k in ("parity", "det-parity")]
        for a, path in zip(_far_loop(index, priority), paths):
            write_doc(parity_to_doc(a), path)
        assert main(["member", paths[0], "--period", "a"]) == (OK if accepted else FALSE)
        assert capsys.readouterr().out.strip() == str(accepted).lower()
        assert main(["equiv", *paths]) == OK


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
        assert DpaOracle(d)(up((), ("a", "b")))
        assert not DpaOracle(d)(up(("a",), ("b",)))
