import itertools
import random

import pytest

from obat import (
    DpaOracle,
    NpaOracle,
    ObaOracle,
    StateUniverse,
    UPWord,
    UsageError,
    apply_eps_completion,
    determinize,
    up,
    upward_closure,
    unit_tile,
)
from obat.tiles import skeleton
from obat.verify import (
    check_local_preference,
    enumerate_up_words,
    enumerate_upward_closed_tiles,
    equiv_up,
    finite_words,
    skeleton_oracle,
    split_oracle,
)

from zoo import (
    determinization_corpus,
    fig_inf_aa_fin_bb,
    fig_inf_aa_fin_bb_oracle,
    fig_inf_b_or_bb_inf_a,
    fig_inf_b_or_bb_inf_a_oracle,
    genbuchi_oracle,
    inf_a,
    random_tile,
    rabin_two_pair,
)

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


class TestVacuousBounds:
    """A bound under which the enumeration compares nothing is a usage error,
    not an empty answer read as "equal" or "no violation found"."""

    @staticmethod
    def equiv(**bounds):
        bounds = {"max_prefix": 0, "max_period": 1, **bounds}
        return equiv_up(ObaOracle(inf_a()), lambda w: False, "ab", **bounds)

    @staticmethod
    def preference(**bounds):
        return check_local_preference(genbuchi_oracle, "ab", **{"max_u": 1, "max_period": 1, **bounds})

    def test_least_bounds_already_find_the_faults(self):
        assert self.equiv() == up((), "a")
        violations = self.preference().violations
        assert (violations[0].prop, violations[0].witness) == (3, {"u": (), "v": ("a",), "v'": ("b",)})

    @pytest.mark.parametrize(
        "run, bound",
        [
            ("equiv", {"max_prefix": -1}),
            ("equiv", {"max_period": 0}),
            ("preference", {"max_u": 0}),
            ("preference", {"max_period": 0}),
        ],
    )
    def test_rejected(self, run, bound):
        name = "equiv_up" if run == "equiv" else "check_local_preference"
        with pytest.raises(UsageError, match=f"{name} needs"):
            getattr(self, run)(**bound)


# --- the split enumerations against the per-word ones ---------------------------


def equiv_per_word(m1, m2, alphabet, max_prefix, max_period):
    """Reference: one membership query per enumerated word."""
    for w in enumerate_up_words(alphabet, max_prefix, max_period):
        if m1(w) != m2(w):
            return w
    return None


def preference_per_word(member, alphabet, max_u=2, max_period=2, max_w_prefix=2):
    """Reference: the three properties with one memoized query per distinct word."""
    memo = {}

    def m(w):
        if w not in memo:
            memo[w] = member(w)
        return memo[w]

    us = list(finite_words(alphabet, max_u))
    vs = list(finite_words(alphabet, max_u, min_len=1))
    ws = list(enumerate_up_words(alphabet, max_w_prefix, max_period))
    found = []
    accepted = {u: frozenset(i for i, w in enumerate(ws) if m(UPWord(u + w.prefix, w.period))) for u in us}
    for u, u2 in itertools.combinations(us, 2):
        only_u, only_u2 = accepted[u] - accepted[u2], accepted[u2] - accepted[u]
        if only_u and only_u2:
            found.append((1, {"u": u, "u'": u2, "w": ws[min(only_u)], "w'": ws[min(only_u2)]}))
    for u in us:
        for v in vs:
            for w in ws:
                if m(UPWord(u + v + w.prefix, w.period)):
                    if not m(UPWord(u, v)) and not m(UPWord(u + w.prefix, w.period)):
                        found.append((2, {"u": u, "v": v, "w": w}))
    for u in us:
        for v in vs:
            for v2 in vs:
                if m(UPWord(u, v + v2)) and not m(UPWord(u, v)) and not m(UPWord(u, v2)):
                    found.append((3, {"u": u, "v": v, "v'": v2}))
    return found


def _violations(report):
    return [(v.prop, v.witness) for v in report.violations]


def _flavours(a):
    det = determinize(a)
    aug = apply_eps_completion(det)
    return [lambda: ObaOracle(a), lambda: DpaOracle(det), lambda: NpaOracle(aug)]


class Flipped:
    """An oracle whose verdict is flipped on one (prefix state, period) class."""

    def __init__(self, inner, word):
        self.inner = inner
        self.state, self.period = inner.after(word.prefix), word.period

    def after(self, prefix):
        return self.inner.after(prefix)

    def accepts(self, state, period):
        return self.inner.accepts(state, period) != (state == self.state and period == self.period)

    def __call__(self, w):
        return self.accepts(self.after(w.prefix), w.period)


def _corpus_pairs(count):
    """Pairs of same-alphabet automata from the determinization corpus, in a fixed order."""
    by_letters = {}
    for _, a in determinization_corpus():
        by_letters.setdefault(tuple(sorted(a.alphabet)), []).append(a)
    pairs = [(x, y) for group in by_letters.values() for x, y in zip(group, group[1:])]
    return pairs[:count]


class TestSplitEnumerations:
    BOUNDS = (3, 3)

    def test_equiv_same_counterexample_across_flavours(self):
        found = 0
        for a, b in _corpus_pairs(24):
            letters = sorted(a.alphabet)
            for make1, make2 in itertools.product(_flavours(a), _flavours(b)):
                got = equiv_up(make1(), make2(), letters, *self.BOUNDS)
                assert got == equiv_per_word(make1(), make2(), letters, *self.BOUNDS)
                found += got is not None
        assert found > 20

    def test_equiv_injected_late_disagreement(self):
        rng = random.Random(11)
        for _, a in determinization_corpus()[:24]:
            letters = sorted(a.alphabet)
            words = list(enumerate_up_words(letters, *self.BOUNDS))
            for make in _flavours(a):
                late = words[rng.randrange(len(words) // 2, len(words))]
                want = equiv_per_word(make(), Flipped(make(), late), letters, *self.BOUNDS)
                assert want is not None and words.index(want) <= words.index(late)
                assert equiv_up(make(), Flipped(make(), late), letters, *self.BOUNDS) == want
                assert equiv_up(Flipped(make(), late), make(), letters, *self.BOUNDS) == want

    def test_equiv_bare_callables(self):
        last = list(enumerate_up_words("ab", 3, 4))[-1]
        for make, hand in [(fig_inf_aa_fin_bb, fig_inf_aa_fin_bb_oracle), (fig_inf_b_or_bb_inf_a, fig_inf_b_or_bb_inf_a_oracle)]:
            oracle = ObaOracle(make())
            late = lambda w: hand(w) != (w == last)
            assert equiv_up(oracle, hand, "ab", 3, 4) is None
            assert equiv_up(oracle, late, "ab", 3, 4) == last
            assert equiv_up(late, oracle, "ab", 3, 4) == last
            assert equiv_up(hand, late, "ab", 3, 4) == last
        other = equiv_up(fig_inf_aa_fin_bb_oracle, ObaOracle(fig_inf_b_or_bb_inf_a()), "ab", 3, 4)
        assert other == equiv_per_word(fig_inf_aa_fin_bb_oracle, fig_inf_b_or_bb_inf_a_oracle, "ab", 3, 4)

    def test_preference_same_violations(self):
        # languages of ordered Büchi automata are positional: only the bare
        # callables and the injected disagreements below produce violations
        two_letter = [a for _, a in determinization_corpus() if len(a.alphabet) <= 2][:10]
        cases = [(make, sorted(a.alphabet)) for a in two_letter for make in _flavours(a)]
        cases += [(lambda: genbuchi_oracle, "ab"), (lambda: lambda w: {"a", "b"} <= set(w.period), "abc")]
        for make, letters in cases:
            got = _violations(check_local_preference(make(), letters))
            assert got == preference_per_word(make(), letters)

    def test_preference_injected_disagreement(self):
        props = set()
        for make in _flavours(fig_inf_b_or_bb_inf_a()):
            for late in (up("bb", "ab"), up("ba", "b"), up("", "ba"), up("a", "bab")):
                got = _violations(check_local_preference(Flipped(make(), late), "ab"))
                assert got == preference_per_word(Flipped(make(), late), "ab")
                props.update(prop for prop, _ in got)
        assert props == {1, 2, 3}

    def test_bare_callable_state_is_the_prefix(self):
        after, accepts = split_oracle(genbuchi_oracle)
        assert after(("a", "b")) == ("a", "b")
        assert accepts(("a",), ("b", "a")) == genbuchi_oracle(up("a", "ba"))


class TestEachClassDecidedOnce:
    """Structural call counts: one ``accepts`` per class and period, no ``member``."""

    @pytest.fixture
    def no_member(self, monkeypatch):
        def refuse(self, w):
            raise AssertionError("member called during an enumeration")

        for cls in (ObaOracle, DpaOracle, NpaOracle):
            monkeypatch.setattr(cls, "member", refuse)
            monkeypatch.setattr(cls, "__call__", refuse)

    @staticmethod
    def _counting(oracle):
        calls = []
        accepts = oracle.accepts
        oracle.accepts = lambda state, period: calls.append((state, period)) or accepts(state, period)
        return calls

    def test_equiv(self, no_member):
        max_prefix, max_period = 3, 3
        saved = 0
        for a, b in _corpus_pairs(12):
            letters = sorted(a.alphabet)
            prefixes = list(finite_words(letters, max_prefix))
            periods = len(list(finite_words(letters, max_period, min_len=1)))
            for make1, make2 in itertools.product(_flavours(a), _flavours(b)):
                o1, o2 = make1(), make2()
                calls1, calls2 = self._counting(o1), self._counting(o2)
                equiv_up(o1, o2, letters, max_prefix, max_period)
                classes = {(o1.after(u), o2.after(u)) for u in prefixes}
                assert len(calls1) <= len(classes) * periods
                assert len(calls2) <= len(classes) * periods
                saved += len(calls1) < len(prefixes)
        assert saved

    def test_local_preference(self, no_member):
        for _, a in determinization_corpus()[:12]:
            letters = sorted(a.alphabet)
            for make in _flavours(a):
                oracle = make()
                calls = self._counting(oracle)
                check_local_preference(oracle, letters)
                assert len(calls) == len(set(calls))

    def test_local_preference_continuations_once_per_state(self, no_member):
        """Each prefix state's accepted continuations are swept once, not once per (u, v)."""
        for _, a in determinization_corpus()[:12]:
            letters = sorted(a.alphabet)
            us = list(finite_words(letters, 2))
            vs = list(finite_words(letters, 2, min_len=1))
            ws = len(list(enumerate_up_words(letters, 2, 2)))
            for make in _flavours(a):
                oracle = make()
                states = {oracle.after(u + v) for u in us for v in [()] + vs}
                calls = []
                after = oracle.after
                oracle.after = lambda prefix: calls.append(prefix) or after(prefix)
                check_local_preference(oracle, letters)
                # one lookup per u, two per (u, v), three per (u, v, v'); one sweep of ws per state
                assert len(calls) <= len(us) * (1 + 2 * len(vs) + 3 * len(vs) ** 2) + len(states) * ws


def equiv_per_class(m1, m2, alphabet, max_prefix, max_period):
    """Reference: one scan of the periods per distinct pair of prefix states, each asking both oracles afresh."""
    (after1, accepts1), (after2, accepts2) = split_oracle(m1), split_oracle(m2)
    periods = list(finite_words(alphabet, max_period, min_len=1))
    first = {}
    for u in finite_words(alphabet, max_prefix):
        key = s1, s2 = after1(u), after2(u)
        if key not in first:
            first[key] = next((v for v in periods if accepts1(s1, v) != accepts2(s2, v)), None)
        if first[key] is not None:
            return UPWord(u, first[key])
    return None


class Refusing:
    """An oracle that raises, naming itself, on any word with the letter it refuses."""

    def __init__(self, inner, letter, name):
        self.inner, self.letter, self.name = inner, letter, name

    def _check(self, word):
        if self.letter in word:
            raise UsageError(f"{self.name} refuses {self.letter!r}")

    def after(self, prefix):
        self._check(prefix)
        return self.inner.after(prefix)

    def accepts(self, state, period):
        self._check(period)
        return self.inner.accepts(state, period)

    def __call__(self, w):
        return self.accepts(self.after(w.prefix), w.period)


def _outcome(compare, *args):
    try:
        return "returned", compare(*args)
    except UsageError as e:
        return "raised", str(e)


class TestEachOracleAskedOnce:
    """``equiv_up`` asks each oracle once per distinct (state, period), in the order of the per-class scan."""

    BOUNDS = (3, 3)

    def test_equiv_calls_are_the_per_class_calls_without_repeats(self):
        repeats = found = 0
        for a, b in _corpus_pairs(12):
            letters = sorted(a.alphabet)
            for make1, make2 in itertools.product(_flavours(a), _flavours(b)):
                o1, o2, r1, r2 = make1(), make2(), make1(), make2()
                calls = [TestEachClassDecidedOnce._counting(o) for o in (o1, o2, r1, r2)]
                got = equiv_up(o1, o2, letters, *self.BOUNDS)
                assert got == equiv_per_class(r1, r2, letters, *self.BOUNDS)
                assert got == equiv_per_word(make1(), make2(), letters, *self.BOUNDS)
                for mine, reference in zip(calls[:2], calls[2:]):
                    assert mine == list(dict.fromkeys(reference))
                    repeats += len(reference) - len(mine)
                found += got is not None
        assert repeats and found

    def test_equiv_raises_the_per_class_exception(self):
        """Oracles that refuse letters: the first refusal of the per-class scan is raised, also when both refuse."""
        raised = set()  # which oracle's refusal was raised
        for a, b in _corpus_pairs(12):
            letters = sorted(a.alphabet)
            for x, y in itertools.product(letters[:2], repeat=2):
                for make1, make2 in itertools.product(_flavours(a), _flavours(b)):
                    outcomes = [
                        _outcome(compare, Refusing(make1(), x, "first"), Refusing(make2(), y, "second"), letters, *self.BOUNDS)
                        for compare in (equiv_up, equiv_per_class)
                    ]
                    assert outcomes[0] == outcomes[1]
                    if outcomes[0][0] == "raised":
                        raised.add(outcomes[0][1].split()[0])
        assert raised == {"first", "second"}

    def test_local_preference_asks_each_prefix_once(self):
        for _, a in determinization_corpus()[:12]:
            letters = sorted(a.alphabet)
            us = list(finite_words(letters, 2))
            vs = list(finite_words(letters, 2, min_len=1))
            xs = list(finite_words(letters, 2))
            for make in _flavours(a):
                oracle = make()
                states = {oracle.after(u + v) for u in us for v in [()] + vs}
                calls = []
                after = oracle.after
                oracle.after = lambda prefix: calls.append(prefix) or after(prefix)
                got = _violations(check_local_preference(oracle, letters))
                assert got == preference_per_word(make(), letters)
                # each u, each u·v whose period is rejected, and u·x for each continuation prefix x of each state
                assert len(calls) == len(set(calls)) <= len(us) * (1 + len(vs)) + len(states) * len(xs)
