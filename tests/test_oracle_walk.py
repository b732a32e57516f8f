"""Prefix walks of the membership oracles: long words, the NPA start set, the morphism fold,
and the split of a query into ``after(prefix)`` and ``accepts(state, period)``.

The long-word tests run at Python's default recursion limit, so an oracle
that recursed once per letter would fail them.
"""

import collections
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import obat
from obat import (
    EPS,
    DpaOracle,
    Morphism,
    NpaOracle,
    ObaOracle,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    StateUniverse,
    UPWord,
    UsageError,
    apply_eps_completion,
    determinize,
    intertwine,
    rabin_to_oba,
    up,
)
import obat.automata
from obat.automata import _mat_key, _mat_mul
from obat.cli import USAGE, main, oba_to_doc

from obat.convert import horizontal_complete_alphabet
from obat.verify import enumerate_up_words, equiv_up, finite_words

from zoo import (
    determinization_corpus,
    eps_complete_corpus,
    fig_inf_aa_fin_bb,
    fig_inf_aa_fin_bb_oracle,
    fig_inf_b_or_bb_inf_a,
    fig_inf_b_or_bb_inf_a_oracle,
    rabin_two_pair,
    random_oba,
    rich_oba,
)

DEFAULT_RECURSION_LIMIT = 1000


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _long_words(rng):
    """Words with a 5,000-letter prefix or a 2,000-letter period, both verdicts of each figure."""
    words = [
        up("a" * 4000 + "bb" + "a" * 998, "a"),  # bb only deep in the prefix
        up("ab" * 2500, "a"),
        up("ab" * 2500, "aab"),
        up("aab" * 1666 + "aa", "b"),
        up("b", "a" * 1999 + "b"),
        up("", "ab" * 1000),
        up("", "a" * 1000 + "bb" + "a" * 998),
    ]
    for _ in range(3):
        words.append(up(rng.choices("ab", k=5000), rng.choices("ab", k=rng.randint(1, 4))))
        words.append(up(rng.choices("ab", k=rng.randint(0, 5)), rng.choices("ab", k=2000)))
    return words


FIGURES = [
    (fig_inf_aa_fin_bb, fig_inf_aa_fin_bb_oracle),
    (fig_inf_b_or_bb_inf_a, fig_inf_b_or_bb_inf_a_oracle),
]


class TestLongWords:
    @pytest.mark.parametrize("make, hand", FIGURES)
    def test_three_flavours_at_default_limit(self, make, hand, default_recursion_limit):
        a = make()
        det = determinize(a)
        oba, dpa, npa = ObaOracle(a), DpaOracle(det), NpaOracle(apply_eps_completion(det))
        verdicts = set()
        for w in _long_words(random.Random(3)):
            want = hand(w)
            verdicts.add(want)
            assert oba(w) == want, w
            assert dpa(w) == want, w
            assert npa(intertwine(w)) == want, w
        assert verdicts == {True, False}

    def test_dead_dpa_run_stays_dead(self, default_recursion_limit):
        d = ParityAutomaton(
            states=("q",),
            initial=frozenset({"q"}),
            index=(0, 1),
            transitions=frozenset({("q", "a", 0, "q")}),
            deterministic=True,
            alphabet=frozenset("ab"),
        )
        dpa = DpaOracle(d)
        assert dpa(up("a" * 5000, "a"))
        assert not dpa(up("a" * 10 + "b" + "a" * 4989, "a"))
        assert not dpa(up("a" * 10 + "b" + "a" * 4990, "a"))

    def test_cli_member_long_prefix(self, tmp_path):
        path = tmp_path / "fig.json"
        path.write_text(json.dumps(oba_to_doc(fig_inf_b_or_bb_inf_a())))
        prefix = " ".join("a" * 4000 + "bb" + "a" * 998)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(obat.__file__)))
        run = subprocess.run(
            [sys.executable, "-m", "obat", "member", str(path), "--prefix", prefix, "--period", "a"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "true"
        assert "Traceback" not in run.stderr


def _random_word(rng, letters, max_prefix, max_period):
    prefix = rng.choices(letters, k=rng.randint(0, max_prefix))
    return up(prefix, rng.choices(letters, k=rng.randint(1, max_period)))


def _npas():
    yield from eps_complete_corpus()
    for name, a in determinization_corpus(count=12, seed=41):
        yield name, apply_eps_completion(determinize(a))


def _container_sizes(oracle) -> dict[str, int]:
    return {k: len(v) for k, v in vars(oracle).items() if isinstance(v, (dict, set, frozenset))}


class TestWalkDifferential:
    def test_npa_start_set_matches_matrix_product(self):
        rng = random.Random(20261018)
        checked = 0
        for name, a in _npas():
            npa = NpaOracle(a)
            letters = sorted(a.effective_alphabet)
            for _ in range(3):
                word = rng.choices(letters + [EPS], k=rng.randint(0, 60))
                period = (rng.choice(letters),)
                m = npa._unit
                for k in range(len(word) + 1):
                    if k:
                        m = _mat_mul(m, npa._letter(word[k - 1]))
                    want = frozenset(q for p in a.initial for q, vals in m.get(p, {}).items() if vals)
                    assert npa.after(tuple(word[:k])) == want, (name, word[:k])
                    assert npa(up(word[:k], period)) == npa.accepts(want, period), (name, word[:k])
                    checked += 1
        assert checked > 1000

    def test_three_flavours_agree_on_determinization_corpus(self):
        rng = random.Random(20261019)
        for name, a in determinization_corpus():
            det = determinize(a)
            oba, dpa, npa = ObaOracle(a), DpaOracle(det), NpaOracle(apply_eps_completion(det))
            letters = sorted(a.alphabet)
            for _ in range(10):
                w = _random_word(rng, letters, 60, 16)
                want = oba(w)
                assert dpa(w) == want, (name, w)
                assert npa(intertwine(w)) == want, (name, w)

    def test_state_grows_only_with_distinct_periods(self):
        """5,000 distinct prefixes over seven periods, asked a, b, ab, bba, ba, abb, aa: the
        OBA's period table holds the six periods of one letter or whose one-letter-shorter
        period was asked before them, and bba, whose bb was not, leaves one class table; the
        NPA's per-period table holds seven, its elements and its per-matrix acceptance table
        one per distinct matrix among the periods' (six), its step table one per period one
        letter longer than an earlier one (ab, ba, abb, aa), and its letter tables one per
        letter; the last 4,000 prefixes add nothing."""
        a = fig_inf_aa_fin_bb()
        det = determinize(a)
        rng = random.Random(20261020)
        prefixes: set = set()
        while len(prefixes) < 5000:
            prefixes.add(tuple(rng.choices("ab", k=rng.randint(0, 40))))
        periods = [("a",), ("b",), ("a", "b"), ("b", "b", "a"), ("b", "a"), ("a", "b", "b"), ("a", "a")]
        for oracle, grown in (
            (ObaOracle(a), {"_period": 6, "_acc": 1}),
            (DpaOracle(det), {}),
            (
                NpaOracle(apply_eps_completion(det)),
                {"_period": 7, "_element": 6, "_step": 4, "_acc": 6, "_letter_mat": 2},
            ),
        ):
            sizes = [_container_sizes(oracle)]
            for i, u in enumerate(sorted(prefixes)):
                oracle(up(u, periods[i % len(periods)]))
                if i == 999:
                    sizes.append(_container_sizes(oracle))
            sizes.append(_container_sizes(oracle))
            name = type(oracle).__name__
            assert sizes[1] == sizes[2], name
            assert {k: n for k, n in sizes[2].items() if n != sizes[0][k]} == grown, name

    def test_equiv_searches_once_per_class(self):
        """One ``equiv_up`` over three letters at bounds 2/3 asks all 39 periods of each prefix
        state shortest first, so each period steps from its one-letter-shorter period: one
        period entry each, and no class table."""
        oba, _ = rabin_to_oba(rabin_two_pair())
        oracle = ObaOracle(oba)
        assert equiv_up(oracle, DpaOracle(determinize(oba)), oba.letters, 2, 3) is None
        assert len(oracle._period) == 39 and not oracle._acc


def _npa_table_cases():
    """The ε-complete zoo and the ε-completed determinizations of the determinization
    corpus (the zoo's figures and random automata up to three states) and of two
    four-state ``rich_oba``."""
    yield from eps_complete_corpus()
    rng = random.Random(4)
    corpus = determinization_corpus() + [(f"rich-4-{i}", rich_oba(rng, 4)) for i in range(2)]
    for name, a in corpus:
        yield name, apply_eps_completion(determinize(a))


class TestNpaTables:
    def test_long_lived_oracle_agrees_with_a_fresh_one_per_query(self):
        """Every period up to four letters, behind a random prefix and also intertwined with ε,
        asked in shuffled order of one long-lived oracle: its per-period and per-matrix tables
        must give a fresh oracle's answer."""
        rng = random.Random(20261023)
        verdicts = set()
        for name, a in _npa_table_cases():
            letters = sorted(a.effective_alphabet)
            periods = [v for k in range(1, 5) for v in itertools.product(letters, repeat=k)]
            words = [up(rng.choices(letters, k=rng.randint(0, 3)), v) for v in periods]
            words += [intertwine(w) for w in rng.sample(words, min(len(words), 20))]
            rng.shuffle(words)
            npa = NpaOracle(a)
            for w in words:
                want = NpaOracle(a)(w)
                verdicts.add(want)
                assert npa(w) == want, (name, w)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n, records, sampled", [(3, 5, None), (4, 11, 200)])
    def test_horizontal_complete_eps_completion(self, n, records, sampled):
        """The ε-completed determinization of the horizontal-complete alphabet against
        ``ObaOracle`` on the source, intertwined: every word with |u| <= 1 and |v| <= 2 (at
        n = 4, |v| = 2 only for a seeded sample of the 6,561 periods), asked once per
        distinct pair of prefix states, then seeded random words."""
        u = StateUniverse(tuple(f"q{i}" for i in range(n)))
        a = OrderedBuchiAutomaton(u, frozenset(range(n)), horizontal_complete_alphabet(u))
        det = determinize(a)
        assert len(det.states) == records
        npa, oba = NpaOracle(apply_eps_completion(det)), ObaOracle(a)
        letters = sorted(a.alphabet)
        rng = random.Random(20261025 + n)
        periods = list(finite_words(letters, 2, min_len=1))
        if sampled:
            periods[len(letters):] = rng.sample(periods[len(letters):], sampled)
        starts = {}
        for x in finite_words(letters, 1):  # any period will do: only the woven prefix is read
            starts.setdefault((npa.after(intertwine(up(x, letters[:1])).prefix), oba.after(x)), x)
        verdicts = set()
        for (s, m), x in starts.items():
            for v in periods:
                want = oba.accepts(m, v)
                verdicts.add(want)
                assert npa.accepts(s, intertwine(up(x, v)).period) == want, (n, x, v)
        assert verdicts == {True, False}
        for _ in range(100):
            w = _random_word(rng, letters, 6, 4)
            assert npa(intertwine(w)) == oba(w), (n, w)

    @staticmethod
    def _count_products(monkeypatch):
        """Each ``_mat_mul`` call from here on, as (calling function, right factor)."""
        products = []

        def counted(a, b):
            products.append((sys._getframe(1).f_code.co_name, b))
            return _mat_mul(a, b)

        monkeypatch.setattr(obat.automata, "_mat_mul", counted)
        return products

    def test_equiv_runs_the_power_loop_once_per_matrix(self, monkeypatch):
        """One ``equiv_up`` at bounds 2/3 asks 39 periods in prefix-closed scans.  The period
        products are the letters' ε-closure products (two per letter) and one per distinct
        (element, letter) step, however many periods take that step; each element's powers
        are iterated at most once, however many periods share it."""
        oba, _ = rabin_to_oba(rabin_two_pair())
        det = determinize(oba)
        npa = NpaOracle(apply_eps_completion(det))
        products = self._count_products(monkeypatch)
        assert equiv_up(DpaOracle(det), npa, oba.letters, 2, 3) is None
        calls = collections.Counter(caller for caller, _ in products)
        assert set(calls) == {"_letter", "_new_period", "_accepting"}
        assert len(npa._period) == 39
        assert calls["_letter"] == 2 * len(npa._letter_mat) == 6
        assert calls["_new_period"] == len(npa._step) < 39 - 3
        loops = {id(b): b for caller, b in products if caller == "_accepting"}
        assert len({_mat_key(v) for v in loops.values()}) == len(loops) <= len(npa._element) < 39

    def test_unrelated_periods_add_one_element_and_no_step(self, monkeypatch):
        """A stream of distinct intertwined periods, none one letter longer than an earlier one,
        as random queries are: each is multiplied out from its first letter's matrix, and adds
        its period, at most one element and no step."""
        oba, _ = rabin_to_oba(rabin_two_pair())
        npa = NpaOracle(apply_eps_completion(determinize(oba)))
        products = self._count_products(monkeypatch)
        rng = random.Random(20261024)
        asked = 0
        while asked < 300:
            w = intertwine(_random_word(rng, oba.letters, 3, 6))
            if w.period in npa._period or w.period[:-1] in npa._period:
                continue
            periods, elements = len(npa._period), len(npa._element)
            del products[:]
            npa(w)
            assert len(npa._period) == periods + 1, w
            assert elements <= len(npa._element) <= elements + 1, w
            assert not npa._step, w
            assert sum(caller == "_new_period" for caller, _ in products) == len(w.period) - 1, w
            asked += 1


class TestMorphismFold:
    def test_mapped_query_matches_tile_letters(self):
        oba, morphism = rabin_to_oba(rabin_two_pair())
        mapped, plain = ObaOracle(oba, morphism), ObaOracle(oba)
        rng = random.Random(5)
        letters = sorted(morphism.as_dict())
        for _ in range(200):
            w = _random_word(rng, letters, 8, 4)
            assert mapped(w) == plain(UPWord(*morphism.rename(w.prefix, w.period))), w

    def test_letter_outside_domain(self):
        oba, morphism = rabin_to_oba(rabin_two_pair())
        oracle = ObaOracle(oba, morphism)
        with pytest.raises(UsageError, match="not in morphism domain"):
            oracle(up(("a", "zz"), ("b",)))
        assert "t0" in oba.alphabet and "t0" not in morphism.as_dict()
        with pytest.raises(UsageError, match="not in morphism domain"):
            oracle(up((), ("t0",)))  # a tile name is not a query letter

    def test_letter_mapped_to_missing_tile(self):
        """Refused when the oracle is built, with the loader's wording."""
        oba, _ = rabin_to_oba(rabin_two_pair())
        with pytest.raises(UsageError) as e:
            ObaOracle(oba, Morphism.from_dict({"x": "no-such-tile"}))
        assert str(e.value) == "morphism maps 'x' to unknown tile 'no-such-tile'"

    def test_cli_member_outside_domain(self, tmp_path, capsys):
        oba, morphism = rabin_to_oba(rabin_two_pair())
        path = tmp_path / "rabin.json"
        path.write_text(json.dumps(oba_to_doc(oba, morphism)))
        assert main(["member", str(path), "--prefix", "a", "--period", "zz"]) == USAGE
        assert "not in morphism domain" in capsys.readouterr().err


def _flavours(a, morphism=None):
    """Factories for the three oracles of ``a``: itself (through ``morphism``), its
    determinization, that one ε-completed."""
    det = determinize(a)
    aug = apply_eps_completion(det)
    return [
        ("oba", lambda: ObaOracle(a, morphism)),
        ("dpa", lambda: DpaOracle(det)),
        ("npa", lambda: NpaOracle(aug)),
    ]


def _assert_split_agrees(make, words, flavour, intertwined=True):
    """``accepts(after(u), v) == member(u·v^ω)``, each side on its own fresh oracle.

    NPA queries are also asked with explicit ε letters (``intertwine``).
    """
    split, whole = make(), make()
    for w in words:
        for q in (w, intertwine(w)) if flavour == "npa" and intertwined else (w,):
            assert split.accepts(split.after(q.prefix), q.period) == whole.member(q), (flavour, q)


class TestSplitAgreesWithMember:
    def test_long_words(self, default_recursion_limit):
        words = _long_words(random.Random(4))[:7]  # the fixed ones; the random ones repeat their shapes
        for make_a, _ in FIGURES:
            for flavour, make in _flavours(make_a()):
                _assert_split_agrees(make, words, flavour, intertwined=False)

    def test_determinization_corpus(self):
        rng = random.Random(20261020)
        for name, a in determinization_corpus():
            letters = sorted(a.alphabet)
            words = list(enumerate_up_words(letters, 2, 2))
            words += [_random_word(rng, letters, 12, 6) for _ in range(20)]
            for flavour, make in _flavours(a):
                _assert_split_agrees(make, words, flavour)

    def test_random_automata_up_to_six_states(self):
        rng = random.Random(20261021)
        sizes = set()
        for _ in range(40):
            a = random_oba(rng, max_states=6)
            sizes.add(a.universe.size)
            letters = sorted(a.alphabet)
            words = [_random_word(rng, letters, 10, 5) for _ in range(30)]
            for flavour, make in _flavours(a):
                _assert_split_agrees(make, words, flavour)
        assert 6 in sizes

    def test_morphism_and_eps_corpus(self):
        rng = random.Random(20261022)
        oba, morphism = rabin_to_oba(rabin_two_pair())
        letters = sorted(morphism.as_dict())
        words = [_random_word(rng, letters, 8, 4) for _ in range(100)]
        _assert_split_agrees(lambda: ObaOracle(oba, morphism), words, "oba")
        for name, a in eps_complete_corpus():
            letters = sorted(a.effective_alphabet)
            words = [_random_word(rng, letters, 8, 4) for _ in range(40)]
            _assert_split_agrees(lambda: NpaOracle(a), words, "npa")

    @pytest.mark.parametrize("flavour", ["oba", "dpa", "npa"])
    def test_same_usage_errors_in_the_same_order(self, flavour):
        make = dict(_flavours(fig_inf_aa_fin_bb()))[flavour]
        words = [up("az", "a"), up("a", "zb"), up("zy", "x")]
        if flavour == "npa":
            words += [up("a", (EPS,)), up("z", (EPS,))]
        for w in words:
            with pytest.raises(UsageError) as whole:
                make().member(w)
            oracle = make()
            with pytest.raises(UsageError) as split:
                oracle.accepts(oracle.after(w.prefix), w.period)
            assert str(split.value) == str(whole.value), w

    def test_empty_period_is_a_usage_error(self):
        """Each oracle refuses an empty period with a usage error, and then still answers."""
        for flavour, make in _flavours(fig_inf_aa_fin_bb()):
            oracle = make()
            state = oracle.after(("a",))
            with pytest.raises(UsageError):
                oracle.accepts(state, ())
            assert oracle.accepts(state, ("a",)), flavour

    @pytest.mark.parametrize("flavour", ["oba", "dpa", "npa"])
    def test_prefix_letter_named_before_the_period_letter(self, flavour):
        """A bad letter in each part: ``member``, ``after`` and the split name the prefix's.

        The OBA is asked through its morphism, so its bad letters are outside the domain.
        """
        oba, morphism = rabin_to_oba(rabin_two_pair())
        make = dict(_flavours(oba, morphism))[flavour]
        good = min(morphism.as_dict()) if flavour == "oba" else min(oba.alphabet)
        want = "letter 'zz' not in morphism domain" if flavour == "oba" else "unknown letter 'zz'"
        for w in [up(("zz",), ("yy",)), up((good, "zz"), (good, "yy"))]:
            for ask in (
                lambda o: o.member(w),
                lambda o: o.after(w.prefix),
                lambda o: o.accepts(o.after(w.prefix), w.period),
            ):
                with pytest.raises(UsageError) as e:
                    ask(make())
                assert str(e.value) == want, w

    def test_missing_prefix_tile_named_before_period(self):
        """A morphism onto missing tiles is refused before any query, naming its first such letter."""
        oba, morphism = rabin_to_oba(rabin_two_pair())
        mapping = dict(morphism.as_dict(), y="other-missing", x="no-such-tile")
        with pytest.raises(UsageError) as e:
            ObaOracle(oba, Morphism.from_dict(mapping))
        assert str(e.value) == "morphism maps 'x' to unknown tile 'no-such-tile'"
