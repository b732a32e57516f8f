"""Differential test of ``ObaOracle`` against its set-based, SCC-searching predecessor.

The reference below keeps the earlier oracle: a frozenset successor table
per letter, prefixes folded as explicit state sets, the period-boundary
states as the union of the orbit of the prefix's set, and a period's
accepting boundary states found by a strongly-connected-component search of
its unrolled graph (position i of the period times the states, an edge per
transition of letter i), met with that orbit.  The library holds a state set
as its greatest state instead (every reachable set is {0..m}) and decides a
period by the single-tile ω-power criterion: v^ω is accepted from {0..m}
iff some q ≤ m has a horizontal Büchi transition (q, 0, q) in the product
t_v of v's tiles.  Both must give the same verdict, or raise the same usage
error, on every query, and ``accepts(after(u), v)`` must equal the
reference's ``member``, on the zoo, the 54-automaton corpus, seeded random
automata with up to six states, the horizontal-complete alphabets up to
n = 4, the Rabin and ε-complete conversions with their morphisms, and the
long words of the figures.  The same runs check ``accepts(m, v)`` against
``omega_power_accepts`` on t_v for every m from -1, where nothing is
accepted, to |Q| - 1.

The library steps a period from its one-letter-shorter period when that has
an entry, and otherwise fills one table per class of periods under rotation
and power and reads the period's answer from it; ``per_period_least_accepting``
runs the SCC search once per period, and every period up to five letters,
asked shortest first and in shuffled order, must get the same answer from
both.
"""

import functools
import random

import pytest

from obat import (
    Morphism,
    ObaOracle,
    OrderedBuchiAutomaton,
    StateUniverse,
    UsageError,
    ValidationError,
    omega_power_accepts,
    product,
    up,
)
from obat.automata import _require_letters
from obat.convert import horizontal_complete_alphabet, parity_to_oba, rabin_to_oba
from obat.verify import enumerate_up_words, finite_words

from test_oracle_walk import _long_words
from zoo import (
    determinization_corpus,
    eps_complete_corpus,
    fig_inf_aa_fin_bb,
    fig_inf_b_or_bb_inf_a,
    inf_a,
    rabin_behavioral_two_pair,
    rabin_two_pair,
    random_oba,
)


# --- the set-based reference ----------------------------------------------------


def _post(succ, states):
    out = set()
    for p in states:
        out.update(succ.get(p, ()))
    return frozenset(out)


def _fold(start, succs):
    for succ in succs:
        start = _post(succ, start)
    return start


def _orbit_union(start, image):
    seen = {start}
    union = set(start)
    cur = start
    while True:
        cur = image(cur)
        if cur in seen:
            return frozenset(union)
        seen.add(cur)
        union |= cur


def _scc_partition(nodes, succ) -> dict:
    """Map each node to a strongly-connected-component id (iterative Kosaraju)."""
    order: list = []
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    pred: dict = {}
    for p, qs in succ.items():
        for q in qs:
            pred.setdefault(q, []).append(p)
    comp: dict = {}
    cid = 0
    for node in reversed(order):
        if node in comp:
            continue
        stack = [node]
        comp[node] = cid
        while stack:
            cur = stack.pop()
            for nxt in pred.get(cur, ()):
                if nxt not in comp:
                    comp[nxt] = cid
                    stack.append(nxt)
        cid += 1
    return comp


class RefObaOracle:
    """UP-word membership over explicit state sets."""

    def __init__(self, a, morphism=None):
        self.automaton = a
        self.morphism = morphism
        names = morphism.as_dict() if morphism is not None else {x: x for x in a.alphabet}
        self._tile = {x: a.alphabet[t] for x, t in names.items() if t in a.alphabet}
        self._succ = {
            x: {p: frozenset(range(q + 1)) for p, q in enumerate(tile.top) if q >= 0}
            for x, tile in self._tile.items()
        }
        self._letters = frozenset(self._succ)
        self._acc = {}

    def _check_letters(self, word):
        if self._letters.issuperset(word):
            return
        if self.morphism is not None:
            _require_letters(frozenset(self.automaton.alphabet), *self.morphism.rename(word))
        _require_letters(self._letters, word)

    def _state(self, prefix):
        return _fold(self.automaton.initial, (self._succ[letter] for letter in prefix))

    def _accepting_states(self, period):
        if period in self._acc:
            return self._acc[period]
        a = self.automaton
        length = len(period)
        succ, buchi_edges = {}, []
        for i, letter in enumerate(period):
            j = (i + 1) % length
            for (p, c, q) in self._tile[letter].transitions:
                succ.setdefault((p, i), []).append((q, j))
                if c == 0:
                    buchi_edges.append(((p, i), (q, j)))
        comp = _scc_partition([(q, i) for q in range(a.universe.size) for i in range(length)], succ)
        good = {comp[u] for (u, v) in buchi_edges if comp[u] == comp[v]}
        result = self._acc[period] = frozenset(q for q in range(a.universe.size) if comp[(q, 0)] in good)
        return result

    def _decide(self, state, period):
        maps = [self._succ[letter] for letter in period]
        boundary = _orbit_union(state, lambda s: _fold(s, maps))
        return bool(boundary & self._accepting_states(period))

    def after(self, prefix):
        self._check_letters(prefix)
        return self._state(prefix)

    def accepts(self, state, period):
        self._check_letters(period)
        return self._decide(state, period)

    def member(self, w):
        return self.accepts(self.after(w.prefix), w.period)


def per_period_least_accepting(oracle, period):
    """Least q such that (q, position 0) can cycle through a Büchi edge; |Q| if there is none.

    The library's SCC search before it was shared per conjugacy class: one
    partition of this period's own unrolled graph, nothing cached.
    """
    a = oracle.automaton
    length = len(period)
    succ, buchi_edges = {}, []
    for i, letter in enumerate(period):
        tile = oracle._tile[letter]
        j = (i + 1) % length
        for (p, c, q) in tile.transitions:
            node, nxt = (p, i), (q, j)
            succ.setdefault(node, []).append(nxt)
            if c == 0:
                buchi_edges.append((node, nxt))
    nodes = [(q, i) for q in range(a.universe.size) for i in range(length)]
    comp = _scc_partition(nodes, succ)
    good = {comp[u] for (u, v) in buchi_edges if comp[u] == comp[v]}
    return next((q for q in range(a.universe.size) if comp[(q, 0)] in good), a.universe.size)


# --- the comparison -------------------------------------------------------------------


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except UsageError as e:
        return ("usage", str(e))


def _split(oracle, w):
    return oracle.accepts(oracle.after(w.prefix), w.period)


def omega_power(a, m, t):
    """Whether t^ω is accepted from {0..m}, by the single-tile criterion."""
    return omega_power_accepts(OrderedBuchiAutomaton(a.universe, frozenset(range(m + 1)), a.alphabet), t)


def _check(name, a, words, morphism=None):
    """The verdicts (or usage messages) of ``member``, each equal to the reference's.

    The split is compared with the reference's split, and its verdicts with
    the reference's ``member``; ``accepts(m, v)`` equals :func:`omega_power`
    on the product of v's tiles at every m.
    """
    ref, whole, split = RefObaOracle(a, morphism), ObaOracle(a, morphism), ObaOracle(a, morphism)
    names = morphism.as_dict() if morphism is not None else {x: x for x in a.alphabet}
    verdicts = set()
    for w in words:
        want = _outcome(ref.member, w)
        verdicts.add(want[1])
        assert _outcome(whole.member, w) == want, (name, w)
        assert _outcome(_split, split, w) == _outcome(_split, ref, w), (name, w)
        if want[0] == "ok":
            assert _split(split, w) == want[1], (name, w)
            assert ref.after(w.prefix) == frozenset(range(split.after(w.prefix) + 1)), (name, w)
            t_v = functools.reduce(product, [a.alphabet[names[x]] for x in w.period])
            for m in range(-1, a.universe.size):
                assert split.accepts(m, w.period) == omega_power(a, m, t_v), (name, w, m)
    return verdicts


def _random_word(rng, letters, max_prefix, max_period):
    prefix = rng.choices(letters, k=rng.randint(0, max_prefix))
    return up(prefix, rng.choices(letters, k=rng.randint(1, max_period)))


def _words(rng, letters, count=40):
    """Every word with prefix and period up to 2, then random longer ones."""
    words = list(enumerate_up_words(letters, 2, 2))
    return words + [_random_word(rng, letters, 12, 5) for _ in range(count)]


def test_zoo_and_corpus():
    rng = random.Random(20261101)
    verdicts = set()
    corpus = determinization_corpus()
    assert len(corpus) == 54
    for name, a in corpus:
        verdicts |= _check(name, a, _words(rng, sorted(a.alphabet)))
    assert verdicts == {True, False}


def test_random_automata_up_to_six_states():
    rng = random.Random(20261102)
    sizes = set()
    for i in range(240):
        a = random_oba(rng, max_states=6, full_initial=i % 4 == 0)
        sizes.add(a.universe.size)
        letters = sorted(a.alphabet)
        _check(f"random-{i}", a, [_random_word(rng, letters, 8, 4) for _ in range(60)])
    assert sizes == {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_horizontal_complete(n):
    rng = random.Random(20261103 + n)
    u = StateUniverse(tuple(f"q{i}" for i in range(n)))
    alphabet = horizontal_complete_alphabet(u)
    letters = sorted(alphabet)
    for k in range(n + 1):
        a = OrderedBuchiAutomaton(u, frozenset(range(k)), alphabet)
        words = [_random_word(rng, letters, 6, 4) for _ in range(150)]
        if n <= 2:
            words += list(enumerate_up_words(letters, 2, 2))
        _check(f"horizontal-{n}-initial-{k}", a, words)


def test_conversions_with_morphisms():
    rng = random.Random(20261104)
    cases = [("rabin-two-pair", *rabin_to_oba(rabin_two_pair()))]
    cases.append(("rabin-behavioural", *rabin_to_oba(rabin_behavioral_two_pair())))
    cases += [(f"eps-{name}", *parity_to_oba(p)) for name, p in eps_complete_corpus()]
    for name, a, morphism in cases:
        letters = sorted(morphism.as_dict())
        verdicts = _check(name, a, _words(rng, letters), morphism)
        assert verdicts == {True, False}, name
        outside = [up(letters[:1], ("zz",)), up(("zz",), letters[:1]), up((), (a.letters[0],))]
        _check(f"{name}-outside-domain", a, outside, morphism)


def test_unknown_letters_and_missing_tiles():
    """A morphism onto a missing tile is refused when the oracle is built; a letter outside the
    morphism's domain or the alphabet is refused at query time."""
    oba, morphism = rabin_to_oba(rabin_two_pair())
    with pytest.raises(UsageError) as e:
        ObaOracle(oba, Morphism.from_dict({"a": morphism.as_dict()["a"], "x": "no-such-tile"}))
    assert str(e.value) == "morphism maps 'x' to unknown tile 'no-such-tile'"
    words = [up(("a",), ("zz",)), up(("zz",), ("a",)), up((), ("zz", "a"))]
    verdicts = _check("outside-domain", oba, words, morphism)
    assert verdicts == {"letter 'zz' not in morphism domain"}
    verdicts = _check("inf-a-unknown", inf_a(), [up("az", "a"), up("a", "zb"), up("zy", "x")])
    assert verdicts == {"unknown letter 'z'"}


@pytest.mark.parametrize("make", [fig_inf_aa_fin_bb, fig_inf_b_or_bb_inf_a])
def test_long_words(make):
    assert _check(make.__name__, make(), _long_words(random.Random(3))) == {True, False}


def test_empty_initial_set():
    rng = random.Random(20261105)
    a = random_oba(rng, max_states=4)
    a.initial = frozenset()
    assert ObaOracle(a).after(()) == -1
    assert _check("empty-initial", a, _words(rng, sorted(a.alphabet))) == {False}


@pytest.mark.parametrize(
    "initial, message",
    [
        ({1}, "initial-not-downward-closed: s1 is initial but s0 below it is not"),
        ({0, 2}, "initial: state index 2 out of range"),
        ({0, 1, 2}, "initial: state index 2 out of range"),
    ],
    ids=["not-from-zero", "gap", "outside"],
)
def test_initial_set_not_downward_closed_is_a_usage_error(initial, message):
    """No oracle can be built: the automaton itself is refused, with a validation error."""
    u = StateUniverse(("s0", "s1"))
    with pytest.raises(ValidationError) as e:
        OrderedBuchiAutomaton(u, frozenset(initial), {})
    assert str(e.value) == message


def _class_key(v):
    """The least rotation of the primitive root of ``v``: the key of its class table."""
    root = next(v[:d] for d in range(1, len(v) + 1) if v[:d] * (len(v) // d) == v)
    return min(root[i:] + root[:i] for i in range(len(root)))


def _check_class_tables(name, a, rng, max_period=5):
    """Every period up to ``max_period`` letters, in shuffled order, gets the per-period
    answer.  A period is stepped, and entered in the period table, when it has one letter
    or its one-letter-shorter period was entered before it; every other period leaves the
    table of its class, keyed by the least rotation of its primitive root."""
    oracle = ObaOracle(a)
    periods = list(finite_words(sorted(a.alphabet), max_period, min_len=1))
    rng.shuffle(periods)
    stepped = set()
    for v in periods:
        assert oracle._least_accepting(v) == per_period_least_accepting(oracle, v), (name, v)
        if len(v) == 1 or v[:-1] in stepped:
            stepped.add(v)
    assert set(oracle._period) == stepped, name
    assert set(oracle._acc) == {_class_key(v) for v in periods if v not in stepped}, name
    return len(periods)


def test_class_tables_on_random_automata():
    rng = random.Random(20261106)
    sizes, pairs = set(), 0
    for i in range(100):
        a = random_oba(rng, max_states=6)
        sizes.add((a.universe.size, len(a.alphabet)))
        pairs += _check_class_tables(f"random-{i}", a, rng)
    assert {n for n, _ in sizes} == {1, 2, 3, 4, 5, 6} and {k for _, k in sizes} == {1, 2, 3}
    assert pairs > 10000


def test_class_tables_on_corpus():
    rng = random.Random(20261107)
    for name, a in determinization_corpus():
        _check_class_tables(name, a, rng)


def _route_cases(rng):
    """Seeded random automata up to six states and the corpus, without a morphism, and the
    Rabin and parity conversions, with theirs."""
    for i in range(30):
        yield f"random-{i}", random_oba(rng, max_states=6), None
    yield from ((name, a, None) for name, a in determinization_corpus())
    yield "rabin-two-pair", *rabin_to_oba(rabin_two_pair())
    yield "rabin-behavioural", *rabin_to_oba(rabin_behavioral_two_pair())
    yield from ((f"eps-{name}", *parity_to_oba(p)) for name, p in eps_complete_corpus())


def test_stepped_and_class_routes_agree():
    """Every period up to five letters (three over the nine letters of the behavioural Rabin
    morphism), asked in ``finite_words`` order, where every period longer than one letter
    steps from its one-letter-shorter period, and in shuffled order, where both routes
    occur.  Each answer is the per-period SCC search's, and ``accepts`` from every {0..m}
    is the set-based reference's."""
    rng = random.Random(20261108)
    sizes, stepped, classed = set(), 0, 0
    for name, a, morphism in _route_cases(rng):
        n = a.universe.size
        sizes.add(n)
        letters = sorted(morphism.as_dict()) if morphism is not None else a.letters
        periods = list(finite_words(letters, 5 if len(letters) <= 4 else 3, min_len=1))
        ref, probe = RefObaOracle(a, morphism), ObaOracle(a, morphism)
        want = {}
        for v in periods:
            verdicts = [ref.accepts(frozenset(range(m + 1)), v) for m in range(-1, n)]
            want[v] = per_period_least_accepting(probe, v), verdicts
            assert verdicts == [m >= want[v][0] for m in range(-1, n)], (name, v)
        for shuffled in (False, True):
            oracle = ObaOracle(a, morphism)
            for v in rng.sample(periods, len(periods)) if shuffled else periods:
                least, verdicts = want[v]
                assert oracle._least_accepting(v) == least, (name, v, shuffled)
                assert [oracle.accepts(m, v) for m in range(-1, n)] == verdicts, (name, v, shuffled)
            if not shuffled:
                assert set(oracle._period) == set(periods) and not oracle._acc, name
            else:
                stepped += len(oracle._period)
                classed += len(periods) - len(oracle._period)
    assert sizes >= {1, 2, 3, 4, 5, 6}
    assert stepped > 1000 and classed > 1000
