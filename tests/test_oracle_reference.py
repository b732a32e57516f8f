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
an entry holding a tile, and otherwise fills one table per class of periods
under rotation and power, reads the period's answer from it and enters that
answer with no tile; ``per_period_least_accepting`` runs the SCC search once
per period, and every period up to five letters, asked shortest first and
in shuffled order, must get the same answer from both.

``DpaOracle`` is checked against ``RefDpaOracle``, the lap loop it ran
before it had period elements: the run from one state, one lap of the
period at a time, until a lap ends where an earlier one did.  The library
decides every state at once from the period's interned profile, stepped one
letter at a time or multiplied out.  Both must agree from every state, and
from a dead run (None), on every period up to four letters, asked shortest
first and in shuffled order, and on one 2,000-letter period, and raise the
same usage errors.
"""

import dataclasses
import functools
import random

import pytest

from obat import (
    DpaOracle,
    Morphism,
    ObaOracle,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    StateUniverse,
    UsageError,
    ValidationError,
    determinize,
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
    rich_oba,
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
    a = dataclasses.replace(random_oba(rng, max_states=4), initial=frozenset())
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
    answer and an entry in the period table.  A period is stepped, and its entry holds its
    tile, when it has one letter or its one-letter-shorter period was stepped before it;
    every other period leaves the table of its class, keyed by the least rotation of its
    primitive root, and an entry with no tile."""
    oracle = ObaOracle(a)
    periods = list(finite_words(sorted(a.alphabet), max_period, min_len=1))
    rng.shuffle(periods)
    stepped = set()
    for v in periods:
        assert oracle._least_accepting(v) == per_period_least_accepting(oracle, v), (name, v)
        if len(v) == 1 or v[:-1] in stepped:
            stepped.add(v)
    assert set(oracle._period) == set(periods), name
    assert {v for v, (tile, _) in oracle._period.items() if tile is not None} == stepped, name
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
            assert set(oracle._period) == set(periods), name
            tiles = sum(tile is not None for tile, _ in oracle._period.values())
            if not shuffled:
                assert tiles == len(periods) and not oracle._acc, name
            else:
                stepped += tiles
                classed += len(periods) - tiles
    assert sizes >= {1, 2, 3, 4, 5, 6}
    assert stepped > 1000 and classed > 1000


# --- the DPA lap loop -----------------------------------------------------------------


class RefDpaOracle:
    """Direct run simulation of a deterministic ε-free parity automaton; nothing is cached."""

    def __init__(self, d):
        self._delta = {(p, a): (c, q) for (p, a, c, q) in d.transitions}
        (self._initial,) = d.initial
        self.alphabet = d.effective_alphabet

    def after(self, prefix):
        _require_letters(self.alphabet, prefix)
        state = self._initial
        for letter in prefix:
            hit = self._delta.get((state, letter))
            if hit is None:
                return None
            state = hit[1]
        return state

    def accepts(self, state, period):
        _require_letters(self.alphabet, period)
        if not period:
            raise UsageError("period must be nonempty")
        if state is None:
            return False
        seen = {state: 0}
        mins = []
        while True:
            lap_min = None
            for letter in period:
                hit = self._delta.get((state, letter))
                if hit is None:
                    return False
                c, state = hit
                lap_min = c if lap_min is None else min(lap_min, c)
            mins.append(lap_min)
            if state in seen:
                return min(mins[seen[state]:]) % 2 == 0
            seen[state] = len(mins)

    def member(self, w):
        return self.accepts(self.after(w.prefix), w.period)


def random_partial_dpa(rng, max_states=6):
    """A deterministic parity automaton with a transition on about two thirds of the (state,
    letter) pairs, so that runs die, and a declared alphabet, so that a letter may have none."""
    n = rng.randint(1, max_states)
    states = tuple(f"d{i}" for i in range(n))
    letters = "abc"[: rng.randint(1, 3)]
    lo = rng.randint(-1, 1)
    hi = lo + rng.randint(0, 4)
    transitions = frozenset(
        (p, x, rng.randint(lo, hi), rng.choice(states)) for p in states for x in letters if rng.random() < 0.7
    )
    return ParityAutomaton(
        states=states,
        initial=frozenset({rng.choice(states)}),
        index=(lo, hi),
        transitions=transitions,
        deterministic=True,
        alphabet=frozenset(letters),
    )


def _dpa_cases():
    """The determinizations of the 54-automaton corpus (the zoo's figures and Rabin
    conversion among them) and of three ``rich_oba`` each at n = 4 and 5, then seeded random
    partial DPAs with up to six states."""
    for name, a in determinization_corpus():
        yield name, determinize(a)
    rng = random.Random(20261110)
    for n in (4, 5):
        for i in range(3):
            yield f"rich-{n}-{i}", determinize(rich_oba(rng, n))
    for i in range(80):
        yield f"partial-{i}", random_partial_dpa(rng)


def _check_dpa(name, d, periods, rng):
    """``DpaOracle`` equals the lap loop from every state and from None on ``periods``, asked in
    the given order of one oracle and in shuffled order of another; returns the verdicts."""
    ref = RefDpaOracle(d)
    verdicts = set()
    for order in (periods, rng.sample(periods, len(periods))):
        lib = DpaOracle(d)
        for v in order:
            for state in (*d.states, None):
                want = ref.accepts(state, v)
                verdicts.add(want)
                assert lib.accepts(state, v) == want, (name, v, state)
            assert not lib.accepts("no-such-state", v), (name, v)
    return verdicts


def test_dpa_agrees_with_the_lap_loop():
    rng = random.Random(20261111)
    verdicts, dead, stepped = set(), 0, 0
    for name, d in _dpa_cases():
        letters = sorted(d.effective_alphabet)
        periods = list(finite_words(letters, 4, min_len=1))
        verdicts |= _check_dpa(name, d, periods, rng)
        lib = DpaOracle(d)
        for v in periods:
            lib.accepts(None, v)
        stepped += len(lib._step)
        dead += any(RefDpaOracle(d).after(v) is None for v in periods)
        ref = RefDpaOracle(d)
        for _ in range(20):
            w = _random_word(rng, letters, 12, 4)
            assert lib.after(w.prefix) == ref.after(w.prefix), (name, w)
            assert lib.member(w) == ref.member(w), (name, w)
    assert verdicts == {True, False}
    assert dead > 50 and stepped > 1000


def test_dpa_long_period():
    """One 2,000-letter period from every state of each figure's determinization and of a
    random partial DPA, stepped letter by letter and multiplied out."""
    rng = random.Random(20261112)
    cases = [(make.__name__, determinize(make())) for make in (fig_inf_aa_fin_bb, fig_inf_b_or_bb_inf_a)]
    cases.append(("partial", random_partial_dpa(rng)))
    verdicts = set()
    for name, d in cases:
        letters = sorted(d.effective_alphabet)
        period = tuple(rng.choices(letters, k=2000))
        verdicts |= _check_dpa(name, d, [period], rng)
        stepped = DpaOracle(d)
        for k in range(1, len(period) + 1):
            stepped.accepts(None, period[:k])
        ref = RefDpaOracle(d)
        for state in (*d.states, None):
            assert stepped.accepts(state, period) == ref.accepts(state, period), (name, state)
    assert verdicts == {True, False}


def test_dpa_usage_errors():
    """An unknown letter in the prefix or the period, and an empty period, raise the lap
    loop's usage errors, from every state; the oracle still answers afterwards."""
    d = determinize(fig_inf_aa_fin_bb())
    lib, ref = DpaOracle(d), RefDpaOracle(d)
    for state in (*d.states, None):
        for period, message in [(("a", "z"), "unknown letter 'z'"), ((), "period must be nonempty")]:
            assert _outcome(lib.accepts, state, period) == ("usage", message), (state, period)
            assert _outcome(ref.accepts, state, period) == ("usage", message), (state, period)
    for w in [up("az", "a"), up("a", "zb"), up("zy", "x")]:
        assert _outcome(lib.member, w) == _outcome(ref.member, w) == ("usage", "unknown letter 'z'"), w
    assert lib.accepts(lib.after(("a",)), ("a",))
