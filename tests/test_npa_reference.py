"""Differential test of ``NpaOracle`` against its per-period predecessor.

The reference below keeps the earlier period path: each period's ε-closed
value-set matrix multiplied out from the unit, its accepting states found
by iterating that matrix's powers until they repeat (once per period,
nothing shared between periods), and the period-boundary states as the
union of the orbit of the start set under the matrix, met with the
accepting states.  It carries its own copy of the matrix operations, so it
does not follow a change to the library's kernel.  The library instead maps
each period to an interned element (a matrix and its reach set, the states
from which the matrix's graph reaches an accepting state), extends a
period's element by one letter through a step table, and decides a query by
meeting the start set with the reach set.

Both must give the same ``after`` sets, the same ``accepts`` and ``member``
verdicts, and the same usage errors, on the ε-complete zoo, the ε-completed
determinizations of the corpus and of two four-state ``rich_oba``, plain and
intertwined, with the periods asked of one long-lived library oracle twice
over: in prefix-closed scans in ``equiv_up`` order, and shuffled.

The library finds an element's reach set by threshold reachability, with no
matrix powers; the last tests hold it to the reference's power loop on every
matrix ``equiv_up`` interns on those automata and on two five-state
``rich_oba``, and on seeded random value-set matrices.
"""

import random

import pytest

from obat import EPS, NpaOracle, UsageError, ValidationError, apply_eps_completion, determinize, intertwine, up
from obat.automata import _element_reach, _require_letters
from obat.verify import enumerate_up_words, equiv_up, finite_words

from test_oracle_reference import _fold, _orbit_union, _post
from test_oracle_walk import _npa_table_cases
from zoo import make_eps_complete, rich_oba


# --- the per-period reference ---------------------------------------------------


def _mat_mul(a, b):
    out = {}
    for p, row in a.items():
        acc = {}
        for q, vals in row.items():
            for r, bvals in b.get(q, {}).items():
                acc.setdefault(r, set()).update(min(x, y) for x in vals for y in bvals)
        if acc:
            out[p] = {r: frozenset(v) for r, v in acc.items()}
    return out


def _mat_union(a, b):
    out = {p: dict(row) for p, row in a.items()}
    for p, row in b.items():
        mine = out.setdefault(p, {})
        for q, vals in row.items():
            mine[q] = vals | mine.get(q, frozenset())
    return out


def _mat_key(a):
    return frozenset((p, q, vals) for p, row in a.items() for q, vals in row.items())


def _power_loop_accepting(v):
    """The states with an even value on their own cell in some power of ``v``, by iterating
    the powers until one repeats."""
    power, seen, found = v, set(), set()
    key = _mat_key(v)
    while key not in seen:
        seen.add(key)
        found |= {q for q, row in power.items() if any(c % 2 == 0 for c in row.get(q, ()))}
        power = _mat_mul(power, v)
        key = _mat_key(power)
    return frozenset(found)


def _power_loop_reach(v, states):
    """The states whose orbit under ``v`` meets the power loop's accepting states."""
    acc = _power_loop_accepting(v)
    return frozenset(q for q in states if _orbit_union(frozenset({q}), lambda s: _post(v, s)) & acc)


class RefNpaOracle:
    """UP-word membership by one power loop and one orbit per period."""

    def __init__(self, a):
        self.automaton = a
        rel = {}
        for (p, x, c, q) in a.transitions:
            row = rel.setdefault(x, {}).setdefault(p, {})
            row[q] = row.get(q, frozenset()) | {c}
        self._letters = a.effective_alphabet | {EPS}
        self._unit = {p: {p: frozenset({(a.index[1] + 1) | 1})} for p in a.states}
        e = self._unit
        while (step := _mat_union(e, _mat_mul(e, rel.get(EPS, {})))) != e:
            e = step
        self._letter = {x: _mat_mul(_mat_mul(e, rel.get(x, {})), e) for x in self._letters}
        self._period = {}  # period -> (matrix, accepting states)

    def _entry(self, period):
        if period not in self._period:
            v = self._unit
            for x in period:
                v = _mat_mul(v, self._letter[x])
            self._period[period] = (v, _power_loop_accepting(v))
        return self._period[period]

    def after(self, prefix):
        _require_letters(self._letters, prefix)
        return _fold(self.automaton.initial, (self._letter[x] for x in prefix))

    def accepts(self, state, period):
        _require_letters(self._letters, period)
        if all(x == EPS for x in period):
            raise UsageError("period must contain a non-ε letter")
        v, acc = self._entry(period)
        return bool(_orbit_union(state, lambda s: _post(v, s)) & acc)

    def member(self, w):
        return self.accepts(self.after(w.prefix), w.period)


# --- the comparison -------------------------------------------------------------------


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except UsageError as e:
        return ("usage", str(e))


def _check(name, ref, lib, words):
    """``after``, ``accepts(after(u), v)`` and ``member`` of ``lib`` against ``ref``, word by word.

    Once the ``after`` sets agree, the reference's ``member`` is its
    ``accepts`` from the library's set.
    """
    verdicts = set()
    for w in words:
        want = _outcome(ref.member, w)
        verdicts.add(want[1])
        assert _outcome(lib.member, w) == want, (name, w)
        state = _outcome(lib.after, w.prefix)
        assert state == _outcome(ref.after, w.prefix), (name, w)
        if state[0] == "ok":
            assert _outcome(lib.accepts, state[1], w.period) == want, (name, w)
    return verdicts


def _bad_words(letters):
    good = letters[0]
    return [
        up((), (EPS,)),
        up((good,), (EPS, EPS)),
        up(("zz",), (good,)),
        up((good,), (good, "zz")),
        up(("zz",), (EPS,)),
        up((EPS,), ("zz", EPS)),
    ]


def _scan_words(letters, rng):
    """Prefix-closed scans in ``equiv_up`` order (every period of up to three letters,
    shortest first, behind each prefix of up to two), some of them intertwined."""
    words = list(enumerate_up_words(letters, 2, 3))
    return words + [intertwine(w) for w in rng.sample(words, min(len(words), 30))]


def test_scans_then_shuffled_order():
    """One long-lived oracle gets the scans, then the scans and longer random words shuffled;
    a fresh oracle gets the shuffled words alone, so most periods find no shorter entry."""
    rng = random.Random(20261201)
    verdicts = set()
    for name, a in _npa_table_cases():
        letters = sorted(a.effective_alphabet)
        ref, lib = RefNpaOracle(a), NpaOracle(a)
        scans = _scan_words(letters, rng) + _bad_words(letters)
        verdicts |= _check(name, ref, lib, scans)
        assert set(finite_words(letters, 3, min_len=1)) <= set(lib._period), name
        assert len(lib._element) <= len(lib._period), name
        shuffled = list(scans)
        for _ in range(10):
            w = up(rng.choices(letters, k=rng.randint(0, 8)), rng.choices(letters + [EPS], k=rng.randint(1, 5)))
            shuffled += [w, intertwine(w)]
        rng.shuffle(shuffled)
        verdicts |= _check(name, ref, lib, shuffled)
        _check(name, ref, NpaOracle(a), shuffled)
    assert {True, False} <= verdicts
    assert {"period must contain a non-ε letter", "unknown letter 'zz'"} <= verdicts


def test_steps_between_elements_match_the_reference_matrices():
    """Every step ends at the element of the product, equal matrices share one element, and
    an element's accepting set holds exactly the states whose orbit meets the accepting states."""
    for name, a in _npa_table_cases():
        letters = sorted(a.effective_alphabet)
        ref, lib = RefNpaOracle(a), NpaOracle(a)
        for w in enumerate_up_words(letters, 0, 3):
            lib.member(w)
        for period, element in lib._period.items():
            v, acc = ref._entry(period)
            assert _mat_key(element.value) == _mat_key(v), (name, period)
            assert element is lib._element[_mat_key(v)], (name, period)
            orbit_meets = {q for q in a.states if _orbit_union(frozenset({q}), lambda s: _post(v, s)) & acc}
            assert element.accepting == orbit_meets, (name, period)
        for (element, x), target in lib._step.items():
            assert _mat_key(_mat_mul(element.value, ref._letter[x])) == _mat_key(target.value), (name, x)


def test_undeclared_letter_is_a_usage_error():
    """A ``b`` transition with only ``a`` declared is refused when the automaton is built; without
    those transitions the automaton builds, and ``b`` is a usage error anywhere in a query."""
    transitions = {("x", "a", 0, "x"), ("x", "b", 1, "y"), ("y", "b", 0, "y")}
    with pytest.raises(ValidationError) as e:
        make_eps_complete(("x", "y"), [[["x"], ["y"]]], transitions, alphabet="a")
    assert str(e.value) == "transition ('x', 'b', 1, 'y') uses undeclared letter"
    a = make_eps_complete(("x", "y"), [[["x"], ["y"]]], {t for t in transitions if t[1] == "a"}, alphabet="a")
    assert a.effective_alphabet == frozenset("a")
    npa = NpaOracle(a)
    assert npa(up((), "a"))
    for w in [up("b", "a"), up((), "b"), up((EPS,), "b"), up("a", ("a", "b"))]:
        with pytest.raises(UsageError, match="unknown letter 'b'"):
            npa(w)
        assert _outcome(npa.member, w) == _outcome(RefNpaOracle(a).member, w)
    assert ("b",) not in npa._period and ("a", "b") not in npa._period


# --- the reach set against the power loop ---------------------------------------------


def _reach_cases():
    """``_npa_table_cases`` and the ε-completed determinizations of two five-state ``rich_oba``."""
    yield from _npa_table_cases()
    rng = random.Random(5)
    for i in range(2):
        yield f"rich-5-{i}", apply_eps_completion(determinize(rich_oba(rng, 5)))


def test_reach_of_every_matrix_interned_by_equiv():
    """Each matrix an oracle interns while ``equiv_up`` at 2/3 checks it against the reference:
    the threshold closures give the reach set of the power loop."""
    reaches = set()
    for name, a in _reach_cases():
        letters = sorted(a.effective_alphabet)
        lib = NpaOracle(a)
        assert equiv_up(lib, RefNpaOracle(a), letters, 2, 3) is None, name
        assert lib._element, name
        for element in lib._element.values():
            want = _power_loop_reach(element.value, a.states)
            assert _element_reach(element.value, a.states) == want == element.accepting, name
            reaches.add(0 < len(want) < len(a.states) if want else "empty")
    assert reaches == {True, False, "empty"}


def _random_matrix(rng, states, kind):
    """A value-set matrix over ``states`` with values in 0..5 and cells of random values, or:
    odd values only; self-loops only; rows for only some states, the others still targets;
    or odd cells and one cycle whose cells hold odd values above an even c but for one
    cell, which holds c, so that cell is the only even one."""
    n = len(states)
    values = (1, 3, 5) if kind == "odd-only" else range(6)
    sources = states
    if kind == "targets-only":  # some states have no row, yet are targets
        sources = rng.sample(states, rng.randint(0, n - 1))
    v = {}
    for p in sources:
        for q in states:
            if kind == "self-loops" and p != q:
                continue
            if rng.random() < 0.35:
                v.setdefault(p, {})[q] = frozenset(rng.sample(values, rng.randint(1, 3)))
    if kind == "one-even-cycle":
        c = rng.choice((0, 2, 4))
        cycle = rng.sample(states, rng.randint(1, n))
        v = {p: {q: vals & {1, 3, 5} for q, vals in row.items() if vals & {1, 3, 5}} for p, row in v.items()}
        for i, p in enumerate(cycle):
            q = cycle[(i + 1) % len(cycle)]
            above = frozenset({c}) if i == 0 else frozenset({rng.choice([x for x in (1, 3, 5) if x > c])})
            v.setdefault(p, {})[q] = v.get(p, {}).get(q, frozenset()) | above
    return {p: row for p, row in v.items() if row}


@pytest.mark.parametrize("kind", ["any", "odd-only", "self-loops", "targets-only", "one-even-cycle"])
def test_reach_of_random_matrices(kind):
    """Seeded value-set matrices over 1 to 8 states, with the states in shuffled order."""
    rng = random.Random(f"reach-{kind}")
    reaches = []
    for _ in range(300):
        states = [f"s{i}" for i in range(rng.randint(1, 8))]
        rng.shuffle(states)
        v = _random_matrix(rng, states, kind)
        want = _power_loop_reach(v, states)
        assert _element_reach(v, tuple(states)) == want, (kind, v)
        reaches.append(len(want))
    if kind == "odd-only":
        assert max(reaches) == 0
    elif kind == "one-even-cycle":  # the cycle's states are accepting
        assert min(reaches) > 0
    else:
        assert min(reaches) == 0 < max(reaches), kind
