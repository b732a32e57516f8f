"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Every check here is exact (zero tolerance): the properties under test
are structural, verified against independent oracles and exhaustive
small-instance enumeration.
"""

import functools
import itertools
import math
import random

import pytest

from obat import (
    EPS,
    DpaOracle,
    NpaOracle,
    ObaOracle,
    OrderedBuchiAutomaton,
    StateUniverse,
    intertwine,
    omega_power_accepts,
    product,
    skeleton,
    tile_of,
    unit_tile,
    up,
    upward_closure,
)
from obat.convert import (
    check_eps_complete,
    horizontal_complete_alphabet,
    parity_to_oba,
    rabin_to_oba,
)
from obat.determinize import (
    apply_eps_completion,
    determinize,
    record_count_bound,
)
from obat.verify import (
    candidate_records,
    check_local_preference,
    enumerate_up_words,
    enumerate_upward_closed_tiles,
    equiv_up,
)

from zoo import (
    determinization_corpus,
    eps_complete_corpus,
    fig_inf_aa_fin_bb,
    fig_inf_b_or_bb_inf_a,
    genbuchi_oracle,
    inf_a,
    rabin_behavioral_two_pair,
    rabin_two_pair,
    random_oba,
    random_tile,
    reached_states,
    rich_oba,
)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                extra = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL  {title}")
                raise
            suffix = f" ({extra})" if extra else ""
            print(f"[criterion {number:02d}] PASS  {title}{suffix}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def corpus():
    """Determinization corpus: named examples plus 50 seeded random automata."""
    out = []
    for name, a in determinization_corpus(count=50):
        out.append((name, a, determinize(a)))
    return out


@criterion(1, "monoid laws: associativity and unit on upward-closed tiles")
def test_monoid_laws():
    u2 = StateUniverse(("s0", "s1"))
    tiles2 = list(enumerate_upward_closed_tiles(u2))
    one2 = unit_tile(u2)
    for t in tiles2:
        assert product(one2, t) == t and product(t, one2) == t
    for t1 in tiles2:
        for t2 in tiles2:
            left = product(t1, t2)
            assert tile_of(u2, left.transitions) == left
            for t3 in tiles2:
                assert product(left, t3) == product(t1, product(t2, t3))
    rng = random.Random(101)
    checked = 0
    for n in (3, 4):
        u = StateUniverse(tuple(f"q{i}" for i in range(n)))
        one = unit_tile(u)
        for _ in range(500):
            t1, t2, t3 = (random_tile(rng, u) for _ in range(3))
            assert product(product(t1, t2), t3) == product(t1, product(t2, t3))
            assert product(one, t1) == t1 and product(t1, one) == t1
            checked += 1
    return f"|Q|=2 exhaustive over {len(tiles2)} tiles, {checked} random triples"


@criterion(2, "skeleton matches the brute-force oracle and regenerates its tile")
def test_skeleton_correctness():
    from obat.verify import skeleton_oracle

    u2 = StateUniverse(("s0", "s1"))
    tiles2 = list(enumerate_upward_closed_tiles(u2))
    for t in tiles2:
        assert skeleton(t).transitions == skeleton_oracle(t).transitions
        assert upward_closure(u2, skeleton(t).transitions) == t
    rng = random.Random(202)
    u3 = StateUniverse(("q0", "q1", "q2"))
    for _ in range(200):
        t = random_tile(rng, u3)
        assert skeleton(t).transitions == skeleton_oracle(t).transitions
        assert upward_closure(u3, skeleton(t).transitions) == t
    return f"{len(tiles2)} tiles exhaustive, 200 random over |Q|=3"


@criterion(3, "determinization preserves the language on every UP word in bounds")
def test_determinization_correctness(corpus):
    words_checked = 0
    for name, a, det in corpus:
        oracle, dpa = ObaOracle(a), DpaOracle(det)
        for w in enumerate_up_words(sorted(a.alphabet), 3, 4):
            words_checked += 1
            assert oracle(w) == dpa(w), f"{name}: disagreement on {w}"
    return f"{len(corpus)} automata, {words_checked} word checks"


@criterion(4, "reachable records within the enumeration-derived state bound")
def test_state_bound(corpus):
    # the bare factorial sum is logged alongside: it undercounts the empty
    # and singleton records that the enumeration includes
    bare_sum = {n: sum(math.factorial(i) for i in range(1, n)) for n in (1, 2, 3)}
    for name, a, det in corpus:
        n = a.universe.size
        assert len(det.states) <= record_count_bound(n), name
    return (
        "bound 2+Σi! = "
        + str({n: record_count_bound(n) for n in (1, 2, 3)})
        + f"; bare Σ_(i<n) i! = {bare_sum}"
    )


@criterion(5, "Rabin encoding agrees with direct pair evaluation")
def test_rabin_agreement():
    total = 0
    for spec in (rabin_two_pair(), rabin_behavioral_two_pair()):
        oba, morphism = rabin_to_oba(spec)
        oracle = ObaOracle(oba, morphism)
        for w in enumerate_up_words(spec.alphabet, 2, 4):
            total += 1
            assert oracle(w) == spec.accepts_up(w), w
    return f"{total} word checks across 4-letter and 9-letter alphabets"


@criterion(6, "ε-complete parity to ordered Büchi: size, unit ε-tile, language")
def test_parity_translation():
    for name, a in eps_complete_corpus():
        levels = (a.index[1] + 1) // 2
        oba, morphism = parity_to_oba(a)
        assert oba.universe.size <= levels * len(a.states), name
        assert oba.alphabet[morphism.as_dict()[EPS]] == unit_tile(oba.universe), name
        cex = equiv_up(
            NpaOracle(a),
            ObaOracle(oba, morphism),
            sorted(a.effective_alphabet),
            2,
            3,
        )
        assert cex is None, f"{name}: {cex}"
    return f"{len(eps_complete_corpus())} automata incl. the four-state figure instance"


@criterion(7, "ε-completed determinization checks out and preserves membership")
def test_eps_completion_of_determinization(corpus):
    for name, a, det in corpus:
        augmented = apply_eps_completion(det)
        assert check_eps_complete(augmented).ok, name
        oracle, npa = ObaOracle(a), NpaOracle(augmented)
        for w in enumerate_up_words(sorted(a.alphabet), 2, 2):
            assert oracle(w) == npa(intertwine(w)), (name, w)
    return f"{len(corpus)} automata, intertwined queries with |u|<=2, |v|<=2"


@criterion(8, "local preference properties: clean on ordered-Büchi languages, "
              "forced witness on the generalized-Büchi oracle")
def test_eve_positionality_conditions():
    rng = random.Random(303)
    samples = [
        ("inf-a", ObaOracle(inf_a()), "ab"),
        ("fig-inf-aa-fin-bb", ObaOracle(fig_inf_aa_fin_bb()), "ab"),
        ("fig-inf-b-or-bb-inf-a", ObaOracle(fig_inf_b_or_bb_inf_a()), "ab"),
    ]
    spec = rabin_two_pair()
    oba, morphism = rabin_to_oba(spec)
    samples.append(("rabin-two-pair", ObaOracle(oba, morphism), spec.alphabet))
    for i in range(5):
        a = random_oba(rng)
        samples.append((f"random-{i}", ObaOracle(a), sorted(a.alphabet)))
    for name, oracle, alphabet in samples:
        report = check_local_preference(oracle, alphabet, max_u=2, max_period=2)
        assert report.ok, f"{name}: {report}"
    report = check_local_preference(genbuchi_oracle, "ab", max_u=2, max_period=2)
    assert not report.ok
    witness = next(v for v in report.violations if v.prop == 3)
    assert witness.witness["u"] == ()
    assert witness.witness["v"] == ("a",)
    assert witness.witness["v'"] == ("b",)
    return f"{len(samples)} clean languages, forced witness u=ε v=a v'=b found"


@criterion(9, "single-tile ω-powers: horizontal-Büchi test matches the word oracle")
def test_omega_power_criterion(corpus):
    checked = 0
    for name, a, _ in corpus:
        oracle = ObaOracle(a)
        for letter, tile in a.alphabet.items():
            checked += 1
            assert omega_power_accepts(a, tile) == oracle(up((), (letter,))), (name, letter)
    return f"{checked} tiles across {len(corpus)} automata"


@criterion(10, "optimality: horizontal-complete reachable set is exactly S_R "
               "and meets the record bound, and its ε-completion checks out; "
               "every reachable record sits in S_R")
def test_optimality_experiment(corpus):
    sizes = {}
    for n in (2, 3, 4, 5, 6):
        u = StateUniverse(tuple(f"q{i}" for i in range(n)))
        a = OrderedBuchiAutomaton(u, frozenset(range(n)), horizontal_complete_alphabet(u))
        det = determinize(a)
        reached = {tuple(det.records[s]) for s in det.states}
        budget = {r.entries for r in candidate_records(a)}
        assert reached == budget, f"|Q|={n}: {sorted(reached)} != {sorted(budget)}"
        assert len(reached) == record_count_bound(n), f"|Q|={n}: {len(reached)} records"
        augmented = apply_eps_completion(det)
        assert check_eps_complete(augmented).ok, f"|Q|={n}"
        assert augmented.index[1] == 2 * n - 1, f"|Q|={n}"  # once checked, n odd levels: a depth-n ε-tree
        sizes[n] = len(reached)
    assert sizes[4] == 11 and sizes[5] == 35 and sizes[6] == 155
    for name, a, det in corpus:
        budget = {r.entries for r in candidate_records(a)}
        for s in det.states:
            assert tuple(det.records[s]) in budget, (name, s)
    return f"horizontal-complete reachable sizes {sizes}; containment on {len(corpus)} automata"


@criterion(11, "residual initial sets are totally ordered by inclusion")
def test_residual_total_order(corpus):
    """Each set is reached through the tiles' explicit transitions, so the chain is not built in."""
    for name, a, _ in corpus:
        oracle = ObaOracle(a)
        sets = []
        for k in range(0, 4):
            for w in itertools.product(sorted(a.alphabet), repeat=k):
                reached = reached_states(a, w)
                assert reached == set(range(oracle.after(w) + 1)), (name, w)
                sets.append(reached)
        for s1, s2 in itertools.combinations(sets, 2):
            assert s1 <= s2 or s2 <= s1, name
    return f"prefixes up to length 3 on {len(corpus)} automata, each set {{0..after(u)}}"


@criterion(12, "round trip: the ordered Büchi automaton converted back from the "
               "ε-completed determinization recognises the same language")
def test_round_trip(corpus):
    rng = random.Random(5)
    cases = list(corpus)
    for n in (4, 5):
        for i in range(5):
            a = rich_oba(rng, n)
            cases.append((f"rich-{n}-{i}", a, determinize(a)))
    for name, a, det in cases:
        back, morphism = parity_to_oba(apply_eps_completion(det))
        letters = sorted(a.alphabet)
        bounds = (2, 3) if len(letters) <= 3 else (1, 2)
        cex = equiv_up(ObaOracle(a), ObaOracle(back, morphism), letters, *bounds)
        assert cex is None, f"{name}: {cex}"
    sizes = {}
    for n in (2, 3, 4, 5):
        u = StateUniverse(tuple(f"q{i}" for i in range(n)))
        a = OrderedBuchiAutomaton(u, frozenset(range(n)), horizontal_complete_alphabet(u))
        back, morphism = parity_to_oba(apply_eps_completion(determinize(a)))
        cex = equiv_up(ObaOracle(a), ObaOracle(back, morphism), sorted(a.alphabet), 1, 1)
        assert cex is None, f"horizontal-complete |Q|={n}: {cex}"
        sizes[n] = back.universe.size
    assert sizes == {2: 6, 3: 14, 4: 35, 5: 111}
    return f"{len(cases)} automata; horizontal-complete round-trip sizes {sizes}"
