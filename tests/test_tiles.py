import itertools
import random

import pytest
from hypothesis import given, strategies as st

from obat import (
    StateUniverse,
    UsageError,
    ValidationError,
    product,
    skeleton,
    successors,
    tile_of,
    top_successor,
    trans_leq,
    unit_tile,
    upward_closure,
)
from obat.verify import (
    all_transitions,
    closure_oracle,
    enumerate_upward_closed_tiles,
    product_oracle,
    skeleton_oracle,
)

U2 = StateUniverse(("s0", "s1"))
U1 = StateUniverse(("q",))


def universes(max_size=3):
    return st.integers(1, max_size).map(
        lambda n: StateUniverse(tuple(f"q{i}" for i in range(n)))
    )


def tiles_over(u: StateUniverse):
    trans = st.tuples(
        st.integers(0, u.size - 1), st.integers(0, 1), st.integers(0, u.size - 1)
    )
    return st.frozensets(trans, max_size=4).map(lambda g: upward_closure(u, g))


tiles = universes().flatmap(tiles_over)
tile_pairs = universes().flatmap(lambda u: st.tuples(tiles_over(u), tiles_over(u)))
tile_triples = universes(4).flatmap(
    lambda u: st.tuples(tiles_over(u), tiles_over(u), tiles_over(u))
)


class TestTransLeq:
    def test_cross_pair(self):
        assert trans_leq((0, 0, 1), (1, 1, 0))

    def test_priority_clause_same_endpoints(self):
        assert trans_leq((0, 0, 0), (0, 1, 0))
        assert not trans_leq((0, 1, 0), (0, 0, 0))

    def test_source_must_not_decrease(self):
        assert not trans_leq((1, 0, 0), (0, 0, 1))

    def test_partial_order_exhaustive_small(self):
        for n in (1, 2, 3):
            ts = all_transitions(n)
            for d1 in ts:
                assert trans_leq(d1, d1)
                for d2 in ts:
                    if trans_leq(d1, d2) and trans_leq(d2, d1):
                        assert d1 == d2
                    for d3 in ts:
                        if trans_leq(d1, d2) and trans_leq(d2, d3):
                            assert trans_leq(d1, d3)


class TestUpwardClosure:
    def test_single_generator_fills_square(self):
        assert upward_closure(U2, [(0, 0, 1)]).transitions == frozenset(all_transitions(2))

    def test_empty_generators(self):
        assert upward_closure(U2, []).transitions == frozenset()

    def test_identity_generators(self):
        got = upward_closure(U2, [(0, 1, 0), (1, 1, 1)])
        assert got.transitions == {(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)}

    @given(tiles)
    def test_closed_and_idempotent(self, t):
        assert tile_of(t.universe, t.transitions) == t
        assert upward_closure(t.universe, t.transitions) == t

    @pytest.mark.parametrize("build", [upward_closure, tile_of])
    @pytest.mark.parametrize("entry", [(0, 0, 5), (-1, 1, 0), (0, 7, 0), (2, 0, 0)])
    def test_out_of_range_entry_rejected(self, build, entry):
        with pytest.raises(ValidationError, match="out of range"):
            build(U2, [entry])

    @given(universes().flatmap(lambda u: st.tuples(st.just(u), tiles_over(u))))
    def test_extensive_and_monotone(self, uv):
        u, t = uv
        sub = frozenset(list(t.transitions)[: len(t.transitions) // 2])
        closed = upward_closure(u, sub)
        assert sub <= closed.transitions
        assert closed.transitions <= t.transitions


class TestUnitTile:
    def test_two_states(self):
        assert unit_tile(U2).transitions == {(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)}

    def test_singleton(self):
        assert unit_tile(U1).transitions == {(0, 1, 0)}

    @given(tiles)
    def test_two_sided_unit(self, t):
        one = unit_tile(t.universe)
        assert product(one, t) == t
        assert product(t, one) == t


class TestProduct:
    def test_unit_idempotent(self):
        one = unit_tile(U2)
        assert product(one, one) == one

    def test_self_loop_closure_idempotent(self):
        t = upward_closure(U2, [(0, 0, 0)])
        assert product(t, t) == t

    def test_universe_mismatch(self):
        with pytest.raises(UsageError):
            product(unit_tile(U2), unit_tile(U1))

    @given(tile_triples)
    def test_associative(self, ts):
        t1, t2, t3 = ts
        assert product(product(t1, t2), t3) == product(t1, product(t2, t3))

    @given(tile_pairs)
    def test_product_stays_closed(self, ts):
        t1, t2 = ts
        t = product(t1, t2)
        assert tile_of(t.universe, t.transitions) == t


class TestSkeleton:
    def test_unit(self):
        assert skeleton(unit_tile(U2)).transitions == {(0, 1, 0), (1, 1, 1)}

    def test_empty(self):
        assert skeleton(tile_of(U2, ())).transitions == frozenset()

    def test_full_tile(self):
        full = tile_of(U2, all_transitions(2))
        assert skeleton(full).transitions == {(0, 0, 1)}

    @given(tiles)
    def test_generates_back(self, t):
        assert upward_closure(t.universe, skeleton(t).transitions) == t

    def test_exhaustive_two_states(self):
        for t in enumerate_upward_closed_tiles(U2):
            assert upward_closure(U2, skeleton(t).transitions) == t


class TestSuccessors:
    def test_unit_from_top(self):
        assert successors(unit_tile(U2), {1}) == {0, 1}

    def test_empty_source(self):
        assert successors(unit_tile(U2), set()) == frozenset()

    def test_no_transitions_from_bottom(self):
        assert successors(upward_closure(U2, [(1, 0, 1)]), {0}) == frozenset()

    @given(universes().flatmap(lambda u: st.tuples(tiles_over(u), st.sets(st.integers(0, u.size - 1)))))
    def test_downward_closed(self, tx):
        t, x = tx
        got = successors(t, x)
        assert all(q2 in got for q in got for q2 in range(q))


class TestTopSuccessor:
    def test_unit_top(self):
        assert top_successor(unit_tile(U2), 1) == 1

    def test_bottom_of_high_tile(self):
        assert top_successor(upward_closure(U2, [(1, 0, 1)]), 0) is None

    @given(tiles)
    def test_monotone(self, t):
        def rank(v):
            return -1 if v is None else v

        values = [top_successor(t, q) for q in range(t.universe.size)]
        assert all(rank(a) <= rank(b) for a, b in zip(values, values[1:]))


def check_against_explicit_sets(u, generators, rng):
    """The staircase operations on the closure of ``generators`` against the
    explicit-set references; returns the tile."""
    t = upward_closure(u, generators)
    assert t.transitions == closure_oracle(u, generators)
    assert tile_of(u, t.transitions) == t
    skel = skeleton(t).transitions
    if u.size <= 3:
        assert skel == skeleton_oracle(t).transitions
    # the unique inclusion-minimal generator: it generates t, no smaller part does
    assert closure_oracle(u, skel) == t.transitions
    assert all(closure_oracle(u, skel - {d}) != t.transitions for d in skel)
    for q in range(u.size):
        targets = [r for (p, _, r) in t.transitions if p == q]
        assert top_successor(t, q) == (max(targets) if targets else None)
    states = {q for q in range(u.size) if rng.random() < 0.5}
    assert successors(t, states) == {q for (p, _, q) in t.transitions if p in states}
    return t


def check_product(t1, t2):
    explicit = product_oracle(t1, t2)
    got = product(t1, t2)
    assert got.transitions == explicit
    assert got == tile_of(t1.universe, explicit)


class TestStaircaseAgainstExplicitSets:
    def test_exhaustive_up_to_two_states(self):
        rng = random.Random(0)
        for u in (U1, U2):
            trans = all_transitions(u.size)
            for k in range(len(trans) + 1):
                for gens in itertools.combinations(trans, k):
                    check_against_explicit_sets(u, gens, rng)
            tiles = list(enumerate_upward_closed_tiles(u))
            for t1 in tiles:
                for t2 in tiles:
                    check_product(t1, t2)
        assert len(tiles) == 13

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_random_sweep(self, n):
        rng = random.Random(700 + n)
        u = StateUniverse(tuple(f"q{i}" for i in range(n)))
        prev = unit_tile(u)
        for _ in range(250):
            gens = [
                (rng.randrange(n), rng.randint(0, 1), rng.randrange(n))
                for _ in range(rng.randint(0, n + 2))
            ]
            t = check_against_explicit_sets(u, gens, rng)
            check_product(prev, t)
            check_product(t, prev)
            prev = t
