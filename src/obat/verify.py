"""Independent oracles and property harnesses.

closure_oracle and product_oracle compute upward closure and tile product on
explicit transition sets, the reference for the staircase operations in
``obat.tiles``; skeleton_oracle recomputes skeletons by brute-force subset
enumeration and enumerate_upward_closed_tiles finds every closed tile the
same way;
tile_monoid builds the whole monoid generated by an alphabet, from which
monoid_residuals reads R_A and the kills-max(I) flag that ``obat.determinize``
computes by a top-successor walk; equiv_up compares two membership oracles
over every ultimately-periodic word within bounds; check_local_preference
samples the three factor-closure properties that characterize Eve-positional
languages.  All enumeration runs in a fixed order (prefix length, period
length, lexicographic) so reported counterexamples are reproducible.

The preference properties quantify over arbitrary infinite continuations in
their general form; since ω-regular languages are determined by their
ultimately-periodic words, the harness ranges continuations over UP words
only, which the report states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .automata import OrderedBuchiAutomaton, UPWord
from .tiles import (
    Skeleton,
    StateUniverse,
    Tile,
    Transition,
    UsageError,
    product,
    tile_of,
    top_successor,
    trans_leq,
    unit_tile,
)


def all_transitions(n: int) -> list[Transition]:
    return [(p, c, q) for p in range(n) for c in (0, 1) for q in range(n)]


def closure_oracle(universe: StateUniverse, generators) -> frozenset[Transition]:
    """Upward closure as an explicit set: every transition dominating a generator."""
    gen = list(generators)
    return frozenset(
        d2 for d2 in all_transitions(universe.size) if any(trans_leq(d, d2) for d in gen)
    )


def product_oracle(t1: Tile, t2: Tile) -> frozenset[Transition]:
    """Relational product of the explicit transition sets, minimum priority."""
    by_src: dict[int, list[tuple[int, int]]] = {}
    for (p, c, q) in t2.transitions:
        by_src.setdefault(p, []).append((c, q))
    return frozenset(
        (p, min(c1, c2), r)
        for (p, c1, q) in t1.transitions
        for (c2, r) in by_src.get(q, ())
    )


def enumerate_upward_closed_tiles(universe: StateUniverse):
    """All upward-closed tiles over the universe, by subset search (|Q| <= 2)."""
    if universe.size > 2:
        raise UsageError("exhaustive tile enumeration is intended for |Q| <= 2")
    trans = all_transitions(universe.size)
    for mask in range(1 << len(trans)):
        subset = frozenset(t for i, t in enumerate(trans) if mask >> i & 1)
        if closure_oracle(universe, subset) == subset:
            yield tile_of(universe, subset)


def skeleton_oracle(t: Tile) -> Skeleton:
    """First-by-size generator subset whose closure is t; unique at that size.

    Exponential subset search, intended for universes of at most 3 states.
    """
    if t.universe.size > 3:
        raise UsageError("skeleton_oracle enumerates subsets; |Q| <= 3 only")
    trans = sorted(t.transitions)
    for size in range(len(trans) + 1):
        found = [
            subset
            for subset in itertools.combinations(trans, size)
            if closure_oracle(t.universe, subset) == t.transitions
        ]
        if found:
            if len(found) != 1:
                raise AssertionError(
                    f"minimal generator not unique at size {size}: {found}"
                )
            return Skeleton(t.universe, frozenset(found[0]))
    raise AssertionError("no generating subset found (tile not upward-closed?)")


@dataclass
class TileMonoidInfo:
    """Products of alphabet tiles: the generated monoid and semigroup."""

    monoid: list[Tile]  # every product of >= 0 letters (unit included)
    semigroup: list[Tile]  # every product of >= 1 letter

    @property
    def has_empty_tile(self) -> bool:
        return any(t.is_empty() for t in self.semigroup)


def tile_monoid(a: OrderedBuchiAutomaton) -> TileMonoidInfo:
    """Closure of the alphabet under product; exponential in the alphabet."""
    unit = unit_tile(a.universe)
    generators = [a.alphabet[x] for x in sorted(a.alphabet)]
    seen: set[Tile] = set(generators)
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for g in generators:
                p = product(t, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    semigroup = sorted(seen, key=lambda t: sorted(t.transitions))
    monoid = semigroup if unit in seen else [unit] + semigroup
    return TileMonoidInfo(monoid=monoid, semigroup=semigroup)


def monoid_residuals(a: OrderedBuchiAutomaton) -> tuple[frozenset[int], bool]:
    """R_A and whether a nonempty product kills max(I), read off the whole monoid.

    R_A is the set of top successors of max(I) across the monoid; an empty
    initial set gives (∅, True).
    """
    if not a.initial:
        return frozenset(), True
    q_top = max(a.initial)
    info = tile_monoid(a)
    tops = [top_successor(t, q_top) for t in info.monoid]
    kills = any(top_successor(t, q_top) is None for t in info.semigroup)
    return frozenset(q for q in tops if q is not None), kills


MemberFn = Callable[[UPWord], bool]


def words_of_length(alphabet, n: int) -> Iterator[tuple[str, ...]]:
    yield from itertools.product(sorted(alphabet), repeat=n)


def finite_words(alphabet, max_len: int, min_len: int = 0) -> Iterator[tuple[str, ...]]:
    for n in range(min_len, max_len + 1):
        yield from words_of_length(alphabet, n)


def enumerate_up_words(alphabet, max_prefix: int, max_period: int) -> Iterator[UPWord]:
    """All UP words within the bounds: prefix length, then period length, then lex."""
    for u in finite_words(alphabet, max_prefix):
        for v in finite_words(alphabet, max_period, min_len=1):
            yield UPWord(u, v)


def equiv_up(
    m1: MemberFn,
    m2: MemberFn,
    alphabet,
    max_prefix: int,
    max_period: int,
) -> UPWord | None:
    """First UP word within bounds on which the oracles disagree, or None."""
    for w in enumerate_up_words(alphabet, max_prefix, max_period):
        if m1(w) != m2(w):
            return w
    return None


@dataclass
class PreferenceViolation:
    prop: int
    witness: dict[str, object]

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in self.witness.items())
        return f"property ({self.prop}) violated: {parts}"


def _fmt(v) -> str:
    if isinstance(v, UPWord):
        return str(v)
    if isinstance(v, tuple):
        return " ".join(v) or "ε"
    return str(v)


@dataclass
class PreferenceReport:
    bounds: dict[str, int]
    violations: list[PreferenceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        head = (
            "continuations ranged over ultimately-periodic words only "
            f"(bounds {self.bounds})"
        )
        if self.ok:
            return f"no violation found within bounds; {head}"
        return "\n".join([head] + [str(v) for v in self.violations])


def check_local_preference(
    member: MemberFn,
    alphabet,
    max_u: int = 2,
    max_period: int = 2,
    max_w_prefix: int = 2,
) -> PreferenceReport:
    """Sample the three local preference properties of the language.

    (1) uw, u'w' in L imply uw' in L or u'w in L.
    (2) uvw in L implies uv^ω in L or uw in L.
    (3) u(vv')^ω in L implies uv^ω in L or uv'^ω in L.

    A necessary-condition sampler: an empty report means no violation was
    found within the bounds, not a proof of Eve-positionality.
    """
    report = PreferenceReport(
        bounds={"max_u": max_u, "max_period": max_period, "max_w_prefix": max_w_prefix}
    )
    memo: dict[UPWord, bool] = {}

    def m(w: UPWord) -> bool:
        if w not in memo:
            memo[w] = member(w)
        return memo[w]

    us = list(finite_words(alphabet, max_u))
    vs = list(finite_words(alphabet, max_u, min_len=1))
    ws = list(enumerate_up_words(alphabet, max_w_prefix, max_period))

    # (1) holds iff the accepted-continuation sets of the prefixes form a
    # chain; an incomparable pair yields the witnesses directly.
    accepted = {
        u: frozenset(i for i, w in enumerate(ws) if m(UPWord(u + w.prefix, w.period)))
        for u in us
    }
    for u, u2 in itertools.combinations(us, 2):
        only_u = accepted[u] - accepted[u2]
        only_u2 = accepted[u2] - accepted[u]
        if only_u and only_u2:
            report.violations.append(
                PreferenceViolation(
                    1,
                    {"u": u, "u'": u2, "w": ws[min(only_u)], "w'": ws[min(only_u2)]},
                )
            )

    for u in us:
        for v in vs:
            v_power = m(UPWord(u, v))
            for w in ws:
                if m(UPWord(u + v + w.prefix, w.period)):
                    if not v_power and not m(UPWord(u + w.prefix, w.period)):
                        report.violations.append(
                            PreferenceViolation(2, {"u": u, "v": v, "w": w})
                        )

    for u in us:
        for v in vs:
            for v2 in vs:
                if m(UPWord(u, v + v2)):
                    if not m(UPWord(u, v)) and not m(UPWord(u, v2)):
                        report.violations.append(
                            PreferenceViolation(3, {"u": u, "v": v, "v'": v2})
                        )

    return report
