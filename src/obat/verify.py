"""Independent oracles and property harnesses.

closure_oracle and product_oracle compute upward closure and tile product on
explicit transition sets, the reference for the staircase operations in
``obat.tiles``; skeleton_oracle recomputes skeletons by brute-force subset
enumeration and enumerate_upward_closed_tiles finds every closed tile the
same way;
tile_monoid builds the whole monoid generated by an alphabet, from which
monoid_residuals reads R_A and the kills-max(I) flag that ``obat.determinize``
computes by a top-successor walk; enumerate_records lists every record as a
validated Record, and candidate_records the explicit set S_R, whose size
``obat.determinize.residual_budget`` gives in closed form; equiv_up compares
two membership oracles over every ultimately-periodic word within bounds;
check_local_preference samples the three factor-closure properties that
characterize Eve-positional languages.  Both go through the oracles'
``after``/``accepts`` split (``split_oracle``) and ask ``accepts`` at most
once per distinct (prefix state, period).  check_local_preference asks
``after`` once per prefix state and continuation prefix, holds the sets of
accepted continuations as int bitmasks, and builds a UPWord only for a
witness it reports.  All enumeration runs in a fixed order (prefix length,
period length, lexicographic) so reported counterexamples, and the first
exception an oracle raises, are reproducible.

The preference properties quantify over arbitrary infinite continuations in
their general form; since ω-regular languages are determined by their
ultimately-periodic words, the harness ranges continuations over UP words
only, which the report states.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .automata import OrderedBuchiAutomaton, UPWord, _bits, _walk_from_initial
from .tiles import (
    Skeleton,
    StateUniverse,
    Tile,
    Transition,
    UsageError,
    ValidationError,
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


@dataclass(frozen=True)
class Record:
    """Injective tuple of states with downward-closed image and maximal head.

    Over index-coded states a downward-closed image is exactly {0..k-1}, so a
    record is a permutation of range(k) whose first entry is k-1.  The
    library steps the bare ``entries`` tuple; this class checks the shape.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.entries)
        if set(self.entries) != set(range(k)):
            raise ValidationError(f"record image must be downward-closed: {self.entries}")
        if k and self.entries[0] != k - 1:
            raise ValidationError(f"record head must be its maximum: {self.entries}")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def head(self) -> int | None:
        return self.entries[0] if self.entries else None


EMPTY_RECORD = Record(())


def enumerate_records(n: int) -> Iterator[Record]:
    """Every record over n states: the empty one plus (k-1)! of each size k."""
    yield EMPTY_RECORD
    for k in range(1, n + 1):
        for tail in itertools.permutations(range(k - 1)):
            yield Record((k - 1,) + tail)


def candidate_records(a: OrderedBuchiAutomaton) -> frozenset[Record]:
    """S_R: the records headed by a reachable residual, the determinization's state budget.

    The empty record is included exactly when some nonempty product of tiles
    kills the initial set.  Both parts come from the top-successor walk of
    ``obat.determinize.reachable_residuals``; the enumeration makes the set
    factorial in |Q|, so the library counts it in closed form instead.
    """
    heads, kills = _walk_from_initial(a)
    out = {r for r in enumerate_records(a.universe.size) if r.entries and r.entries[0] in heads}
    if kills:
        out.add(EMPTY_RECORD)
    return frozenset(out)


MemberFn = Callable[[UPWord], bool]


def finite_words(alphabet, max_len: int, min_len: int = 0) -> Iterator[tuple[str, ...]]:
    for n in range(min_len, max_len + 1):
        yield from itertools.product(sorted(alphabet), repeat=n)


def enumerate_up_words(alphabet, max_prefix: int, max_period: int) -> Iterator[UPWord]:
    """All UP words within the bounds: prefix length, then period length, then lex."""
    for u in finite_words(alphabet, max_prefix):
        for v in finite_words(alphabet, max_period, min_len=1):
            yield UPWord(u, v)


def split_oracle(member: MemberFn) -> tuple[Callable, Callable]:
    """``(after, accepts)`` with ``accepts(after(u), v) == member(u·v^ω)``.

    The oracles of ``obat.automata`` split a query at the state reached after
    the prefix.  A bare callable is its own trivial split: its state is the
    prefix itself.  Either way ``after(x·y)`` depends only on ``after(x)``
    and y, so prefixes with equal states have equal continuations.
    """
    if hasattr(member, "after") and hasattr(member, "accepts"):
        return member.after, member.accepts
    return (lambda u: u), (lambda u, v: member(UPWord(u, v)))


def equiv_up(
    m1: MemberFn,
    m2: MemberFn,
    alphabet,
    max_prefix: int,
    max_period: int,
) -> UPWord | None:
    """First UP word within bounds on which the oracles disagree, or None.

    The verdict on u·v^ω depends only on the states after u and on v, so the
    periods are compared once per distinct pair of prefix states, and each
    oracle is asked once per distinct (state, period); the prefixes and
    periods are still scanned in order, which keeps the first word and the
    first exception.  Bounds that compare nothing, max_prefix < 0 or
    max_period < 1, are usage errors.
    """
    if max_prefix < 0 or max_period < 1:
        raise UsageError(
            f"equiv_up needs max_prefix >= 0 and max_period >= 1, got {max_prefix} and {max_period}"
        )
    (after1, accepts1), (after2, accepts2) = split_oracle(m1), split_oracle(m2)
    periods = list(finite_words(alphabet, max_period, min_len=1))
    # state -> its verdicts on periods[:len(row)]: each scan starts at the
    # first period, so a state's verdicts always fill a prefix of the list
    rows1: dict = {}
    rows2: dict = {}
    first: dict = {}  # pair of prefix states -> first period they disagree on, or None
    for u in finite_words(alphabet, max_prefix):
        key = s1, s2 = after1(u), after2(u)
        if key not in first:
            first[key] = None
            row1, row2 = rows1.setdefault(s1, []), rows2.setdefault(s2, [])
            for i, v in enumerate(periods):
                if i == len(row1):
                    row1.append(accepts1(s1, v))
                if i == len(row2):
                    row2.append(accepts2(s2, v))
                if row1[i] != row2[i]:
                    first[key] = v
                    break
        if first[key] is not None:
            return UPWord(u, first[key])
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


# prefix length of the sampled continuations w; the report lists it among its bounds
MAX_W_PREFIX = 2


def check_local_preference(
    member: MemberFn,
    alphabet,
    max_u: int = 2,
    max_period: int = 2,
) -> PreferenceReport:
    """Sample the three local preference properties of the language.

    (1) uw, u'w' in L imply uw' in L or u'w in L.
    (2) uvw in L implies uv^ω in L or uw in L.
    (3) u(vv')^ω in L implies uv^ω in L or uv'^ω in L.

    A necessary-condition sampler: an empty report means no violation was
    found within the bounds, not a proof of Eve-positionality.  The prefixes
    u and the nonempty periods v, v' have length at most ``max_u``, and
    continuations w have prefix length at most ``MAX_W_PREFIX`` and period
    length at most ``max_period``.  Bounds that check nothing, max_u < 1
    (one prefix and no period) or max_period < 1, are usage errors.
    """
    if max_u < 1 or max_period < 1:
        raise UsageError(
            f"check_local_preference needs max_u >= 1 and max_period >= 1, got {max_u} and {max_period}"
        )
    report = PreferenceReport(
        bounds={"max_u": max_u, "max_period": max_period, "max_w_prefix": MAX_W_PREFIX}
    )
    # The oracles cache no prefixes and some prefixes here are asked more
    # than once, so ``after`` is cached for the length of this call.
    after_of, accepts = split_oracle(member)
    after = functools.cache(after_of)
    memo: dict = {}  # (state after a prefix, period) -> verdict

    def m(state, period: tuple[str, ...]) -> bool:
        key = (state, period)
        if key not in memo:
            memo[key] = accepts(state, period)
        return memo[key]

    us = list(finite_words(alphabet, max_u))
    vs = list(finite_words(alphabet, max_u, min_len=1))
    # The continuations w, in the order of enumerate_up_words: w number i
    # is xs[i // len(ps)]·ps[i % len(ps)]^ω.  A set of them is an int with
    # bit i set for w number i.
    xs = list(finite_words(alphabet, MAX_W_PREFIX))
    ps = list(finite_words(alphabet, max_period, min_len=1))

    def w(i: int) -> UPWord:
        return UPWord(xs[i // len(ps)], ps[i % len(ps)])

    rows: dict = {}  # state -> the periods p with p^ω accepted from it, as bits

    def row(state) -> int:
        if state not in rows:
            rows[state] = sum(1 << j for j, p in enumerate(ps) if m(state, p))
        return rows[state]

    continuations: dict = {}  # state after a prefix -> the ws it accepts, as bits

    def accepted_after(prefix: tuple[str, ...]) -> int:
        state = after(prefix)
        if state not in continuations:
            continuations[state] = sum(row(after(prefix + x)) << i * len(ps) for i, x in enumerate(xs))
        return continuations[state]

    # (1) holds iff the accepted-continuation sets of the prefixes form a
    # chain; an incomparable pair yields the witnesses directly.
    accepted = {u: accepted_after(u) for u in us}
    for u, u2 in itertools.combinations(us, 2):
        only_u = accepted[u] & ~accepted[u2]
        only_u2 = accepted[u2] & ~accepted[u]
        if only_u and only_u2:
            report.violations.append(
                PreferenceViolation(
                    1,
                    {"u": u, "u'": u2, "w": w(next(_bits(only_u))), "w'": w(next(_bits(only_u2)))},
                )
            )

    # (2) fails for (u, v) exactly on the continuations of u·v that u lacks,
    # when u·v^ω is rejected.
    for u in us:
        state = after(u)
        for v in vs:
            if not m(state, v):
                for i in _bits(accepted_after(u + v) & ~accepted[u]):
                    report.violations.append(PreferenceViolation(2, {"u": u, "v": v, "w": w(i)}))

    for u in us:
        state = after(u)
        for v in vs:
            for v2 in vs:
                if m(state, v + v2):
                    if not m(state, v) and not m(state, v2):
                        report.violations.append(
                            PreferenceViolation(3, {"u": u, "v": v, "v'": v2})
                        )

    return report
