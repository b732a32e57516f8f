"""Record-based determinization of ordered Büchi automata.

A record lists the end states of the best run candidates seen so far, oldest
first; reading a tile extends each candidate along the tile's top-successor
map, fuses candidates that meet (the oldest index wins), and appends the
remaining reachable states as fresh candidates in descending order.  The
emitted priority is even when an old candidate just took a Büchi transition
and odd when an old candidate was dropped, whichever index is smaller.

The module also computes the reachable-residual set R and the candidate
record set S_R used by the tight-state-budget experiment, by one walk over
the letters' top-successor maps, plus the lexicographic ε-completion of the
determinized automaton.  The tile monoid, from which R and S_R can also be
read, lives in :mod:`obat.verify` as their brute-force oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .automata import EPS, OrderedBuchiAutomaton, ParityAutomaton
from .tiles import (
    StateUniverse,
    Tile,
    UsageError,
    ValidationError,
    is_buchi,
    product,  # noqa: F401  bench/spans.py traces product and tile_monoid under this module
    successors,
    top_successor,
)
from .verify import tile_monoid  # noqa: F401


@dataclass(frozen=True)
class Record:
    """Injective tuple of states with downward-closed image and maximal head.

    Over index-coded states a downward-closed image is exactly {0..k-1}, so a
    record is a permutation of range(k) whose first entry is k-1.
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


class DetTransitionResult(NamedTuple):
    priority: int
    next: Record


def initial_record(a: OrderedBuchiAutomaton) -> Record:
    """Initial states in descending order."""
    return Record(tuple(sorted(a.initial, reverse=True)))


def delta(s: Record, t: Tile) -> DetTransitionResult:
    """One deterministic step: fuse, reset and rank the run candidates.

    Indices whose state has no successor are dropped from the live domain
    before leaders are computed; they count as forgotten for the odd
    priority.  Each minimum over an empty set defaults to |t(img(s))|.
    """
    best = {i: top_successor(t, q) for i, q in enumerate(s.entries)}
    live = [i for i in range(len(s)) if best[i] is not None]
    leader_of_state: dict[int, int] = {}
    for i in live:
        leader_of_state.setdefault(best[i], i)
    preserved = sorted(set(leader_of_state.values()))  # the increasing map b
    reached = successors(t, s.entries)
    fresh = sorted(reached - {best[i] for i in preserved}, reverse=True)
    nxt = Record(tuple(best[i] for i in preserved) + tuple(fresh))

    default = len(reached)
    green = default
    for i in range(min(len(s), len(nxt))):
        if is_buchi(t, s.entries[i], nxt.entries[i]):
            green = i
            break
    forgotten = [i for i in range(len(s)) if i not in preserved]
    red = forgotten[0] if forgotten else default
    return DetTransitionResult(min(2 * green, 2 * red - 1), nxt)


def record_name(r: Record, universe: StateUniverse) -> str:
    return "(" + ",".join(universe.name(q) for q in r.entries) + ")"


def determinize(a: OrderedBuchiAutomaton) -> ParityAutomaton:
    """Deterministic min-parity automaton over [-1, 2n-1] with the same language.

    Breadth-first exploration of records from the initial record, letters in
    sorted order; record names and the record map are carried on the result.
    """
    n = a.universe.size
    letters = sorted(a.alphabet)
    start = initial_record(a)
    order: list[Record] = [start]
    seen = {start}
    transitions: set[tuple[str, str, int, str]] = set()
    i = 0
    while i < len(order):
        rec = order[i]
        i += 1
        for letter in letters:
            priority, nxt = delta(rec, a.alphabet[letter])
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
            transitions.add(
                (record_name(rec, a.universe), letter, priority, record_name(nxt, a.universe))
            )
    names = tuple(record_name(r, a.universe) for r in order)
    return ParityAutomaton(
        states=names,
        initial=frozenset({names[0]}),
        index=(-1, 2 * n - 1),
        transitions=frozenset(transitions),
        deterministic=True,
        alphabet=frozenset(letters),
        records={record_name(r, a.universe): r.entries for r in order},
        universe=a.universe,
    )


def _lex_key(entries: tuple[int, ...], i: int) -> tuple[int, ...]:
    """First i+1 entries, short records padded with a bottom element."""
    return tuple(entries[j] if j < len(entries) else -1 for j in range(i + 1))


def eps_complete_det(d: ParityAutomaton) -> frozenset[tuple[str, str, int, str]]:
    """ε-transitions making a determinization ε-complete.

    For each i < n, priority 2i goes to lexicographically smaller records
    (compared on the first i+1 entries) and priority 2i+1 to lexicographically
    greater-or-equal ones.
    """
    if d.records is None or d.universe is None:
        raise UsageError("automaton does not carry record states")
    n = d.universe.size
    out: set[tuple[str, str, int, str]] = set()
    items = [(name, d.records[name]) for name in d.states]
    for i in range(n):
        keyed = [(name, _lex_key(entries, i)) for name, entries in items]
        for name1, k1 in keyed:
            for name2, k2 in keyed:
                if k1 > k2:
                    out.add((name1, EPS, 2 * i, name2))
                if k2 <= k1:
                    out.add((name1, EPS, 2 * i + 1, name2))
    return frozenset(out)


def apply_eps_completion(d: ParityAutomaton) -> ParityAutomaton:
    """The determinization with its ε-completion added and the index widened."""
    eps = eps_complete_det(d)
    n = d.universe.size
    lo, hi = d.index
    return ParityAutomaton(
        states=d.states,
        initial=d.initial,
        index=(min(lo, 0), max(hi, 2 * n - 1)),
        transitions=d.transitions | eps,
        deterministic=False,
        alphabet=d.alphabet,
        records=d.records,
        universe=d.universe,
    )


def _walk_from_initial(a: OrderedBuchiAutomaton) -> tuple[frozenset[int], bool]:
    """States reached from max(I) under the letters' top-successor maps, and
    whether some letter's map is undefined on one of them.

    Empty initial set: nothing is reached and the initial set counts as killed.
    """
    if not a.initial:
        return frozenset(), True
    tiles = [a.alphabet[x] for x in sorted(a.alphabet)]
    start = max(a.initial)
    reached = {start}
    frontier = [start]
    kills = False
    while frontier:
        q = frontier.pop()
        for t in tiles:
            r = top_successor(t, q)
            if r is None:
                kills = True
            elif r not in reached:
                reached.add(r)
                frontier.append(r)
    return frozenset(reached), kills


def reachable_residuals(a: OrderedBuchiAutomaton) -> frozenset[int]:
    """States that head the reachable set after some word.

    These are the top successors of max(I) across the tile monoid: each one
    is the maximum of a reachable downward-closed set, hence defines a
    residual of the language.  A closed tile's successor set of q is the
    downward closure of its top successor, and its top-successor map is
    monotone with an upward-closed domain, so the top successor of a product
    is the composition of its factors' maps.  The answer is therefore the
    set of states reachable from max(I) under the per-letter maps, max(I)
    itself included for the unit tile: O(n·|Γ|) top-successor calls, no
    monoid.  Empty initial set gives the empty answer.
    """
    return _walk_from_initial(a)[0]


def kills_initial(a: OrderedBuchiAutomaton) -> bool:
    """Whether some nonempty product of alphabet tiles has no successor of max(I).

    By the composition argument of :func:`reachable_residuals`, a product
    kills max(I) exactly when some letter's top-successor map is undefined
    on a state reachable from max(I).  True for an empty initial set.
    """
    return _walk_from_initial(a)[1]


def enumerate_records(n: int) -> Iterator[Record]:
    """Every record over n states: the empty one plus (k-1)! of each size k."""
    yield EMPTY_RECORD
    for k in range(1, n + 1):
        for tail in itertools.permutations(range(k - 1)):
            yield Record((k - 1,) + tail)


def candidate_records(a: OrderedBuchiAutomaton) -> frozenset[Record]:
    """Records headed by a reachable residual, the determinization's state budget.

    The empty record is included exactly when some nonempty product of tiles
    kills the initial set (for a top-anchored initial set this is the same as
    the empty tile being generable).  Both parts come from one walk over the
    composed top-successor maps (see :func:`reachable_residuals`), so the cost
    is O(n·|Γ|) top-successor calls plus the record enumeration.
    """
    heads, kills = _walk_from_initial(a)
    out = {r for r in enumerate_records(a.universe.size) if r.entries and r.entries[0] in heads}
    if kills:
        out.add(EMPTY_RECORD)
    return frozenset(out)


def record_count_bound(n: int) -> int:
    """Count of all records over n states: 2 + sum of i! for i in [1, n-1]."""
    if n < 1:
        raise UsageError("need at least one state")
    return 2 + sum(_factorial(i) for i in range(1, n))


def _factorial(i: int) -> int:
    out = 1
    for j in range(2, i + 1):
        out *= j
    return out
