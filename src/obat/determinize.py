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
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .automata import EPS, OrderedBuchiAutomaton, ParityAutomaton
from .tiles import (
    Tile,
    UsageError,
    ValidationError,
    product,  # noqa: F401  bench/spans.py traces product and tile_monoid under this module
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


def _step(entries: tuple[int, ...], top: tuple[int, ...], ones: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    """One deterministic step on a record's entries and a tile's staircase.

    The first index reaching each top successor is preserved (the indices
    come out increasing); the other indices, and those whose state has no
    successor, are forgotten, and ``red`` is the first of them.  The
    reached states are everything up to the head's top successor, since
    the head is the record's maximum and ``top`` is monotone; those not
    already taken follow in descending order.  Before ``red`` each entry i
    keeps its own run, so entry i of the next record is ``top[p]`` and the
    Büchi test ``is_buchi(t, p, top[p])`` reduces to ``p not in ones``;
    from ``red`` on, a Büchi index could only give a priority above
    ``2·red - 1``.  Each minimum over an empty set is the number of
    reached states.
    """
    reached = top[entries[0]] + 1 if entries else 0
    taken = set()
    nxt = []
    green = red = -1
    for i, p in enumerate(entries):
        q = top[p]
        if q < 0 or q in taken:
            if red < 0:
                red = i
        else:
            taken.add(q)
            nxt.append(q)
            if red < 0 and green < 0 and p not in ones:
                green = i
    if len(nxt) < reached:
        nxt += [q for q in range(reached - 1, -1, -1) if q not in taken]
    if green >= 0:
        return 2 * green, tuple(nxt)
    return 2 * (red if red >= 0 else reached) - 1, tuple(nxt)


def delta(s: Record, t: Tile) -> DetTransitionResult:
    """One deterministic step: fuse, reset and rank the run candidates.

    Reading t, each candidate moves to its state's top successor; candidates
    that meet are fused (the oldest index wins) and those without a
    successor are dropped, both counting as forgotten for the odd priority.
    The remaining reached states become fresh candidates, in descending
    order.  The priority is even at the first old index that took a Büchi
    transition and odd at the first forgotten one, whichever is smaller.
    """
    priority, entries = _step(s.entries, t.top, t.ones)
    return DetTransitionResult(priority, Record(entries))


def record_name(entries: tuple[int, ...], names: tuple[str, ...]) -> str:
    """A record's state name: its entries' names, through the universe's name tuple."""
    return "(" + ",".join(map(names.__getitem__, entries)) + ")"


def determinize(a: OrderedBuchiAutomaton) -> ParityAutomaton:
    """Deterministic min-parity automaton over [-1, 2n-1] with the same language.

    Breadth-first exploration of records from the initial record, letters in
    sorted order; record names and the record map are carried on the result.
    Records are explored as plain entry tuples through :func:`_step`.
    """
    n = a.universe.size
    states = a.universe.states
    letters = sorted(a.alphabet)
    steps = [(x, a.alphabet[x].top, a.alphabet[x].ones) for x in letters]
    start = initial_record(a).entries
    order = [start]
    name = {start: record_name(start, states)}  # each record named once, when first reached
    rows: list[tuple[str, str, int, str]] = []  # one per (record, letter), so no repeats
    for rec in order:  # grows while it is walked: breadth-first
        src = name[rec]
        for letter, top, ones in steps:
            priority, nxt = _step(rec, top, ones)
            dst = name.get(nxt)
            if dst is None:
                dst = name[nxt] = record_name(nxt, states)
                order.append(nxt)
            rows.append((src, letter, priority, dst))
    names = tuple(name.values())
    return ParityAutomaton(
        states=names,
        initial=frozenset({names[0]}),
        index=(-1, 2 * n - 1),
        transitions=frozenset(rows),
        deterministic=True,
        alphabet=frozenset(letters),
        records={name[r]: r for r in order},
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
    is O(n·|Γ|) top-successor calls plus the record enumeration;
    :func:`residual_budget` counts them without the enumeration.
    """
    heads, kills = _walk_from_initial(a)
    out = {r for r in enumerate_records(a.universe.size) if r.entries and r.entries[0] in heads}
    if kills:
        out.add(EMPTY_RECORD)
    return frozenset(out)


def residual_budget(a: OrderedBuchiAutomaton) -> tuple[frozenset[int], int]:
    """R_A and |S_R| from one walk: ``reachable_residuals(a)`` and ``len(candidate_records(a))``.

    |S_R| is in closed form, Σ_{h ∈ R_A} h! plus one if the initial set is
    killed: a record headed by h is h + 1 long and its tail is a
    permutation of range(h), so h! records share that head.
    """
    heads, kills = _walk_from_initial(a)
    return heads, sum(math.factorial(h) for h in heads) + kills


def record_count_bound(n: int) -> int:
    """Count of all records over n states: 2 + sum of i! for i in [1, n-1]."""
    if n < 1:
        raise UsageError("need at least one state")
    return 2 + sum(math.factorial(i) for i in range(1, n))
