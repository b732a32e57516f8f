"""Record-based determinization of ordered Büchi automata.

A record lists the end states of the best run candidates seen so far, oldest
first, as a tuple of state indices: an injective tuple whose image is
{0..k-1} and whose head is its maximum.  Reading a tile extends each
candidate along the tile's top-successor map, fuses candidates that meet
(the oldest index wins), and appends the remaining reachable states as fresh
candidates in descending order.  The emitted priority is even when an old
candidate just took a Büchi transition and odd when an old candidate was
dropped, whichever index is smaller.

The module also computes the reachable-residual set R and the size of the
candidate record set S_R used by the tight-state-budget experiment, by one
walk over the letters' top-successor maps, plus the lexicographic
ε-completion of the determinized automaton.  The tile monoid, from which R
and S_R can also be read, and S_R as an explicit record set live in
:mod:`obat.verify` as their brute-force oracles.
"""

from __future__ import annotations

import math

from .automata import EPS, OrderedBuchiAutomaton, ParityAutomaton, _walk_from_initial
from .tiles import Tile, UsageError

# bench/spans.py traces product, tile_monoid and candidate_records under this module
from .tiles import product  # noqa: F401
from .verify import candidate_records, tile_monoid  # noqa: F401


def delta(entries: tuple[int, ...], t: Tile) -> tuple[int, tuple[int, ...]]:
    """One deterministic step: the priority and the next record after reading t.

    Each entry moves to its top successor; the first index reaching each
    successor is preserved (the indices come out increasing), and the other
    indices, and those whose state has no successor, are forgotten, ``red``
    being the first of them.  The reached states are everything up to the
    head's top successor, since the head is the record's maximum and
    ``top`` is monotone; those not already taken follow in descending
    order.  Before ``red`` each entry i keeps its own run, so entry i of the
    next record is ``top[p]`` and the Büchi test ``is_buchi(t, p, top[p])``
    reduces to ``p not in ones``; from ``red`` on, a Büchi index could only
    give a priority above ``2·red - 1``.  The priority is even at the first
    such Büchi index ``green`` and odd at ``red``, whichever is smaller;
    each minimum over an empty set is the number of reached states.
    """
    top, ones = t.top, t.ones
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


def record_name(entries: tuple[int, ...], names: tuple[str, ...]) -> str:
    """A record's state name: its entries' names, through the universe's name tuple."""
    return "(" + ",".join(map(names.__getitem__, entries)) + ")"


def determinize(a: OrderedBuchiAutomaton) -> ParityAutomaton:
    """Deterministic min-parity automaton over [-1, 2n-1] with the same language.

    Breadth-first exploration of records from the initial states in
    descending order, letters in sorted order, each step one call of
    :func:`delta`; record names and the record map are carried on the result.
    """
    n = a.universe.size
    states = a.universe.states
    letters = sorted(a.alphabet)
    tiles = [(x, a.alphabet[x]) for x in letters]
    start = tuple(sorted(a.initial, reverse=True))
    order = [start]
    name = {start: record_name(start, states)}  # each record named once, when first reached
    rows: list[tuple[str, str, int, str]] = []  # one per (record, letter), so no repeats
    for rec in order:  # grows while it is walked: breadth-first
        src = name[rec]
        for letter, tile in tiles:
            priority, nxt = delta(rec, tile)
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
    if d.records is None:  # construction gives records and universe together
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


def residual_budget(a: OrderedBuchiAutomaton) -> tuple[frozenset[int], int]:
    """R_A and |S_R| from one walk: ``reachable_residuals(a)`` and ``len(candidate_records(a))``.

    |S_R| is in closed form, Σ_{h ∈ R_A} h! plus one if the initial set is
    killed: a record headed by h is h + 1 long and its tail is a
    permutation of range(h), so h! records share that head.  The explicit
    set, :func:`obat.verify.candidate_records`, is the reference.
    """
    heads, kills = _walk_from_initial(a)
    return heads, sum(math.factorial(h) for h in heads) + kills


def record_count_bound(n: int) -> int:
    """Count of all records over n states: 2 + sum of i! for i in [1, n-1]."""
    if n < 1:
        raise UsageError("need at least one state")
    return 2 + sum(math.factorial(i) for i in range(1, n))
