"""Tile algebra over a totally ordered finite state set.

States are indices into a :class:`StateUniverse`; the ascending order of the
universe's state list *is* the total order, so plain integer comparison
decides it.  A transition is a triple ``(src, priority, dst)`` with priority
0 (Büchi) or 1, and a tile is a transition set closed upwards for

    (p, c, q)  <=  (p', c', q')   iff   p <= p',  q' <= q,
                                        and c <= c' when (p, q) == (p', q').

Upward-closed tiles compose by relational product taking the minimum of the
two priorities; together with the closure of the identity skeleton as unit
they form a monoid.  Every upward-closed tile has a unique inclusion-minimal
generating set, its skeleton, which is a partial injection on states.

Tiles are stored as staircases (see :class:`Tile`), so every tile is closed
by construction; :func:`tile_of` is the one way in from an explicit
transition set and the one closure check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


class UsageError(ValueError):
    """The caller broke an operation's contract (wrong universe, bad letter, ...)."""


class ValidationError(ValueError):
    """A value or input file violates a structural invariant."""


class NotUpwardClosed(ValidationError):
    """A transition set lacks a transition that dominates one of its members."""


Transition = tuple[int, int, int]  # (src, priority, dst)


@dataclass(frozen=True)
class StateUniverse:
    """Totally ordered state set; ``states[0]`` is the minimum."""

    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValidationError("state universe must be nonempty")
        if len(set(self.states)) != len(self.states):
            raise ValidationError("state identifiers must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise UsageError(f"unknown state {name!r}") from None

    def name(self, i: int) -> str:
        return self.states[i]


def universe_of_ints(n: int) -> StateUniverse:
    """Universe with states named "0".."n-1", natural order."""
    return StateUniverse(tuple(str(i) for i in range(n)))


def trans_leq(d1: Transition, d2: Transition) -> bool:
    """Transition order: source up, destination down, priority up at equal endpoints."""
    p1, c1, q1 = d1
    p2, c2, q2 = d2
    if p1 > p2 or q2 > q1:
        return False
    if (p1, q1) == (p2, q2):
        return c1 <= c2
    return True


@dataclass(frozen=True)
class Tile:
    """An upward-closed tile: its staircase ``top`` and its priority-1 corners ``ones``.

    ``top[p]`` is the greatest successor of p (-1 for none); it is monotone
    in p, and p reaches exactly the states up to ``top[p]``, with both
    priorities, except at a *corner*: a p least for its ``top`` value, whose
    pair (p, top[p]) may carry priority 1 only.  ``ones`` lists those
    corners; the corners with their priorities are the skeleton.  Build
    tiles with :func:`upward_closure`, :func:`tile_of`, :func:`unit_tile` or
    :func:`product`, which keep both fields canonical, so two tiles are equal
    exactly when their transition sets are.
    """

    universe: StateUniverse
    top: tuple[int, ...]
    ones: frozenset[int]

    @cached_property
    def transitions(self) -> frozenset[Transition]:
        """The explicit transition set, for DOT, serialization, oracles and tests."""
        return frozenset(
            (p, c, q)
            for p, t in enumerate(self.top)
            for q in range(t + 1)
            for c in (0, 1)
            if not (c == 0 and q == t and p in self.ones)
        )

    def is_empty(self) -> bool:
        """No transitions: since ``top`` is monotone, the greatest state has no successor."""
        return self.top[-1] < 0


@dataclass(frozen=True)
class Skeleton:
    """Inclusion-minimal generator of an upward-closed tile.

    Distinct members have distinct sources and distinct targets.
    """

    universe: StateUniverse
    transitions: frozenset[Transition]

    def __post_init__(self) -> None:
        srcs = [p for (p, _, _) in self.transitions]
        dsts = [q for (_, _, q) in self.transitions]
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise ValidationError("skeleton endpoints must be injective")


def _corners(top: tuple[int, ...]) -> list[int]:
    """States least for their (defined) top value: the skeleton's sources."""
    return [p for p, t in enumerate(top) if t >= 0 and (p == 0 or top[p - 1] < t)]


def upward_closure(universe: StateUniverse, generators) -> Tile:
    """Smallest upward-closed tile containing the generators.

    p reaches every state up to the greatest target of a generator whose
    source is at most p (a running maximum), and a corner keeps its Büchi
    transition only when that transition is itself a generator.  A generator
    outside the universe or with a priority other than 0 or 1 is a
    :class:`ValidationError`.
    """
    n = universe.size
    best = [-1] * n
    buchi = set()
    for (p, c, q) in generators:
        if not (0 <= p < n and 0 <= q < n and c in (0, 1)):
            raise ValidationError(f"transition {(p, c, q)} out of range for |Q|={n} and priorities 0, 1")
        best[p] = max(best[p], q)
        if c == 0:
            buchi.add((p, q))
    top = tuple(itertools.accumulate(best, max))
    ones = frozenset(p for p in _corners(top) if (p, top[p]) not in buchi)
    return Tile(universe, top, ones)


def tile_of(universe: StateUniverse, transitions) -> Tile:
    """The tile whose transition set is exactly ``transitions``.

    Raises :class:`ValidationError` for a transition outside the universe or
    the priorities, and :class:`NotUpwardClosed` for a set that is not
    upward-closed, naming the first member (in the set's iteration order)
    and the least missing transition that dominates it.
    """
    trans = frozenset(transitions)
    tile = upward_closure(universe, trans)
    missing = sorted(tile.transitions - trans)
    for d in trans:
        for d2 in missing:
            if trans_leq(d, d2):
                raise NotUpwardClosed(f"contains {d} but not the dominating {d2}")
    return tile


def unit_tile(universe: StateUniverse) -> Tile:
    """Closure of the identity skeleton: everything weakly descending, no horizontal Büchi."""
    states = range(universe.size)
    return Tile(universe, tuple(states), frozenset(states))


def product(t1: Tile, t2: Tile) -> Tile:
    """Relational composition taking the minimum priority.

    The staircases compose: p reaches up to ``t2.top[t1.top[p]]``.  Every
    other step has a Büchi path, so a corner of the product has priority 1
    only when p is a priority-1 corner of t1 and ``t1.top[p]`` one of t2.
    """
    if t1.universe != t2.universe:
        raise UsageError("tiles over different universes")
    top = tuple(t2.top[q] if q >= 0 else -1 for q in t1.top)
    ones = frozenset(p for p in t1.ones if t1.top[p] in t2.ones)
    return Tile(t1.universe, top, ones)


def skeleton(t: Tile) -> Skeleton:
    """Unique minimal generator: each corner with its least priority."""
    return Skeleton(
        t.universe, frozenset((p, int(p in t.ones), t.top[p]) for p in _corners(t.top))
    )


def successors(t: Tile, states) -> frozenset[int]:
    """States reachable from the given set in one step: all up to the highest top."""
    return frozenset(range(max((t.top[p] for p in states), default=-1) + 1))


def top_successor(t: Tile, q: int) -> int | None:
    """Greatest successor of q, or None; monotone in q."""
    return t.top[q] if t.top[q] >= 0 else None


def is_buchi(t: Tile, p: int, q: int) -> bool:
    """Whether the priority-0 transition (p, 0, q) is in the tile."""
    return q < t.top[p] or (q == t.top[p] and p not in t.ones)
