"""Constructions into ordered Büchi automata.

Three routes in: Rabin pair specifications (one self-loop state per pair plus
a waiting state), ε-complete parity automata (whose states become the classes
of their odd ε-preorders), and the horizontal-complete alphabets used by the
optimality experiment.  Every conversion returns the automaton together with
the morphism renaming external letters into tile letters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import EPS, Morphism, OrderedBuchiAutomaton, ParityAutomaton, UPWord, _bits, _transpose
from .tiles import (
    StateUniverse,
    Tile,
    Transition,
    UsageError,
    ValidationError,
    unit_tile,
    upward_closure,
)


# --- Rabin -----------------------------------------------------------------


@dataclass(frozen=True)
class RabinSpec:
    """Rabin pairs (G_i, R_i): accept iff some pair sees G_i infinitely and R_i finitely."""

    alphabet: tuple[str, ...]
    pairs: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValidationError("Rabin specification needs at least one pair")
        if not all(isinstance(x, str) for x in self.alphabet):
            raise ValidationError("Rabin alphabet letters must be strings")
        sigma = set(self.alphabet)
        for g, r in self.pairs:
            if not (g <= sigma and r <= sigma):
                raise ValidationError("Rabin pair uses letters outside the alphabet")

    def accepts_up(self, w: UPWord) -> bool:
        """Direct evaluation on a UP word: inf(w) is the set of period letters."""
        for x in w.prefix + w.period:
            if x not in self.alphabet:
                raise UsageError(f"unknown letter {x!r}")
        inf = set(w.period)
        return any(inf & g and not (inf & r) for g, r in self.pairs)


def rabin_tile_generator(spec: RabinSpec, letter: str) -> set[Transition]:
    """Generator of the tile for one letter: waiting loop plus per-pair self-loops."""
    if letter not in spec.alphabet:
        raise UsageError(f"unknown letter {letter!r}")
    n = len(spec.pairs)
    gen: set[Transition] = {(n, 1, n)}
    for i, (g, r) in enumerate(spec.pairs):
        if letter in g and letter not in r:
            gen.add((i, 0, i))
        if letter not in r:
            gen.add((i, 1, i))
    return gen


def _name_tiles(tiles_by_letter: dict[str, Tile]) -> tuple[dict[str, Tile], Morphism]:
    """Deduplicate tiles over sorted letters, naming them t0, t1, ..."""
    names: dict[Tile, str] = {}
    alphabet: dict[str, Tile] = {}
    mapping: dict[str, str] = {}
    for letter in sorted(tiles_by_letter):
        tile = tiles_by_letter[letter]
        if tile not in names:
            name = f"t{len(names)}"
            names[tile] = name
            alphabet[name] = tile
        mapping[letter] = names[tile]
    return alphabet, Morphism.from_dict(mapping)


def rabin_to_oba(spec: RabinSpec) -> tuple[OrderedBuchiAutomaton, Morphism]:
    """Ordered Büchi automaton for a Rabin language, all n+1 states initial."""
    n = len(spec.pairs)
    universe = StateUniverse(tuple(str(i) for i in range(n + 1)))
    tiles = {
        a: upward_closure(universe, rabin_tile_generator(spec, a)) for a in spec.alphabet
    }
    alphabet, morphism = _name_tiles(tiles)
    return (
        OrderedBuchiAutomaton(
            universe=universe,
            initial=frozenset(range(n + 1)),
            alphabet=alphabet,
        ),
        morphism,
    )


# --- ε-completeness --------------------------------------------------------


@dataclass
class EpsViolation:
    """A failed axiom at ``priority`` or, when ``last`` is set, at every priority of that
    parity from ``priority`` to ``last``: a run of priorities without ε-edges, which all
    give the same witness."""

    axiom: str
    priority: int
    witness: tuple
    last: int | None = None

    def __str__(self) -> str:
        if self.last is None:
            at = f"priority {self.priority}"
        else:
            at = f"every {'odd' if self.priority % 2 else 'even'} priority from {self.priority} to {self.last}"
        return f"{self.axiom} fails at {at}, witness {self.witness}"


@dataclass
class EpsReport:
    violations: list[EpsViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ε-complete"
        return "\n".join(str(v) for v in self.violations)


class NotEpsComplete(UsageError):
    """Raised where an ε-complete automaton is required; ``report`` lists every failed axiom."""

    def __init__(self, report: EpsReport) -> None:
        super().__init__(f"automaton is not ε-complete: {report.violations[0]}")
        self.report = report


def _eps_table(a: ParityAutomaton) -> tuple[list[str], dict[int, list[int]]]:
    """The ε-edges as down-sets: the states in declaration order and, per
    ε-priority, each state's bitmask of the states its ε-edges reach.

    Bit i stands for ``states[i]``, so a mask's lowest set bit is its first
    state in declaration order.  At an odd level of an ε-complete automaton
    the relation is a total preorder and a state's row is exactly the set of
    states ranked at or below it.
    """
    states = list(a.states)
    at = {q: i for i, q in enumerate(states)}
    table: dict[int, list[int]] = {}
    for (p, x, c, q) in a.transitions:
        if x == EPS:
            if c not in table:
                table[c] = [0] * len(states)
            table[c][at[p]] |= 1 << at[q]
    return states, table


def _runs(levels, first: int, last: int):
    """The priorities first, first + 2, …, last as ascending (start, end) runs: each one
    in ``levels`` alone, and each maximal stretch of the others as one run."""
    start = first
    for c in sorted(c for c in levels if first <= c <= last and (c - first) % 2 == 0):
        if start < c:
            yield start, c - 2
        yield c, c
        start = c + 2
    if start <= last:
        yield start, last


def _eps_violations(a: ParityAutomaton, states: list[str], table: dict[int, list[int]]) -> list[EpsViolation]:
    """Each axiom's first witness, in state order, by bitmask tests on the down-sets.

    A priority without ε-edges has empty rows, so all the levels of a run of
    such priorities give an axiom the same witness: each run is tested once and
    reported once, with its range.  The work and the report grow with the
    priorities that carry ε-edges, not with the width of the index.
    """
    lo, hi = a.index
    if hi % 2 == 0 or hi < 1:
        raise UsageError(f"ε-completeness needs an odd index upper bound, got [{lo},{hi}]")
    if lo > 0:
        raise UsageError(f"ε-completeness needs the index to start at 0, got [{lo},{hi}]")
    n = len(states)
    full = (1 << n) - 1
    empty = [0] * n
    up = {c: _transpose(rows) for c, rows in table.items() if c % 2}
    violations: list[EpsViolation] = []

    def report(axiom: str, c: int, end: int, candidates) -> None:
        """The witness ``key + (lowest set bit,)`` of the first nonzero mask among ``(key, mask)`` pairs."""
        for key, mask in candidates:
            if mask:
                witness = tuple(states[i] for i in key + (next(_bits(mask)),))
                violations.append(EpsViolation(axiom, c, witness, None if end == c else end))
                return

    for c, end in _runs(table, 1, hi):
        d, u = table.get(c, empty), up.get(c, empty)
        report("reflexivity", c, end, (((), ~d[i] & 1 << i) for i in range(n)))
        # p ≥ q ≥ s but not p ≥ s: s is in D(q) and missing from D(p)
        report("transitivity", c, end, (((i, j), d[j] & ~d[i]) for i in range(n) for j in _bits(d[i])))
        # some q after p in state order is unrelated to p either way
        report("totality", c, end, (((i,), (full ^ ((2 << i) - 1)) & ~(d[i] | u[i])) for i in range(n)))
    for c in sorted(c for c in table if c % 2 and 3 <= c <= hi):  # an empty finer level refines any
        fine, coarse = table[c], table.get(c - 2, empty)
        for i in sorted(range(n), key=states.__getitem__):  # the least pair by name
            gap = fine[i] & ~coarse[i]
            if gap:
                q = min(_bits(gap), key=states.__getitem__)
                violations.append(EpsViolation("refinement", c, (states[i], states[q])))
                break
    # the strict variant at an even c reads the ε-edges at c and at c + 1
    for c, end in _runs({c - c % 2 for c in table}, 0, hi - 1):
        # p > q strictly iff not q ≥ p: the strict row of p is the complement of p's odd up-set
        strict, above = table.get(c, empty), up.get(c + 1, empty)
        report("strict-variant", c, end, (((i,), full & ~(strict[i] ^ above[i])) for i in range(n)))
    return violations


def check_eps_complete(a: ParityAutomaton) -> EpsReport:
    """Verify the ε-completeness axioms, reporting one witness per axiom and level.

    Odd ε-relations must be total preorders, each refined by the next; each
    even relation must be the strict variant of the odd one above it.  The
    index's upper bound must be odd; a lower bound of -1 (as produced by the
    determinization) is tolerated.  Every axiom is a bitmask test on the
    down-sets of :func:`_eps_table`, and a run of levels without ε-edges is
    tested and reported once: O(levels with ε-edges·|S|²) word operations.
    """
    return EpsReport(_eps_violations(a, *_eps_table(a)))


# --- the parity-to-ordered-Büchi translation -------------------------------


def _odd_ranks(a: ParityAutomaton) -> list[tuple[int, ...]]:
    """Each state's rank vector, in declaration order: its down-set's size at
    every odd level.  Raises :class:`NotEpsComplete` naming every failed axiom."""
    states, table = _eps_table(a)
    violations = _eps_violations(a, states, table)
    if violations:
        raise NotEpsComplete(EpsReport(violations))
    odd = range(1, a.index[1] + 1, 2)  # each carries ε-edges, by reflexivity, unless there are no states
    return [tuple(table[c][i].bit_count() for c in odd) for i in range(len(states))]


def parity_to_oba(a: ParityAutomaton) -> tuple[OrderedBuchiAutomaton, Morphism]:
    """Translate an ε-complete parity automaton into an ordered Büchi automaton.

    States are the classes of the odd ε-preorders, labelled ``{members}_d``:
    a state's depth-d node holds the states whose :func:`_odd_ranks` share
    its first d entries.  They ascend in the reverse of the depth-first order
    that visits a node before its extensions, greater classes first.  A
    letter connects two depth-d nodes with priority 1 when some underlying
    transition between their members carries a priority preferred to 2d-1,
    and with a Büchi transition when it is preferred to 2d-2.  One pass over
    the letter transitions adds each one's generators by threshold: an odd c
    is preferred to 2d-1 at the depths d <= (c+1)/2 and never to 2d-2; an
    even c is preferred to every 2d-1, and to 2d-2 at the depths
    d >= c/2 + 1, where its Büchi generator dominates the priority-1 one
    between the same nodes and so stands for both in the closure.

    The ε letter maps to the unit tile, which the morphism covers alongside
    the real alphabet; ε-completeness makes that the tile its ε-edges would
    generate.  Reflexivity at the top odd level gives every node (n, 1, n);
    the other ε-edges add nothing above it.  An odd ε-edge c lies within the
    preorder at c and so, by refinement, within every coarser one: it
    descends weakly at every depth where it counts.  An even ε-edge 2k
    descends strictly at level 2k+1 and at every finer level, which are the
    depths where it is Büchi, and weakly above them.

    Any initial set is accepted: the converter closes it itself.  The
    initial nodes are every node up to the greatest depth-1 node holding an
    initial state, which is the ε-closure of I, since every ε-edge of an
    ε-complete automaton lies within the priority-1 preorder.  Runs may take
    finitely many ε-moves before the first letter, so the closure keeps the
    language.
    """
    ranks = _odd_ranks(a)
    members: dict[tuple[int, ...], list[str]] = {}  # rank prefix -> its states in declaration order
    for q, rank in zip(a.states, ranks):
        for d in range(1, len(rank) + 1):
            members.setdefault(rank[:d], []).append(q)
    nodes = sorted(members, key=lambda k: [-r for r in k], reverse=True)
    universe = StateUniverse(tuple(f"{{{','.join(members[k])}}}_{len(k)}" for k in nodes))
    idx = {k: i for i, k in enumerate(nodes)}
    # each state's node index per depth
    at_depth = {q: [idx[rank[:d]] for d in range(1, len(rank) + 1)] for q, rank in zip(a.states, ranks)}
    # every node up to the greatest depth-1 node holding an initial state
    initial = frozenset(range(max((at_depth[q][0] for q in a.initial), default=-1) + 1))

    gens: dict[str, set[tuple[int, int, int]]] = {x: set() for x in a.effective_alphabet}
    for (p, x, c, q) in a.transitions:
        if x in gens:
            pairs = list(zip(at_depth[p], at_depth[q]))
            k = max(0, -(-c // 2))  # priority 1 at depths d <= ⌈c/2⌉; an even c is Büchi at every deeper one
            gens[x].update([(n1, 1, n2) for n1, n2 in pairs[:k]])
            if c % 2 == 0:
                gens[x].update([(n1, 0, n2) for n1, n2 in pairs[k:]])
    tiles = {x: upward_closure(universe, gen) for x, gen in gens.items()}
    tiles[EPS] = unit_tile(universe)
    alphabet, morphism = _name_tiles(tiles)
    return OrderedBuchiAutomaton(universe=universe, initial=initial, alphabet=alphabet), morphism


def intertwine(w: UPWord) -> UPWord:
    """Surround every letter with ε on both sides, in prefix and period."""
    def weave(part):
        out: list[str] = []
        for x in part:
            out += [EPS, x, EPS]
        return tuple(out)

    return UPWord(weave(w.prefix), weave(w.period))


# --- horizontal-complete alphabets ------------------------------------------


def horizontal_complete_alphabet(universe: StateUniverse) -> dict[str, Tile]:
    """All tiles generated by self-loop-only skeletons: 3^|Q| of them, |Q| <= 6.

    Letters are named by the per-state assignment, '-' absent, '1' or '0' the
    self-loop priority, minimum state first, in ``itertools.product`` order.
    The tiles are distinct: a self-loop skeleton's closure has exactly the
    assigned states as corners, with their priorities.
    """
    n = universe.size
    if n > 6:
        raise UsageError(
            f"horizontal-complete alphabet over {n} states would have {3 ** n} letters"
        )
    return {
        "".join(assign): upward_closure(universe, {(q, int(v), q) for q, v in enumerate(assign) if v != "-"})
        for assign in itertools.product("-10", repeat=n)
    }
