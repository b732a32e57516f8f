"""Automaton types and exact membership oracles for ultimately-periodic words.

Three automaton flavours live here: ordered Büchi tile automata (downward-
closed initial set, upward-closed tiles), nondeterministic parity automata
with optional ε-transitions, and their deterministic special case.  The
membership oracles decide u·v^ω words exactly and are the ground truth every
construction in this package is checked against; none of them goes through
the determinization.

An oracle folds each query's prefix from its start state with no memo, so a
long-lived oracle holds nothing per distinct prefix; the caches that grow
with queries are keyed by period, for ``NpaOracle`` also by a period's
value-set matrix and by (period element, letter), and for ``ObaOracle`` also
by a period's class under rotation and power (see each class).  Both step a
period from its one-letter-shorter period when that has an entry; any other
period ``NpaOracle`` multiplies out, and ``ObaOracle`` reads off its class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .tiles import (
    StateUniverse,
    Tile,
    UsageError,
    ValidationError,
    is_buchi,
    product,
    unit_tile,
)

EPS = "eps"


@dataclass(frozen=True)
class UPWord:
    """Ultimately-periodic word u·v^ω with a nonempty period."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise UsageError("UP word needs a nonempty period")

    def __str__(self) -> str:
        u = " ".join(self.prefix) or "ε"
        return f"{u} ({' '.join(self.period)})^ω"


def up(prefix, period) -> UPWord:
    return UPWord(tuple(prefix), tuple(period))


@dataclass(frozen=True)
class Morphism:
    """Renaming of external letters into tile-letter names; total on its domain."""

    mapping: tuple[tuple[str, str], ...]

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> Morphism:
        return cls(tuple(sorted(d.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def rename(self, *parts: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
        """Each letter sequence renamed; the first letter outside the domain is a usage error."""
        m = self.as_dict()
        try:
            return tuple(tuple(m[x] for x in part) for part in parts)
        except KeyError as e:
            raise UsageError(f"letter {e.args[0]!r} not in morphism domain") from None


@dataclass
class OrderedBuchiAutomaton:
    """Tile automaton over an ordered state set.

    Tiles are upward-closed by construction.  Construction also checks the
    other invariants, in this order, and raises a :class:`ValidationError`
    ``"<kind>: <witness>"`` for the first one violated: every initial state
    is in range (``initial``), the initial set is downward-closed
    (``initial-not-downward-closed``) and every tile is over the
    automaton's universe (``tile-universe``).
    """

    universe: StateUniverse
    initial: frozenset[int]
    alphabet: dict[str, Tile]

    def __post_init__(self) -> None:
        u, initial = self.universe, self.initial
        if len(initial) > u.size or initial != frozenset(range(len(initial))):  # not {0..k-1}
            out = min((q for q in initial if not 0 <= q < u.size), default=None)
            if out is not None:
                raise ValidationError(f"initial: state index {out} out of range")
            gap = next(q for q in range(u.size) if q not in initial)
            above = min(q for q in initial if q > gap)
            raise ValidationError(
                f"initial-not-downward-closed: {u.states[above]} is initial but {u.states[gap]} below it is not"
            )
        # a loaded document's tiles share its universe object, so the identity test decides
        stray = sorted(x for x, t in self.alphabet.items() if t.universe is not u and t.universe != u)
        if stray:
            raise ValidationError(f"tile-universe: tile {stray[0]!r} built over a different universe")

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(self.alphabet))


@dataclass
class ParityAutomaton:
    """Nondeterministic min-parity automaton, possibly with ε-transitions.

    ``records``/``universe`` are carried by determinization results so that
    the record structure of each state stays recoverable.  Construction
    raises a :class:`ValidationError` for the first fault: the index, the
    states, the initial set, each transition's states and priority, the
    determinism of a deterministic automaton, a non-ε transition letter
    outside a declared ``alphabet``, then records that are not exactly one
    per state.
    """

    states: tuple[str, ...]
    initial: frozenset[str]
    index: tuple[int, int]
    transitions: frozenset[tuple[str, str, int, str]]
    deterministic: bool = False
    alphabet: frozenset[str] | None = None
    records: dict[str, tuple[int, ...]] | None = None
    universe: StateUniverse | None = None

    def __post_init__(self) -> None:
        lo, hi = self.index
        if lo > hi:
            raise ValidationError(f"empty priority index [{lo},{hi}]")
        if not all(map(isinstance, self.states, repeat(str))):
            raise ValidationError("state identifiers must be strings")
        stateset = set(self.states)
        if len(stateset) != len(self.states):
            raise ValidationError("state identifiers must be pairwise distinct")
        if not self.initial <= stateset:
            raise ValidationError("initial states must be declared states")
        alphabet = self.alphabet
        declared = alphabet is not None
        undeclared = False  # some non-ε transition letter is outside the declared alphabet
        for (p, a, c, q) in self.transitions:
            if p not in stateset or q not in stateset or not lo <= c <= hi or declared and a not in alphabet and a != EPS:
                for (p, a, c, q) in sorted(self.transitions):  # the least offender, whatever the hash seed
                    if p not in stateset or q not in stateset:
                        raise ValidationError(f"transition {(p, a, c, q)} uses undeclared state")
                    if not lo <= c <= hi:
                        raise ValidationError(
                            f"priority {c} of transition {(p, a, c, q)} outside index [{lo},{hi}]"
                        )
                undeclared = True  # reported after the determinism checks
                break
        if self.deterministic:
            if len(self.initial) != 1:
                raise ValidationError("deterministic automaton needs exactly one initial state")
            pairs = [(p, a) for (p, a, _, _) in self.transitions if a != EPS]
            if len(set(pairs)) != len(pairs):  # name the least repeated pair, whatever the hash seed
                pairs.sort()
                p, a = next(x for x, y in zip(pairs, pairs[1:]) if x == y)
                raise ValidationError(f"nondeterministic on ({p!r}, {a!r})")
        if undeclared:
            t = min(t for t in self.transitions if t[1] not in alphabet and t[1] != EPS)
            raise ValidationError(f"transition {t} uses undeclared letter")
        records = self.records
        if records is not None and records.keys() != stateset:
            for name in records:
                if name not in stateset:
                    raise ValidationError(f"record {name!r} is not a declared state")
            for name in self.states:
                if name not in records:
                    raise ValidationError(f"records omit state {name!r}")

    @property
    def effective_alphabet(self) -> frozenset[str]:
        if self.alphabet is not None:
            return self.alphabet
        return frozenset(a for (_, a, _, _) in self.transitions if a != EPS)


@dataclass
class ValidationIssue:
    kind: str
    message: str


@dataclass
class ValidationReport:
    warnings: list[ValidationIssue] = field(default_factory=list)

    def __str__(self) -> str:
        return "\n".join(f"warning ({w.kind}): {w.message}" for w in self.warnings) or "valid"


def oba_validate(a: OrderedBuchiAutomaton) -> ValidationReport:
    """Warn about every state unreachable from the initial set.

    The ordered-Büchi invariants hold by construction, so the report holds
    warnings only.  They need one walk from max(I) under the letters'
    top-successor maps, so they are made only here.
    """
    # initial and successor sets are downward-closed: every state up to the
    # greatest one reached from max(I) is reachable
    names = a.universe.states
    reach = max(_walk_from_initial(a)[0], default=-1)
    return ValidationReport(
        [
            ValidationIssue("unreachable-state", f"state {names[q]} is unreachable from the initial set")
            for q in range(reach + 1, a.universe.size)
        ]
    )


def _fold(start: frozenset, succs) -> frozenset:
    """States reachable from ``start`` through the successor maps ``succs`` in turn.

    Each map takes a state to its successors, as a set or as a matrix row
    keyed by successor.  A plain loop, so a word of any length costs no
    recursion and no memory beyond the current state set.
    """
    for succ in succs:
        out: set = set()
        for p in start:
            out.update(succ.get(p, ()))
        start = frozenset(out)
    return start


def _walk(m: int, tops) -> int:
    """Greatest state reached from {0..m} through the ``top`` maps ``tops`` in turn; -1 for none.

    A tile's successor set of {0..m} is {0..top[m]}, since ``top`` is monotone.
    """
    for top in tops:
        if m < 0:
            return -1
        m = top[m]
    return m


def _conjugacy_key(period: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
    """The least rotation of the period's primitive root, and the offset of the root in it.

    The primitive root is the shortest w with period = w^k; for the returned
    (key, o), w = key[o:] + key[:o].
    """
    n = len(period)
    root = period
    for d in range(1, n // 2 + 1):
        if n % d == 0 and period[d:] == period[:-d]:  # period = period[:d]^(n/d)
            root = period[:d]
            break
    length = len(root)
    doubled, first = root + root, min(root)
    key, s = min((doubled[i:i + length], i) for i, x in enumerate(root) if x == first)
    return key, (length - s) % length


def _least_buchi(t: Tile, n: int) -> int:
    """Least q with ``is_buchi(t, q, q)``; ``n``, the number of states, if there is none."""
    return next((q for q in range(n) if is_buchi(t, q, q)), n)


def _check_morphism(morphism: Morphism, tiles) -> None:
    """Raise a usage error naming the first letter ``morphism`` maps outside ``tiles``."""
    for letter, name in morphism.mapping:
        if not isinstance(name, str) or name not in tiles:
            raise UsageError(f"morphism maps {letter!r} to unknown tile {name!r}")


def _require_letters(letters: frozenset, word: tuple[str, ...]) -> None:
    """Raise a usage error naming the first letter of ``word`` outside ``letters``."""
    if not letters.issuperset(word):
        raise UsageError(f"unknown letter {next(x for x in word if x not in letters)!r}")


class ObaOracle:
    """Exact UP-word membership for an ordered Büchi automaton.

    The initial set is {0..k-1} by construction, and the states reachable
    after any word are downward-closed, {0..m}, so a state set is held as
    its greatest state m (-1 for none): ``after(u)`` walks max(I) through
    the letters' ``top`` maps and ``accepts(m, v)`` decides the rest, so
    ``member`` is their composition; every oracle here splits a query the
    same way.  By the single-tile ω-power criterion
    (criterion 9, :func:`omega_power_accepts`), v^ω is accepted from {0..m}
    iff some q ≤ m has ``is_buchi(t_v, q, q)``, where t_v is the product of
    v's tiles; so a period's answer is the least such q, |Q| for none.

    Two routes reach t_v.  ``_period`` maps a period to its tile and answer.
    A one-letter period takes its letter's tile, and a longer one whose
    ``period[:-1]`` has an entry costs one product with its last letter's
    tile, as :class:`NpaOracle`'s ``_step`` does; both are entered there.
    So an enumeration that asks periods shortest first, as ``equiv_up`` and
    ``check_local_preference`` do, steps every period.  Any other period
    takes the class route, ``_acc``, which holds the answer per conjugacy
    class of periods and enters nothing in ``_period``.  The key is the
    least rotation of the period's primitive root, and its value has one
    entry per position j of the key: the least q for the tile of the
    rotation key[j:] + key[:j], each built from one pass of prefix products
    and one of suffix products.  A period is a power of the rotation at the
    offset where its root starts in the key, and (w^k)^ω = w^ω, so it answers
    with that entry.  A morphism is folded into the letter table at
    construction, so its letters index the tiles directly; one that maps a
    letter to a missing tile is refused there, with a usage error.
    """

    def __init__(self, a: OrderedBuchiAutomaton, morphism: Morphism | None = None):
        self.automaton = a
        self.morphism = morphism
        if morphism is None:
            names = {x: x for x in a.alphabet}
        else:
            _check_morphism(morphism, a.alphabet)
            names = morphism.as_dict()
        self._tile = {x: a.alphabet[t] for x, t in names.items()}  # query letter -> tile
        self._top = {x: tile.top for x, tile in self._tile.items()}
        self._letters = frozenset(self._top)
        self._period: dict[tuple[str, ...], tuple[Tile, int]] = {}
        self._acc: dict[tuple[str, ...], tuple[int, ...]] = {}

    def _check_letters(self, word: tuple[str, ...]) -> None:
        if self._letters.issuperset(word):
            return
        if self.morphism is not None:  # raises, naming the first letter outside the domain
            self.morphism.rename(word)
        _require_letters(self._letters, word)

    def _least_accepting(self, period: tuple[str, ...]) -> int:
        """Least q with a horizontal Büchi transition in the period's tile; |Q| if there is none."""
        entry = self._period.get(period)
        if entry is not None:  # a period with an entry passed both checks when it was entered
            return entry[1]
        self._check_letters(period)
        if not period:
            raise UsageError("period must be nonempty")
        tile = self._tile[period[-1]]
        if len(period) > 1:
            shorter = self._period.get(period[:-1])
            if shorter is None:
                return self._class_least_accepting(period)
            tile = product(shorter[0], tile)
        least = _least_buchi(tile, self.automaton.universe.size)
        self._period[period] = (tile, least)
        return least

    def _class_least_accepting(self, period: tuple[str, ...]) -> int:
        """``_least_accepting`` read from the table of the period's conjugacy class."""
        table = self._acc.get(period)
        if table is not None:  # the period is its class's key: offset 0
            return table[0]
        key, offset = _conjugacy_key(period)
        table = self._acc.get(key)
        if table is None:
            n = self.automaton.universe.size
            tiles = [self._tile[x] for x in key]
            unit = unit_tile(self.automaton.universe)
            heads, tails = [unit], [unit]  # t(key[:j]) and t(key[len(key) - j:]) at index j
            for t, s in zip(tiles, reversed(tiles)):
                heads.append(product(heads[-1], t))
                tails.append(product(s, tails[-1]))
            rotations = (product(tails[-1 - j], heads[j]) for j in range(len(key)))  # t(key[j:] + key[:j])
            table = self._acc[key] = tuple(_least_buchi(t, n) for t in rotations)
        return table[offset]

    def after(self, prefix: tuple[str, ...]) -> int:
        """The greatest state reachable after ``prefix``, all below it reachable too; -1 for none."""
        self._check_letters(prefix)
        return _walk(len(self.automaton.initial) - 1, map(self._top.__getitem__, prefix))

    def accepts(self, state: int, period: tuple[str, ...]) -> bool:
        """Whether period^ω is accepted from the states up to ``state``."""
        return state >= self._least_accepting(period)

    def member(self, w: UPWord) -> bool:
        """``accepts(after(w.prefix), w.period)``: the prefix's letters are checked first."""
        return self.accepts(self.after(w.prefix), w.period)

    __call__ = member


def omega_power_accepts(a: OrderedBuchiAutomaton, t: Tile) -> bool:
    """t^ω is accepted iff some initial state carries a horizontal Büchi transition."""
    return any(is_buchi(t, q, q) for q in a.initial)


def _walk_from_initial(a: OrderedBuchiAutomaton) -> tuple[frozenset[int], bool]:
    """States reached from max(I) under the letters' ``top`` maps, and
    whether some letter's map is undefined on one of them.

    These are R_A and the kills-max(I) flag read by ``obat.determinize`` and
    ``obat.verify``.  Empty initial set: nothing is reached and the initial
    set counts as killed.
    """
    if not a.initial:
        return frozenset(), True
    tops = [a.alphabet[x].top for x in sorted(a.alphabet)]
    start = max(a.initial)
    reached = {start}
    frontier = [start]
    kills = False
    while frontier:
        q = frontier.pop()
        for top in tops:
            r = top[q]
            if r < 0:
                kills = True
            elif r not in reached:
                reached.add(r)
                frontier.append(r)
    return frozenset(reached), kills


class DpaOracle:
    """Direct run simulation for deterministic ε-free parity automata; nothing is cached."""

    def __init__(self, d: ParityAutomaton):
        if not d.deterministic:
            raise UsageError("DpaOracle needs a deterministic automaton")
        self.automaton = d
        self._delta: dict[tuple[str, str], tuple[int, str]] = {}
        for (p, a, c, q) in d.transitions:
            if a == EPS:
                raise UsageError("DpaOracle does not handle ε-transitions")
            self._delta[(p, a)] = (c, q)
        (self._initial,) = d.initial
        self._letters = d.effective_alphabet

    def after(self, prefix: tuple[str, ...]) -> str | None:
        """The run state after ``prefix``; None once the run has died."""
        _require_letters(self._letters, prefix)
        state = self._initial
        for letter in prefix:
            hit = self._delta.get((state, letter))  # a dead run (None) has no successor
            if hit is None:
                return None
            state = hit[1]
        return state

    def accepts(self, state: str | None, period: tuple[str, ...]) -> bool:
        """Whether the run from ``state`` on period^ω is accepting."""
        _require_letters(self._letters, period)
        if not period:
            raise UsageError("period must be nonempty")
        if state is None:
            return False
        seen: dict[str, int] = {state: 0}
        mins: list[int] = []
        while True:
            lap_min = None
            for letter in period:
                hit = self._delta.get((state, letter))
                if hit is None:
                    return False
                c, state = hit
                lap_min = c if lap_min is None else min(lap_min, c)
            mins.append(lap_min)
            if state in seen:
                return min(mins[seen[state]:]) % 2 == 0
            seen[state] = len(mins)

    def member(self, w: UPWord) -> bool:
        """``accepts(after(w.prefix), w.period)``: the prefix's letters are checked first."""
        return self.accepts(self.after(w.prefix), w.period)

    __call__ = member


# --- nondeterministic parity with ε: value-set matrix semantics ---------

_Matrix = dict  # state -> state -> frozenset of achievable least priorities


def _mat_mul(a: _Matrix, b: _Matrix) -> _Matrix:
    out: _Matrix = {}
    for p, row in a.items():
        acc: dict[str, set[int]] = {}
        for q, vals in row.items():
            brow = b.get(q)
            if not brow:
                continue
            for r, bvals in brow.items():
                cell = acc.setdefault(r, set())
                for x in vals:
                    for y in bvals:
                        cell.add(x if x < y else y)
        if acc:
            out[p] = {r: frozenset(v) for r, v in acc.items()}
    return out


def _mat_union(a: _Matrix, b: _Matrix) -> _Matrix:
    out = {p: dict(row) for p, row in a.items()}
    for p, row in b.items():
        mine = out.setdefault(p, {})
        for q, vals in row.items():
            mine[q] = vals | mine.get(q, frozenset())
    return out


def _mat_key(a: _Matrix):
    return frozenset((p, q, vals) for p, row in a.items() for q, vals in row.items())


def _reach(a: _Matrix, targets: frozenset) -> frozenset:
    """The states from which ``a``'s graph (p -> q for each stored cell) reaches ``targets``, these included."""
    if not targets:
        return targets
    pred: dict = {}
    for p, row in a.items():
        for q in row:
            pred.setdefault(q, []).append(p)
    reach = set(targets)
    todo = list(targets)
    while todo:
        for p in pred.get(todo.pop(), ()):
            if p not in reach:
                reach.add(p)
                todo.append(p)
    return frozenset(reach)


class _Element:
    """A period element: an ε-closed value-set matrix, interned per oracle, and its reach set."""

    __slots__ = ("matrix", "reach")

    def __init__(self, matrix: _Matrix, reach: frozenset):
        self.matrix = matrix
        self.reach = reach


class NpaOracle:
    """Exact UP-word membership for parity automata with ε-transitions.

    The language is the one over the ε-free alphabet: runs may take finitely
    many ε-transitions between letters.  Explicit ε letters in a query are
    allowed and consume at least one ε-transition each (the intertwined-word
    reading); the period must contain at least one real letter.  As for the
    other oracles, a letter outside the alphabet is a usage error.

    The prefix only decides where the period starts, so it is folded afresh
    on every query as a state set through the rows of each ε-closed letter's
    matrix.  No stored cell is ever empty, so a row's keys are exactly its
    state's successors.  A period's value-set matrix collects every
    least-priority value achievable between two states, so iterating its
    powers until they repeat covers every lasso shape.

    A queried period maps to its *element*: the matrix, interned per
    distinct matrix (``_element``, keyed by :func:`_mat_key`), and its reach
    set, the states from which the matrix's graph reaches an accepting state.
    The states reachable from a start set S over whole periods are exactly
    those of that graph reachable from S, so ``accepts(S, v)`` is whether S
    meets v's reach set.  Matrix products are the costly part, and three
    tables save them.  ``_period`` maps each queried period to its element.
    ``_step`` maps (element, letter) to the element of their product, so a
    period one letter longer than one with an entry costs at most one
    product, and none when another period with the same element met that
    letter first; a period with no shorter entry is multiplied out and adds
    no step.  ``_acc`` holds the accepting states once per distinct matrix:
    they depend only on the matrix, and are the same for each of its powers,
    since a closed walk over j periods repeated k times is one over jk
    periods with the same least priority.  So the powers are iterated only
    for a matrix seen neither as an element's nor as a power.
    """

    def __init__(self, a: ParityAutomaton):
        self.automaton = a
        self._rel: dict[str, _Matrix] = {}
        for (p, x, c, q) in a.transitions:
            row = self._rel.setdefault(x, {}).setdefault(p, {})
            row[q] = row.get(q, frozenset()) | {c}
        self._letters = a.effective_alphabet | {EPS}
        # the unit of min: odd, so it never looks accepting, and above every priority of the index
        self._unit: _Matrix = {p: {p: frozenset({(a.index[1] + 1) | 1})} for p in a.states}
        self._eclosure = self._compute_eclosure()
        # per letter, built on first use and bounded by the alphabet
        self._letter_mat: dict[str, _Matrix] = {}
        self._period: dict[tuple[str, ...], _Element] = {}
        self._element: dict[frozenset, _Element] = {}  # matrix key -> element
        self._step: dict[tuple[_Element, str], _Element] = {}
        self._acc: dict[frozenset, frozenset[str]] = {}  # matrix key -> accepting states

    def _compute_eclosure(self) -> _Matrix:
        eps = self._rel.get(EPS, {})
        e = self._unit
        while True:
            step = _mat_union(e, _mat_mul(e, eps))
            if step == e:
                return e
            e = step

    def _letter(self, x: str) -> _Matrix:
        if x not in self._letter_mat:
            rel = self._rel.get(x, {})
            self._letter_mat[x] = _mat_mul(_mat_mul(self._eclosure, rel), self._eclosure)
        return self._letter_mat[x]

    def _accepting(self, v: _Matrix, key: frozenset) -> frozenset[str]:
        """The states with an even-value self-cycle over some power of ``v``, whose key is ``key``.

        The powers are iterated only for a matrix not yet in ``_acc``, and
        the answer is stored there under the key of each power visited.
        """
        acc = self._acc.get(key)
        if acc is None:
            power = v
            seen = set()
            found: set[str] = set()
            while key not in seen:
                seen.add(key)
                for q, row in power.items():
                    if any(val % 2 == 0 for val in row.get(q, ())):
                        found.add(q)
                power = _mat_mul(power, v)
                key = _mat_key(power)
            acc = frozenset(found)
            self._acc.update(dict.fromkeys(seen, acc))
        return acc

    def _intern(self, v: _Matrix) -> _Element:
        """The element of the period matrix ``v``, made on the matrix's first appearance."""
        key = _mat_key(v)
        element = self._element.get(key)
        if element is None:
            element = self._element[key] = _Element(v, _reach(v, self._accepting(v, key)))
        return element

    def _new_period(self, period: tuple[str, ...]) -> _Element:
        """The element of a period without an entry, entered in ``_period``."""
        shorter = self._period.get(period[:-1])
        if shorter is None:
            v = self._letter(period[0])
            for x in period[1:]:
                v = _mat_mul(v, self._letter(x))
            element = self._intern(v)
        else:
            step = (shorter, period[-1])
            element = self._step.get(step)
            if element is None:
                element = self._step[step] = self._intern(_mat_mul(shorter.matrix, self._letter(period[-1])))
        self._period[period] = element
        return element

    def after(self, prefix: tuple[str, ...]) -> frozenset[str]:
        """The start set of the period: the states reachable after ``prefix``."""
        _require_letters(self._letters, prefix)
        return _fold(self.automaton.initial, (self._letter(x) for x in prefix))

    def accepts(self, state: frozenset[str], period: tuple[str, ...]) -> bool:
        """Whether period^ω is accepted from the state set ``state``."""
        element = self._period.get(period)
        if element is None:  # a period with an entry passed both checks when it was entered
            _require_letters(self._letters, period)
            if all(x == EPS for x in period):
                raise UsageError("period must contain a non-ε letter")
            element = self._new_period(period)
        return not state.isdisjoint(element.reach)

    def member(self, w: UPWord) -> bool:
        """``accepts(after(w.prefix), w.period)``: the prefix's letters are checked first."""
        return self.accepts(self.after(w.prefix), w.period)

    __call__ = member
