"""Automaton types and exact membership oracles for ultimately-periodic words.

Three automaton flavours live here: ordered Büchi tile automata (downward-
closed initial set, upward-closed tiles), nondeterministic parity automata
with optional ε-transitions, and their deterministic special case.  The
membership oracles decide u·v^ω words exactly and are the ground truth every
construction in this package is checked against; none of them goes through
the determinization.

An oracle folds each query's prefix from its start state with no memo, so a
long-lived oracle holds nothing per distinct prefix; the caches that grow
with queries are keyed by period.  ``DpaOracle`` and ``NpaOracle`` share one
period → element map (``_PeriodElements``): a period's element is its
profile (per state, the least priority read and the end state) or its
value-set matrix, interned per distinct value with the states it accepts
from, and a period steps from its one-letter-shorter period's element
through a table keyed by (element, letter) when that period has an entry,
or else is multiplied out.  ``ObaOracle`` steps a period's tile the
same way, and answers any other period from a table per class of periods
under rotation and power.  None forms a period's powers: ``ObaOracle``
reads the single-tile ω-power criterion off the period's tile,
``DpaOracle`` follows each state's cycle in the profile's functional graph,
and ``NpaOracle`` finds the states on a closed walk with an even least value
c by reachability over the cells of the period's matrix that hold a value
of at least c, one c at a time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType

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


@dataclass(frozen=True)
class OrderedBuchiAutomaton:
    """Tile automaton over an ordered state set; a frozen value.

    Tiles are upward-closed by construction.  Construction also checks the
    other invariants, in this order, and raises a :class:`ValidationError`
    for the first one violated: every tile letter name is a string
    (``tile letter names must be strings``) other than ``eps`` (``tile
    letter name 'eps' is reserved``); then, as ``"<kind>: <witness>"``,
    every initial state is in range (``initial``), the initial set is
    downward-closed (``initial-not-downward-closed``) and every tile is over
    the automaton's universe (``tile-universe``).  ``alphabet`` is held as a
    read-only copy, so a changed automaton is made with
    ``dataclasses.replace``, which checks it again.
    """

    universe: StateUniverse
    initial: frozenset[int]
    alphabet: Mapping[str, Tile] = field(hash=False)

    def __post_init__(self) -> None:
        u, initial, alphabet = self.universe, self.initial, self.alphabet
        if not all(map(isinstance, alphabet, repeat(str))):
            raise ValidationError("tile letter names must be strings")
        if EPS in alphabet:
            raise ValidationError(f"tile letter name {EPS!r} is reserved")
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
        stray = sorted(x for x, t in alphabet.items() if t.universe is not u and t.universe != u)
        if stray:
            raise ValidationError(f"tile-universe: tile {stray[0]!r} built over a different universe")
        object.__setattr__(self, "alphabet", MappingProxyType(dict(alphabet)))

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(self.alphabet))


@dataclass(frozen=True)
class ParityAutomaton:
    """Nondeterministic min-parity automaton, possibly with ε-transitions; a frozen value.

    ``records``/``universe`` are carried by determinization results so that
    the record structure of each state stays recoverable; ``records`` is
    held as a read-only copy.  Construction raises a
    :class:`ValidationError` for the first fault: a declared ``alphabet``
    letter that is not a string or is ``eps``, an index bound that is not an
    int, the index, the states, the initial set, a transition letter that is
    not a string, a priority that is not an int, an endpoint that is not a
    string, each transition's states and priority, the determinism of a
    deterministic automaton, a non-ε transition letter outside a declared
    ``alphabet``, then ``records`` without ``universe`` or the reverse,
    records that are not exactly one per state, and a record entry outside
    the universe.  One pass over the transitions decides; the type and
    order tests that name the fault run only when that pass fails.
    """

    states: tuple[str, ...]
    initial: frozenset[str]
    index: tuple[int, int]
    transitions: frozenset[tuple[str, str, int, str]]
    deterministic: bool = False
    alphabet: frozenset[str] | None = None
    records: Mapping[str, tuple[int, ...]] | None = field(default=None, hash=False)
    universe: StateUniverse | None = None

    def __post_init__(self) -> None:
        alphabet = self.alphabet
        if alphabet is not None:
            if not all(map(isinstance, alphabet, repeat(str))):
                raise ValidationError("alphabet letters must be strings")
            if EPS in alphabet:
                raise ValidationError(f"alphabet letter {EPS!r} is reserved for ε-transitions")
        lo, hi = self.index
        if type(lo) is not int or type(hi) is not int:  # true and 0.0 are not ints
            raise ValidationError("index bounds must be ints")
        if lo > hi:
            raise ValidationError(f"empty priority index [{lo},{hi}]")
        if not all(map(isinstance, self.states, repeat(str))):
            raise ValidationError("state identifiers must be strings")
        stateset = set(self.states)
        if len(stateset) != len(self.states):
            raise ValidationError("state identifiers must be pairwise distinct")
        if not self.initial <= stateset:
            raise ValidationError("initial states must be declared states")
        letters = set(map(itemgetter(1), self.transitions))
        if not all(map(isinstance, letters, repeat(str))):
            raise ValidationError("transition letters must be strings")
        # one pass decides; it unpacks every row, so a row that is not a 4-tuple raises here
        for (p, a, c, q) in self.transitions:
            if p not in stateset or q not in stateset or type(c) is not int or not lo <= c <= hi:
                # the first fault by kind, then the least offender, whatever the hash seed
                if not {*map(type, map(itemgetter(2), self.transitions))} <= {int}:  # true and 0.0 are not ints
                    raise ValidationError("transition priorities must be ints")
                if not all(isinstance(p, str) and isinstance(q, str) for (p, _, _, q) in self.transitions):
                    raise ValidationError("transition endpoints must be strings")
                for (p, a, c, q) in sorted(self.transitions):
                    if p not in stateset or q not in stateset:
                        raise ValidationError(f"transition {(p, a, c, q)} uses undeclared state")
                    if not lo <= c <= hi:
                        raise ValidationError(
                            f"priority {c} of transition {(p, a, c, q)} outside index [{lo},{hi}]"
                        )
        if self.deterministic:
            if len(self.initial) != 1:
                raise ValidationError("deterministic automaton needs exactly one initial state")
            pairs = [(p, a) for (p, a, _, _) in self.transitions if a != EPS]
            if len(set(pairs)) != len(pairs):  # name the least repeated pair, whatever the hash seed
                pairs.sort()
                p, a = next(x for x, y in zip(pairs, pairs[1:]) if x == y)
                raise ValidationError(f"nondeterministic on ({p!r}, {a!r})")
        if alphabet is not None and not letters - {EPS} <= alphabet:
            t = min(t for t in self.transitions if t[1] not in alphabet and t[1] != EPS)
            raise ValidationError(f"transition {t} uses undeclared letter")
        records, universe = self.records, self.universe
        if (records is None) != (universe is None):
            raise ValidationError("records and universe must be given together")
        if records is not None:
            if records.keys() != stateset:
                for name in records:
                    if name not in stateset:
                        raise ValidationError(f"record {name!r} is not a declared state")
                for name in self.states:
                    if name not in records:
                        raise ValidationError(f"records omit state {name!r}")
            for name in self.states:
                for q in records[name]:
                    if type(q) is not int or not 0 <= q < universe.size:
                        raise ValidationError(f"record {name!r} entry {q!r} is not a state of the universe")
            object.__setattr__(self, "records", MappingProxyType(dict(records)))

    @property
    def effective_alphabet(self) -> frozenset[str]:
        if self.alphabet is not None:
            return self.alphabet
        return frozenset(a for (_, a, _, _) in self.transitions if a != EPS)


def oba_validate(a: OrderedBuchiAutomaton) -> tuple[str, ...]:
    """The names of the states unreachable from the initial set, in the state order.

    The ordered-Büchi invariants hold by construction, so this is all that
    is left to report.  It needs one walk from max(I) under the letters'
    top-successor maps, so it is made only here.
    """
    # initial and successor sets are downward-closed: every state up to the
    # greatest one reached from max(I) is reachable
    return a.universe.states[max(_walk_from_initial(a)[0], default=-1) + 1 :]


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

    Two routes reach t_v.  ``_period`` maps each asked period to its answer
    and, when it was stepped, its tile.  A one-letter period takes its
    letter's tile, and a longer one whose ``period[:-1]`` has an entry with
    a tile costs one product with its last letter's tile, as a step of
    :class:`NpaOracle` does.  So an enumeration that asks periods shortest
    first, as ``equiv_up`` and ``check_local_preference`` do, steps every
    period.  Any other period takes the class route, ``_acc``, which holds
    the answer per conjugacy class of periods; it is entered with no tile,
    so a repeat is answered at once and no period steps from it.  The key
    is the least rotation of the period's primitive root, and its value has
    one entry per position j of the key: the least q for the tile of the
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
        self.alphabet = self._letters - {EPS}  # the query letters
        self._period: dict[tuple[str, ...], tuple[Tile | None, int]] = {}
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
            shorter = self._period.get(period[:-1], (None,))[0]  # only an entry with a tile steps
            tile = None if shorter is None else product(shorter, tile)
        if tile is None:
            least = self._class_least_accepting(period)
        else:
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


# --- period elements, shared by DpaOracle and NpaOracle ----------------------


class _Element:
    """A period element: its value, interned per oracle, and the states from which the
    period's ω-power is accepted."""

    __slots__ = ("value", "accepting")

    def __init__(self, value, accepting: frozenset):
        self.value = value
        self.accepting = accepting


class _PeriodElements:
    """The period → element tables of :class:`DpaOracle` and :class:`NpaOracle`.

    A subclass gives each letter's value (``_letter``), the value of a word
    from those of two halves (``_mul``), a hashable key that is equal for
    equal values (``_key``) and the states from which a value's period is
    accepted (``_accepting``).  ``_period`` maps each queried period to its
    element, ``_element`` interns one element per distinct value, and
    ``_step`` maps (element, letter) to the element of their product.  So a
    period one letter longer than one with an entry costs at most one
    product, and none when another period with the same element met that
    letter first; a period with no shorter entry is multiplied out from its
    first letter and adds no step.
    """

    def __init__(self):
        self._period: dict[tuple[str, ...], _Element] = {}
        self._element: dict = {}  # key of a value -> its element
        self._step: dict[tuple[_Element, str], _Element] = {}

    def _intern(self, value) -> _Element:
        """The element of ``value``, made on the value's first appearance."""
        key = self._key(value)
        element = self._element.get(key)
        if element is None:
            element = self._element[key] = _Element(value, self._accepting(value))
        return element

    def _new_period(self, period: tuple[str, ...]) -> _Element:
        """The element of a period without an entry, entered in ``_period``."""
        shorter = self._period.get(period[:-1])
        if shorter is None:
            value = self._letter(period[0])
            for x in period[1:]:
                value = self._mul(value, self._letter(x))
            element = self._intern(value)
        else:
            step = (shorter, period[-1])
            element = self._step.get(step)
            if element is None:
                element = self._step[step] = self._intern(self._mul(shorter.value, self._letter(period[-1])))
        self._period[period] = element
        return element


# a profile: per state index, the sink's last, (least priority read, end state index)
_Profile = tuple[tuple[int, int], ...]


def _profile_mul(a: _Profile, b: _Profile) -> _Profile:
    """The profile of a word read as ``a``'s word, then ``b``'s."""
    out = []
    for c, q in a:
        hit = b[q]
        out.append(hit if hit[0] <= c else (c, hit[1]))
    return tuple(out)


def _profile_accepting(profile: _Profile, states: tuple[str, ...]) -> frozenset[str]:
    """The states whose run on the profile's period, repeated, is accepting.

    Lap after lap, a run follows the profile's functional graph from each
    state to its end state until it closes a cycle, and it is accepting iff
    the least priority on that cycle is even.  Each state is walked once: a
    walk stops at a state already decided and passes its verdict back along
    its path.
    """
    known: list = [None] * len(profile)
    walked = [-1] * len(profile)  # the start of the walk that last passed each state
    for start in range(len(profile)):
        path: list[int] = []
        i = start
        while known[i] is None and walked[i] != start:
            walked[i] = start
            path.append(i)
            i = profile[i][1]
        verdict = known[i]
        if verdict is None:  # i closes a cycle on this path
            verdict = min(profile[j][0] for j in path[path.index(i):]) % 2 == 0
        for j in path:
            known[j] = verdict
    return frozenset(p for p, ok in zip(states, known) if ok)


class DpaOracle(_PeriodElements):
    """Exact UP-word membership for deterministic ε-free parity automata.

    ``after(u)`` is the run state after u, None once the run has died.  A
    period's element is its *profile*: per state, the state where the run
    from it ends after the period and the least priority read on the way.
    A run dies in a sink, an extra last state that loops with an odd
    priority below every other, so every dead run has the same entry and
    none is accepting.  The run on period^ω follows the profile from lap to
    lap, so the profile decides every state at once
    (:func:`_profile_accepting`), and ``accepts(s, v)`` is whether s is
    among v's accepting states; a dead run, None, never is.  Profiles reach
    periods through the tables of :class:`_PeriodElements`, one letter at a
    time, and are interned per distinct profile.
    """

    def __init__(self, d: ParityAutomaton):
        if not d.deterministic:
            raise UsageError("DpaOracle needs a deterministic automaton")
        super().__init__()
        self.automaton = d
        self.alphabet = d.effective_alphabet  # the query letters
        sink = len(d.states)
        dead = ((d.index[0] - 2) | 1, sink)  # odd, and below every priority
        index = {p: i for i, p in enumerate(d.states)}
        rows = {x: [dead] * (sink + 1) for x in self.alphabet}
        for (p, a, c, q) in d.transitions:
            if a == EPS:
                raise UsageError("DpaOracle does not handle ε-transitions")
            rows[a][index[p]] = (c, index[q])
        self._profile = {x: tuple(row) for x, row in rows.items()}  # letter -> its profile
        (initial,) = d.initial
        self._initial = index[initial]

    def _letter(self, x: str) -> _Profile:
        return self._profile[x]

    _mul = staticmethod(_profile_mul)

    @staticmethod
    def _key(profile: _Profile) -> _Profile:
        return profile  # a tuple of pairs of ints: hashable as it is

    def _accepting(self, profile: _Profile) -> frozenset[str]:
        return _profile_accepting(profile, self.automaton.states)

    def after(self, prefix: tuple[str, ...]) -> str | None:
        """The run state after ``prefix``; None once the run has died."""
        _require_letters(self.alphabet, prefix)
        i = self._initial
        for letter in prefix:
            i = self._profile[letter][i][1]
        states = self.automaton.states
        return states[i] if i < len(states) else None  # the sink: the run has died

    def accepts(self, state: str | None, period: tuple[str, ...]) -> bool:
        """Whether the run from ``state`` on period^ω is accepting."""
        element = self._period.get(period)
        if element is None:  # a period with an entry passed both checks when it was entered
            _require_letters(self.alphabet, period)
            if not period:
                raise UsageError("period must be nonempty")
            element = self._new_period(period)
        return state in element.accepting

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


def _bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: list[int]) -> list[int]:
    """Row i of the result holds the states whose rows contain i."""
    cols = [0] * len(rows)
    for i, mask in enumerate(rows):
        for j in _bits(mask):
            cols[j] |= 1 << i
    return cols


def _closure(rows: list[int]) -> list[int]:
    """``rows`` closed under transitivity in place, by Warshall's pass: row i then holds
    the states reached from i over one or more edges."""
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


def _element_reach(v: _Matrix, states: tuple[str, ...]) -> frozenset[str]:
    """The states from which the graph of ``v`` reaches an accepting state, these included.

    A state q is accepting when some closed walk through q over whole
    periods has an even least value, that is, for some even value c held by
    a cell (x, y), y reaches q and q reaches x through cells that hold a
    value of at least c: together with (x, y) read at c, those cells close a
    walk whose least value is exactly c.  That cell is itself an edge of
    the graph at c, so walks of one or more edges suffice throughout, and
    one transitive closure per even value decides every state at once.
    """
    index = {p: i for i, p in enumerate(states)}
    cells = [(index[p], index[q], vals, max(vals)) for p, row in v.items() for q, vals in row.items()]
    accepting = 0
    for c in {c for _, _, vals, _ in cells for c in vals if c % 2 == 0}:
        rows = [0] * len(states)
        for x, y, _, top in cells:
            if top >= c:
                rows[x] |= 1 << y
        reach = _closure(rows)
        back = _transpose(reach)
        for x, y, vals, _ in cells:
            if c in vals:
                accepting |= reach[y] & back[x]
    if not accepting:
        return frozenset()
    rows = [0] * len(states)
    for x, y, _, _ in cells:
        rows[x] |= 1 << y
    return frozenset(p for p, row in zip(states, _closure(rows)) if row & accepting)


class NpaOracle(_PeriodElements):
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
    least-priority value achievable between two states.

    A queried period maps to its *element* through the tables of
    :class:`_PeriodElements`: the ε-closed matrix, interned per distinct
    matrix (keyed by :func:`_mat_key`), and its accepting set, the states
    from which the matrix's graph reaches an accepting state.  The states
    reachable from a start set S over whole periods are exactly those of
    that graph reachable from S, so ``accepts(S, v)`` is whether S meets
    v's accepting set.  A state is accepting when a closed walk through it
    over whole periods has an even least value c; such a walk reads one cell
    at c and every other cell at a value of at least c, so
    :func:`_element_reach` finds the accepting states by one reachability
    closure per even value of the matrix, on bitmask rows, and never forms
    the matrix's powers.  Matrix products are the costly part, and the step
    table saves them.  ``_letter_mat`` holds one ε-closed matrix per letter.
    """

    def __init__(self, a: ParityAutomaton):
        super().__init__()
        self.automaton = a
        self._rel: dict[str, _Matrix] = {}
        for (p, x, c, q) in a.transitions:
            row = self._rel.setdefault(x, {}).setdefault(p, {})
            row[q] = row.get(q, frozenset()) | {c}
        self.alphabet = a.effective_alphabet  # the query letters, besides ε
        self._letters = self.alphabet | {EPS}
        # the unit of min: odd, so it never looks accepting, and above every priority of the index
        self._unit: _Matrix = {p: {p: frozenset({(a.index[1] + 1) | 1})} for p in a.states}
        self._eclosure = self._compute_eclosure()
        # per letter, built on first use and bounded by the alphabet
        self._letter_mat: dict[str, _Matrix] = {}

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

    _mul = staticmethod(_mat_mul)
    _key = staticmethod(_mat_key)

    def _accepting(self, v: _Matrix) -> frozenset[str]:
        return _element_reach(v, self.automaton.states)

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
        return not state.isdisjoint(element.accepting)

    def member(self, w: UPWord) -> bool:
        """``accepts(after(w.prefix), w.period)``: the prefix's letters are checked first."""
        return self.accepts(self.after(w.prefix), w.period)

    __call__ = member
