"""Automaton types and exact membership oracles for ultimately-periodic words.

Three automaton flavours live here: ordered Büchi tile automata (downward-
closed initial set, upward-closed tiles), nondeterministic parity automata
with optional ε-transitions, and their deterministic special case.  The
membership oracles decide u·v^ω words exactly and are the ground truth every
construction in this package is checked against; none of them goes through
the determinization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tiles import (
    StateUniverse,
    Tile,
    UsageError,
    ValidationError,
    is_buchi,
    successors,
)

EPS = "eps"

# neutral element for min over priorities; odd so it can never look accepting
_TOP = (1 << 30) | 1


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

    def apply(self, w: UPWord) -> UPWord:
        m = self.as_dict()
        try:
            return UPWord(
                tuple(m[x] for x in w.prefix), tuple(m[x] for x in w.period)
            )
        except KeyError as e:
            raise UsageError(f"letter {e.args[0]!r} not in morphism domain") from None


@dataclass
class OrderedBuchiAutomaton:
    """Tile automaton over an ordered state set.

    Tiles are upward-closed by construction.  Expected invariants (reported
    by :func:`oba_validate`, not enforced at construction): the initial set
    is downward-closed and every tile is over the automaton's universe.
    """

    universe: StateUniverse
    initial: frozenset[int]
    alphabet: dict[str, Tile]

    def tile(self, letter: str) -> Tile:
        try:
            return self.alphabet[letter]
        except KeyError:
            raise UsageError(f"unknown letter {letter!r}") from None

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(self.alphabet))


@dataclass
class ParityAutomaton:
    """Nondeterministic min-parity automaton, possibly with ε-transitions.

    ``records``/``universe`` are carried by determinization results so that
    the record structure of each state stays recoverable.
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
        stateset = set(self.states)
        if not self.initial <= stateset:
            raise ValidationError("initial states must be declared states")
        for (p, a, c, q) in self.transitions:
            if p not in stateset or q not in stateset:
                raise ValidationError(f"transition {(p, a, c, q)} uses undeclared state")
            if not lo <= c <= hi:
                raise ValidationError(
                    f"priority {c} of transition {(p, a, c, q)} outside index [{lo},{hi}]"
                )
        if self.deterministic:
            if len(self.initial) != 1:
                raise ValidationError("deterministic automaton needs exactly one initial state")
            seen: set[tuple[str, str]] = set()
            for (p, a, _, _) in self.transitions:
                if a == EPS:
                    continue
                if (p, a) in seen:
                    raise ValidationError(f"nondeterministic on ({p!r}, {a!r})")
                seen.add((p, a))

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
    issues: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        lines = [f"{i.kind}: {i.message}" for i in self.issues]
        lines += [f"warning ({w.kind}): {w.message}" for w in self.warnings]
        return "\n".join(lines) if lines else "valid"


def oba_validate(a: OrderedBuchiAutomaton) -> ValidationReport:
    """Report every violated ordered-Büchi invariant, with witnesses.

    Unreachable states are warned about only when no invariant is violated.
    """
    report = ValidationReport()
    names = a.universe.states
    for q in sorted(a.initial):
        if not 0 <= q < a.universe.size:
            report.issues.append(ValidationIssue("initial", f"state index {q} out of range"))
    for q in sorted(a.initial & frozenset(range(a.universe.size))):
        for q2 in range(q):
            if q2 not in a.initial:
                report.issues.append(
                    ValidationIssue(
                        "initial-not-downward-closed",
                        f"{names[q]} is initial but {names[q2]} below it is not",
                    )
                )
                break
    for letter in sorted(a.alphabet):
        if a.alphabet[letter].universe != a.universe:
            report.issues.append(
                ValidationIssue("tile-universe", f"tile {letter!r} built over a different universe")
            )
    if not report.valid:  # reachability needs in-range states and same-universe tiles
        return report
    # initial and successor sets are downward-closed: the reachable states are
    # those up to the least r >= max(I) with top[r] <= r in every tile
    reach, prev = max(a.initial, default=-1), None
    while reach >= 0 and reach != prev:
        prev, reach = reach, max([reach] + [tile.top[reach] for tile in a.alphabet.values()])
    for q in range(reach + 1, a.universe.size):
        report.warnings.append(
            ValidationIssue("unreachable-state", f"state {names[q]} is unreachable from the initial set")
        )
    return report


def _scc_partition(nodes, succ) -> dict:
    """Map each node to a strongly-connected-component id (iterative Kosaraju)."""
    order: list = []
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    pred: dict = {}
    for p, qs in succ.items():
        for q in qs:
            pred.setdefault(q, []).append(p)
    comp: dict = {}
    cid = 0
    for node in reversed(order):
        if node in comp:
            continue
        stack = [node]
        comp[node] = cid
        while stack:
            cur = stack.pop()
            for nxt in pred.get(cur, ()):
                if nxt not in comp:
                    comp[nxt] = cid
                    stack.append(nxt)
        cid += 1
    return comp


_MISS = object()


def _walk(memo: dict, word: tuple, start, step):
    """Fold ``step`` over the letters of ``word`` from ``start``, memoized per word.

    The memo holds one entry per queried word and nothing for the words
    walked through on the way.  On a miss the walk resumes from the entry
    for ``word[:-1]`` if there is one (enumerations query every shorter word
    first, so they pay one step per word), and otherwise from ``start``.  A
    query therefore costs O(|word|) memory and no recursion, whatever its
    length.
    """
    cur = memo.get(word, _MISS)
    if cur is not _MISS:
        return cur
    cur = memo.get(word[:-1], _MISS)  # () is no hit here: it missed above
    if cur is _MISS:
        cur, rest = start, word
    else:
        rest = word[-1:]
    for x in rest:
        cur = step(cur, x)
    memo[word] = cur
    return cur


def _post(succ: dict, states: frozenset) -> frozenset:
    """Image of ``states`` under a successor map (state -> frozenset of states)."""
    out: set = set()
    for p in states:
        out.update(succ.get(p, ()))
    return frozenset(out)


def _require_letters(letters: frozenset, w: UPWord) -> None:
    """Raise a usage error naming the first letter of ``w`` outside ``letters``."""
    if letters.issuperset(w.prefix) and letters.issuperset(w.period):
        return
    for x in w.prefix + w.period:
        if x not in letters:
            raise UsageError(f"unknown letter {x!r}")


class ObaOracle:
    """Exact UP-word membership for an ordered Büchi automaton.

    A word u·v^ω is accepted iff some state reachable at a period boundary
    lies, in the period-unrolled graph, in a strongly connected component
    containing a Büchi edge.  Queries are memoized per queried prefix and
    period.  A morphism is folded into the letter table at construction, so
    its letters index the tiles directly.
    """

    def __init__(self, a: OrderedBuchiAutomaton, morphism: Morphism | None = None):
        self.automaton = a
        self.morphism = morphism
        names = morphism.as_dict() if morphism is not None else {x: x for x in a.alphabet}
        # query letter -> tile; a letter mapped to a missing tile is left out
        self._tile = {x: a.alphabet[t] for x, t in names.items() if t in a.alphabet}
        # query letter -> state -> successors: p reaches the states up to top[p]
        self._succ = {
            x: {p: frozenset(range(q + 1)) for p, q in enumerate(tile.top) if q >= 0}
            for x, tile in self._tile.items()
        }
        self._letters = frozenset(self._succ)
        self._prefix_reach: dict[tuple[str, ...], frozenset[int]] = {}
        self._boundary: dict[tuple[frozenset[int], tuple[str, ...]], frozenset[int]] = {}
        self._acc: dict[tuple[str, ...], frozenset[int]] = {}

    def _check_letters(self, w: UPWord) -> None:
        if self.morphism is None:
            _require_letters(self._letters, w)
        elif not (self._letters.issuperset(w.prefix) and self._letters.issuperset(w.period)):
            # name the letter outside the domain, else the missing tile
            _require_letters(frozenset(self.automaton.alphabet), self.morphism.apply(w))

    def _step(self, states: frozenset[int], letter: str) -> frozenset[int]:
        return _post(self._succ[letter], states)

    def _boundary_states(self, start: frozenset[int], period: tuple[str, ...]) -> frozenset[int]:
        """All states seen at period boundaries: union over k of states after v^k."""
        key = (start, period)
        if key in self._boundary:
            return self._boundary[key]
        seen = {start}
        union = set(start)
        cur = start
        while True:
            for letter in period:
                cur = self._step(cur, letter)
            if cur in seen:
                break
            seen.add(cur)
            union |= cur
        result = frozenset(union)
        self._boundary[key] = result
        return result

    def _accepting_boundary_states(self, period: tuple[str, ...]) -> frozenset[int]:
        """States q such that (q, position 0) can cycle through a Büchi edge."""
        if period in self._acc:
            return self._acc[period]
        a = self.automaton
        length = len(period)
        succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
        buchi_edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for i, letter in enumerate(period):
            tile = self._tile[letter]
            j = (i + 1) % length
            for (p, c, q) in tile.transitions:
                node, nxt = (p, i), (q, j)
                succ.setdefault(node, []).append(nxt)
                if c == 0:
                    buchi_edges.append((node, nxt))
        nodes = [(q, i) for q in range(a.universe.size) for i in range(length)]
        comp = _scc_partition(nodes, succ)
        good = {comp[u] for (u, v) in buchi_edges if comp[u] == comp[v]}
        result = frozenset(q for q in range(a.universe.size) if comp[(q, 0)] in good)
        self._acc[period] = result
        return result

    def member(self, w: UPWord) -> bool:
        self._check_letters(w)
        start = _walk(self._prefix_reach, w.prefix, self.automaton.initial, self._step)
        reach = self._boundary_states(start, w.period)
        return bool(reach & self._accepting_boundary_states(w.period))

    __call__ = member


def oba_member_up(a: OrderedBuchiAutomaton, w: UPWord) -> bool:
    """One-shot UP-word membership; build an :class:`ObaOracle` for bulk queries."""
    return ObaOracle(a).member(w)


def omega_power_accepts(a: OrderedBuchiAutomaton, t: Tile) -> bool:
    """t^ω is accepted iff some initial state carries a horizontal Büchi transition."""
    return any(is_buchi(t, q, q) for q in a.initial)


def residual_initial_set(a: OrderedBuchiAutomaton, word) -> frozenset[int]:
    """Initial set of the residual after a finite word: reachable set, downward-closed."""
    s = a.initial
    for letter in word:
        s = successors(a.tile(letter), s)
    return s


class DpaOracle:
    """Direct run simulation for deterministic ε-free parity automata."""

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
        self._after: dict[tuple[str, ...], str | None] = {}
        self._lasso: dict[tuple[str | None, tuple[str, ...]], bool] = {}

    def _step(self, state: str | None, letter: str) -> str | None:
        hit = self._delta.get((state, letter))  # a dead run (None) has no successor
        return hit[1] if hit else None

    def _lasso_accepts(self, state: str | None, period: tuple[str, ...]) -> bool:
        key = (state, period)
        if key in self._lasso:
            return self._lasso[key]
        result = False
        if state is not None:
            seen: dict[str, int] = {state: 0}
            mins: list[int] = []
            cur = state
            while True:
                lap_min = None
                dead = False
                for letter in period:
                    hit = self._delta.get((cur, letter))
                    if hit is None:
                        dead = True
                        break
                    c, cur = hit
                    lap_min = c if lap_min is None else min(lap_min, c)
                if dead:
                    result = False
                    break
                mins.append(lap_min)
                if cur in seen:
                    cycle_min = min(mins[seen[cur]:])
                    result = cycle_min % 2 == 0
                    break
                seen[cur] = len(mins)
        self._lasso[key] = result
        return result

    def member(self, w: UPWord) -> bool:
        _require_letters(self._letters, w)
        return self._lasso_accepts(_walk(self._after, w.prefix, self._initial, self._step), w.period)

    __call__ = member


def dpa_member_up(d: ParityAutomaton, w: UPWord) -> bool:
    return DpaOracle(d).member(w)


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


def _support(a: _Matrix) -> dict[str, frozenset[str]]:
    """Successor sets of a matrix: the entries that hold some value."""
    return {p: frozenset(q for q, vals in row.items() if vals) for p, row in a.items()}


class NpaOracle:
    """Exact UP-word membership for parity automata with ε-transitions.

    The language is the one over the ε-free alphabet: runs may take finitely
    many ε-transitions between letters.  Explicit ε letters in a query are
    allowed and consume at least one ε-transition each (the intertwined-word
    reading); the period must contain at least one real letter.

    The prefix only decides where the period starts, so it is walked as a
    state set through the support of each ε-closed letter.  Period matrix
    entries collect every least-priority value achievable between two
    states, so iterating powers of the period matrix until they repeat covers
    every lasso shape.
    """

    def __init__(self, a: ParityAutomaton):
        self.automaton = a
        self._rel: dict[str, _Matrix] = {}
        for (p, x, c, q) in a.transitions:
            row = self._rel.setdefault(x, {}).setdefault(p, {})
            row[q] = row.get(q, frozenset()) | {c}
        self._letters = a.effective_alphabet | {EPS} | set(self._rel)
        self._unit: _Matrix = {p: {p: frozenset({_TOP})} for p in a.states}
        self._eclosure = self._compute_eclosure()
        self._letter_mat: dict[str, _Matrix] = {}
        self._letter_supp: dict[str, dict[str, frozenset[str]]] = {}
        self._prefix_reach: dict[tuple[str, ...], frozenset[str]] = {}
        self._word_mat: dict[tuple[str, ...], _Matrix] = {}
        self._acc: dict[tuple[str, ...], frozenset[str]] = {}
        self._boundary: dict[tuple[frozenset[str], tuple[str, ...]], frozenset[str]] = {}

    def _compute_eclosure(self) -> _Matrix:
        eps = self._rel.get(EPS, {})
        e = self._unit
        while True:
            step = _mat_union(e, _mat_mul(e, eps))
            if _mat_key(step) == _mat_key(e):
                return e
            e = step

    def _letter(self, x: str) -> _Matrix:
        if x not in self._letter_mat:
            rel = self._rel.get(x, {})
            self._letter_mat[x] = _mat_mul(_mat_mul(self._eclosure, rel), self._eclosure)
        return self._letter_mat[x]

    def _step(self, states: frozenset[str], x: str) -> frozenset[str]:
        """States after the ε-closed letter ``x``: the prefix walk needs no priorities."""
        if x not in self._letter_supp:
            self._letter_supp[x] = _support(self._letter(x))
        return _post(self._letter_supp[x], states)

    def _word(self, period: tuple[str, ...]) -> _Matrix:
        """Value-set matrix of a period; acceptance needs its least priorities."""
        return _walk(self._word_mat, period, self._unit, lambda m, x: _mat_mul(m, self._letter(x)))

    def _check(self, w: UPWord) -> None:
        _require_letters(self._letters, w)
        if all(x == EPS for x in w.period):
            raise UsageError("period must contain a non-ε letter")

    def _accepting_states(self, period: tuple[str, ...]) -> frozenset[str]:
        """States with an even-value self-cycle over some power of the period."""
        if period in self._acc:
            return self._acc[period]
        v = self._word(period)
        power = v
        seen = set()
        acc: set[str] = set()
        while _mat_key(power) not in seen:
            seen.add(_mat_key(power))
            for q, row in power.items():
                if any(val != _TOP and val % 2 == 0 for val in row.get(q, ())):
                    acc.add(q)
            power = _mat_mul(power, v)
        result = frozenset(acc)
        self._acc[period] = result
        return result

    def _boundary_states(self, start: frozenset[str], period: tuple[str, ...]) -> frozenset[str]:
        key = (start, period)
        if key in self._boundary:
            return self._boundary[key]
        supp = _support(self._word(period))
        seen = {start}
        union = set(start)
        cur = start
        while True:
            cur = _post(supp, cur)
            if cur in seen:
                break
            seen.add(cur)
            union |= cur
        result = frozenset(union)
        self._boundary[key] = result
        return result

    def member(self, w: UPWord) -> bool:
        self._check(w)
        start = _walk(self._prefix_reach, w.prefix, self.automaton.initial, self._step)
        reach = self._boundary_states(start, w.period)
        return bool(reach & self._accepting_states(w.period))

    __call__ = member


def npa_member_up(a: ParityAutomaton, w: UPWord) -> bool:
    """One-shot UP-word membership; build an :class:`NpaOracle` for bulk queries."""
    return NpaOracle(a).member(w)
