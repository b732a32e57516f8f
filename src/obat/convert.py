"""Constructions into ordered Büchi automata.

Three routes in: Rabin pair specifications (one self-loop state per pair plus
a waiting state), ε-complete parity automata (through the tree of odd-priority
equivalence classes), and the horizontal-complete alphabets used by the
optimality experiment.  Every conversion returns the automaton together with
the morphism renaming external letters into tile letters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import EPS, Morphism, OrderedBuchiAutomaton, ParityAutomaton, UPWord
from .tiles import (
    StateUniverse,
    Tile,
    Transition,
    UsageError,
    ValidationError,
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
    axiom: str
    priority: int
    witness: tuple

    def __str__(self) -> str:
        return f"{self.axiom} fails at priority {self.priority}, witness {self.witness}"


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


def _eps_relations(a: ParityAutomaton) -> dict[int, set[tuple[str, str]]]:
    rel: dict[int, set[tuple[str, str]]] = {}
    for (p, x, c, q) in a.transitions:
        if x == EPS:
            rel.setdefault(c, set()).add((p, q))
    return rel


def check_eps_complete(a: ParityAutomaton) -> EpsReport:
    """Verify the ε-completeness axioms, reporting one witness per axiom.

    Odd ε-relations must be total preorders, each refined by the next; each
    even relation must be the strict variant of the odd one above it.  The
    index's upper bound must be odd; a lower bound of -1 (as produced by the
    determinization) is tolerated.
    """
    lo, hi = a.index
    if hi % 2 == 0 or hi < 1:
        raise UsageError(f"ε-completeness needs an odd index upper bound, got [{lo},{hi}]")
    if lo > 0:
        raise UsageError(f"ε-completeness needs the index to start at 0, got [{lo},{hi}]")
    rel = _eps_relations(a)
    states = a.states
    violations: list[EpsViolation] = []

    for c in range(1, hi + 1, 2):
        r = rel.get(c, set())
        for q in states:
            if (q, q) not in r:
                violations.append(EpsViolation("reflexivity", c, (q,)))
                break
        done = False
        for p in states:
            for q in states:
                for s in states:
                    if (p, q) in r and (q, s) in r and (p, s) not in r:
                        violations.append(EpsViolation("transitivity", c, (p, q, s)))
                        done = True
                        break
                if done:
                    break
            if done:
                break
        for (p, q) in _first_pairs(states):
            if (p, q) not in r and (q, p) not in r:
                violations.append(EpsViolation("totality", c, (p, q)))
                break
    for c in range(1, hi - 1, 2):
        fine, coarse = rel.get(c + 2, set()), rel.get(c, set())
        for pair in sorted(fine - coarse):
            violations.append(EpsViolation("refinement", c + 2, pair))
            break
    for c in range(0, hi, 2):
        strict, odd = rel.get(c, set()), rel.get(c + 1, set())
        done = False
        for p in states:
            for q in states:
                if ((p, q) in strict) != ((q, p) not in odd):
                    violations.append(EpsViolation("strict-variant", c, (p, q)))
                    done = True
                    break
            if done:
                break
    return EpsReport(violations)


def _first_pairs(states):
    for i, p in enumerate(states):
        for q in states[i + 1 :]:
            yield (p, q)


# --- ε-tree and the parity-to-ordered-Büchi translation ---------------------


@dataclass(frozen=True)
class EpsNode:
    """One odd-priority equivalence class: depth d holds the (2d-1)-classes."""

    depth: int
    members: frozenset[str]

    def label(self, state_order: dict[str, int]) -> str:
        inner = ",".join(sorted(self.members, key=state_order.get))
        return f"{{{inner}}}_{self.depth}"


@dataclass
class EpsTree:
    """Tree of odd classes; ``nodes_desc`` is the node order, greatest first.

    The descending order is the depth-first traversal that visits a node
    before its children and higher siblings before lower ones.
    """

    nodes_desc: tuple[EpsNode, ...]
    children: dict[EpsNode, tuple[EpsNode, ...]]
    parent: dict[EpsNode, EpsNode | None]

    @property
    def depth(self) -> int:
        return max((n.depth for n in self.nodes_desc), default=0)


def _classes_desc(states, rel: set[tuple[str, str]]) -> list[frozenset[str]]:
    """Equivalence classes of a total preorder, greatest class first."""
    classes: list[set[str]] = []
    for q in states:
        for cls in classes:
            rep = next(iter(cls))
            if (q, rep) in rel and (rep, q) in rel:
                cls.add(q)
                break
        else:
            classes.append({q})
    def above(c1, c2):
        return (next(iter(c1)), next(iter(c2))) in rel
    ordered: list[set[str]] = []
    for cls in classes:
        at = 0
        while at < len(ordered) and above(ordered[at], cls):
            at += 1
        ordered.insert(at, cls)
    return [frozenset(c) for c in ordered]


def build_eps_tree(a: ParityAutomaton) -> EpsTree:
    """Stratify an ε-complete automaton into its tree of odd classes."""
    report = check_eps_complete(a)
    if not report.ok:
        raise UsageError(f"automaton is not ε-complete: {report.violations[0]}")
    rel = _eps_relations(a)
    _, hi = a.index
    levels = (hi + 1) // 2
    per_level = {
        d: _classes_desc(a.states, rel.get(2 * d - 1, set())) for d in range(1, levels + 1)
    }
    children: dict[EpsNode, tuple[EpsNode, ...]] = {}
    parent: dict[EpsNode, EpsNode | None] = {}
    nodes_desc: list[EpsNode] = []

    def visit(node: EpsNode) -> None:
        nodes_desc.append(node)
        if node.depth == levels:
            children[node] = ()
            return
        kids = tuple(
            EpsNode(node.depth + 1, cls)
            for cls in per_level[node.depth + 1]
            if cls <= node.members
        )
        children[node] = kids
        for kid in kids:
            parent[kid] = node
            visit(kid)

    for cls in per_level.get(1, []):
        root = EpsNode(1, cls)
        parent[root] = None
        visit(root)
    return EpsTree(tuple(nodes_desc), children, parent)


def pref_leq(c: int, x: int) -> bool:
    """Preference order on priorities: every even beats every odd, low evens
    and high odds first."""
    if c % 2 == 0:
        return c <= x if x % 2 == 0 else True
    return False if x % 2 == 0 else c >= x


def parity_to_oba(a: ParityAutomaton) -> tuple[OrderedBuchiAutomaton, Morphism]:
    """Translate an ε-complete parity automaton into an ordered Büchi automaton.

    States are the ε-tree nodes under the traversal order.  A letter connects
    two depth-d nodes with priority 1 when some underlying transition between
    their members carries a priority preferred to 2d-1, and with a Büchi
    transition when it is preferred to 2d-2.  The ε letter maps to the unit
    tile and the morphism covers it alongside the real alphabet.
    """
    tree = build_eps_tree(a)
    rel_top = _eps_relations(a).get(a.index[1], set())
    for q in a.initial:
        for q2 in a.states:
            if (q, q2) in rel_top and q2 not in a.initial:
                raise UsageError(
                    f"initial set not downward-closed for the finest ε-preorder: "
                    f"{q!r} is initial, {q2!r} below it is not"
                )
    state_order = {q: i for i, q in enumerate(a.states)}
    nodes_desc = tree.nodes_desc
    names_desc = [n.label(state_order) for n in nodes_desc]
    universe = StateUniverse(tuple(reversed(names_desc)))
    idx = {node: universe.index(name) for node, name in zip(nodes_desc, names_desc)}

    top_initial = None
    for node in nodes_desc:  # greatest first
        if node.depth == 1 and node.members & a.initial:
            top_initial = node
            break
    initial = (
        frozenset(range(idx[top_initial] + 1)) if top_initial is not None else frozenset()
    )

    by_letter: dict[str, dict[tuple[str, str], list[int]]] = {}
    for (p, x, c, q) in a.transitions:
        by_letter.setdefault(x, {}).setdefault((p, q), []).append(c)

    same_depth = {}
    for d in range(1, tree.depth + 1):
        same_depth[d] = [n for n in nodes_desc if n.depth == d]

    def tile_for(x: str) -> Tile:
        gen: set[tuple[int, int, int]] = set()
        pairs = by_letter.get(x, {})
        for d, nodes in same_depth.items():
            for n1 in nodes:
                for n2 in nodes:
                    cs = [
                        c
                        for (p, q), clist in pairs.items()
                        if p in n1.members and q in n2.members
                        for c in clist
                    ]
                    if any(pref_leq(c, 2 * d - 1) for c in cs):
                        gen.add((idx[n1], 1, idx[n2]))
                    if any(pref_leq(c, 2 * d - 2) for c in cs):
                        gen.add((idx[n1], 0, idx[n2]))
        return upward_closure(universe, gen)

    letters = sorted(a.effective_alphabet) + [EPS]
    tiles = {x: tile_for(x) for x in letters}
    alphabet, morphism = _name_tiles(tiles)
    return (
        OrderedBuchiAutomaton(universe=universe, initial=initial, alphabet=alphabet),
        morphism,
    )


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
    self-loop priority, minimum state first.
    """
    n = universe.size
    if n > 6:
        raise UsageError(
            f"horizontal-complete alphabet over {n} states would have {3 ** n} letters"
        )
    out: dict[str, Tile] = {}
    seen: dict[Tile, str] = {}
    def assignments(k):
        if k == 0:
            yield ()
            return
        for rest in assignments(k - 1):
            for v in "-10":
                yield rest + (v,)
    for assign in assignments(n):
        gen = {(q, int(v), q) for q, v in enumerate(assign) if v != "-"}
        tile = upward_closure(universe, gen)
        name = "".join(assign)
        if tile not in seen:
            seen[tile] = name
            out[name] = tile
    return out
