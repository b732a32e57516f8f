"""Differential test of the ε side of ``obat.convert`` against set-based references.

The references below keep the earlier, relation-as-pair-set code: an
O(|S|³) axiom scan, equivalence classes by insertion sort, a recursive
tree walk and a node-pair × transition scan per tile.  The library reads all
of this off one down-set bitmask table per ε-priority instead, and its states
off each state's ranks at the odd levels; both must give the same violation
lists (witnesses included) and the same translated documents, on the ε
corpus, seeded random ε-complete automata, the ε-completed determinizations
and edge mutants of all of them.  The library also maps ε to the unit tile
without reading the ε-edges; the tile its pass over them used to build is
kept here and must be that unit tile on every ε-complete input.
"""

import random
from dataclasses import dataclass

import pytest

from obat import (
    EPS,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    StateUniverse,
    UsageError,
    horizontal_complete_alphabet,
    unit_tile,
    upward_closure,
)
from obat.cli import oba_to_doc
from obat.convert import (
    EpsReport,
    EpsViolation,
    _name_tiles,
    _odd_ranks,
    check_eps_complete,
    parity_to_oba,
)
from obat.determinize import apply_eps_completion, determinize

from zoo import determinization_corpus, eps_complete_corpus, make_eps_complete

AXIOMS = {"reflexivity", "transitivity", "totality", "refinement", "strict-variant"}


# --- set-based references ------------------------------------------------------


def pref_leq(c: int, x: int) -> bool:
    """Preference order on priorities: every even beats every odd, low evens
    and high odds first."""
    if c % 2 == 0:
        return c <= x if x % 2 == 0 else True
    return False if x % 2 == 0 else c >= x


def ref_relations(a):
    rel = {}
    for (p, x, c, q) in a.transitions:
        if x == EPS:
            rel.setdefault(c, set()).add((p, q))
    return rel


def ref_check_eps_complete(a):
    lo, hi = a.index
    if hi % 2 == 0 or hi < 1:
        raise UsageError(f"ε-completeness needs an odd index upper bound, got [{lo},{hi}]")
    if lo > 0:
        raise UsageError(f"ε-completeness needs the index to start at 0, got [{lo},{hi}]")
    rel, states, violations = ref_relations(a), a.states, []
    for c in range(1, hi + 1, 2):
        r = rel.get(c, set())
        refl = next(((q,) for q in states if (q, q) not in r), None)
        trans = next(
            (
                (p, q, s)
                for p in states
                for q in states
                for s in states
                if (p, q) in r and (q, s) in r and (p, s) not in r
            ),
            None,
        )
        total = next(
            (
                (p, q)
                for i, p in enumerate(states)
                for q in states[i + 1 :]
                if (p, q) not in r and (q, p) not in r
            ),
            None,
        )
        for axiom, witness in (("reflexivity", refl), ("transitivity", trans), ("totality", total)):
            if witness is not None:
                violations.append(EpsViolation(axiom, c, witness))
    for c in range(1, hi - 1, 2):
        extra = sorted(rel.get(c + 2, set()) - rel.get(c, set()))
        if extra:
            violations.append(EpsViolation("refinement", c + 2, extra[0]))
    for c in range(0, hi, 2):
        strict, odd = rel.get(c, set()), rel.get(c + 1, set())
        witness = next(
            ((p, q) for p in states for q in states if ((p, q) in strict) != ((q, p) not in odd)),
            None,
        )
        if witness is not None:
            violations.append(EpsViolation("strict-variant", c, witness))
    return EpsReport(violations)


def ref_classes_desc(states, rel):
    """Equivalence classes of a total preorder, greatest class first."""
    classes = []
    for q in states:
        for cls in classes:
            rep = next(iter(cls))
            if (q, rep) in rel and (rep, q) in rel:
                cls.add(q)
                break
        else:
            classes.append({q})
    ordered = []
    for cls in classes:
        at = 0
        while at < len(ordered) and (next(iter(ordered[at])), next(iter(cls))) in rel:
            at += 1
        ordered.insert(at, cls)
    return [frozenset(c) for c in ordered]


@dataclass(frozen=True)
class RefNode:
    """One odd-priority equivalence class: depth d holds the (2d-1)-classes."""

    depth: int
    members: frozenset[str]

    def label(self, state_order: dict[str, int]) -> str:
        inner = ",".join(sorted(self.members, key=state_order.get))
        return f"{{{inner}}}_{self.depth}"


def ref_build_eps_tree(a):
    """The tree's nodes in depth-first order, greater classes first."""
    report = ref_check_eps_complete(a)
    if not report.ok:
        raise UsageError(f"automaton is not ε-complete: {report.violations[0]}")
    rel = ref_relations(a)
    levels = (a.index[1] + 1) // 2
    per_level = {d: ref_classes_desc(a.states, rel.get(2 * d - 1, set())) for d in range(1, levels + 1)}
    nodes_desc = []

    def visit(node):
        nodes_desc.append(node)
        if node.depth < levels:
            for cls in per_level[node.depth + 1]:
                if cls <= node.members:
                    visit(RefNode(node.depth + 1, cls))

    for cls in per_level.get(1, []):
        visit(RefNode(1, cls))
    return tuple(nodes_desc)


def ref_parity_to_oba(a):
    nodes_desc = ref_build_eps_tree(a)
    state_order = {q: i for i, q in enumerate(a.states)}
    names_desc = [n.label(state_order) for n in nodes_desc]
    universe = StateUniverse(tuple(reversed(names_desc)))
    idx = {node: universe.index(name) for node, name in zip(nodes_desc, names_desc)}
    top = next((n for n in nodes_desc if n.depth == 1 and n.members & a.initial), None)
    initial = frozenset(range(idx[top] + 1)) if top is not None else frozenset()
    by_letter = {}
    for (p, x, c, q) in a.transitions:
        by_letter.setdefault(x, {}).setdefault((p, q), []).append(c)

    def tile_for(x):
        gen = set()
        pairs = by_letter.get(x, {})
        for d in range(1, max((n.depth for n in nodes_desc), default=0) + 1):
            nodes = [n for n in nodes_desc if n.depth == d]
            for n1 in nodes:
                for n2 in nodes:
                    cs = [c for (p, q), cl in pairs.items() if p in n1.members and q in n2.members for c in cl]
                    if any(pref_leq(c, 2 * d - 1) for c in cs):
                        gen.add((idx[n1], 1, idx[n2]))
                    if any(pref_leq(c, 2 * d - 2) for c in cs):
                        gen.add((idx[n1], 0, idx[n2]))
        return upward_closure(universe, gen)

    tiles = {x: tile_for(x) for x in sorted(a.effective_alphabet) + [EPS]}
    alphabet, morphism = _name_tiles(tiles)
    return OrderedBuchiAutomaton(universe=universe, initial=initial, alphabet=alphabet), morphism


def edge_built_eps_tile(a, universe):
    """The ε tile generated from the ε-edges by ``parity_to_oba``'s pass over the
    transitions, as the library built it before mapping ε to the unit tile."""
    ranks = _odd_ranks(a)
    prefixes = {rank[:d] for rank in ranks for d in range(1, len(rank) + 1)}
    nodes = sorted(prefixes, key=lambda k: [-r for r in k], reverse=True)
    assert len(nodes) == universe.size
    idx = {k: i for i, k in enumerate(nodes)}
    at_depth = {q: [idx[rank[:d]] for d in range(1, len(rank) + 1)] for q, rank in zip(a.states, ranks)}
    gen = set()
    for (p, x, c, q) in a.transitions:
        if x == EPS:
            for d, (n1, n2) in enumerate(zip(at_depth[p], at_depth[q]), start=1):
                if pref_leq(c, 2 * d - 1):
                    gen.add((n1, 1, n2))
                if pref_leq(c, 2 * d - 2):
                    gen.add((n1, 0, n2))
    return upward_closure(universe, gen)


# --- inputs --------------------------------------------------------------------


def random_eps_complete(rng):
    """Refining ordered partitions over shuffled, oddly named states, random letter moves."""
    n = rng.randint(1, 6)
    states = [f"{rng.choice('zyxw')}{i}" for i in range(n)]
    rng.shuffle(states)
    levels = [[states]]
    for _ in range(rng.randint(1, 3)):
        finer = []
        for cls in levels[-1]:
            cls = rng.sample(cls, len(cls))
            cuts = sorted(rng.sample(range(1, len(cls)), rng.randint(0, len(cls) - 1))) if len(cls) > 1 else []
            finer += [cls[i:j] for i, j in zip([0] + cuts, cuts + [len(cls)])]
        levels.append(finer)
    levels = levels[1:]
    hi = 2 * len(levels) - 1
    moves = {
        (rng.choice(states), x, rng.randint(0, hi), rng.choice(states))
        for x in "ab"
        for _ in range(rng.randint(0, 2 * n))
    }
    initial = rng.sample(states, rng.randint(0, n))
    alphabet = "abc"[: rng.randint(1, 3)]
    moves = {m for m in moves if m[1] in alphabet}  # a transition's letter must be declared
    return make_eps_complete(tuple(states), levels, moves, initial=initial, alphabet=alphabet)


def mutate(rng, a):
    """One to three ε-edges dropped, added or moved to another priority."""
    eps = sorted(t for t in a.transitions if t[1] == EPS)
    trans = set(a.transitions)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["drop", "add", "move"])
        if op != "add" and eps:
            t = rng.choice(eps)
            trans.discard(t)
            if op == "move":
                trans.add((t[0], EPS, rng.randint(0, a.index[1]), t[3]))
        else:
            trans.add((rng.choice(a.states), EPS, rng.randint(0, a.index[1]), rng.choice(a.states)))
    return ParityAutomaton(
        states=a.states, initial=a.initial, index=a.index, transitions=frozenset(trans), alphabet=a.alphabet
    )


def completed_determinizations():
    for name, oba in determinization_corpus():
        yield name, apply_eps_completion(determinize(oba))


def families():
    rng = random.Random(7707)
    out = {
        "corpus": list(eps_complete_corpus()),
        "random": [(f"random-{i}", random_eps_complete(rng)) for i in range(150)],
        "determinizations": list(completed_determinizations()),
    }
    out["mutants"] = [
        (f"{name}-mutant-{j}", mutate(rng, a)) for family in list(out.values()) for name, a in family for j in range(4)
    ]
    return out


FAMILIES = families()


def outcome(fn, a):
    """A function's result, or the message of the usage error it raised."""
    try:
        return fn(a)
    except UsageError as e:
        return f"usage error: {e}"


def translated(fn):
    def run(a):
        oba, morphism = fn(a)
        return oba_to_doc(oba, morphism)

    return run


# --- tests ---------------------------------------------------------------------


def test_cases_hit_every_axiom():
    seen = {v.axiom for _, a in FAMILIES["mutants"] for v in check_eps_complete(a).violations}
    assert seen == AXIOMS
    assert all(check_eps_complete(a).ok for f in ("corpus", "random", "determinizations") for _, a in FAMILIES[f])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_violations_tree_and_translation(family):
    for name, a in FAMILIES[family]:
        assert check_eps_complete(a).violations == ref_check_eps_complete(a).violations, name
        assert outcome(translated(parity_to_oba), a) == outcome(translated(ref_parity_to_oba), a), name


def horizontal_complete_completions(sizes):
    for n in sizes:
        u = StateUniverse(tuple(f"q{i}" for i in range(n)))
        a = OrderedBuchiAutomaton(u, frozenset(range(n)), horizontal_complete_alphabet(u))
        yield f"horizontal-complete-{n}", apply_eps_completion(determinize(a))


def test_eps_edges_generate_the_unit_tile():
    """ε-completeness makes the tile built from the ε-edges the unit tile, which
    ``parity_to_oba`` assigns to ε without reading them."""
    cases = list(eps_complete_corpus()) + FAMILIES["random"] + FAMILIES["determinizations"]
    cases += horizontal_complete_completions(range(1, 6))
    for name, a in cases:
        oba, morphism = parity_to_oba(a)
        unit = unit_tile(oba.universe)
        assert edge_built_eps_tile(a, oba.universe) == unit, name
        assert oba.alphabet[morphism.as_dict()[EPS]] == unit, name
