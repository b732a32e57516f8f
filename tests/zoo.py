"""Shared test automata: spec examples, figure reconstructions, generators.

The two figure automata are reconstructed from their caption languages; each
comes with a hand-coded UP-word oracle so the reconstruction itself is
checked against something independent of the tile machinery.
"""

from __future__ import annotations

import random

from obat import (
    EPS,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    RabinSpec,
    StateUniverse,
    Tile,
    UPWord,
    unit_tile,
    upward_closure,
)

AB = ("a", "b")


def inf_a() -> OrderedBuchiAutomaton:
    """Words with infinitely many a's: the running two-state example."""
    u = StateUniverse(("s0", "s1"))
    return OrderedBuchiAutomaton(
        universe=u,
        initial=frozenset({0, 1}),
        alphabet={"a": upward_closure(u, [(1, 0, 1)]), "b": unit_tile(u)},
    )


def inf_a_oracle(w: UPWord) -> bool:
    return "a" in w.period


def reached_states(a: OrderedBuchiAutomaton, word) -> frozenset[int]:
    """The states reached from the initial set on ``word``, through each tile's explicit transitions."""
    states = a.initial
    for x in word:
        states = frozenset(q for (p, _, q) in a.alphabet[x].transitions if p in states)
    return states


def _cyclic_factor(period: tuple[str, ...], factor: str) -> bool:
    s = "".join(period)
    return factor in (s + s)[: len(s) + len(factor) - 1]


def fig_inf_aa_fin_bb() -> OrderedBuchiAutomaton:
    """Infinitely many 'aa' factors and finitely many 'bb' factors.

    Order r < q < p; p waits, q means the last letter was an a (another a is
    Büchi), reading b from q drops to r and a second b kills the run.
    """
    u = StateUniverse(("r", "q", "p"))
    return OrderedBuchiAutomaton(
        universe=u,
        initial=frozenset({0, 1, 2}),
        alphabet={
            "a": upward_closure(u, [(2, 1, 2), (1, 0, 1), (0, 1, 1)]),
            "b": upward_closure(u, [(2, 1, 2), (1, 1, 0)]),
        },
    )


def fig_inf_aa_fin_bb_oracle(w: UPWord) -> bool:
    return _cyclic_factor(w.period, "aa") and not _cyclic_factor(w.period, "bb")


def fig_inf_b_or_bb_inf_a() -> OrderedBuchiAutomaton:
    """Infinitely many b's, or a 'bb' factor followed by infinitely many a's.

    Order r < q < p; runs start at r, every b allows a Büchi bounce back to
    r, and climbing r -> q -> p over bb unlocks the a-loop at the top.
    """
    u = StateUniverse(("r", "q", "p"))
    return OrderedBuchiAutomaton(
        universe=u,
        initial=frozenset({0}),
        alphabet={
            "a": upward_closure(u, [(0, 1, 0), (2, 0, 2)]),
            "b": upward_closure(u, [(0, 1, 1), (1, 1, 2)]),
        },
    )


def fig_inf_b_or_bb_inf_a_oracle(w: UPWord) -> bool:
    whole = "".join(w.prefix) + "".join(w.period) * 2
    return "b" in w.period or ("bb" in whole and "a" in w.period)


def genbuchi_oracle(w: UPWord) -> bool:
    """Infinitely many a's AND infinitely many b's: not Eve-positional."""
    return "a" in w.period and "b" in w.period


def rabin_two_pair() -> RabinSpec:
    """The worked pairs ({d},{a,c}) and ({b},{d})."""
    return RabinSpec(
        alphabet=("a", "b", "c", "d"),
        pairs=(
            (frozenset({"d"}), frozenset({"a", "c"})),
            (frozenset({"b"}), frozenset({"d"})),
        ),
    )


def rabin_behavioral_two_pair() -> RabinSpec:
    """Two pairs, nine letters: one letter per (G/neither/R) behavior profile."""
    beh = ("g", "n", "r")
    letters = tuple(f"{x}{y}" for x in beh for y in beh)

    def g(pos):
        return frozenset(l for l in letters if l[pos] == "g")

    def r(pos):
        return frozenset(l for l in letters if l[pos] == "r")

    return RabinSpec(letters, ((g(0), r(0)), (g(1), r(1))))


# --- ε-complete parity automata ----------------------------------------------


def make_eps_complete(
    states: tuple[str, ...],
    levels: list[list[list[str]]],
    letter_transitions,
    initial=None,
    alphabet=None,
) -> ParityAutomaton:
    """ε-complete automaton from ordered partitions, one per odd priority.

    ``levels[d-1]`` is the partition for priority 2d-1, greatest class first;
    consecutive partitions must refine each other.  All ε-transitions implied
    by the preorders and their strict variants are emitted.
    """
    hi = 2 * len(levels) - 1
    eps = set()
    for d, parts in enumerate(levels, start=1):
        pos = {q: i for i, part in enumerate(parts) for q in part}
        for x in states:
            for y in states:
                if pos[x] <= pos[y]:
                    eps.add((x, EPS, 2 * d - 1, y))
                if pos[x] < pos[y]:
                    eps.add((x, EPS, 2 * d - 2, y))
    letters = frozenset(alphabet) if alphabet else frozenset(
        a for (_, a, _, _) in letter_transitions
    )
    return ParityAutomaton(
        states=states,
        initial=frozenset(initial if initial is not None else states),
        index=(0, hi),
        transitions=frozenset(eps) | frozenset(letter_transitions),
        alphabet=letters,
    )


def eps_figure() -> ParityAutomaton:
    """Four states p,q,r,s; classes {p,q,r} > {s} at level 1, {p,q} > {r} > {s} at level 2."""
    return make_eps_complete(
        states=("p", "q", "r", "s"),
        levels=[[["p", "q", "r"], ["s"]], [["p", "q"], ["r"], ["s"]]],
        letter_transitions={
            ("p", "a", 0, "q"),
            ("q", "a", 2, "r"),
            ("r", "b", 1, "p"),
            ("q", "b", 2, "s"),
            ("s", "a", 3, "s"),
            ("s", "b", 1, "s"),
        },
    )


def eps_complete_corpus() -> list[tuple[str, ParityAutomaton]]:
    """Hand-built ε-complete automata (≤ 4 states, index up to [0,3])."""
    corpus = [("figure", eps_figure())]
    corpus.append(
        (
            "one-state-buchi-loop",
            make_eps_complete(("q",), [[["q"]]], {("q", "a", 0, "q")}),
        )
    )
    corpus.append(
        (
            "two-state-buchi",
            make_eps_complete(
                ("x", "y"),
                [[["x"], ["y"]]],
                {("x", "a", 0, "y"), ("y", "a", 1, "x"), ("y", "b", 0, "y"), ("x", "b", 1, "x")},
            ),
        )
    )
    corpus.append(
        (
            "three-state-path-tree",
            make_eps_complete(
                ("x", "y", "z"),
                [[["x", "y", "z"]], [["x"], ["y"], ["z"]]],
                {
                    ("x", "a", 2, "y"),
                    ("y", "a", 0, "z"),
                    ("z", "b", 2, "z"),
                    ("z", "a", 3, "x"),
                    ("x", "b", 1, "x"),
                },
            ),
        )
    )
    corpus.append(
        (
            "two-state-single-classes",
            make_eps_complete(
                ("x", "y"),
                [[["x", "y"]], [["x", "y"]]],
                {("x", "a", 0, "x"), ("x", "b", 3, "y"), ("y", "b", 2, "x"), ("y", "a", 1, "y")},
            ),
        )
    )
    corpus.append(
        (
            "four-state-mixed",
            make_eps_complete(
                ("m", "n", "o", "w"),
                [[["m", "n"], ["o", "w"]], [["m"], ["n"], ["o", "w"]]],
                {
                    ("m", "a", 0, "n"),
                    ("n", "a", 3, "m"),
                    ("n", "b", 2, "o"),
                    ("o", "b", 0, "w"),
                    ("w", "a", 1, "o"),
                    ("m", "b", 2, "w"),
                },
                initial=("m", "n", "o", "w"),
            ),
        )
    )
    return corpus


# --- random generation --------------------------------------------------------


def random_tile(rng: random.Random, universe: StateUniverse) -> Tile:
    n = universe.size
    count = rng.randint(0, 3)
    gens = {
        (rng.randrange(n), rng.randint(0, 1), rng.randrange(n)) for _ in range(count)
    }
    return upward_closure(universe, gens)


def random_oba(
    rng: random.Random,
    max_states: int = 3,
    max_letters: int = 3,
    full_initial: bool = False,
) -> OrderedBuchiAutomaton:
    n = rng.randint(1, max_states)
    universe = StateUniverse(tuple(f"q{i}" for i in range(n)))
    letters = ("a", "b", "c")[: rng.randint(1, max_letters)]
    initial = frozenset(range(n)) if full_initial else frozenset(range(rng.randint(1, n)))
    return OrderedBuchiAutomaton(
        universe=universe,
        initial=initial,
        alphabet={x: random_tile(rng, universe) for x in letters},
    )


def random_staircase(rng: random.Random, universe: StateUniverse) -> Tile:
    """A tile with a random monotone ``top`` and random corner priorities."""
    n = universe.size
    top = sorted(rng.randint(-1, n - 1) for _ in range(n))
    corners = [p for p, t in enumerate(top) if t >= 0 and (p == 0 or top[p - 1] < t)]
    return upward_closure(universe, {(p, rng.randint(0, 1), top[p]) for p in corners})


def rich_oba(rng: random.Random, n: int) -> OrderedBuchiAutomaton:
    """Four distinct horizontal-complete letters plus one random staircase, all states initial.

    ``random_oba``'s tiles of at most three generators collapse at |Q| >= 4
    (their determinizations reach at most 5 records); these reach tens.
    Each horizontal letter is named by its assignment, as in
    ``horizontal_complete_alphabet``.
    """
    universe = StateUniverse(tuple(f"q{i}" for i in range(n)))
    names: set[str] = set()
    while len(names) < 4:
        names.add("".join(rng.choices("-10", k=n)))
    alphabet = {
        x: upward_closure(universe, {(q, int(v), q) for q, v in enumerate(x) if v != "-"})
        for x in sorted(names)
    }
    alphabet["s"] = random_staircase(rng, universe)
    return OrderedBuchiAutomaton(universe, frozenset(range(n)), alphabet)


def determinization_corpus(count: int = 50, seed: int = 20240817):
    """Named examples plus random ordered Büchi automata, morphism-free view."""
    from obat.convert import rabin_to_oba

    corpus: list[tuple[str, OrderedBuchiAutomaton]] = [
        ("inf-a", inf_a()),
        ("fig-inf-aa-fin-bb", fig_inf_aa_fin_bb()),
        ("fig-inf-b-or-bb-inf-a", fig_inf_b_or_bb_inf_a()),
        ("rabin-two-pair", rabin_to_oba(rabin_two_pair())[0]),
    ]
    rng = random.Random(seed)
    for i in range(count):
        corpus.append((f"random-{i}", random_oba(rng)))
    return corpus
