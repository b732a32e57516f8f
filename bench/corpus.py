"""Seeded benchmark inputs and the hand-written reference oracles.

Everything here is built from a ``random.Random`` and plain data: JSON
documents in the formats ``obat`` reads, UP words as (prefix, period)
tuples, and reference oracles that never touch the tile machinery.  The
program under test only ever sees the documents and words.
"""

from __future__ import annotations

import itertools
import math
import random

EPS = "eps"
ASSIGN = "-10"  # per-state letter code: no self-loop, priority-1 loop, Büchi loop


# --- ordered Büchi automata ---------------------------------------------------


def state_names(n: int, stem: str = "q") -> list[str]:
    return [f"{stem}{i}" for i in range(n)]


def oba_doc(n: int, initial_top: int, generators: dict[str, list[list[int]]]) -> dict:
    """Ordered Büchi document; each letter's generators are closed on load."""
    states = state_names(n)
    return {
        "kind": "ordered-buchi",
        "states": states,
        "initial": states[: initial_top + 1],
        "alphabet": {x: {"skeleton": sorted(gens)} for x, gens in sorted(generators.items())},
    }


def random_oba_doc(rng: random.Random, n: int, k: int) -> dict:
    """n states, k letters, 2-5 random generators per tile (richer than the test zoo)."""
    letters = "abc"[:k]
    generators = {
        x: sorted(
            {(rng.randrange(n), rng.randint(0, 1), rng.randrange(n)) for _ in range(rng.randint(2, 5))}
        )
        for x in letters
    }
    return oba_doc(n, rng.randrange(n), {x: [list(g) for g in gs] for x, gs in generators.items()})


# --- Rabin specifications and the reference parity automaton -------------------


def random_rabin_spec(rng: random.Random, k: int, pair_count: int) -> dict:
    alphabet = list("abcd"[:k])
    pairs = []
    for _ in range(pair_count):
        g = sorted(rng.sample(alphabet, rng.randint(1, 2)))
        r = sorted(x for x in alphabet if x not in g and rng.random() < 0.4)
        pairs.append({"G": g, "R": r})
    return {"alphabet": alphabet, "pairs": pairs}


def behavioural_rabin_spec() -> dict:
    """Two pairs over nine letters, one letter per (G / neither / R) profile."""
    letters = [x + y for x in "gnr" for y in "gnr"]
    return {
        "alphabet": letters,
        "pairs": [
            {"G": [x for x in letters if x[i] == "g"], "R": [x for x in letters if x[i] == "r"]}
            for i in (0, 1)
        ],
    }


def rabin_accepts(spec: dict, prefix, period) -> bool:
    inf = set(period)
    return any(inf & set(p["G"]) and not inf & set(p["R"]) for p in spec["pairs"])


def rabin_guess_npa_doc(spec: dict) -> dict:
    """Büchi automaton guessing the pair: wait in ``w``, then stay in ``p<i>``.

    In ``p<i>`` a G_i letter outside R_i is a priority-0 loop, any other
    letter outside R_i a priority-1 loop, and R_i letters have no move.
    """
    alphabet = spec["alphabet"]
    trans = []
    for x in alphabet:
        trans.append(["w", x, 1, "w"])
        for i, pair in enumerate(spec["pairs"]):
            trans.append(["w", x, 1, f"p{i}"])
            if x not in pair["R"]:
                trans.append([f"p{i}", x, 0 if x in pair["G"] else 1, f"p{i}"])
    return {
        "kind": "parity",
        "states": ["w"] + [f"p{i}" for i in range(len(spec["pairs"]))],
        "initial": ["w"],
        "index": [0, 1],
        "transitions": sorted(trans),
        "alphabet": sorted(alphabet),
    }


# --- ε-complete parity automata -------------------------------------------------


def _ordered_partition(rng: random.Random, items: list[str]) -> list[list[str]]:
    items = items[:]
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, len(items)), rng.randint(0, len(items) - 1))) if len(items) > 1 else []
    bounds = [0] + cuts + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def random_eps_complete_doc(rng: random.Random, k: int, level_count: int) -> dict:
    """Random refining ordered partitions, one per odd priority, plus random letter moves."""
    states = state_names(k, "s")
    levels = [_ordered_partition(rng, states)]
    if level_count == 2:
        levels.append([part for cls in levels[0] for part in _ordered_partition(rng, cls)])
    hi = 2 * len(levels) - 1
    trans = set()
    for d, parts in enumerate(levels, start=1):
        pos = {q: i for i, part in enumerate(parts) for q in part}
        for x in states:
            for y in states:
                if pos[x] <= pos[y]:
                    trans.add((x, EPS, 2 * d - 1, y))
                if pos[x] < pos[y]:
                    trans.add((x, EPS, 2 * d - 2, y))
    for q in states:
        for x in "ab":
            for _ in range(rng.randint(1, 2)):
                trans.add((q, x, rng.randint(0, hi), rng.choice(states)))
    return {
        "kind": "parity",
        "states": states,
        "initial": states,
        "index": [0, hi],
        "transitions": sorted(list(t) for t in trans),
        "alphabet": ["a", "b"],
    }


# --- self-loop-only alphabets ---------------------------------------------------


def loop_generators(assign: str) -> list[list[int]]:
    return [[q, int(v), q] for q, v in enumerate(assign) if v != "-"]


def full_loop_alphabet(n: int) -> list[str]:
    """Every per-state assignment: the horizontal-complete alphabet, 3^n letters."""
    return ["".join(a) for a in itertools.product(ASSIGN, repeat=n)]


def sub_loop_alphabet(rng: random.Random, n: int, k: int) -> list[str]:
    letters: set[str] = set()
    while len(letters) < k:
        letters.add("".join(rng.choice(ASSIGN) for _ in range(n)))
    return sorted(letters)


def loop_oba_doc(n: int, letters: list[str]) -> dict:
    return oba_doc(n, n - 1, {x: loop_generators(x) for x in letters})


def _loop_top(letter: str, m: int) -> int | None:
    """Top successor of state m: the greatest self-loop state at or below m."""
    for q in range(m, -1, -1):
        if letter[q] != "-":
            return q
    return None


def loop_budget(n: int, letters: list[str]) -> tuple[frozenset[int], bool]:
    """Reachable residual heads R_A and whether some word kills the top state.

    For self-loop skeletons the tile's top-successor map sends m to the
    greatest looped state at or below m, so R_A is plain reachability from
    state n-1 under those maps.
    """
    heads = {n - 1}
    frontier = [n - 1]
    kills = False
    while frontier:
        m = frontier.pop()
        for x in letters:
            t = _loop_top(x, m)
            if t is None:
                kills = True
            elif t not in heads:
                heads.add(t)
                frontier.append(t)
    return frozenset(heads), kills


def budget_size(heads, kills: bool) -> int:
    """|S_R|: h! records headed by each h in R_A, plus the empty record if a word kills."""
    return sum(math.factorial(h) for h in heads) + int(kills)


def record_bound(n: int) -> int:
    return 2 + sum(math.factorial(i) for i in range(1, n))


def in_budget(record: list[int], heads, kills: bool) -> bool:
    if not record:
        return kills
    k = len(record)
    return record[0] == k - 1 and sorted(record) == list(range(k)) and record[0] in heads


def loop_accepts(n: int, prefix, period) -> bool:
    """Hand oracle for a self-loop alphabet with every state initial.

    Runs only go down; a run survives a letter from m by moving to a looped
    state at or below m.  The word is accepted iff some state q at or below
    the top reached after the prefix is looped by every period letter and
    Büchi-looped by at least one.
    """
    m = n - 1
    for x in prefix:
        m = _loop_top(x, m)
        if m is None:
            return False
    return any(
        all(x[q] != "-" for x in period) and any(x[q] == "0" for x in period)
        for q in range(m + 1)
    )


# --- figure languages -----------------------------------------------------------


def fig_inf_aa_fin_bb_doc() -> dict:
    """Infinitely many 'aa' factors and finitely many 'bb' factors (order r < q < p)."""
    return {
        "kind": "ordered-buchi",
        "states": ["r", "q", "p"],
        "initial": ["r", "q", "p"],
        "alphabet": {
            "a": {"skeleton": [[0, 1, 1], [1, 0, 1], [2, 1, 2]]},
            "b": {"skeleton": [[1, 1, 0], [2, 1, 2]]},
        },
    }


def _cyclic_factor(period, factor: str) -> bool:
    s = "".join(period)
    return factor in (s + s)[: len(s) + len(factor) - 1]


def fig_inf_aa_fin_bb_accepts(prefix, period) -> bool:
    return _cyclic_factor(period, "aa") and not _cyclic_factor(period, "bb")


def fig_inf_b_or_bb_inf_a_doc() -> dict:
    """Infinitely many b's, or a 'bb' factor followed by infinitely many a's."""
    return {
        "kind": "ordered-buchi",
        "states": ["r", "q", "p"],
        "initial": ["r"],
        "alphabet": {
            "a": {"skeleton": [[0, 1, 0], [2, 0, 2]]},
            "b": {"skeleton": [[0, 1, 1], [1, 1, 2]]},
        },
    }


def fig_inf_b_or_bb_inf_a_accepts(prefix, period) -> bool:
    whole = "".join(prefix) + "".join(period) * 2
    return "b" in period or ("bb" in whole and "a" in period)


# --- words ----------------------------------------------------------------------


def random_word(rng: random.Random, letters, prefix_len: int, period_len: int):
    return (
        tuple(rng.choice(letters) for _ in range(prefix_len)),
        tuple(rng.choice(letters) for _ in range(period_len)),
    )


def short_words(rng: random.Random, letters, count: int, max_prefix: int, max_period: int):
    return [
        random_word(rng, letters, rng.randint(0, max_prefix), rng.randint(1, max_period))
        for _ in range(count)
    ]


def intertwined(prefix, period):
    def weave(part):
        return tuple(y for x in part for y in (EPS, x, EPS))

    return weave(prefix), weave(period)
