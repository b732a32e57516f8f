"""Smoke check: each workload once at a tiny size, every verdict check on.

    python3 -m pytest bench/test_smoke.py -q

No timing is asserted.  The hand-written references are also checked
against the library here, so a wrong reference cannot pass silently.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus as C  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "workload,items", [("construct-verify", 10), ("state-budget", 20), ("query-stream", 400)]
)
def test_workload_once(workload, items, trace):
    report = run.run(workload, seed=7, seconds=math.inf, trace=trace, max_items=items)
    result = report["result"]
    assert result["correct"], report.get("wrong_verdict")
    assert result["attempted"] == items
    assert result["failed"] == 0, report["failures"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_tracer_restores_the_library():
    import obat
    from spans import Tracer

    tiles, det, cli = (sys.modules[f"obat.{m}"] for m in ("tiles", "determinize", "cli"))

    def names():
        return (tiles.product, det.product, cli.main, cli.determinize, obat.determinize, obat.ObaOracle.__call__)

    before = names()
    tracer = Tracer()
    tracer.install()
    try:
        assert det.product is tiles.product is not before[0]
        assert cli.determinize is obat.determinize is det.determinize is not before[3]
        assert obat.ObaOracle.__call__ is obat.ObaOracle.member
    finally:
        tracer.uninstall()
    assert names() == before


@pytest.mark.parametrize("n", [2, 3, 4])
def test_loop_budget_matches_the_library(n):
    from obat import OrderedBuchiAutomaton, StateUniverse, upward_closure
    from obat.determinize import candidate_records, reachable_residuals

    rng = random.Random(n)
    u = StateUniverse(tuple(C.state_names(n)))
    for _ in range(8):
        letters = C.sub_loop_alphabet(rng, n, rng.randint(1, 5))
        alphabet = {x: upward_closure(u, [tuple(g) for g in C.loop_generators(x)]) for x in letters}
        a = OrderedBuchiAutomaton(u, frozenset(range(n)), alphabet)
        heads, kills = C.loop_budget(n, letters)
        assert heads == reachable_residuals(a)
        budget = candidate_records(a)
        assert len(budget) == C.budget_size(heads, kills)
        assert all(C.in_budget(list(r.entries), heads, kills) for r in budget)
