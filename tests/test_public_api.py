"""The package's public surface, pinned so that every added or removed name is a visible diff.

A removed public name is an API change: list it in CHANGES.md and the README.
"""

import obat


def test_public_names():
    assert sorted(obat.__all__) == [
        "DpaOracle",
        "EPS",
        "Morphism",
        "NotUpwardClosed",
        "NpaOracle",
        "ObaOracle",
        "OrderedBuchiAutomaton",
        "ParityAutomaton",
        "RabinSpec",
        "Skeleton",
        "StateUniverse",
        "Tile",
        "UPWord",
        "UsageError",
        "ValidationError",
        "apply_eps_completion",
        "check_eps_complete",
        "check_local_preference",
        "delta",
        "determinize",
        "enumerate_up_words",
        "eps_complete_det",
        "equiv_up",
        "horizontal_complete_alphabet",
        "intertwine",
        "is_buchi",
        "oba_validate",
        "omega_power_accepts",
        "parity_to_oba",
        "product",
        "rabin_to_oba",
        "reachable_residuals",
        "record_count_bound",
        "skeleton",
        "skeleton_oracle",
        "successors",
        "tile_of",
        "top_successor",
        "trans_leq",
        "unit_tile",
        "up",
        "upward_closure",
    ]
