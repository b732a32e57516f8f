"""Ordered Büchi automata toolkit.

Tile algebra over ordered state sets, automaton constructions (Rabin pairs,
ε-complete parity), record-based determinization with its ε-completion, and
oracle-backed verification on ultimately-periodic words.
"""

from .automata import (
    EPS,
    DpaOracle,
    Morphism,
    NpaOracle,
    ObaOracle,
    OrderedBuchiAutomaton,
    ParityAutomaton,
    UPWord,
    oba_validate,
    omega_power_accepts,
    residual_initial_set,
    up,
)
from .convert import (
    EpsNode,
    EpsTree,
    RabinSpec,
    build_eps_tree,
    check_eps_complete,
    horizontal_complete_alphabet,
    intertwine,
    parity_to_oba,
    rabin_to_oba,
)
from .determinize import (
    apply_eps_completion,
    delta,
    determinize,
    eps_complete_det,
    reachable_residuals,
    record_count_bound,
)
from .tiles import (
    NotUpwardClosed,
    Skeleton,
    StateUniverse,
    Tile,
    UsageError,
    ValidationError,
    is_buchi,
    product,
    skeleton,
    successors,
    tile_of,
    top_successor,
    trans_leq,
    unit_tile,
    upward_closure,
)
from .verify import (
    check_local_preference,
    enumerate_up_words,
    equiv_up,
    skeleton_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
