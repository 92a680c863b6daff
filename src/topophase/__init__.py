"""Topological phases of multi-qubit pure states under cyclic local SU(2)
evolution.

Exact per-basis phase sets from integer kernel lattices of weight matrices,
an exhaustive combinatorial search over maximal-length structures, exact
representative-state construction, and numerical stabilizer verification.

The package root holds the names README's library quick start uses; the rest
lives in the submodules `balance`, `exactlinalg`, `search`, `stabilizers`
and `states`.
"""

from .balance import (
    KernelCertificate,
    PhaseSet,
    convex_certificate,
    phase_set,
    solve_stabilizer,
    winding_for_phase,
)
from .search import enumerate_structures, search_tables
from .states import ghz_state, weight_matrix

__version__ = "0.1.0"
