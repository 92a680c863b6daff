"""Topological phases of multi-qubit pure states under cyclic local SU(2)
evolution.

Exact per-basis phase sets from integer kernel lattices of weight matrices,
an exhaustive combinatorial search over maximal-length structures, exact
representative-state construction, and numerical stabilizer verification.

The package root holds the names README's library quick start uses; the rest
lives in the submodules `balance`, `exactlinalg`, `search`, `stabilizers`
and `states`.  Only `search` and `stabilizers` import numpy, so the root
loads neither: the attributes `search`, `stabilizers`, `search_tables` and
`enumerate_structures` import their module on first access.
"""

from .balance import (
    KernelCertificate,
    PhaseSet,
    convex_certificate,
    phase_set,
    solve_stabilizer,
    winding_for_phase,
)
from .states import ghz_state, weight_matrix

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in ("search", "stabilizers"):
        return import_module(f"{__name__}.{name}")
    if name in ("enumerate_structures", "search_tables"):
        return getattr(import_module(f"{__name__}.search"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
