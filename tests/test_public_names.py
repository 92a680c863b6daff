"""Each module of `src/topophase` defines the public top-level names pinned
here and no other.  The library keeps what the CLI, README's quick start and
the benchmark reach, so a new name that nothing calls needs a deliberate edit
of this list.  The modules are read with `ast`, not imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topophase"

PUBLIC_NAMES = {
    "__init__": (),
    "balance": (
        "ClassificationFlags", "IrreducibilityResult", "KernelCertificate", "PhaseSet",
        "StabilizerSolution", "affine_certificate", "analysis_report", "classify",
        "construct_state", "convex_certificate", "irreducibility",
        "is_irreducible_maximal_length", "phase_set", "positive_maximal_kernel",
        "solve_stabilizer", "winding_for_phase",
    ),
    "cli": (
        "EXIT_INVARIANT", "EXIT_MISMATCH", "EXIT_OK", "EXIT_USAGE", "ParseFailure",
        "VerificationMismatch", "build_parser", "cmd_analyze", "cmd_construct",
        "cmd_oracle_check", "cmd_search", "cmd_verify", "main",
    ),
    "exactlinalg": (
        "IntRows", "convex_feasible", "determinant", "kernel_lattice", "make_primitive",
        "solve_integer", "solve_rational",
    ),
    "search": (
        "A_CLASS_WORK_LIMIT", "CombinatorialStructure", "MAX_SEARCH_QUBITS",
        "ORACLE_BLOCK_SUPPORTS", "ORACLE_CHUNK_SUPPORTS", "ORACLE_MAX_QUBITS", "RANK_PRIME",
        "SEARCH_BATCH_SUMS", "SearchRecord", "SearchResult", "a_class_matrices",
        "brute_force_oracle", "completeness_bound", "enumerate_structures",
        "equal_sum_submultisets", "records_to_csv", "search_tables", "validate_structure",
    ),
    "stabilizers": (
        "DEFAULT_TOLERANCE", "SU2_TOLERANCE", "VerificationResult",
        "antidiagonal_stabilizer", "apply_local_unitaries", "diagonal_stabilizer",
        "verify", "wrap_angle",
    ),
    "states": (
        "PRODUCT_RANK_TOLERANCE", "SparseState", "WeightMatrix", "bipartition_product_check",
        "ghz_state", "load_state", "parse_state", "product_factors", "state_to_json",
        "support_state", "weight_matrix",
    ),
}


def public_names(path):
    """Names a module binds at top level by def, class or assignment, without
    a leading underscore; imports are not counted."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_public_names_are_pinned():
    found = {path.stem: public_names(path) for path in PACKAGE.glob("*.py")}
    assert found == {module: set(names) for module, names in PUBLIC_NAMES.items()}
