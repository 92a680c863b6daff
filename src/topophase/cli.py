"""Command-line frontend: analyze, search, construct, verify, oracle-check.

Flags are the only configuration: the CLI reads no environment variables.
Phases are always serialized as exact rationals in units of pi; only
verification residuals are floating point.

Exit codes: 0 success, 1 usage or parse error, 2 invariant violation,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import balance, search, stabilizers, states

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3


class ParseFailure(Exception):
    """Bad input file or malformed option value (exit 1)."""


class VerificationMismatch(Exception):
    """A verification or cross-check failed (exit 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc}") from exc


def _load_state(path: str) -> states.SparseState:
    try:
        return states.load_state(path)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _fraction_list(text: str) -> list[Fraction]:
    try:
        fracs = [Fraction(part.strip()) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseFailure(f"expected comma-separated rationals, got {text!r}") from exc
    if any(abs(f) > sys.float_info.max / 4 for f in fracs):  # pi * f overflows a float
        raise ParseFailure(f"angle out of float range in {text!r}")
    return fracs


def _radians(fracs: Sequence[Fraction]) -> list[float]:
    """Exact angles in units of pi as float radians.  Each is reduced mod 2
    first, keeping its sign (the stabilizer factors have period 2 pi), so a
    large angle keeps its residue; an angle in (-2, 2) is unchanged.  The
    reduction is in integers, and int / int rounds once, as float(f) does."""
    out = []
    for f in fracs:
        rest = abs(f.numerator) % (2 * f.denominator)
        out.append((rest if f.numerator >= 0 else -rest) / f.denominator * math.pi)
    return out


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParseFailure(f"expected comma-separated integers, got {text!r}") from exc


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    state = _load_state(args.state)
    _emit(_dump(balance.analysis_report(state)), args.out)
    return EXIT_OK


def _search_json(result: search.SearchResult, a_classes: bool,
                 bound_source: str, complete: bool) -> str:
    records = []
    for rec in sorted(result.records):
        entry = {
            "multiset": list(rec.multiset),
            "Z": rec.z,
            "chi_min_denominator": rec.denominator,
        }
        if a_classes:
            entry["a_class_matrices"] = [
                [list(row) for row in matrix]
                for matrix in search.a_class_matrices(rec.multiset, rec.z)
            ]
        records.append(entry)
    doc = {
        "n": result.n,
        "sum_bound": result.sum_bound,
        "bound_source": bound_source,
        "complete": complete,
        "records": records,
        "chi_min_denominators": list(result.denominators),
        "multisets_scanned": result.multisets_scanned,
        "rank_tests": result.rank_tests,
    }
    return _dump(doc)


def cmd_search(args) -> int:
    if args.bound is not None and args.complete:
        raise ParseFailure("--bound and --complete are mutually exclusive")
    if args.complete:
        bound, source = search.completeness_bound(args.n), "provable"
    elif args.bound is not None:
        bound, source = args.bound, "user"
    else:
        bound, source = search.default_sum_bound(args.n), "default-4n"
    result = search.search_tables(args.n, bound, workers=args.workers)
    # After the search, which refuses an n too large for this bound to be cheap.
    provable = search.completeness_bound(args.n)
    base = args.out or f"search_n{args.n}"
    # Render everything before writing, so a failure leaves no partial output.
    texts = {
        base + ".csv": search.records_to_csv(result.records),
        base + ".json": _search_json(result, args.a_classes, source, bound >= provable),
    }
    for path, text in texts.items():
        _write_text(path, text)
    if bound < provable:
        sys.stderr.write(
            f"topophase: warning: bound {bound} is below the provable completeness "
            f"bound {provable} for n = {args.n}; the table may be truncated\n"
        )
    phases = " ".join("pi" if d == 1 else f"pi/{d}" for d in result.denominators)
    sys.stdout.write(f"records: {len(result.records)}\n")
    sys.stdout.write(f"chi_min set: {phases}\n")
    sys.stdout.write(f"wrote: {' '.join(texts)}\n")
    return EXIT_OK


def _int_array(value, what: str) -> list[int]:
    """A JSON array of integers; bool, float and str entries are refused."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ParseFailure(f"structure document: {what} must be an array of integers")
    return value


def _structure_from_doc(doc) -> search.CombinatorialStructure:
    if not isinstance(doc, dict) or not {"multiset", "Z", "patterns"} <= set(doc):
        raise ParseFailure("structure document needs 'multiset', 'Z' and 'patterns'")
    multiset = tuple(_int_array(doc["multiset"], "'multiset'"))
    if type(doc["Z"]) is not int:
        raise ParseFailure("structure document: 'Z' must be an integer")
    if not isinstance(doc["patterns"], list):
        raise ParseFailure("structure document: 'patterns' must be an array")
    patterns = tuple(
        tuple(sorted(p - 1 for p in _int_array(pat, "each pattern")))
        for pat in doc["patterns"]
    )
    return search.CombinatorialStructure(len(multiset), multiset, doc["Z"], patterns)


def cmd_construct(args) -> int:
    try:
        with open(args.structure, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {args.structure}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{args.structure}: invalid JSON: {exc}") from exc
    structure = _structure_from_doc(doc)
    search.validate_structure(structure)
    state = balance.construct_state(structure)
    _emit(states.state_to_json(state), args.out)
    return EXIT_OK


def _verify_report(result, chi_frac, extra) -> dict:
    doc = {
        "matched": result.matched,
        "chi": _frac_json(chi_frac) if chi_frac is not None else None,
        "residual": result.residual,
    }
    doc.update(extra)
    return doc


def _snap_phase(chi_radians: float, denominator_bound: int, tolerance: float) -> Fraction | None:
    frac = Fraction(chi_radians / math.pi).limit_denominator(denominator_bound)
    if abs(float(frac) * math.pi - chi_radians) <= max(tolerance, 1e-12):
        return frac
    return None


def cmd_verify(args) -> int:
    chosen = [bool(args.derive), args.phis is not None, args.antidiag is not None]
    if sum(chosen) != 1:
        raise ParseFailure("choose exactly one of --derive, --phis, --antidiag")
    if args.winding is not None and not args.derive:
        raise ParseFailure("--winding applies only with --derive")
    state = _load_state(args.state)
    tol = args.tolerance

    if args.derive:
        w = states.weight_matrix(state)
        if balance.phase_set(w).continuous:
            raise ValueError(
                "continuous phase family; no topological phase in this basis"
            )
        if args.winding is not None:
            winding = _int_list(args.winding)
            if len(winding) != state.m:
                raise ParseFailure(f"--winding needs {state.m} integers")
        else:
            winding = [1] + [0] * (state.m - 1)
        solution = balance.solve_stabilizer(w, winding)
        if solution is None:
            raise ValueError(
                "winding numbers are inconsistent for this support; no stabilizer"
            )
        unitaries = stabilizers.diagonal_stabilizer(_radians(solution.phis))
        result = stabilizers.verify(state, unitaries, tol)
        agrees = (
            abs(stabilizers.wrap_angle(result.chi - float(solution.chi) * math.pi)) <= tol
        )
        doc = _verify_report(
            result,
            solution.chi,
            {
                "winding": list(solution.winding),
                "phis": [_frac_json(f) for f in solution.phis],
                "free_parameters": solution.free_parameters,
            },
        )
        _emit(_dump(doc), args.out)
        if not (result.matched and agrees):
            raise VerificationMismatch(
                f"derived stabilizer failed verification (residual {result.residual:g})"
            )
        return EXIT_OK

    if args.phis is not None:
        fractions = _fraction_list(args.phis)
        if len(fractions) != state.n:
            raise ParseFailure(f"--phis needs {state.n} rationals (units of pi)")
        unitaries = stabilizers.diagonal_stabilizer(_radians(fractions))
        bound = lcm(*[f.denominator for f in fractions], 1)
    else:
        fractions = _fraction_list(args.antidiag)
        if len(fractions) != state.n:
            raise ParseFailure(f"--antidiag needs {state.n} rationals (units of pi)")
        unitaries = stabilizers.antidiagonal_stabilizer(_radians(fractions))
        bound = 2 * lcm(*[f.denominator for f in fractions], 1)
    result = stabilizers.verify(state, unitaries, tol)
    chi_frac = _snap_phase(result.chi, bound, tol) if result.matched else None
    _emit(_dump(_verify_report(result, chi_frac, {})), args.out)
    if not result.matched:
        raise VerificationMismatch(
            f"not an eigenstate of the supplied operator (residual {result.residual:g})"
        )
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if not 3 <= args.n <= search.ORACLE_MAX_QUBITS:
        raise ValueError(
            f"oracle check supports 3 <= n <= {search.ORACLE_MAX_QUBITS}"
        )
    bound = search.completeness_bound(args.n)
    result = search.search_tables(args.n, bound, workers=args.workers)
    oracle = search.brute_force_oracle(args.n, workers=args.workers)
    searched = set(result.records)
    missing = sorted(oracle - searched)
    extra = sorted(searched - oracle)
    for rec in missing:
        sys.stdout.write(f"missing from search: {rec.multiset} Z={rec.z} pi/{rec.denominator}\n")
    for rec in extra:
        sys.stdout.write(f"not found by oracle: {rec.multiset} Z={rec.z} pi/{rec.denominator}\n")
    if missing or extra:
        raise VerificationMismatch(
            f"oracle and search disagree on {len(missing) + len(extra)} records"
        )
    sys.stdout.write(
        f"oracle check n={args.n}: PASS ({len(oracle)} records, bound {bound})\n"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topophase",
        description="Topological phases of multi-qubit states under cyclic local SU(2) evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exact phase-set analysis of a state file")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="enumerate structures and write phase tables")
    p.add_argument("--n", type=int, required=True, help="qubit count (>= 3)")
    p.add_argument("--bound", type=int, help="multiset sum ceiling (default 4n)")
    p.add_argument("--complete", action="store_true",
                   help="use the provable completeness bound (slow beyond n = 7)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output base path (default search_n<N>)")
    p.add_argument("--a-classes", action="store_true", dest="a_classes",
                   help="include canonical A-class sign matrices in the JSON output")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("construct", help="build the representative state of a structure")
    p.add_argument("structure", help="JSON with multiset, Z, patterns (1-based positions)")
    p.add_argument("--out", help="state file to write (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="numerically verify a stabilizer eigenphase")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--derive", action="store_true",
                   help="solve for a diagonal stabilizer from winding numbers")
    p.add_argument("--winding", help="comma-separated winding integers (with --derive)")
    p.add_argument("--phis", help="comma-separated rational angles in pi units (diagonal)")
    p.add_argument("--antidiag", help="comma-separated rational angles in pi units (antidiagonal)")
    p.add_argument("--tolerance", type=float, default=stabilizers.DEFAULT_TOLERANCE)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle-check",
                       help=f"brute-force oracle vs search (n <= {search.ORACLE_MAX_QUBITS})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        sys.stderr.write(f"topophase: {exc}\n")
        return EXIT_USAGE
    except VerificationMismatch as exc:
        sys.stderr.write(f"topophase: {exc}\n")
        return EXIT_MISMATCH
    except ValueError as exc:  # the input violates an invariant
        sys.stderr.write(f"topophase: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
