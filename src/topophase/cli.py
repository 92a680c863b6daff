"""Command-line frontend: analyze, search, construct, verify, oracle-check.

Flags are the only configuration: the CLI reads no environment variables.
Phases are always serialized as exact rationals in units of pi; only
verification residuals are floating point.

Exit codes: 0 success, 1 usage or parse error, 2 invariant violation,
3 verification mismatch.

Only `search` and `stabilizers` import numpy, and each command imports them
when it runs: `search`, `construct`, `verify` and `oracle-check` load numpy,
while `analyze`, `--help` and `build_parser()` do not.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import TYPE_CHECKING, Sequence

from . import balance, states

if TYPE_CHECKING:
    from . import search

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


def _write_texts(texts: dict[str, str]) -> None:
    """Write every text to its path.  A missing or regular target is staged in a
    file beside it (through a symlink) under a random name, and replaced once
    every text is staged or written; staged files go on any failure.  A device
    or a pipe is written in place, in turn; a directory fails there, first.  A
    failure names the target and the OS reason, never a staged file."""
    staged = []
    try:
        for path, text in texts.items():
            if os.path.exists(path) and not os.path.isfile(path):
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
                continue
            real = os.path.realpath(path) if os.path.islink(path) else path
            with open(f"{real}.{os.urandom(8).hex()}.tmp", "x", encoding="utf-8",
                      newline="\n") as fh:
                staged.append((path, real, fh.name))
                fh.write(text)
            if os.path.exists(real):
                shutil.copymode(real, fh.name)
        for path, real, tmp in staged:
            os.replace(tmp, real)
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        for _, _, tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


def _load_state(path: str) -> states.SparseState:
    try:
        return states.load_state(path)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


# A decimal literal with an exponent e as Fraction reads it; Fraction builds
# 10^|e|, so |e| beyond 324 (the smallest float is 5e-324) is refused first.
_EXPONENT_LITERAL = re.compile(r"[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
                               r"e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)


def _fraction_list(text: str) -> list[Fraction]:
    parts = [part.strip() for part in text.split(",")]  # an empty field fails in Fraction
    try:
        huge = [m and abs(int(m[1])) > 324 for m in map(_EXPONENT_LITERAL.fullmatch, parts)]
        fracs = [Fraction(part) for part, skip in zip(parts, huge) if not skip]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseFailure(f"expected comma-separated rationals, got {text!r}") from exc
    if any(huge) or any(abs(f) > sys.float_info.max / 4 for f in fracs):  # pi * f overflows
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
        return [int(part) for part in text.split(",")]  # int refuses an empty field
    except ValueError as exc:
        raise ParseFailure(f"expected comma-separated integers, got {text!r}") from exc


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def _dump(doc: dict) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)` and a newline, byte for
    byte, without the pure-Python encoder that `indent` selects: objects and
    arrays are laid out here, an array of ints in one join, and every other
    value goes through `json.dumps`."""
    parts = []
    _render(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _render(value, indent: str, parts: list) -> None:
    if type(value) is int:
        parts.append(str(value))
    elif type(value) is str:
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            name = key if isinstance(key, str) else json.dumps(key)  # as json converts keys
            parts += (sep, inner, encode_basestring_ascii(name), ": ")
            _render(value[key], inner, parts)
            sep = ","
        parts += (indent, "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        if all(type(item) is int for item in value):
            parts += ("[", inner, ("," + inner).join(map(str, value)), indent, "]")
            return
        sep = "["
        for item in value:
            parts += (sep, inner)
            _render(item, inner, parts)
            sep = ","
        parts += (indent, "]")
    else:
        parts.append(json.dumps(value))


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_texts({out: text})
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    state = _load_state(args.state)
    _emit(_dump(balance.analysis_report(state)), args.out)
    return EXIT_OK


def _records_json(result: search.SearchResult, a_classes: bool) -> str:
    """The search JSON's records array, byte for byte as `_dump` lays it out at
    its place in the document: one %-template per record, with the record's
    A-class matrices (laid out by `_render`) when `a_classes` is set."""
    from . import search
    template = ('{\n      "Z": %d,%s\n      "chi_min_denominator": %d,\n      "multiset": ['
                + "\n        %d," * result.n)[:-1] + "\n      ]\n    }"
    entries = []
    for denominator, multiset, z in result.records:
        classes = ""
        if a_classes:
            parts = ['\n      "a_class_matrices": ']
            _render(search.a_class_matrices(multiset, z), "\n      ", parts)
            classes = "".join(parts) + ","
        entries.append(template % (z, classes, denominator, *multiset))
    return "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"


def _search_json(result: search.SearchResult, a_classes: bool, bound_source: str) -> str:
    """`_dump` of the search document: `_dump` lays out the shell with an empty
    records array, and `_records_json` takes its place.  The shell's other keys
    are fixed and its one string is escaped, so that text occurs only there."""
    shell = _dump({
        "n": result.n,
        "sum_bound": result.sum_bound,
        "bound_source": bound_source,
        "complete": result.complete,
        "records": [],
        "chi_min_denominators": list(result.denominators),
        "multisets_scanned": result.multisets_scanned,
        "rank_tests": result.rank_tests,
    })
    return shell.replace('"records": []', '"records": ' + _records_json(result, a_classes), 1)


def cmd_search(args) -> int:
    from . import search
    result = search.search_tables(args.n, args.bound, workers=args.workers)
    base = args.out or f"search_n{args.n}"
    texts = {
        base + ".csv": search.records_to_csv(result.records),
        base + ".json": _search_json(result, args.a_classes,
                                     "user" if args.bound is not None else "default-4n"),
    }
    _write_texts(texts)
    if not result.complete:
        sys.stderr.write(
            f"topophase: warning: bound {result.sum_bound} is below the provable completeness bound "
            f"{search.completeness_bound(args.n)} for n = {args.n}; the table may be truncated\n"
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
    from . import search
    if not isinstance(doc, dict) or not {"multiset", "Z", "patterns"} <= set(doc):
        raise ParseFailure("structure document needs 'multiset', 'Z' and 'patterns'")
    multiset = tuple(_int_array(doc["multiset"], "'multiset'"))
    if type(doc["Z"]) is not int:
        raise ParseFailure("structure document: 'Z' must be an integer")
    if not isinstance(doc["patterns"], list):
        raise ParseFailure("structure document: 'patterns' must be an array")
    n, patterns = len(multiset), []
    for pat in doc["patterns"]:
        positions = _int_array(pat, "each pattern")
        if len(set(positions)) < len(positions) or not all(1 <= p <= n for p in positions):
            raise ParseFailure(f"structure document: pattern {json.dumps(pat)} "
                               f"is not a set of positions in 1..{n}")
        patterns.append(tuple(sorted(p - 1 for p in positions)))
    return search.CombinatorialStructure(n, multiset, doc["Z"], tuple(patterns))


def cmd_construct(args) -> int:
    from . import search
    try:
        with open(args.structure, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {args.structure}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
        raise ParseFailure(f"{args.structure}: invalid JSON: {exc}") from exc
    structure = _structure_from_doc(doc)
    search.validate_structure(structure)
    state = balance.construct_state(structure)
    _emit(states.state_to_json(state), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import stabilizers
    if sum([bool(args.derive), args.phis is not None, args.antidiag is not None]) != 1:
        raise ParseFailure("choose exactly one of --derive, --phis, --antidiag")
    if args.winding is not None and not args.derive:
        raise ParseFailure("--winding applies only with --derive")
    state = _load_state(args.state)
    # A malformed --winding is a usage error (exit 1) before any analysis.
    winding = _int_list(args.winding) if args.winding is not None else [1] + [0] * (state.m - 1)
    if len(winding) != state.m:
        raise ParseFailure(f"--winding needs {state.m} integers")

    if args.derive:
        w = states.weight_matrix(state)
        if balance.phase_set(w).continuous:
            raise ValueError(
                "continuous phase family; no topological phase in this basis"
            )
        solution = balance.solve_stabilizer(w, winding)
        if solution is None:
            raise ValueError(
                "winding numbers are inconsistent for this support; no stabilizer"
            )
        angles, antidiagonal = solution.phis, False
        extra = {"winding": list(solution.winding), "phis": [_frac_json(f) for f in angles],
                 "free_parameters": solution.free_parameters}
        failure = "derived stabilizer failed verification"

        def judge(result):  # the numeric chi must agree with the exact one
            off = stabilizers.wrap_angle(result.chi - float(solution.chi) * math.pi)
            return solution.chi, abs(off) <= stabilizers.DEFAULT_TOLERANCE
    else:
        flag, text, antidiagonal, factor = (
            ("--phis", args.phis, False, 1) if args.phis is not None
            else ("--antidiag", args.antidiag, True, 2))
        angles = _fraction_list(text)
        if len(angles) != state.n:
            raise ParseFailure(f"{flag} needs {state.n} rationals (units of pi)")
        bound = factor * lcm(*[f.denominator for f in angles], 1)
        extra = {}
        failure = "not an eigenstate of the supplied operator"

        def judge(result):  # the numeric chi snapped to the lcm bound, if it lies that close
            frac = Fraction(result.chi / math.pi).limit_denominator(bound) if result.matched else None
            near = (frac is not None
                    and abs(float(frac) * math.pi - result.chi) <= stabilizers.DEFAULT_TOLERANCE)
            return (frac if near else None), True

    result = stabilizers.verify(state, _radians(angles), antidiagonal)
    chi, agrees = judge(result)
    doc = {"matched": result.matched, "chi": _frac_json(chi) if chi is not None else None,
           "residual": result.residual, **extra}
    _emit(_dump(doc), args.out)
    if not (result.matched and agrees):
        raise VerificationMismatch(f"{failure} (residual {result.residual:g})")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from . import search
    # The oracle first: it owns the qubit range, and refuses before any search work.
    oracle = search.brute_force_oracle(args.n, workers=args.workers)
    bound = search.completeness_bound(args.n)
    result = search.search_tables(args.n, bound, workers=args.workers)
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
    p.add_argument("--bound", type=int,
                   help="multiset sum ceiling (default 4n); complete from the provable bound up")
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
    p.add_argument("--winding", help="comma-separated winding integers (with --derive); "
                                      "a list starting with '-' needs --winding=LIST")
    p.add_argument("--phis", help="comma-separated rational angles in pi units (diagonal); "
                                   "a list starting with '-' needs --phis=LIST")
    p.add_argument("--antidiag", help="comma-separated rational angles in pi units "
                                       "(antidiagonal); a list starting with '-' needs "
                                       "--antidiag=LIST")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    # search.ORACLE_MAX_QUBITS, written out: reading it would load numpy.
    p = sub.add_parser("oracle-check",
                       help="brute-force oracle vs search (n <= 6)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_oracle_check)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command and return its exit code.  The parser is built once per
    process, on the first call: building it costs more than a small analyze
    job, and parsing leaves no state on it, so repeated calls stay independent."""
    args = _parser().parse_args(argv)
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
