"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from conftest import (
    FIVE_QUBIT_MAXLEN_PI4,
    FIVE_QUBIT_MAXLEN_PI5,
    FIVE_QUBIT_PRINTED_THIRD,
    FIVE_QUBIT_SIX_TERM,
    rank_rational,
)
from paper_fixtures import (
    append_column,
    ghz_antidiag_family,
    ghz_family,
    ones_plus_w_family,
    ones_plus_w_state,
    w_family,
    zeros_plus_w_family,
)
from topophase import balance, search, stabilizers
from topophase.cli import main
from topophase.exactlinalg import determinant, kernel_lattice
from topophase.states import (
    WeightMatrix,
    ghz_state,
    support_state,
    weight_matrix,
)

TOL = stabilizers.DEFAULT_TOLERANCE

TABLE_I = {
    2: {1},
    3: {1, 2},
    4: {1, 2, 3},
    5: {1, 2, 3, 4, 5},
    6: {1, 2, 3, 4, 5, 6, 7, 8, 9},
}

PRINTED_TABLES = {
    3: {((1, 1, 1), 1, 2)},
    4: {((1, 1, 1, 1), 1, 3)},
    5: {
        ((1, 1, 1, 1, 1), 1, 4),
        ((1, 1, 1, 1, 1), 2, 3),
        ((2, 1, 1, 1, 1), 2, 4),
        ((2, 2, 1, 1, 1), 2, 5),
    },
    6: {
        ((1, 1, 1, 1, 1, 1), 1, 5),
        ((1, 1, 1, 1, 1, 1), 2, 4),
        ((2, 1, 1, 1, 1, 1), 2, 5),
        ((2, 2, 1, 1, 1, 1), 2, 6),
        ((2, 2, 2, 1, 1, 1), 2, 7),
        ((2, 2, 2, 1, 1, 1), 3, 6),
        ((2, 2, 2, 2, 1, 1), 4, 6),
        ((3, 3, 1, 1, 1, 1), 3, 7),
        ((3, 2, 1, 1, 1, 1), 3, 6),
        ((3, 2, 2, 1, 1, 1), 3, 7),
        ((3, 2, 2, 2, 1, 1), 4, 7),
        ((3, 3, 2, 1, 1, 1), 3, 8),
        ((3, 3, 2, 2, 1, 1), 4, 8),
        ((4, 2, 2, 2, 1, 1), 4, 8),
        ((4, 3, 2, 2, 1, 1), 4, 9),
    },
}

# Rows in which the printed tables are wrong, proven in
# test_criterion_2_reference_tables.  "unrealizable": printed rows that no
# support realises.  "omitted": genuine rows missing from the print, each with
# a witness support whose row 0 carries c0 = sum - 2Z and row j the j-th
# multiset value.
PRINTED_ERRATA = {
    6: {
        "unrealizable": {
            ((2, 2, 2, 2, 1, 1), 4, 6),
            ((4, 2, 2, 2, 1, 1), 4, 8),
        },
        "omitted": {
            ((2, 2, 1, 1, 1, 1), 3, 5): (
                "111111", "101101", "010000", "110010", "001010", "000110", "000001",
            ),
        },
    },
}
NO_ERRATA = {"unrealizable": set(), "omitted": {}}

N7_SPOT_RECORDS = [
    ((7, 6, 5, 4, 3, 2, 1), 10, 18),
    ((4, 3, 3, 1, 1, 1, 1), 4, 10),
    ((8, 5, 4, 3, 2, 2, 1), 8, 17),
    ((3, 3, 3, 2, 2, 2, 2), 6, 11),
]


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def as_tuples(records):
    return {(rec.multiset, rec.z, rec.denominator) for rec in records}


def random_support(rng, n):
    m = rng.randint(2, min(2 ** n, 12))
    return rng.sample([format(i, f"0{n}b") for i in range(2 ** n)], m)


def test_criterion_1_table_one_reproduction():
    with criterion("1 (Table I, n=2..6)"):
        start = time.monotonic()
        for n, expected in TABLE_I.items():
            got = set(search.table_one_denominators(n))
            assert got == expected, f"n={n}: {sorted(got)} != {sorted(expected)}"
        elapsed = time.monotonic() - start
        assert elapsed <= 120, f"took {elapsed:.1f}s, budget 120s"


def prove_unrealizable(record):
    """No support realises `record` = (multiset, Z, denominator).

    Flipping columns makes the row carrying c0 = sum - 2Z all-ones without
    changing the kernel; each qubit column is then the set of positions whose
    rows have a 1 there, and that set sums to Z.  If every position subset
    summing to Z holds both value-1 positions or neither, those two rows agree
    in every column, so the support would repeat a bitstring.
    """
    multiset, z, denominator = record
    assert denominator == sum(multiset) - z
    ones = [i for i, v in enumerate(multiset) if v == 1]
    assert len(ones) == 2, record
    subsets = [
        subset
        for size in range(1, len(multiset))
        for subset in combinations(range(len(multiset)), size)
        if sum(multiset[i] for i in subset) == z
    ]
    assert all((ones[0] in s) == (ones[1] in s) for s in subsets), record


def prove_genuine(record, support):
    """`support` realises `record` as an irreducible maximal-length c-state
    with chi_min = pi / denominator, and a diagonal local SU(2) stabilizer
    attains that phase numerically."""
    multiset, z, denominator = record
    n = len(multiset)
    state = support_state(n, support)
    w = weight_matrix(state)
    kernel = (sum(multiset) - 2 * z,) + multiset
    for k in range(n):
        assert sum(c * row[k] for c, row in zip(kernel, w.rows)) == 0, (record, k)
    assert balance.is_irreducible_maximal_length(w)
    assert balance.positive_maximal_kernel(w) == kernel
    assert balance.phase_set(w).d == 2 * denominator
    winding = balance.winding_for_phase(w)
    solution = balance.solve_stabilizer(w, winding)
    assert solution.chi == Fraction(1, denominator)
    ops = stabilizers.diagonal_stabilizer([float(f) * math.pi for f in solution.phis])
    res = stabilizers.verify(state, ops)
    assert res.matched, res
    assert abs(stabilizers.wrap_angle(res.chi - math.pi / denominator)) <= TOL


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_criterion_2_reference_tables(n, search_results):
    with criterion(f"2 (reference table, n={n})"):
        printed = PRINTED_TABLES[n]
        errata = PRINTED_ERRATA.get(n, NO_ERRATA)
        unrealizable, omitted = errata["unrealizable"], errata["omitted"]
        assert unrealizable <= printed and not omitted.keys() & printed
        for record in unrealizable:
            prove_unrealizable(record)
        for record, support in omitted.items():
            prove_genuine(record, support)
        expected = (printed - unrealizable) | omitted.keys()
        got = as_tuples(search_results[n].records)
        if errata is NO_ERRATA:
            note = f"The printed n={n} table has no recorded errata."
        else:
            note = (
                f"The printed n={n} table is checked less its unrealizable rows "
                f"{sorted(unrealizable)} and plus its omitted rows {sorted(omitted)}; "
                "see prove_unrealizable and prove_genuine in this file, and "
                "tests/test_search.py::TestSearchTables::"
                "test_printed_six_qubit_rows_degenerate and "
                "test_extra_six_qubit_row_is_genuine."
            )
        assert got == expected, (
            f"n={n}: records differ from the corrected printed table.\n"
            f"  found but not expected: {sorted(got - expected)}\n"
            f"  expected but not found: {sorted(expected - got)}\n" + note
        )


def test_criterion_3_seven_qubit_spot_checks(search_result_7):
    with criterion("3 (n=7 spot checks)"):
        got = as_tuples(search_result_7.records)
        for spot in N7_SPOT_RECORDS:
            assert spot in got, f"missing record {spot}"
        denoms = set(search.table_one_denominators(7))
        assert denoms >= set(range(1, 19)), f"denominators {sorted(denoms)}"


def test_criterion_4_oracle_equivalence(oracle_results):
    with criterion("4 (oracle equivalence, n=3,4,5)"):
        start = time.monotonic()
        for n in (3, 4, 5):
            oracle, _ = oracle_results[n]
            totals = [sum(rec.multiset) for rec in oracle]
            bound = max(max(totals, default=n), n) + 4
            searched = set(search.search_tables(n, bound).records)
            assert oracle == searched, (
                f"n={n}: oracle-only {sorted(as_tuples(oracle - searched))}, "
                f"search-only {sorted(as_tuples(searched - oracle))}"
            )
        elapsed = time.monotonic() - start + sum(sec for _, sec in oracle_results.values())
        assert elapsed <= 600, f"took {elapsed:.1f}s, budget 600s"


@pytest.mark.slow
@pytest.mark.usefixtures("two_cpus")
def test_criterion_4_oracle_six_qubits(monkeypatch, capsys):
    """`oracle-check --n 6 --workers 2` (about a minute on two cores) passes,
    and the oracle's own set is the corrected printed n = 6 table."""
    with criterion("4 (oracle equivalence, n=6)"):
        found = []
        oracle = search.brute_force_oracle

        def keep_result(*args, **kwargs):
            found.append(oracle(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(search, "brute_force_oracle", keep_result)
        assert main(["oracle-check", "--n", "6", "--workers", "2"]) == 0
        assert capsys.readouterr().out == "oracle check n=6: PASS (14 records, bound 24)\n"
        errata = PRINTED_ERRATA[6]
        corrected = (PRINTED_TABLES[6] - errata["unrealizable"]) | errata["omitted"].keys()
        assert as_tuples(found[0]) == corrected


def test_criterion_5_worked_families():
    with criterion("5 (worked families, residual <= 1e-9)"):
        rng = random.Random(20240301)

        def check(state, ops, chi):
            res = stabilizers.verify(state, ops)
            assert res.matched and res.residual <= TOL
            assert abs(stabilizers.wrap_angle(res.chi - chi)) <= TOL
            return res.chi

        # GHZ3 diagonal chi in {0, pi} and antidiagonal chi = +-pi/2
        for p in (0, 1):
            angles = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            chi = check(*ghz_family(3, p=p, angles=angles))
            assert abs(stabilizers.wrap_angle(chi - p * math.pi)) <= TOL
        for q in (0, 1):
            deltas = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            chi = check(*ghz_antidiag_family(3, q=q, deltas=deltas))
            assert abs(abs(chi) - math.pi / 2) <= TOL
        # GHZ_n even/odd antidiagonal rule
        for n in range(3, 8):
            for q in (0, 1):
                deltas = tuple(rng.uniform(-2, 2) for _ in range(n - 1))
                chi = check(*ghz_antidiag_family(n, q=q, deltas=deltas))
                if n % 2:
                    assert abs(abs(chi) - math.pi / 2) <= TOL
                else:
                    assert min(abs(chi), abs(abs(chi) - math.pi)) <= TOL
        # |1...1> + W^n: chi = sum(q) * pi / (n-1) for n = 3..6
        for n in range(3, 7):
            for _ in range(20):
                qs = tuple(rng.randint(-2, 2) for _ in range(n + 1))
                chi = check(*ones_plus_w_family(n, qs=qs))
                expected = stabilizers.wrap_angle(sum(qs) * math.pi / (n - 1))
                assert abs(stabilizers.wrap_angle(chi - expected)) <= TOL
        # |0...0> + W^n: chi in {0, pi}
        for n in range(3, 7):
            for _ in range(5):
                qs = tuple(rng.randint(0, 1) for _ in range(n))
                chi = check(*zeros_plus_w_family(n, qs=qs))
                assert min(abs(chi), abs(abs(chi) - math.pi)) <= TOL
        # W^n continuous family, 20 random alpha
        for _ in range(20):
            alpha = rng.uniform(-math.pi, math.pi)
            check(*w_family(3, alpha=alpha))


def test_criterion_6_property_suites(search_results, search_result_7):
    with criterion("6 (quantified property suites)"):
        rng = random.Random(611)
        for n in range(3, 7):
            for _ in range(1000):
                support = random_support(rng, n)
                w = weight_matrix(support_state(n, support))
                basis = kernel_lattice(w.rows)
                for vec in basis:
                    assert sum(vec) % 2 == 0, "odd kernel sum"
                ps = balance.phase_set(w)
                if not ps.continuous:
                    assert ps.d % 2 == 0
                    assert (1 / ps.chi_min).denominator == 1, "pi missing from a-state set"
                # invariance under row/column permutation and column negation
                rows = list(w.rows)
                rng.shuffle(rows)
                perm = rng.sample(range(n), n)
                k = rng.randrange(n)
                transformed = tuple(
                    tuple(-r[perm[j]] if perm[j] == k else r[perm[j]] for j in range(n))
                    for r in rows
                )
                assert balance.phase_set(WeightMatrix(w.m, n, transformed)).d == ps.d
        # construct -> analyze round trip on every search record, n = 3..7
        for n in range(3, 8):
            bound = (search_results[n] if n < 7 else search_result_7).sum_bound
            count = 0
            for structure in search.enumerate_structures(n, bound):
                state = balance.construct_state(structure)
                ps = balance.phase_set(weight_matrix(state))
                assert ps.chi_min == Fraction(1, structure.denominator)
                count += 1
            assert count == len((search_results[n] if n < 7 else search_result_7).records)
        # telescoping preserves d on 100 random extensions
        bases = [
            support_state(5, FIVE_QUBIT_SIX_TERM),
            support_state(5, FIVE_QUBIT_MAXLEN_PI4),
            support_state(5, FIVE_QUBIT_MAXLEN_PI5),
            ghz_state(3),
            ones_plus_w_state(4),
        ]
        for _ in range(100):
            state = rng.choice(bases)
            w = weight_matrix(state)
            k = rng.randrange(state.n)
            sign = rng.choice((1, -1))
            col = tuple(sign * row[k] for row in w.rows)
            extended = append_column(state, col)
            assert balance.phase_set(weight_matrix(extended)).d == balance.phase_set(w).d


WORKED_STATE_CASES = {
    "ones_plus_w_n4": (ones_plus_w_state(4), Fraction(1, 3)),
    "five_qubit_first": (support_state(5, FIVE_QUBIT_SIX_TERM), Fraction(1, 3)),
    "five_qubit_second": (ones_plus_w_state(5), Fraction(1, 4)),
    "five_qubit_third_as_printed": (
        support_state(5, FIVE_QUBIT_PRINTED_THIRD),
        Fraction(1, 2),
    ),
    "five_qubit_third_corrected": (support_state(5, FIVE_QUBIT_MAXLEN_PI4), Fraction(1, 4)),
    "five_qubit_fourth": (support_state(5, FIVE_QUBIT_MAXLEN_PI5), Fraction(1, 5)),
}

# Worked states whose printed chi_min is wrong: the printed value, the reason,
# and a basis of the integer left kernel of the weight matrix from which
# chi_min_from_kernel_basis proves the value expected above.
WORKED_STATE_ERRATA = {
    "five_qubit_third_as_printed": {
        "printed": Fraction(1, 4),
        "reason": (
            "the printed support selects the singular pattern 4-cycle "
            "{2,3},{3,4},{4,5},{5,2} (1-based positions), so it is reducible; "
            "five_qubit_third_corrected is a nonsingular selection of the same "
            "structure ({2,1,1,1,1}, Z=2)"
        ),
        "kernel_basis": ((1, 1, 1, 0, 1, 0), (1, 1, 0, 1, 0, 1)),
    },
}


def chi_min_from_kernel_basis(rows, basis):
    """chi_min = 2/d in units of pi, d the gcd of the coordinate sums over the
    integer left kernel of `rows`.

    `basis` spans that lattice: each vector annihilates the rows, there are
    m - rank of them, and a maximal minor of +-1 makes them linearly
    independent and their integer span saturated.
    """
    for vec in basis:
        assert all(sum(c * row[k] for c, row in zip(vec, rows)) == 0 for k in range(len(rows[0])))
    assert len(basis) == len(rows) - rank_rational(rows)
    assert any(
        abs(determinant([[vec[j] for j in cols] for vec in basis])) == 1
        for cols in combinations(range(len(rows)), len(basis))
    )
    return Fraction(2, gcd(*(sum(vec) for vec in basis)))


@pytest.mark.parametrize("case", WORKED_STATE_CASES, ids=list(WORKED_STATE_CASES))
def test_criterion_7_worked_states(case):
    with criterion(f"7 (worked state: {case})"):
        state, expected = WORKED_STATE_CASES[case]
        w = weight_matrix(state)
        note = ""
        if case in WORKED_STATE_ERRATA:
            erratum = WORKED_STATE_ERRATA[case]
            assert chi_min_from_kernel_basis(w.rows, erratum["kernel_basis"]) == expected
            assert expected != erratum["printed"]
            note = (
                f"\nThe printed value {erratum['printed']} is an erratum: {erratum['reason']}; "
                "see chi_min_from_kernel_basis and WORKED_STATE_ERRATA in this file, "
                "and tests/test_balance.py::TestPrintedThirdFiveQubitState."
            )
        ps = balance.phase_set(w)
        assert ps.chi_min == expected, (
            f"{state.support}: chi_min {ps.chi_min} != {expected}." + note
        )


def test_criterion_8_bezout_inequivalence(search_result_7):
    with criterion("8 (SLOCC inequivalence certificates)"):
        allowed7 = set(search.table_one_denominators(7))
        for d1, d2 in combinations(range(10, 19), 2):
            assert all(d % lcm(d1, d2) for d in allowed7), (d1, d2)
        allowed5 = set(search.table_one_denominators(5))
        certified = [all(d % lcm(d1, d2) for d in allowed5) for d1, d2 in ((3, 4), (3, 5), (1, 2))]
        assert certified == [True, True, False]
