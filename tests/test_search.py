import hashlib
import random
import re
import time
from itertools import combinations, permutations
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Echelon,
    equal_sum_masks,
    greedy_selection,
    independent_selections,
    python_mask_sums,
    reference_a_classes,
    reference_brute_force_oracle,
    sign_orbit,
)
from topophase.balance import (
    construct_state,
    convex_certificate,
    irreducibility,
    is_irreducible_maximal_length,
    phase_set,
    positive_maximal_kernel,
)
from topophase import search
from topophase.search import (
    MAX_SEARCH_QUBITS,
    CombinatorialStructure,
    SearchRecord,
    a_class_matrices,
    brute_force_oracle,
    completeness_bound,
    default_sum_bound,
    enumerate_structures,
    equal_sum_submultisets,
    records_to_csv,
    search_tables,
    uniqueness_check,
    validate_structure,
)
from topophase.states import WeightMatrix, weight_matrix

WORKED_SEVEN_QUBIT_MULTISET = (4, 3, 3, 1, 1, 1, 1)

# Table rows verified by the brute-force oracle (n <= 5) and by per-record
# construct -> analyze round trips.  The n=6 set disagrees with the printed
# table in three rows; see notes in test_printed_six_qubit_rows_degenerate.
TRUE_RECORDS = {
    3: {((1, 1, 1), 1, 2)},
    4: {((1, 1, 1, 1), 1, 3)},
    5: {
        ((1, 1, 1, 1, 1), 2, 3),
        ((1, 1, 1, 1, 1), 1, 4),
        ((2, 1, 1, 1, 1), 2, 4),
        ((2, 2, 1, 1, 1), 2, 5),
    },
    6: {
        ((1, 1, 1, 1, 1, 1), 2, 4),
        ((1, 1, 1, 1, 1, 1), 1, 5),
        ((2, 1, 1, 1, 1, 1), 2, 5),
        ((2, 2, 1, 1, 1, 1), 3, 5),
        ((2, 2, 1, 1, 1, 1), 2, 6),
        ((2, 2, 2, 1, 1, 1), 3, 6),
        ((3, 2, 1, 1, 1, 1), 3, 6),
        ((2, 2, 2, 1, 1, 1), 2, 7),
        ((3, 2, 2, 1, 1, 1), 3, 7),
        ((3, 2, 2, 2, 1, 1), 4, 7),
        ((3, 3, 1, 1, 1, 1), 3, 7),
        ((3, 3, 2, 1, 1, 1), 3, 8),
        ((3, 3, 2, 2, 1, 1), 4, 8),
        ((4, 3, 2, 2, 1, 1), 4, 9),
    },
}


def as_tuples(records):
    return {(rec.multiset, rec.z, rec.denominator) for rec in records}


class TestEqualSumSubmultisets:
    def test_worked_seven_qubit_count(self):
        subs = equal_sum_submultisets(WORKED_SEVEN_QUBIT_MULTISET, 4)
        assert len(subs) == 10
        assert (0,) in subs  # the {4} singleton
        assert (3, 4, 5, 6) in subs  # the four 1s
        pairs = [s for s in subs if len(s) == 2]
        assert len(pairs) == 8  # the {3,1} position combinations

    def test_three_singletons(self):
        assert equal_sum_submultisets((1, 1, 1), 1) == [(0,), (1,), (2,)]

    def test_empty(self):
        assert equal_sum_submultisets((2, 2), 3) == []

    def test_full_set_excluded(self):
        assert (0, 1) not in equal_sum_submultisets((1, 1), 2)


class TestUniquenessCheck:
    def test_worked_seven_qubit_selection(self):
        from conftest import WORKED_SEVEN_QUBIT_STRUCTURE

        assert uniqueness_check(WORKED_SEVEN_QUBIT_STRUCTURE)

    def test_omitting_forced_patterns_fails(self):
        # Seven {3,1}-style patterns without {4} and {1,1,1,1}: the values are
        # not pinned down, and the sign matrix is singular.
        patterns = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5))
        structure = CombinatorialStructure(7, WORKED_SEVEN_QUBIT_MULTISET, 4, patterns)
        assert not uniqueness_check(structure)

    def test_identical_patterns_fail(self):
        structure = CombinatorialStructure(
            3, (1, 1, 1), 1, ((0,), (0,), (1,))
        )
        assert not uniqueness_check(structure)

    def test_validate_structure_messages(self):
        with pytest.raises(ValueError, match="uniquely"):
            validate_structure(
                CombinatorialStructure(3, (1, 1, 1), 1, ((0,), (0,), (1,)))
            )
        with pytest.raises(ValueError, match="common divisor"):
            validate_structure(
                CombinatorialStructure(3, (2, 2, 2), 2, ((0,), (1,), (2,)))
            )


class TestEnumerateStructures:
    def test_three_qubits(self):
        found = [(s.multiset, s.z) for s in enumerate_structures(3, 6)]
        assert found == [((1, 1, 1), 1)]

    def test_four_qubits(self):
        found = [(s.multiset, s.z) for s in enumerate_structures(4, 8)]
        assert found == [((1, 1, 1, 1), 1)]

    def test_five_qubits(self):
        found = {(s.multiset, s.z) for s in enumerate_structures(5, 12)}
        assert found == {(m, z) for m, z, _ in TRUE_RECORDS[5]}

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_structures(2, 10))

    def test_emitted_structures_are_valid(self):
        for structure in enumerate_structures(6, 13):
            validate_structure(structure)
            assert gcd(*structure.multiset) == 1
            assert structure.c0 >= structure.multiset[0]
            assert (structure.total + structure.c0) % 2 == 0
            assert structure.denominator == structure.total - structure.z


class TestSearchTables:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_true_record_sets(self, n, search_results):
        assert as_tuples(search_results[n].records) == TRUE_RECORDS[n]

    def test_six_qubit_denominators(self, search_results):
        assert search_results[6].denominators == (4, 5, 6, 7, 8, 9)

    def test_six_qubit_specific_row(self, search_results):
        assert SearchRecord(9, (4, 3, 2, 2, 1, 1), 4) in search_results[6].records

    def test_records_round_trip(self, search_results):
        for n in (3, 4, 5, 6):
            for structure in enumerate_structures(n, search_results[n].sum_bound):
                state = construct_state(structure)
                assert phase_set(weight_matrix(state)).d == 2 * structure.denominator

    def test_multiplicity_map_into_next_n(self, search_results):
        # every record at n extends to n+1 by raising one multiplicity
        for n in (3, 4, 5):
            bigger = as_tuples(search_results[n + 1].records)
            for multiset, z, _ in as_tuples(search_results[n].records):
                assert any(
                    (tuple(sorted(multiset + (v,), reverse=True)), z,
                     sum(multiset) + v - z) in bigger
                    for v in set(multiset)
                )

    def test_no_all_distinct_multiset_below_seven(self, search_results, search_result_7):
        for n in (3, 4, 5, 6):
            for rec in search_results[n].records:
                assert len(set(rec.multiset)) < n
        assert any(
            len(set(rec.multiset)) == 7 for rec in search_result_7.records
        )

    def test_printed_six_qubit_rows_degenerate(self):
        # The two printed six-qubit rows absent from our table force the two
        # value-1 positions into identical memberships at their stated Z, so
        # the corresponding supports would repeat a weight vector; no
        # structure exists for these multisets at any Z.
        for multiset, z in [((2, 2, 2, 2, 1, 1), 4), ((4, 2, 2, 2, 1, 1), 4)]:
            ones = [i for i, v in enumerate(multiset) if v == 1]
            subs = equal_sum_submultisets(multiset, z)
            assert subs and all((ones[0] in s) == (ones[1] in s) for s in subs)
            total = sum(multiset)
            for any_z in range(1, (total - multiset[0]) // 2 + 1):
                assert not list(
                    s for s in enumerate_structures(6, total)
                    if s.multiset == multiset and s.z == any_z
                )

    def test_extra_six_qubit_row_is_genuine(self):
        # ... while the row our search adds constructs a verified state.
        structure = next(
            s for s in enumerate_structures(6, 10)
            if s.multiset == (2, 2, 1, 1, 1, 1) and s.z == 3
        )
        state = construct_state(structure)
        w = weight_matrix(state)
        assert is_irreducible_maximal_length(w)
        assert positive_maximal_kernel(w.rows) == (2, 2, 2, 1, 1, 1, 1)
        assert phase_set(w).d == 10

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            search_tables(4, workers=workers)

    def test_worker_count_does_not_change_output(self):
        single = search_tables(5, 12, workers=1)
        multi = search_tables(5, 12, workers=2)
        assert single == multi


    @pytest.mark.parametrize("n, bound, scanned, tests", [
        (6, 24, 962, 523),
        (7, 28, 2228, 3877),
        (8, 32, 4874, 21130),
    ])
    def test_counters(self, n, bound, scanned, tests):
        result = search_tables(n, bound)
        assert (result.multisets_scanned, result.rank_tests) == (scanned, tests)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_structures_give_the_search_records(self, n):
        bound = default_sum_bound(n)
        structures = {s.record() for s in enumerate_structures(n, bound)}
        assert structures == set(search_tables(n, bound).records)

    @pytest.mark.parametrize("n, bound", [(5, 20), (6, 24), (7, 28)])
    def test_structures_reuse_the_search_elimination(self, n, bound, monkeypatch):
        # The witnesses come out of the search's own pass: enumerating the
        # structures costs no mask sum and no rank test beyond the search's.
        calls = {}
        for name in ("_full_column_rank", "_mask_sums"):
            def counted(*args, _name=name, _inner=getattr(search, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args)
            monkeypatch.setattr(search, name, counted)
        list(enumerate_structures(n, bound))
        structures = dict(calls)
        calls.clear()
        search_tables(n, bound)
        assert structures == calls
        assert structures["_full_column_rank"] > 0

    @pytest.mark.parametrize("n, bound", [(5, 20), (6, 24)])
    def test_batched_scan_matches_greedy_on_every_bucket(self, n, bound):
        # The exact greedy rank scan over every bucket that has n masks, as the
        # search decided it before the batched test; its first n independent
        # masks are the patterns the structures carry.
        expected = []
        for task in search._search_tasks(n, bound):
            _, total, first = task
            for rest in search.partitions_fixed_length(total - first, n - 1, first):
                multiset = (first,) + rest
                if gcd(*multiset) != 1:
                    continue
                for z in range(1, (total - first) // 2 + 1):
                    chosen = greedy_selection(n, equal_sum_masks(multiset, z))
                    if chosen:
                        patterns = tuple(search._mask_positions(mask) for mask in chosen)
                        expected.append((multiset, z, patterns))
        got = [pair for task in search._search_tasks(n, bound)
               for pair in search._admitted_pairs(task)[0]]
        assert got == [(multiset, z) for multiset, z, _ in expected]
        structures = [(s.multiset, s.z, s.patterns) for s in enumerate_structures(n, bound)]
        assert structures == expected

    def test_structure_hash(self):
        # Byte identity of every structure the search derives, witnesses included.
        digest = hashlib.sha256()
        for n in range(3, 8):
            for s in enumerate_structures(n, default_sum_bound(n)):
                digest.update(repr((s.n, s.multiset, s.z, s.patterns)).encode())
        assert digest.hexdigest() == (
            "d27507bf919e93d39229cde93efa79ebbdc56b16ebbe4fd609961810c4765014"
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=9), st.integers(1, 60))
    def test_mask_sums_match_python_loop(self, values, z):
        sums = search._mask_sums(np.array([values, values[::-1]]))
        assert sums.tolist() == [python_mask_sums(values), python_mask_sums(values[::-1])]
        assert equal_sum_submultisets(values, z) == [
            search._mask_positions(mask) for mask in equal_sum_masks(values, z)
        ]

    def test_equal_sum_submultisets_exact_beyond_int64(self):
        # Sums past 2^63 would wrap in int64 and match z = 2^62 spuriously.
        big = 2 ** 62
        values = (big,) * 6
        assert equal_sum_submultisets(values, big) == [(j,) for j in range(6)]
        fours = equal_sum_submultisets(values, 4 * big)
        assert len(fours) == 15
        assert fours == [search._mask_positions(mask) for mask in equal_sum_masks(values, 4 * big)]


def _accepted_rows(rows):
    """Indices of the rows `Echelon.add` accepts, scanning in order."""
    ech = Echelon()
    return [i for i, row in enumerate(rows) if ech.add(list(row))]


def _check_pivots(pivots, rows, n):
    """Pivots of one matrix: columns before the first without a pivot hold
    the rows `Echelon` accepts on those columns (the full basis when there
    is no such column), and every later column holds -1."""
    lead = next((k for k in range(n) if len(_accepted_rows([r[:k + 1] for r in rows])) <= k), n)
    assert sorted(pivots[:lead]) == _accepted_rows([r[:lead] for r in rows])
    assert list(pivots[lead:]) == [-1] * (n - lead)
    return lead == n


@st.composite
def zero_one_buckets(draw):
    """Stacks of 0/1 buckets for one n, padded with zero rows to one height;
    columns are random, zero, all ones or copies of an earlier column."""
    n = draw(st.integers(3, 9))
    buckets = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(1, 2 * n + 3))
        cols = []
        for j in range(n):
            kind = draw(st.sampled_from(("random", "random", "zero", "ones", "copy")))
            if kind == "zero":
                cols.append([0] * m)
            elif kind == "ones":
                cols.append([1] * m)
            elif kind == "copy" and j:
                cols.append(list(cols[draw(st.integers(0, j - 1))]))
            else:
                cols.append(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        buckets.append([list(row) for row in zip(*cols)])
    height = max(len(b) for b in buckets) + draw(st.integers(0, 3))
    return n, buckets, height


class TestBatchedRankTest:
    @settings(max_examples=200, deadline=None)
    @given(zero_one_buckets())
    def test_matches_echelon(self, case):
        n, buckets, height = case
        stack = np.zeros((len(buckets), height, n), dtype=np.int64)
        for b, rows in enumerate(buckets):
            stack[b, :len(rows)] = rows
        got = search._full_column_rank(stack)
        assert got.shape == (len(buckets), n)
        for pivots, rows in zip(got.tolist(), buckets):
            full = _check_pivots(pivots, rows, n)
            assert full == (len(_accepted_rows(rows)) == n) == (pivots[-1] >= 0)

    @pytest.mark.parametrize("n", [9, 12, 16, MAX_SEARCH_QUBITS])
    def test_large_entries_stay_exact(self, n):
        # From the fifth column on the elimination runs modulo the prime;
        # unreduced int64 entries would wrap to multiples of 2^64 here.
        rng = np.random.default_rng(n)
        mats = rng.integers(0, 2, size=(30, n + 2, n))
        mats[:10, :, -1] = mats[:10, :, 0]  # rank deficient
        got = search._full_column_rank(mats).tolist()
        expected = [_check_pivots(pivots, mat.tolist(), n) for pivots, mat in zip(got, mats)]
        assert [pivots[-1] >= 0 for pivots in got] == expected
        assert any(expected) and not all(expected)

    def test_exact_up_to_the_limit(self):
        assert search._rank_test_exact(MAX_SEARCH_QUBITS)
        assert not search._rank_test_exact(MAX_SEARCH_QUBITS + 1)
        assert MAX_SEARCH_QUBITS == 22

    def test_refuses_n_beyond_limit_without_work(self, monkeypatch):
        def no_work(task):
            raise AssertionError("scanned a chunk")

        monkeypatch.setattr(search, "_scan_chunk", no_work)
        monkeypatch.setattr(search, "_mask_sums", no_work)
        with pytest.raises(ValueError, match="n = 22"):
            search_tables(23)
        with pytest.raises(ValueError, match="n = 22"):
            next(enumerate_structures(23, 92))
        with pytest.raises(ValueError, match="n = 22"):
            a_class_matrices((1,) * 23, 1)


class TestOracle:
    def test_three_qubits(self):
        assert as_tuples(brute_force_oracle(3)) == TRUE_RECORDS[3]

    def test_four_qubits(self):
        assert as_tuples(brute_force_oracle(4)) == TRUE_RECORDS[4]

    def test_two_qubits_empty(self):
        assert brute_force_oracle(2) == set()

    def test_large_n_rejected(self, monkeypatch):
        def no_work(n):
            raise AssertionError("the oracle started work before refusing n")

        monkeypatch.setattr(search, "_oracle_tasks", no_work)
        with pytest.raises(ValueError):
            brute_force_oracle(7)

    @pytest.mark.parametrize("n", [3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_matches_reference(self, n):
        assert brute_force_oracle(n) == reference_brute_force_oracle(n)

    @pytest.mark.parametrize("n, cap", [(3, 1), (3, 7), (4, 50), (4, 1365), (5, 5000)])
    def test_chunks_tile_the_supports_in_order(self, n, cap, monkeypatch):
        monkeypatch.setattr(search, "ORACLE_CHUNK_SUPPORTS", cap)
        prefixes, tails = search._oracle_split(n)
        chunks = [search._tail_join(prefixes[lo:hi], tails, 2 ** n - 1)
                  for _, lo, hi in search._oracle_tasks(n)]
        assert max(map(len, chunks)) <= cap
        assert np.vstack(chunks).tolist() == [list(c) for c in combinations(range(2 ** n - 1), n)]

    def test_support_records_match_reference_per_support(self):
        # The first support's kernel is 2 * (1, 1, 1, 1, 1, 2, 1): the gcd must go.
        rng = random.Random(6)
        supports = [[2, 8, 29, 45, 52, 57]] + [rng.sample(range(63), 6) for _ in range(300)]
        for support in supports:
            signs = [tuple(1 - 2 * (m + 1 >> j & 1) for j in range(6)) for m in support]
            vec = positive_maximal_kernel([(1,) * 6, *signs])
            expected = {search._record_from_kernel(vec)} - {None} if vec else set()
            assert search._support_records(6, np.array([support])) == expected, support

    def test_workers_agree(self):
        records = brute_force_oracle(5, workers=2)
        assert records == brute_force_oracle(5)
        assert as_tuples(records) == TRUE_RECORDS[5]

    def test_det_off_the_margin_raises(self, monkeypatch):
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: det(a) + 0.3)
        with pytest.raises(ArithmeticError):
            brute_force_oracle(4)

    @pytest.mark.parametrize("columns", [1, 4])  # the d*1 solve, the d*I solve
    def test_solve_off_by_one_fails_exact_check(self, columns, monkeypatch):
        solve = np.linalg.solve

        def off_by_one(a, b):
            out = solve(a, b)
            if out.shape[-1] == columns:
                out[0, 0, 0] += 1.0
            return out

        monkeypatch.setattr(np.linalg, "solve", off_by_one)
        with pytest.raises(ArithmeticError, match="exact"):
            brute_force_oracle(4)

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            brute_force_oracle(3, workers=0)

    def test_fast_kernel_agrees_with_compositional_path(self):
        rng = random.Random(987)
        from itertools import product

        for _ in range(250):
            n = rng.choice((3, 4))
            pool = list(product((1, -1), repeat=n))
            rows = tuple(rng.sample(pool, n + 1))
            fast = positive_maximal_kernel(rows)
            w = WeightMatrix(n + 1, n, rows)
            if not is_irreducible_maximal_length(w):
                slow = None
            else:
                cert = convex_certificate(w)
                if cert is None or 0 in cert.coefficients:
                    slow = None
                elif not irreducibility(w).irreducible:
                    slow = None
                else:
                    slow = cert.coefficients
            assert fast == slow


class TestBounds:
    def test_completeness_bound_values(self):
        assert [completeness_bound(n) for n in range(3, 9)] == [3, 4, 10, 24, 56, 136]

    def test_bound_above_provable_is_clamped(self):
        # Without the clamp the first line fails fast and the second never ends.
        assert len(search._search_tasks(4, 300)) == len(search._search_tasks(4, 4))
        assert search._search_tasks(4, 10 ** 20) == search._search_tasks(4, 4)
        huge, provable = search_tables(4, 10 ** 20), search_tables(4, 4)
        assert huge.sum_bound == 10 ** 20
        assert (huge.records, huge.multisets_scanned, huge.rank_tests) == (
            provable.records, provable.multisets_scanned, provable.rank_tests)
        assert list(enumerate_structures(4, 10 ** 20)) == list(enumerate_structures(4, 4))

    def test_completeness_bound_covers_oracle(self, oracle_results):
        for n, (records, _) in oracle_results.items():
            assert records
            assert max(sum(rec.multiset) for rec in records) <= completeness_bound(n)

    def test_default_bound_covers_known_tables(self, search_results, search_result_7):
        for n in (3, 4, 5, 6):
            assert max(sum(r.multiset) for r in search_results[n].records) <= default_sum_bound(n)
        assert max(sum(r.multiset) for r in search_result_7.records) <= default_sum_bound(7)

    def test_raised_bound_adds_nothing(self, search_results, search_result_7):
        # A real truncation check: a bound well above the largest multiset
        # sum found at the default bound finds no further record.
        assert search_tables(6, 36).records == search_results[6].records
        assert search_tables(7, 36).records == search_result_7.records
        assert len(search_results[6].records) == 14
        assert len(search_result_7.records) == 122

    def test_complete_mode_adds_nothing_small_n(self, search_results):
        assert as_tuples(search_tables(3, completeness_bound(3)).records) == TRUE_RECORDS[3]
        assert as_tuples(search_tables(4, completeness_bound(4)).records) == TRUE_RECORDS[4]
        for n in range(3, 7):
            complete = search_tables(n, completeness_bound(n)).records
            assert complete == search_tables(n, 4 * n + 16).records == search_results[n].records


class TestAClasses:
    def test_forced_patterns_present(self):
        matrices = a_class_matrices(WORKED_SEVEN_QUBIT_MULTISET, 4)
        assert matrices
        singleton_row = tuple(1 if j == 0 else -1 for j in range(7))
        ones_row = tuple(1 if j >= 3 else -1 for j in range(7))
        for matrix in matrices:
            assert singleton_row in matrix  # the {4} pattern
            assert ones_row in matrix  # the {1,1,1,1} pattern

    def test_limit_enforced(self):
        # Refused from the record's own size, before anything is built: the
        # second has one raw selection but 10! column permutations.
        for multiset, z, work in [((1,) * 8, 3, 1422751995), ((1,) * 10, 1, 36288001)]:
            start = time.monotonic()
            with pytest.raises(ValueError, match=rf"{re.escape(str(multiset))}, Z = {z}: "
                                                 rf".* = {work} exceeds A_CLASS_WORK_LIMIT"):
                a_class_matrices(multiset, z)
            assert time.monotonic() - start < 1

    def test_limit_edge(self, monkeypatch):
        # {1,1,1,1,1}, Z = 2: ten masks, C(10, 5) = 252 selections, |G| = 5! = 120.
        assert comb(len(equal_sum_submultisets((1,) * 5, 2)), 5) + 120 * 10 == 1452
        monkeypatch.setattr(search, "A_CLASS_WORK_LIMIT", 1452)
        assert a_class_matrices((1,) * 5, 2)
        monkeypatch.setattr(search, "A_CLASS_WORK_LIMIT", 1451)
        with pytest.raises(ValueError, match="= 1452 exceeds A_CLASS_WORK_LIMIT = 1451"):
            a_class_matrices((1,) * 5, 2)

    def test_matches_greedy_per_selection(self, search_results):
        # Checks the reference's raw selections: each independent one, as
        # its sign rows in mask order.
        cases = [(WORKED_SEVEN_QUBIT_MULTISET, 4)] + [
            (rec.multiset, rec.z) for n in range(3, 7) for rec in search_results[n].records
        ]
        assert len(cases) == 21
        for multiset, z in cases:
            n = len(multiset)
            expected = [
                tuple(tuple(1 if mask >> j & 1 else -1 for j in range(n)) for mask in combo)
                for combo in combinations(equal_sum_masks(multiset, z), n)
                if greedy_selection(n, combo)
            ]
            assert independent_selections(multiset, z) == expected

    def test_canonical_forms_are_per_selection_minima(self, search_results):
        # Reference: each selection canonicalized on its own, as the minimum
        # over every value-preserving column permutation.  The all-ones n = 6
        # rows (720 permutations of 2 530 selections) are pinned by count.
        cases = [(WORKED_SEVEN_QUBIT_MULTISET, 4)] + [
            (rec.multiset, rec.z) for n in range(3, 7) for rec in search_results[n].records
            if len(set(rec.multiset)) > 1 or n < 6
        ]
        assert len(cases) == 19
        for multiset, z in cases:
            n = len(multiset)
            perms = [p for p in permutations(range(n))
                     if all(multiset[p[j]] == multiset[j] for j in range(n))]
            expected = {
                min(tuple(sorted(tuple(row[j] for j in p) for row in selection)) for p in perms)
                for selection in independent_selections(multiset, z)
            }
            assert a_class_matrices(multiset, z) == sorted(expected)
        assert len(a_class_matrices((1,) * 6, 2)) == 9

    def test_matches_reference_on_every_small_record(self, search_results, search_result_7):
        # Every n = 3..7 record with at most 20 000 raw selections, against
        # the seen-orbit walk over all of them.
        records = [rec for n in range(3, 7) for rec in search_results[n].records]
        records += search_result_7.records
        cases = [
            (rec.multiset, rec.z) for rec in records
            if comb(len(equal_sum_submultisets(rec.multiset, rec.z)), len(rec.multiset)) <= 20000
        ]
        assert len(cases) == 134
        for multiset, z in cases:
            assert a_class_matrices(multiset, z) == reference_a_classes(multiset, z), (multiset, z)

    def test_orbits_cover_every_independent_selection(self):
        # Completeness by orbit counting on a record beyond the reference's
        # 20 000 selections: C(22, 7) = 170 544 raw selections, of which
        # 63 360 are independent, and no two classes share an orbit.
        multiset, z = (2, 2, 2, 1, 1, 1, 1), 4
        assert comb(len(equal_sum_submultisets(multiset, z)), 7) == 170544
        classes = a_class_matrices(multiset, z)
        orbits = [sign_orbit(matrix, multiset) for matrix in classes]
        assert [min(orbit) for orbit in orbits] == classes
        assert sum(map(len, orbits)) == len(set().union(*orbits)) == 63360


def test_csv_format(search_results):
    text = records_to_csv(search_results[5].records)
    assert text == (
        "multiset,Z,chi_min_denominator\n"
        "1;1;1;1;1,2,3\n"
        "1;1;1;1;1,1,4\n"
        "2;1;1;1;1,2,4\n"
        "2;2;1;1;1,2,5\n"
    )
