import concurrent.futures
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
import time
from itertools import combinations, permutations
from math import comb, gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Echelon,
    equal_sum_masks,
    greedy_selection,
    independent_selections,
    partitions_fixed_length,
    python_mask_sums,
    rank_rational,
    reference_a_classes,
    reference_brute_force_oracle,
    reference_multisets,
    reference_uniqueness,
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
from topophase.exactlinalg import determinant
from topophase.search import (
    MAX_SEARCH_QUBITS,
    ORACLE_MAX_QUBITS,
    CombinatorialStructure,
    SearchRecord,
    a_class_matrices,
    brute_force_oracle,
    completeness_bound,
    enumerate_structures,
    equal_sum_submultisets,
    records_to_csv,
    search_tables,
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


@st.composite
def repeated_part_batches(draw):
    """Batches of one to three nonincreasing multisets of one n, 3..12, each
    with a repeated part."""
    n = draw(st.integers(3, 12))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        parts = draw(st.lists(st.integers(1, 7), min_size=n - 1, max_size=n - 1))
        parts.append(draw(st.sampled_from(parts)))
        rows.append(sorted(parts, reverse=True))
    return np.array(rows, dtype=np.int64)


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

        validate_structure(WORKED_SEVEN_QUBIT_STRUCTURE)
        assert determinant(WORKED_SEVEN_QUBIT_STRUCTURE.sign_matrix()) != 0

    def test_omitting_forced_patterns_fails(self):
        # Seven {3,1}-style patterns without {4} and {1,1,1,1}: the values are
        # not pinned down, and the sign matrix is singular.
        patterns = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5))
        structure = CombinatorialStructure(7, WORKED_SEVEN_QUBIT_MULTISET, 4, patterns)
        assert determinant(structure.sign_matrix()) == 0
        with pytest.raises(ValueError, match="uniquely"):
            validate_structure(structure)

    def test_identical_patterns_fail(self):
        structure = CombinatorialStructure(
            3, (1, 1, 1), 1, ((0,), (0,), (1,))
        )
        assert determinant(structure.sign_matrix()) == 0

    def test_nonsingular_iff_solve_reproduces_multiset(self):
        # Every n-subset of the equal-sum patterns of each bucket with a
        # gcd-1 multiset of total at most 3n and c0 > 0: a nonzero sign
        # determinant agrees with the solve-and-compare reference.
        counts = {True: 0, False: 0}
        for n in (3, 4, 5):
            for total in range(n, 3 * n + 1):
                for multiset in partitions_fixed_length(total, n):
                    if gcd(*multiset) != 1:
                        continue
                    for z in range(1, (total + 1) // 2):
                        masks = equal_sum_submultisets(multiset, z)
                        for selection in combinations(masks, n):
                            structure = CombinatorialStructure(n, multiset, z, selection)
                            unique = reference_uniqueness(structure)
                            assert (determinant(structure.sign_matrix()) != 0) == unique
                            counts[unique] += 1
        assert counts[True] and counts[False], counts

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

    def test_record_is_a_plain_tuple(self, search_results):
        # The table order, tuple equality and hash, and a pickle round trip
        # (how worker processes return their records).
        records = list(search_results[6].records)
        assert sorted(reversed(records)) == sorted(
            records, key=lambda rec: (rec.denominator, rec.multiset, rec.z)) == records
        rec = SearchRecord(9, (4, 3, 2, 2, 1, 1), 4)
        assert rec == (9, (4, 3, 2, 2, 1, 1), 4) and hash(rec) == hash(tuple(rec))
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is SearchRecord and back.z == 4

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
        assert positive_maximal_kernel(w) == (2, 2, 2, 1, 1, 1, 1)
        assert phase_set(w).d == 10

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            search_tables(4, workers=workers)

    @pytest.mark.usefixtures("two_cpus")
    def test_worker_count_does_not_change_output(self):
        single = search_tables(5, 12, workers=1)
        multi = search_tables(5, 12, workers=2)
        assert single == multi

    @pytest.mark.usefixtures("two_cpus")
    def test_workers_across_batch_boundaries(self):
        # Five batches in one process, so each of two workers streams several.
        assert len(list(search._search_batches(search._search_tasks(7, 28)))) == 5
        assert search_tables(7, 28, workers=2) == search_tables(7, 28, workers=1)

    def test_one_process_imports_no_pool(self):
        # The process pool is imported only when a map starts processes.
        code = ("import sys; from topophase import cli; "
                "cli.main(['oracle-check', '--n', '4', '--workers', '2']); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('concurrent', 'multiprocessing')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "oracle check n=4: PASS (1 records, bound 4)\n[]\n"

    def test_processes_capped_at_tasks_and_cpus(self, monkeypatch):
        # No process starts: the pool records what it is asked for and maps inline.
        requested = []

        class NoProcessPool:
            def __init__(self, max_workers, mp_context):
                requested.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, stripes):
                return map(func, stripes)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoProcessPool)
        # One task each: min(workers, tasks, CPUs) = 1 runs inline.
        assert search_tables(3, 3, workers=10 ** 6) == search_tables(3, 3)
        assert brute_force_oracle(3, workers=10 ** 6) == brute_force_oracle(3)
        assert requested == []
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert search_tables(7, 28, workers=10 ** 6) == search_tables(7, 28)
        monkeypatch.setattr(search, "ORACLE_CHUNK_SUPPORTS", 1)  # 35 chunks at n = 3
        assert brute_force_oracle(3, workers=10 ** 6) == brute_force_oracle(3)
        assert search_tables(5, 12, workers=2) == search_tables(5, 12)
        assert requested == [(3, "fork"), (3, "fork"), (2, "fork")]


    @pytest.mark.parametrize("n, bound, scanned, tests", [
        (6, 24, 962, 523),
        (7, 28, 2228, 3877),
        (8, 32, 4874, 21130),
    ])
    def test_counters(self, n, bound, scanned, tests):
        result = search_tables(n, bound)
        assert (result.multisets_scanned, result.rank_tests) == (scanned, tests)

    def test_nine_qubits_pinned(self):
        # The first pinned size with many batches in each size class.
        result = search_tables(9, 36)
        assert (len(result.records), result.multisets_scanned, result.rank_tests) == (
            10604, 10165, 69820)
        assert result.denominators == tuple(range(5, 30))
        assert hashlib.sha256(records_to_csv(result.records).encode()).hexdigest() == (
            "75c67358640315f75d30809c50a5b2a5bacf3634feb0a8f2bad4ff9d72b6f5f3"
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_structures_give_the_search_records(self, n):
        bound = 4 * n
        structures = {SearchRecord(s.denominator, s.multiset, s.z)
                      for s in enumerate_structures(n, bound)}
        assert structures == set(search_tables(n, bound).records)

    @pytest.mark.parametrize("n, bound", [(5, 20), (6, 24), (7, 28)])
    def test_structures_add_one_pass_over_the_admitted_buckets(self, n, bound, monkeypatch):
        # The structures take the search's mask sums and its count-space rank
        # calls, and add one mask-level elimination of the admitted buckets
        # alone, for their witnesses.
        calls = {"_full_column_rank": [], "_mask_sums": []}
        for name in calls:
            def recorded(*args, _name=name, _inner=getattr(search, name)):
                calls[_name].append(args[0].copy())
                return _inner(*args)
            monkeypatch.setattr(search, name, recorded)
        structures = list(enumerate_structures(n, bound))
        found = {name: list(arrays) for name, arrays in calls.items()}
        for arrays in calls.values():
            arrays.clear()
        search_tables(n, bound)
        assert [a.tolist() for a in found["_mask_sums"]] == [a.tolist() for a in calls["_mask_sums"]]
        extra = [mats.tolist() for mats in found["_full_column_rank"]]
        for mats in calls["_full_column_rank"]:
            extra.remove(mats.tolist())  # the search's own calls
        buckets = sorted(tuple(sum(bit << j for j, bit in enumerate(row)) for row in mat if any(row))
                         for mats in extra for mat in mats)
        assert buckets == sorted(tuple(equal_sum_masks(s.multiset, s.z)) for s in structures)
        assert len(calls["_full_column_rank"]) > 0

    @pytest.mark.parametrize("n, bound", [(5, 20), (6, 24)])
    def test_batched_scan_matches_greedy_on_every_bucket(self, n, bound):
        # The exact greedy rank scan over every bucket that has n masks, as the
        # search decided it before the batched test; its first n independent
        # masks are the patterns the structures carry.
        expected = []
        for multiset in reference_multisets(search._search_tasks(n, bound)):
            for z in range(1, (sum(multiset) - multiset[0]) // 2 + 1):
                chosen = greedy_selection(n, equal_sum_masks(multiset, z))
                if chosen:
                    patterns = tuple(search._mask_positions(mask) for mask in chosen)
                    expected.append((multiset, z, patterns))
        # The greedy scan admits no bucket below the floor Z >= c1 that the
        # batch scan skips, so the floor drops only rank-deficient buckets.
        assert all(z >= multiset[0] for multiset, z, _ in expected)
        got = [pair for batch in search._search_batches(search._search_tasks(n, bound))
               for pair in search._scan_batch(batch)[0]]
        assert got == [(multiset, z) for multiset, z, _ in expected]
        structures = [(s.multiset, s.z, s.patterns) for s in enumerate_structures(n, bound)]
        assert structures == expected

    @settings(max_examples=60, deadline=None)
    @given(repeated_part_batches())
    def test_count_space_matches_greedy(self, values):
        # The count-space decision of every scanned Z against the exact greedy
        # scan of the bucket's masks, and the witnesses against its choice.
        expected = []
        for multiset in map(tuple, values.tolist()):
            for z in range(1, (sum(multiset) - multiset[0]) // 2 + 1):
                chosen = greedy_selection(len(multiset), equal_sum_masks(multiset, z))
                if chosen:
                    expected.append(((multiset, z), chosen))
        pairs, _, admitted, keys = search._scan_batch(values)
        assert pairs == [pair for pair, _ in expected]
        witnesses = search._witnesses(keys, admitted, values.shape[1])
        assert np.sort(witnesses, axis=1).tolist() == [chosen for _, chosen in expected]

    @pytest.mark.parametrize("budget", [search.SEARCH_BATCH_SUMS, 2 ** 6])
    @pytest.mark.parametrize("n", range(3, 10))
    def test_batches_fit_the_budget_and_keep_the_task_stream(self, n, budget, monkeypatch):
        monkeypatch.setattr(search, "SEARCH_BATCH_SUMS", budget)
        tasks = search._search_tasks(n, 4 * n)
        batches = list(search._search_batches(tasks))
        size = max(1, budget >> n)
        assert all(len(batch) == size for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= size
        assert all(len(batch) * 2 ** n <= budget or len(batch) == 1 for batch in batches)
        assert all(batch.dtype == np.int64 and batch.shape[1] == n for batch in batches)
        assert [row for batch in batches for row in batch.tolist()] == [
            list(multiset) for multiset in reference_multisets(tasks)
        ]

    @pytest.mark.parametrize("procs", [2, 3])
    @pytest.mark.parametrize("n", [5, 7, 8, 9])
    def test_stripes_keep_the_task_stream(self, n, procs):
        # What each worker of `_map_stripes` streams: every stripe tasks[i::p].
        tasks = search._search_tasks(n, 4 * n)
        for i in range(procs):
            stripe = tasks[i::procs]
            assert [row for batch in search._search_batches(stripe) for row in batch.tolist()] == [
                list(multiset) for multiset in reference_multisets(stripe)
            ]

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_expansion_layers_fit_the_budget(self, n, monkeypatch):
        # At 2^6 a layer may hold 2^6 // n rows, or one parent's children, so
        # the n layers together stay within 2^6; the stream is far larger.
        # `test_lone_parent_beyond_the_budget` covers the lone parent.
        budget, layers, expand = 2 ** 6, [], search._expand_layer

        def recorded(prefix, *args):
            children = expand(prefix, *args)
            layers.append((len(prefix), len(children[0])))
            return children

        monkeypatch.setattr(search, "SEARCH_BATCH_SUMS", budget)
        monkeypatch.setattr(search, "_expand_layer", recorded)
        tasks = search._search_tasks(n, 4 * n)
        rows = [row for batch in search._search_batches(tasks) for row in batch.tolist()]
        assert rows == [list(multiset) for multiset in reference_multisets(tasks)]
        assert len(rows) > budget
        assert all(children <= budget // n or parents == 1 for parents, children in layers)

    @pytest.mark.parametrize("task", [(3, 30, 20), (4, 40, 20)])
    def test_lone_parent_beyond_the_budget(self, task, monkeypatch):
        # One task whose first part alone has more children than the budget.
        monkeypatch.setattr(search, "SEARCH_BATCH_SUMS", 2 ** 2)
        rows = [row for batch in search._search_batches([task]) for row in batch.tolist()]
        assert rows == [list(multiset) for multiset in reference_multisets([task])]

    def test_no_tasks_no_batches(self):
        assert list(search._search_batches([])) == []

    @pytest.mark.parametrize("budget", [2 ** 5, 2 ** 9])
    def test_batch_budget_does_not_change_output(self, budget, monkeypatch):
        # Batches of one multiset (2^6 > 2^5) and of eight, against the default.
        expected = search_tables(6, 24), list(enumerate_structures(6, 24))
        monkeypatch.setattr(search, "SEARCH_BATCH_SUMS", budget)
        assert (search_tables(6, 24), list(enumerate_structures(6, 24))) == expected

    def test_rank_calls_fit_the_budget(self, monkeypatch):
        # At n = 7 and 2^5 the admitted buckets of the structures' mask-level
        # pass over one multiset hold more padded rows than one call may take,
        # and at 2^3 so do the count-space buckets of one multiset; both are
        # split, and the output is unchanged.
        expected = search_tables(7, 28), list(enumerate_structures(7, 28))
        rank, scan, shapes, per_scan = search._full_column_rank, search._scan_batch, [], []

        def recorded(mats):
            shapes.append(mats.shape)
            return rank(mats)

        def scanned(values):
            before = len(shapes)
            result = scan(values)
            per_scan.append(len(shapes) - before)
            return result

        monkeypatch.setattr(search, "_full_column_rank", recorded)
        monkeypatch.setattr(search, "_scan_batch", scanned)
        for budget in (2 ** 5, 2 ** 3):
            monkeypatch.setattr(search, "SEARCH_BATCH_SUMS", budget)
            shapes.clear()
            per_scan.clear()
            assert (search_tables(7, 28), list(enumerate_structures(7, 28))) == expected
            assert all(buckets * rows <= budget or buckets == 1 for buckets, rows, _ in shapes)
        assert max(per_scan) > 1

    def test_rank_profile_of_the_bench_job(self, monkeypatch):
        # A ceiling on the rank kernel's work in the bench's `search --n 8
        # --bound 32` job (19 calls of 25 688 padded rows in all), so padding
        # that grows fails here, not only on the bench.
        rank, shapes = search._full_column_rank, []

        def recorded(mats):
            shapes.append(mats.shape)
            return rank(mats)

        monkeypatch.setattr(search, "_full_column_rank", recorded)
        search_tables(8, 32)
        assert len(shapes) <= 19
        assert sum(buckets * rows for buckets, rows, _ in shapes) <= 25702

    def test_structure_hash(self):
        # Byte identity of every structure the search derives, witnesses included.
        digest = hashlib.sha256()
        for n in range(3, 8):
            for s in enumerate_structures(n, 4 * n):
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


@st.composite
def ragged_buckets(draw):
    """Zero to six buckets of 1..12 rows over 1..6 columns of small integers,
    with zero and repeated columns, stored in a shuffled order."""
    width = draw(st.integers(1, 6))
    buckets = []
    for _ in range(draw(st.integers(0, 6))):
        m = draw(st.integers(1, 12))
        cols = []
        for j in range(width):
            kind = draw(st.sampled_from(("random", "random", "zero", "copy")))
            if kind == "zero":
                cols.append([0] * m)
            elif kind == "copy" and j:
                cols.append(list(cols[draw(st.integers(0, j - 1))]))
            else:
                cols.append(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
        buckets.append([list(row) for row in zip(*cols)])
    return width, buckets, draw(st.permutations(range(len(buckets))))


def _stored(width, buckets, placement):
    """The buckets' rows, stored in `placement` order, with each bucket's
    start and size in its own order."""
    rows, starts = [], [0] * len(buckets)
    for b in placement:
        starts[b] = len(rows)
        rows += buckets[b]
    return (np.array(rows, dtype=np.int32).reshape(-1, width), np.array(starts, dtype=np.intp),
            np.array([len(bucket) for bucket in buckets], dtype=np.intp))


class TestBucketPivots:
    @pytest.mark.parametrize("budget", [search.SEARCH_BATCH_SUMS, 2 ** 3])
    @settings(max_examples=100, deadline=None)
    @given(case=ragged_buckets())
    def test_matches_each_bucket_alone(self, budget, case):
        # At the default budget all buckets share one call; at 2^3 a bucket
        # of 9..12 rows takes a call of its own.
        width, buckets, placement = case
        rank, shapes = search._full_column_rank, []

        def recorded(mats):
            shapes.append(mats.shape)
            return rank(mats)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "SEARCH_BATCH_SUMS", budget)
            patch.setattr(search, "_full_column_rank", recorded)
            got = search._bucket_pivots(*_stored(width, buckets, placement))
        assert got.shape == (len(buckets), width)
        for pivots, bucket in zip(got.tolist(), buckets):
            assert pivots == rank(np.array([bucket])).tolist()[0]
        assert sum(calls for calls, _, _ in shapes) == len(buckets)
        assert all(calls * rows <= budget or calls == 1 for calls, rows, _ in shapes)
        heights = [rows for _, rows, _ in shapes]
        assert heights == sorted(heights, reverse=True)  # tallest first
        if budget == search.SEARCH_BATCH_SUMS:
            assert heights == ([max(map(len, buckets))] if buckets else [])

    def test_no_buckets(self):
        none = np.zeros(0, dtype=np.intp)
        for rows in (np.zeros((0, 4), dtype=np.int32), np.ones((3, 4), dtype=np.int32)):
            assert search._bucket_pivots(rows, none, none).shape == (0, 4)

    @settings(max_examples=100, deadline=None)
    @given(ragged_buckets(), st.data())
    def test_count_rank_reads_pivot_r_minus_one(self, case, data):
        # Count-like buckets, every column past a bucket's r zero: pivot
        # r - 1 is set iff the exact rank is r.
        width, buckets, placement = case
        runs = [data.draw(st.integers(1, width)) for _ in buckets]
        buckets = [[row[:r] + [0] * (width - r) for row in bucket] for bucket, r in zip(buckets, runs)]
        pivots = search._bucket_pivots(*_stored(width, buckets, placement))
        for row, bucket, r in zip(pivots.tolist(), buckets, runs):
            assert (row[r - 1] >= 0) == (rank_rational(bucket) == r)


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

    @pytest.mark.parametrize("shape", [(40, 11, 7), (1, 1, 7)])
    def test_leaves_its_argument_unchanged(self, shape):
        # An int32 (1, 1, n) stack moved to (n, 1, 1) is already contiguous,
        # so only an explicit copy keeps the in-place update off the caller's array.
        mats = np.random.default_rng(7).integers(0, 2, size=shape, dtype=np.int32)
        mats[:, 0, 0] = 1  # a pivot in column 0, so the first update runs
        before = mats.copy()
        got = search._full_column_rank(mats)
        assert np.array_equal(mats, before)
        assert got.shape == (shape[0], shape[2])

    def test_exact_up_to_the_limit(self):
        # Every n x n 0/1 minor, at most (n+1)^((n+1)/2) / 2^n, lies below the
        # prime; squared, (n+1)^(n+1) < P^2 4^n.
        def exact(n):
            return (n + 1) ** (n + 1) < search.RANK_PRIME ** 2 * 4 ** n

        assert exact(MAX_SEARCH_QUBITS) and not exact(MAX_SEARCH_QUBITS + 1)
        assert MAX_SEARCH_QUBITS == 22

    def test_count_minors_below_the_prime(self):
        # An r x r minor of a bucket's count matrix is at most prod k_i h(r)
        # (module docstring); squared, prod k_i^2 (r+1)^(r+1) < P^2 4^r.  It
        # reads only the run lengths as a multiset, so the partitions of n
        # cover every composition; the worst is r = n, the 0/1 bound.
        def exact(n):
            return all(prod(lengths) ** 2 * (r + 1) ** (r + 1) < search.RANK_PRIME ** 2 * 4 ** r
                       for r in range(1, n + 1) for lengths in partitions_fixed_length(n, r))

        assert all(exact(n) for n in range(1, MAX_SEARCH_QUBITS + 1))
        assert not exact(MAX_SEARCH_QUBITS + 1)

    @pytest.mark.parametrize("n", [8, 16, MAX_SEARCH_QUBITS])
    def test_count_entries_stay_exact(self, n):
        # Count-sized entries start the elimination's bound at their largest,
        # not 1: from 1, the fourth step would wrap int32, and the dependence
        # of the last column on the two before it would not survive modulo P.
        rng = np.random.default_rng(n)
        mats = rng.integers(0, n + 1, size=(30, n + 2, n))
        mats[:10, :, -1] = 2 * mats[:10, :, -2] + 3 * mats[:10, :, -3]  # rank deficient
        got = search._full_column_rank(mats)[:, -1] >= 0
        assert got.tolist() == [len(_accepted_rows(mat.tolist())) == n for mat in mats]
        assert got.any() and not got.all()

    def test_refuses_n_beyond_limit_without_work(self, monkeypatch):
        def no_work(task):
            raise AssertionError("scanned a chunk")

        monkeypatch.setattr(search, "_scan_batch", no_work)
        monkeypatch.setattr(search, "_mask_sums", no_work)
        with pytest.raises(ValueError, match="n = 22"):
            search_tables(23)
        with pytest.raises(ValueError, match="n = 22"):
            next(enumerate_structures(23, 92))
        with pytest.raises(ValueError, match="n = 22"):
            a_class_matrices((1,) * 23, 1)

    def test_huge_n_refused_at_once(self, monkeypatch):
        # A comparison with the constant: no (n+1)^(n+1) and no pattern list.
        def no_work(*args):
            raise AssertionError("built something before refusing n")

        monkeypatch.setattr(search, "equal_sum_submultisets", no_work)
        start = time.perf_counter()
        for n in (23, 10 ** 8):
            with pytest.raises(ValueError, match="n = 22"):
                search_tables(n)
            with pytest.raises(ValueError, match="n = 22"):
                completeness_bound(n)
        with pytest.raises(ValueError, match="n = 22"):
            a_class_matrices((1,) * 23, 1)
        # The real function, imported before the patch: no 2^n mask sums.
        for values in ([1] * 23, [1] * 10 ** 6):
            with pytest.raises(ValueError, match="n = 22"):
                equal_sum_submultisets(values, 1)
        assert time.perf_counter() - start < 0.5


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
        # Each support once, in colex order: by largest element, then the next.
        monkeypatch.setattr(search, "ORACLE_CHUNK_SUPPORTS", cap)
        chunks = [search._colex_supports(*task) for task in search._oracle_tasks(n)]
        assert max(map(len, chunks)) <= cap
        rows = np.vstack(chunks)
        assert (np.diff(rows, axis=1) > 0).all()
        assert rows.tolist() == sorted(map(list, combinations(range(2 ** n - 1), n)),
                                       key=lambda row: row[::-1])

    def test_six_qubit_chunks(self):
        tasks = search._oracle_tasks(6)
        assert len(tasks) == 1037
        assert [hi - lo for _, lo, hi in tasks[:-1]] == [search.ORACLE_CHUNK_SUPPORTS] * 1036
        last = search._colex_supports(*tasks[-1])
        assert len(last) == 50225 and tasks[-1][2] == comb(63, 6)
        assert search._colex_supports(6, 0, 1).tolist() == [list(range(6))]
        assert last[-1].tolist() == list(range(57, 63))

    def test_support_records_match_reference_per_support(self):
        # One support at a time and all in one block agree with the exact
        # per-support kernel.  At n = 6 the first support's kernel is
        # 2 * (1, 1, 1, 1, 1, 2, 1): the gcd must go.  Random draws are
        # often singular (B of rank below n); 20 more are singular by
        # construction, a mask of two bits or more beside its lowest bit and
        # the rest of its bits.
        for n, count in [(4, 400), (5, 400), (6, 300)]:
            rng = random.Random(6 + n)
            full = (1 << n) - 1
            supports = [[2, 8, 29, 45, 52, 57]] if n == 6 else []
            for _ in range(20):
                c = rng.choice([m for m in range(1, full + 1) if m & m - 1])
                a, b = c & -c, c & c - 1
                rest = rng.sample(sorted(set(range(1, full + 1)) - {a, b, c}), n - 3)
                supports.append(sorted(m - 1 for m in [a, b, c, *rest]))
            supports += [sorted(rng.sample(range(full), n)) for _ in range(count)]
            expected, singular = set(), 0
            for support in supports:
                signs = [tuple(1 - 2 * (m + 1 >> j & 1) for j in range(n)) for m in support]
                vec = positive_maximal_kernel(WeightMatrix(n + 1, n, ((1,) * n, *signs)))
                own = {search._record_from_kernel(vec)} - {None} if vec else set()
                assert search._support_records(n, np.array([support])) == own, support
                expected |= own
                singular += rank_rational([[m + 1 >> j & 1 for j in range(n)] for m in support]) < n
            assert expected and search._support_records(n, np.array(supports)) == expected
            assert 20 <= singular < len(supports)

    def test_sampled_seven_qubit_supports_stay_in_the_complete_table(self, complete_result_7):
        # Past the full scan (C(127, 7) supports), a uniform sample checks the
        # complete n = 7 table from outside the search: any record found off
        # it would be a search bug.  23 blocks of 65 536 draws keep about
        # 1.27 M supports, which find 69 of the 122 records at this seed.
        assert ORACLE_MAX_QUBITS < 7
        rng = np.random.default_rng(7)
        found = set()
        for _ in range(23):
            rows = np.sort(rng.integers(0, 127, size=(1 << 16, 7)), axis=1)
            found |= search._support_records(7, rows[(np.diff(rows, axis=1) > 0).all(axis=1)])
        assert found <= set(complete_result_7.records)
        assert len(found) >= 60

    @pytest.mark.usefixtures("two_cpus")
    def test_workers_agree(self):
        records = brute_force_oracle(5, workers=2)
        assert records == brute_force_oracle(5)
        assert as_tuples(records) == TRUE_RECORDS[5]

    def test_no_linear_algebra_library(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called numpy.linalg")

        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert as_tuples(brute_force_oracle(4)) == TRUE_RECORDS[4]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_minors_fit_int16(self, n):
        # h(j) = (j+1)^((j+1)/2) / 2^j bounds a j x j 0/1 minor (Hadamard):
        # floor(h(j)) = isqrt((j+1)^(j+1) // 4^j).  A partial sum of layer
        # j + 1 holds at most j + 1 terms, and c0 = -2 c'_0 - sum(c'_1..n).
        def hadamard(j):
            return isqrt((j + 1) ** (j + 1) // 4 ** j)

        assert max((j + 1) * hadamard(j) for j in range(1, n)) <= 256
        assert (n + 2) * hadamard(n) <= 769 < np.iinfo(np.int16).max
        # The 0/1 maxima of orders 1..8 are 1, 1, 2, 3, 5, 9, 32, 56.
        assert hadamard(n) >= [1, 1, 2, 3, 5, 9, 32, 56][n - 1]

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
            w = WeightMatrix(n + 1, n, rows)
            fast = positive_maximal_kernel(w)
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
            assert max(sum(r.multiset) for r in search_results[n].records) <= 4 * n
        assert max(sum(r.multiset) for r in search_result_7.records) <= 4 * 7

    def test_raised_bound_adds_nothing(self, search_results, search_result_7):
        # A real truncation check: a bound well above the largest multiset
        # sum found at the default bound finds no further record.
        assert search_tables(6, 36).records == search_results[6].records
        assert search_tables(7, 36).records == search_result_7.records
        assert len(search_results[6].records) == 14
        assert len(search_result_7.records) == 122

    def test_complete_mode_adds_nothing_small_n(self, search_results, search_result_7,
                                                complete_result_7):
        assert as_tuples(search_tables(3, completeness_bound(3)).records) == TRUE_RECORDS[3]
        assert as_tuples(search_tables(4, completeness_bound(4)).records) == TRUE_RECORDS[4]
        for n in range(3, 7):
            complete = search_tables(n, completeness_bound(n)).records
            assert complete == search_tables(n, 4 * n + 16).records == search_results[n].records
        # README's claim: the default table is provably complete through n = 7.
        assert complete_result_7.records == search_result_7.records
        assert (len(complete_result_7.records), complete_result_7.multisets_scanned) == (
            122, 151552)

    def test_result_reports_completeness(self, search_results, search_result_7,
                                         complete_result_7):
        # `complete` says whether the run's own bound proves the table: the
        # default n = 7 run holds the complete table, but 28 < 56 proves nothing.
        defaults = [search_results[n] for n in range(3, 7)] + [search_result_7, search_tables(8)]
        assert [r.sum_bound for r in defaults] == [12, 16, 20, 24, 28, 32]
        assert [r.complete for r in defaults] == [True, True, True, True, False, False]
        assert complete_result_7.sum_bound == 56 and complete_result_7.complete
        assert search_tables(4, 10 ** 20).complete


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

    @pytest.mark.parametrize("multiset, z", [((1, 1, 1, 2, 1, 1), 2), ((1, 1, 2), 2), ((0, 1, 1), 1)])
    def test_unsorted_or_nonpositive_multiset_refused(self, multiset, z):
        # G comes from runs of adjacent equal parts, so an unsorted multiset
        # would split a run: (1, 1, 1, 2, 1, 1) would give 20 classes where
        # (2, 1, 1, 1, 1, 1) has 4.  A part 0 is no part at all.
        with pytest.raises(ValueError, match="multiset must be nonincreasing positive integers"):
            a_class_matrices(multiset, z)
        assert len(a_class_matrices((2, 1, 1, 1, 1, 1), 2)) == 4

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
