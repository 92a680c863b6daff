"""Exhaustive search over combinatorial structures of irreducible
maximal-length c-states.

A structure is a multiset of n positive integers with gcd 1 together with a
target sum Z and n equal-sum position-subsets (patterns), one per qubit,
that uniquely pin the integers down.  Each structure determines a minimal
phase pi / (sum - Z).  The enumeration walks multiset totals in ascending
order; for each (multiset, Z) pair a structure exists iff the 0/1 indicator
vectors of the equal-sum subsets, augmented with a homogenizing 1, span rank
n over the rationals.

The search decides that rank in batches, without the homogenizing 1, on the
quotient of each bucket by the permutations of equal parts, and modulo the
prime P = 2^31 - 1; every step is exact:

- The augmented vectors (x, 1) all lie in the hyperplane c . x = Z t, on
  which dropping t is injective (Z >= 1), so rank{(x, 1)} = rank{x}.
- Count space.  Let the runs of equal parts have lengths k_1 .. k_r, and G
  be the group of permutations within runs.  A bucket B is G-invariant, and
  so is its span V.  As a G-module, Q^n is the sum of the r trivial lines
  of the run indicators and, for each run with k_i >= 2, the standard
  module of its S_(k_i): the vectors on run i that sum to 0.  Each standard
  module is irreducible and occurs once (no other is isomorphic to it, and
  it is not trivial), so its isotypic projection, an element of the group
  algebra, maps V onto V's intersection with it, which is 0 or all of it.
  The trivial projection, the average over G, maps x to the run means
  a_i(x) / k_i of its counts a_i(x) = |x & run i|.  So V = Q^n, rank n, iff
  (a) for each run with k_i >= 2 some mask of B is not constant on it, and
  (b) the count vectors a(x) of B have rank r.
  Both read only the canonical masks of B, whose bits in each run form a
  prefix, ((m >> 1) & ~m & tied) == 0: one per count vector.  A mask not
  constant on run i has a canonical image with 0 < a_i < k_i, whose bit
  changes inside run i.
- A nonzero s x s 0/1 minor is at most h(s) = (s+1)^((s+1)/2) / 2^s in
  absolute value (Hadamard).  By Cauchy-Binet, an r x r minor of the count
  matrix, the 0/1 rows times the n x r run indicators, sums at most prod k_i
  such minors, one per choice of a position in each run; prod k_i h(r) < P
  for every composition of n <= 22 (a test pins it).  The worst case is
  r = n, prod k_i = 1, where (n+1)^(n+1) < P^2 4^n holds up to n = 22 and
  not beyond (`MAX_SEARCH_QUBITS`).  So a rank-r count matrix keeps a minor
  nonzero modulo P, and its rank modulo P equals its rank over Q; so does
  a full-rank 0/1 matrix of n columns.  Larger n is refused.

The gcd-1 multisets stream in `_search_tasks` order as int64 arrays, built
part by part in numpy blocks of at most SEARCH_BATCH_SUMS / n rows per layer,
and are cut into batches of k with k 2^n <= SEARCH_BATCH_SUMS mask sums, or
of one multiset when 2^n alone is larger, so neither the stream's memory nor
a batch's grows with the tasks.  A batch rejects every bucket with Z < c1,
the largest part, without a rank test: a mask holding position 0 sums to at
least c1 > Z, so every mask of the bucket is 0 there and its rank is below n.

One helper, `_bucket_pivots`, runs every bucket elimination through
`_full_column_rank`, tallest bucket first.  The count test reads the pivot
of column r - 1: an elimination keeps a matrix's pivots up to its first
column without one, and the count columns past a bucket's r runs are zero.
The structures (`enumerate_structures`) take their patterns from the same
helper on the ascending 0/1 masks of the admitted buckets alone
(`_witnesses`); `search_tables` never runs it.  Each pivot is the first row
nonzero in its column, so every prefix of a bucket holds as many pivots as
its rank: the pivots are the lexicographically first basis, the first n
masks whose augmented indicators are independent.

A brute-force oracle for n <= 6 (`brute_force_oracle`) enumerates supports
directly and must reproduce the same record sets.  It shares nothing with the
search but `_record_from_kernel`: no multisets, mask sums or rank test.  A
support is the all-ones row plus n other sign rows r_i = 1 - 2 b_i, with b_i
their 0/1 bits stacked into B.  Its weight kernel and the left kernel of the
(n+1) x n 0/1 matrix A = [1; B] correspond one to one: (c0, x) weights the
sign rows to 0 iff (a, x) weights the rows of A to 0, with c0 = -2a - sum(x).
So

- the kernel is a line iff A has rank n, and then it is the line through
  the signed maximal minors c'_k = (-1)^k det(A without row k): appending
  any column of A to A gives a determinant 0, whose expansion along that
  column is the column weighted by c' (Cramer's rule).  Below rank n every
  maximal minor is 0, and the kernel is more than a line;
- the weight kernel is then the line through (-2 c'_0 - sum(c'_1..n),
  c'_1..n).  A positive kernel needs B nonsingular: c'_0 = det B = 0 leaves
  c0 = -sum(x), which cannot share a strict sign with x.

`_support_records` computes every c' exactly in int16, by Laplace expansion
column by column (its docstring bounds the entries), with no pivoting, no
division and no float.  It keeps the supports whose weight kernel is nonzero
and of one strict sign, and divides that by its gcd, so a record the oracle
returns never rests on a float.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, groupby, permutations
from math import comb, factorial, gcd, isqrt, prod
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .exactlinalg import determinant

ORACLE_MAX_QUBITS = 6
# Most supports one oracle chunk holds: 3 MB of unranked rows at n = 6.
ORACLE_CHUNK_SUPPORTS = 1 << 16
# Most supports whose minors are expanded at once: the largest layer at n = 6,
# C(7, 3) minors of each, is 280 kB of int16.
ORACLE_BLOCK_SUPPORTS = 1 << 12
# Most mask sums one search batch holds: k multisets of n values take k * 2^n,
# 0.5 MB of int64 keys at 2^16.  Also the most padded rows one rank call of
# `_bucket_pivots` holds (one bucket aside), and the most rows of n parts the
# multiset expansion holds over all its layers (one parent's children aside).
SEARCH_BATCH_SUMS = 1 << 16
# Prime modulus of the batched rank test, and the largest n it is exact for.
RANK_PRIME = 2 ** 31 - 1
MAX_SEARCH_QUBITS = 22
# Most work `a_class_matrices` takes on: C(masks, n) + |G| * masks.
A_CLASS_WORK_LIMIT = 10 ** 7


@dataclass(frozen=True)
class CombinatorialStructure:
    """Multiset + target sum Z + one pattern (0-based position subset) per
    qubit.  Only shape is validated here; the arithmetic invariants are the
    business of `validate_structure`."""

    n: int
    multiset: tuple[int, ...]
    z: int
    patterns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("maximal-length structures need n >= 3")
        if len(self.multiset) != self.n:
            raise ValueError("multiset size must equal n")
        if any(c < 1 for c in self.multiset) or list(self.multiset) != sorted(self.multiset, reverse=True):
            raise ValueError("multiset must be nonincreasing positive integers")
        if self.z < 1:
            raise ValueError("Z must be positive")
        if len(self.patterns) != self.n:
            raise ValueError(f"need exactly {self.n} patterns")
        for pat in self.patterns:
            if len(set(pat)) != len(pat) or any(not 0 <= p < self.n for p in pat):
                raise ValueError(f"pattern {pat!r} is not a position subset")

    @property
    def total(self) -> int:
        return sum(self.multiset)

    @property
    def c0(self) -> int:
        return self.total - 2 * self.z

    @property
    def denominator(self) -> int:
        """chi_min = pi / denominator."""
        return self.total - self.z

    def sign_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Pattern-by-position sign matrix: +1 at members, -1 elsewhere."""
        members = map(set, self.patterns)
        return tuple(tuple(1 if j in pat else -1 for j in range(self.n)) for pat in members)


class SearchRecord(NamedTuple):
    """Table row: chi_min denominator, multiset (c0 excluded), pattern sum Z.
    A plain tuple, so its natural order is the (denominator, multiset, Z)
    table order, and sorting, hashing and pickling stay in C."""

    denominator: int
    multiset: tuple[int, ...]
    z: int


@dataclass(frozen=True)
class SearchResult:
    """Sorted records of one search, with its two counters.

    `multisets_scanned` counts the multisets with gcd 1 and sum at most the
    scanned bound.  `rank_tests` counts their (multiset, Z) buckets with at
    least n masks and 1 <= Z <= (sum - c1) / 2: those with Z >= c1 go
    through the count-space test, and those with Z < c1 are rejected by the
    floor of the module docstring, as that test would reject them.
    """

    n: int
    sum_bound: int
    records: tuple[SearchRecord, ...]
    multisets_scanned: int
    rank_tests: int

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(sorted({rec.denominator for rec in self.records}))

    @property
    def complete(self) -> bool:
        """True iff the bound searched proves the table exhaustive."""
        return self.sum_bound >= completeness_bound(self.n)


def completeness_bound(n: int) -> int:
    """Provable multiset-sum ceiling n * floor((n+1)^((n+1)/2) / 2^(n-1)) // (n+1).

    A structure's n+1 kernel coefficients (c0 for the all-ones row, then the
    multiset) are the n x n +-1 minors of its sign matrix divided by their
    gcd g.  Every n x n +-1 determinant is a multiple of 2^(n-1), so g is
    too.  The coefficients are positive and sum to |det [W | 1]| / g, which
    the Hadamard bound caps at (n+1)^((n+1)/2) / 2^(n-1).  On the Z range
    the search scans, c0 = sum - 2Z >= c1 is the largest coefficient, so the
    multiset sum is at most n/(n+1) of that total: 3, 4, 10, 24, 56 and 136
    for n = 3..8.  n > MAX_SEARCH_QUBITS is refused before the power is built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"search is exact only up to n = {MAX_SEARCH_QUBITS} "
                         f"(rank test modulo 2^31 - 1)")
    return n * (isqrt((n + 1) ** (n + 1)) // 2 ** (n - 1)) // (n + 1)


def equal_sum_submultisets(values: Sequence[int], z: int) -> list[tuple[int, ...]]:
    """All proper position subsets of `values` with value sum z.

    Positions index the given sequence, so repeated values yield distinct
    patterns at distinct positions.  Deterministic bitmask order.  More than
    MAX_SEARCH_QUBITS values are refused before the 2^n mask sums are built.
    """
    if len(values) > MAX_SEARCH_QUBITS:
        raise ValueError(f"equal-sum subsets are built only up to n = {MAX_SEARCH_QUBITS}")
    if z < 1:
        raise ValueError("Z must be positive")
    sums = _mask_sums(np.array([values], dtype=object))[0, 1:-1]  # exact for any int
    return [_mask_positions(int(mask)) for mask in np.flatnonzero(sums == z) + 1]


def _mask_sums(values: np.ndarray, base=0) -> np.ndarray:
    """Column `mask` of row i: base[i] (or base) plus the sum of values[i]
    over the positions in `mask`, for every mask 0 .. 2^n - 1 of a (k, n)
    array, by n doublings in place."""
    sums = np.empty((len(values), 1 << values.shape[1]), dtype=values.dtype)
    sums[:, 0] = base
    for j in range(values.shape[1]):
        np.add(sums[:, :1 << j], values[:, j:j + 1], out=sums[:, 1 << j:2 << j])
    return sums


def _mask_positions(mask: int) -> tuple[int, ...]:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _search_tasks(n: int, sum_bound: int) -> list[tuple[int, int, int]]:
    """Independent chunks (n, total, first element) of the multiset space,
    in the order `enumerate_structures` walks it.  Totals stop at
    `completeness_bound(n)` whatever sum_bound asks for, since no structure
    lies above it, and that refuses n > MAX_SEARCH_QUBITS."""
    if n < 3:
        raise ValueError("maximal-length structures need n >= 3")
    if sum_bound < n:
        raise ValueError(f"sum bound {sum_bound} is below the smallest multiset sum {n}")
    return [
        (n, total, first)
        for total in range(n, min(sum_bound, completeness_bound(n)) + 1)
        for first in range(total - (n - 1), -(-total // n) - 1, -1)
    ]


def _bits(masks: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 rows of an array of masks below 2^31, one more axis of n
    entries, entry j holding bit j; built in int32 in place."""
    bits = np.right_shift(masks.astype(np.int32, copy=False)[..., None],
                          np.arange(n, dtype=np.int32))
    bits &= 1
    return bits


def _map_stripes(func: Callable, tasks: Sequence, workers: int) -> list:
    """func of each stripe tasks[i::p] for p = min(workers, tasks, CPUs)
    forked processes, or of all tasks inline when p <= 1 (the CPU count, a
    file read, only when more than one process could run).  The process
    pool is imported only then: `concurrent.futures` and `multiprocessing`
    hold about 2 MB that a one-process run never uses."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    procs = min(workers, len(tasks))
    if procs > 1:
        procs = min(procs, os.cpu_count() or 1)
    if procs <= 1:
        return [func(tasks)]
    import concurrent.futures
    import multiprocessing

    with concurrent.futures.ProcessPoolExecutor(max_workers=procs,
                                                mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(func, [tasks[i::procs] for i in range(procs)]))


def _full_column_rank(mats: np.ndarray) -> np.ndarray:
    """Per matrix of a (B, m, n) integer stack, the row chosen as pivot in
    each column, -1 from the first column without one: the matrix has rank n
    modulo RANK_PRIME iff its last entry is >= 0.

    Division-free elimination: each step takes the first row with a nonzero
    entry in the leading column as pivot, sets every row to ``p*row -
    a*pivot`` (the pivot row itself becomes zero) and drops the column; a
    matrix without a nonzero entry there is rank deficient and leaves the
    batch.  A step takes entries bounded by b to entries bounded by 2*b^2,
    from b = the input's largest |entry|, so the first steps run exactly in
    int32; once the bound reaches RANK_PRIME, each step runs in int64
    (products below 2^62) and reduces modulo RANK_PRIME.  Every entry tested
    for zero is thus below RANK_PRIME in absolute value, so the result is the
    rank modulo the prime of any input with entries below it.  That equals
    the rank over Q for the search's inputs, 0/1 rows and count vectors with
    n <= MAX_SEARCH_QUBITS (module docstring).

    The work array is a column-major copy, (n, B, m), so the leading column
    is one contiguous slab and dropping it is a view; each step updates the
    remaining columns in place, and `mats` itself is never written.
    """
    work = np.array(np.moveaxis(mats, 2, 0), dtype=np.int32, order="C")  # always a copy
    pivots = np.full(work.shape[:2], -1)  # transposed: rows fill cheaply
    alive = np.arange(work.shape[1])
    bound = int(np.abs(work).max(initial=1))
    for col in range(len(pivots)):
        nonzero = work[0] != 0
        has_pivot = nonzero.any(axis=1)
        if not has_pivot.all():
            alive, nonzero = alive[has_pivot], nonzero[has_pivot]
            work = work.compress(has_pivot, axis=1)
            if not len(alive):
                break
        first = nonzero.argmax(axis=1)
        pivots[col][alive] = first
        bound = 2 * bound * bound
        if bound >= RANK_PRIME:
            work = work.astype(np.int64, copy=False)
        picked = work[:, np.arange(len(alive)), first]  # (columns, B): the pivot rows
        lead, rest = work[0], work[1:]
        rest *= picked[0, :, None]
        rest -= lead * picked[1:, :, None]
        work = rest
        if bound >= RANK_PRIME:
            work %= RANK_PRIME
            bound = RANK_PRIME - 1
    return pivots.T


def _expand_layer(prefix: np.ndarray, rest: np.ndarray, hi: np.ndarray, counts: np.ndarray,
                  ends: np.ndarray, col: int) -> tuple[np.ndarray, np.ndarray]:
    """The children of rows (prefix, rest): row r with column `col` set to
    each next part from hi[r] down, counts[r] of them (ending at ends[r], their
    cumulative sum), in row order, and the sums they leave."""
    part = (hi + ends - counts).repeat(counts) - np.arange(ends[-1])
    children = prefix.repeat(counts, axis=0)
    children[:, col] = part
    return children, rest.repeat(counts) - part


def _search_batches(tasks: Sequence[tuple[int, int, int]]) -> Iterator[np.ndarray]:
    """The gcd-1 multisets of `tasks` as int64 (k, n) arrays, task by task
    and lexicographically descending within a task, cut into batches of k
    with k * 2^n <= SEARCH_BATCH_SUMS mask sums, or of one when 2^n alone is
    larger, so a batch's memory does not grow with its task; every batch is
    full but the last.

    The partitions come from a layered expansion of the tasks.  A row holds
    its first parts and the sum s left for the k parts to come; its next part
    runs from min(cap, s - k + 1) down to ceil(s/k), the cap being the part
    before it, so every choice leaves a feasible rest and the last part is s.
    Before a layer would hold more than SEARCH_BATCH_SUMS // n rows, its
    parents are cut into blocks that each stay within that (or hold one
    parent), taken depth first.  Each layer then keeps at most one pending
    array of that size, so the n layers together hold at most
    SEARCH_BATCH_SUMS rows of n parts, whatever the tasks.
    """
    if not tasks:
        return
    n = tasks[0][0]
    size, layer_rows = max(1, SEARCH_BATCH_SUMS >> n), max(1, SEARCH_BATCH_SUMS // n)
    spec = np.array(tasks, dtype=np.int64)
    rows = np.zeros((len(spec), n), dtype=np.int64)
    rows[:, 0] = spec[:, 2]
    stack = [(rows, spec[:, 1] - spec[:, 2], 1)]
    carry = np.empty((0, n), dtype=np.int64)
    while stack:
        rows, rest, col = stack.pop()
        parts = n - col
        if parts > 1:
            hi = np.minimum(rows[:, col - 1], rest - (parts - 1))
            counts = hi + 1 + rest // -parts  # hi - ceil(rest / parts) + 1, at least 1
            ends = counts.cumsum()
            if len(rows) > 1 and ends[-1] > layer_rows:  # a first block now, the rest later
                cut = max(1, ends.searchsorted(layer_rows, side="right"))
                stack.append((rows[cut:], rest[cut:], col))
                rows, rest, hi, counts, ends = (a[:cut] for a in (rows, rest, hi, counts, ends))
            stack.append((*_expand_layer(rows, rest, hi, counts, ends, col), col + 1))
            continue
        rows[:, col] = rest
        block = np.concatenate([carry, rows[np.gcd.reduce(rows, axis=1) == 1]])
        full = len(block) - len(block) % size
        for lo in range(0, full, size):
            yield block[lo:lo + size]
        carry = block[full:]
    if len(carry):
        yield carry


def _scan_batch(
    values: np.ndarray
) -> tuple[list[tuple[tuple[int, ...], int]], int, np.ndarray, np.ndarray]:
    """The (multiset, Z) pairs of one (k, n) batch that admit a structure,
    multisets in batch order and Z ascending, with the number of rank tests
    the batch counts, the keys of the admitted buckets and every mask's key
    (the input of `_witnesses`).

    n array doublings give every mask's bucket key, multiset index *
    (largest total + 1) + mask sum, and one bincount every bucket size.  A
    bucket with at least n masks and 1 <= Z <= (total - c1) / 2 is a rank
    test; the empty and the full mask fall outside that range.  A test with
    Z < c1 fails at once: a mask holding position 0 sums to at least c1 > Z,
    so no mask of the bucket holds position 0.  The others are decided in
    count space (module docstring) on their canonical members, the masks
    whose bits in each run of equal parts form a prefix: (a) the members' bit
    changes inside the runs meet every run of two or more parts, and (b)
    their count vectors, at least r of them, have rank r: pivot r - 1 is set.
    """
    n = values.shape[1]
    firsts, totals = values[:, 0, None], values.sum(axis=1, keepdims=True)
    width = int(totals.max()) + 1
    keys = _mask_sums(values, width * np.arange(len(values))).ravel()
    counts = np.bincount(keys, minlength=len(values) * width)
    z = np.arange(width)
    candidate = (counts.reshape(-1, width) >= n) & (z <= (totals - firsts) // 2)
    tests = int(np.count_nonzero(candidate))
    candidate = (candidate & (z >= firsts)).ravel()
    tested = np.flatnonzero(candidate)
    if not len(tested):
        return [], tests, tested, keys
    # Runs of equal parts: bit j of tied[k] says parts j and j+1 of row k are
    # equal, so a run of k_i >= 2 parts is a block of k_i - 1 tied bits.
    differ = values[:, 1:] != values[:, :-1]
    tied = ~differ @ (1 << np.arange(n - 1))
    runs = differ.sum(axis=1) + 1
    # The canonical members of the tested buckets, bucket by bucket.
    members = np.flatnonzero(candidate[keys])
    masks = members & (1 << n) - 1
    members = members[(masks >> 1 & ~masks & tied[members >> n]) == 0]
    masks, owner, starts, sizes = _bucket_members(keys, members, tested, n)
    owner //= width
    multiset = tested // width
    # (a): the members' bit changes inside runs meet every block of tied bits.
    # Adding a block's lowest bit to its unmet bits carries out of the block,
    # into a bit that is not tied, iff the whole block is unmet.
    changes = np.bitwise_or.reduceat((masks ^ masks >> 1) & tied[owner], starts)
    own = tied[multiset]
    ok = (((own & ~changes) + (own & ~(own << 1))) & ~own) == 0
    # (b): at least r count vectors, and a pivot in column r - 1.  One run
    # needs no more: its count is Z divided by the part, never 0.
    ok &= sizes >= runs[multiset]
    live = np.flatnonzero(ok & (runs[multiset] > 1))
    if len(live):
        r = runs[multiset[live]]
        pivots = _bucket_pivots(_run_counts(values, masks, owner, int(r.max())), starts[live], sizes[live])
        ok[live] = pivots[np.arange(len(live)), r - 1] >= 0
    admitted = tested[ok]
    rows = values.tolist()
    pairs = [(tuple(rows[k]), z) for k, z in zip(*(a.tolist() for a in np.divmod(admitted, width)))]
    return pairs, tests, admitted, keys


def _run_counts(values: np.ndarray, masks: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """Entry (j, i): the bits of masks[j] in run i of the equal parts of
    values[rows[j]], for runs i < width (0 past a row's last run)."""
    new_run = np.ones(values.shape, dtype=bool)
    new_run[:, 1:] = values[:, 1:] != values[:, :-1]
    run_of = new_run.cumsum(axis=1) - 1
    first = np.full((len(values), int(run_of[:, -1].max()) + 2), values.shape[1])
    row, col = np.nonzero(new_run)
    first[row, run_of[row, col]] = col  # first[k, i]: run i's first position
    runs_mask = (1 << first[:, 1:]) - (1 << first[:, :-1])
    return np.bitwise_count(masks[:, None] & runs_mask[rows, :width])


def _bucket_members(keys: np.ndarray, members: np.ndarray, buckets: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The masks at `members`, indices into a batch's `keys`, bucket by
    bucket and ascending within one, by one sort of key * 2^n + mask (below
    2^54, as k * 2^n <= 2^22 and width < 2^32); with each one's key, and the
    start and size of each of `buckets`, ascending keys, among them."""
    order = np.sort(keys[members] << n | members & (1 << n) - 1)
    owner = order >> n
    starts = np.searchsorted(owner, buckets)
    return order & (1 << n) - 1, owner, starts, np.searchsorted(owner, buckets, side="right") - starts


def _bucket_pivots(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per bucket b, the `_full_column_rank` pivots of the nonempty row range
    starts[b] .. starts[b] + sizes[b] - 1 of a (N, columns) array, counted
    from starts[b].  Buckets go tallest first, in calls padded with zero rows
    to their first bucket's height, of at most SEARCH_BATCH_SUMS padded rows
    or one bucket."""
    table = np.concatenate([rows, np.zeros((1, rows.shape[1]), rows.dtype)])  # then the zero row
    pivots = np.empty((len(sizes), rows.shape[1]), dtype=np.intp)
    order = np.argsort(-sizes)
    lo = 0
    while lo < len(order):
        height = int(sizes[order[lo]])
        pick = order[lo:lo + max(1, SEARCH_BATCH_SUMS // height)]
        offsets = np.arange(height)
        index = np.where(offsets < sizes[pick, None], starts[pick, None] + offsets, len(rows))
        pivots[pick] = _full_column_rank(table[index])
        lo += len(pick)
    return pivots


def _witnesses(keys: np.ndarray, admitted: np.ndarray, n: int) -> np.ndarray:
    """Per admitted bucket of a `_scan_batch`, the masks its elimination
    picks as pivots, in column order: the lexicographically first basis
    (module docstring) of the bucket's masks, ascending."""
    hit = np.zeros(int(keys.max()) + 1, dtype=bool)
    hit[admitted] = True
    masks, _, starts, sizes = _bucket_members(keys, np.flatnonzero(hit[keys]), admitted, n)
    return masks[starts[:, None] + _bucket_pivots(_bits(masks, n), starts, sizes)]


def _scan_tasks(tasks: Sequence[tuple[int, int, int]]) -> tuple[set[SearchRecord], int, int]:
    """Records, gcd-1 multisets scanned and rank tests of `tasks`, streamed
    through `_scan_batch`."""
    records, scanned, tests = set(), 0, 0
    for batch in _search_batches(tasks):
        pairs, batch_tests, _, _ = _scan_batch(batch)
        records.update(SearchRecord(sum(multiset) - z, multiset, z) for multiset, z in pairs)
        scanned += len(batch)
        tests += batch_tests
    return records, scanned, tests


def enumerate_structures(n: int, sum_bound: int) -> Iterator[CombinatorialStructure]:
    """Every valid structure with multiset sum <= sum_bound, one per
    (multiset, Z) pair, in deterministic order; its patterns are the pair's
    witness sorted by mask."""
    for batch in _search_batches(_search_tasks(n, sum_bound)):
        pairs, _, admitted, keys = _scan_batch(batch)
        witnesses = _witnesses(keys, admitted, batch.shape[1])
        for (multiset, z), witness in zip(pairs, np.sort(witnesses, axis=1).tolist()):
            patterns = tuple(_mask_positions(mask) for mask in witness)
            yield CombinatorialStructure(n, multiset, z, patterns)


def search_tables(n: int, sum_bound: Optional[int] = None, workers: int = 1) -> SearchResult:
    """Deduplicated record set for all structures with sum <= sum_bound (4n by default).

    The default is not provably exhaustive: at n = 7 the largest multiset
    sum found is 28 = 4n, with no margin, and at n = 8 a bound of 40 finds
    966 records more than 32; `SearchResult.complete` says whether the
    bound reaches `completeness_bound(n)`.  The tasks of `_search_tasks`
    stream through one batch scan; with workers > 1 each forked process of
    `_map_stripes` streams one stripe of them.  The merged records are
    sorted, so the output and the counters do not depend on the worker count.
    """
    if sum_bound is None:
        sum_bound = 4 * n
    parts = _map_stripes(_scan_tasks, _search_tasks(n, sum_bound), workers)
    return SearchResult(
        n,
        sum_bound,
        tuple(sorted(set().union(*(records for records, _, _ in parts)))),
        multisets_scanned=sum(scanned for _, scanned, _ in parts),
        rank_tests=sum(tests for _, _, tests in parts),
    )


def validate_structure(structure: CombinatorialStructure) -> None:
    """Raise ValueError naming the first violated structure invariant; the
    patterns pin the integers down iff the sign matrix is nonsingular."""
    if gcd(*structure.multiset) != 1:
        raise ValueError("multiset values must have greatest common divisor 1")
    for k, pat in enumerate(structure.patterns):
        got = sum(structure.multiset[p] for p in pat)
        if got != structure.z:
            raise ValueError(f"pattern {k} sums to {got}, expected Z={structure.z}")
    if structure.c0 <= 0:
        raise ValueError("Z must stay below half the multiset sum (c0 positive)")
    if structure.c0 < structure.multiset[0]:
        raise ValueError("derived c0 must be at least the largest multiset value")
    # Row k of the sign system reads Z - (sum(c) - Z) = -c0, so the multiset
    # always solves it, and it is the only solution iff det != 0.
    if determinant(structure.sign_matrix()) == 0:
        raise ValueError("selection does not uniquely define the integers")


def _record_from_kernel(vec: Sequence[int]) -> Optional[SearchRecord]:
    """Map a positive primitive kernel vector to its table record."""
    best = max(range(len(vec)), key=lambda i: vec[i])
    c0 = vec[best]
    rest = sorted((vec[i] for i in range(len(vec)) if i != best), reverse=True)
    if (sum(rest) - c0) % 2:
        raise AssertionError("kernel coordinate sums must be even")
    z = (sum(rest) - c0) // 2
    if z < 1:
        return None
    return SearchRecord(sum(rest) - z, tuple(rest), z)


def _oracle_tasks(n: int) -> list[tuple[int, int, int]]:
    """Chunks (n, lo, hi) of the oracle's scan: ranges of at most
    ORACLE_CHUNK_SUPPORTS consecutive colex ranks that cover the
    C(2^n - 1, n) supports."""
    total = comb((1 << n) - 1, n)
    return [(n, lo, min(lo + ORACLE_CHUNK_SUPPORTS, total))
            for lo in range(0, total, ORACLE_CHUNK_SUPPORTS)]


def _colex_supports(n: int, lo: int, hi: int) -> np.ndarray:
    """The n-subsets of range(2^n - 1) of colex rank lo .. hi - 1, as
    ascending rows.  The combinatorial number system (Knuth, TAOCP 4A,
    7.2.1.3) ranks s_1 < .. < s_n as sum C(s_k, k), so s_k is the largest s
    with C(s, k) at most the rank left after s_n .. s_(k+1)."""
    rest = np.arange(lo, hi, dtype=np.int64)
    rows = np.empty((len(rest), n), dtype=np.intp)
    for k in range(n, 0, -1):
        table = np.array([comb(s, k) for s in range((1 << n) - 1)], dtype=np.int64)
        rows[:, k - 1] = np.searchsorted(table, rest, side="right") - 1
        rest -= table[rows[:, k - 1]]
    return rows


def _oracle_chunks(tasks: Sequence[tuple[int, int, int]]) -> set[SearchRecord]:
    records = set()
    for n, lo, hi in tasks:
        records |= _support_records(n, _colex_supports(n, lo, hi))
    return records


def _support_records(n: int, supports: np.ndarray) -> set[SearchRecord]:
    """Records of the supports in the rows of `supports`, each the indices of
    its n sign rows other than all-ones (index i: the bits of mask i + 1),
    from the signed maximal minors of A = [1; B] (module docstring).

    Layer j holds the j x j minors, in the first j columns, of every
    j-subset of the n + 1 rows; layer j + 1 expands along column j, adding
    one row position of `_laplace_tables` at a time, in blocks of
    ORACLE_BLOCK_SUPPORTS supports.  A j x j 0/1 minor is at most
    h(j) = (j+1)^((j+1)/2) / 2^j in absolute value (Hadamard, on the +-1
    matrix of order j + 1 that borders it), so a partial sum of layer j + 1
    is at most (j+1) h(j) <= 8 * 32 = 256 for j < n <= 8, and
    |c0| <= (n+2) h(n) <= 769: int16 holds every value exactly up to n = 8,
    beyond the full scan's ORACLE_MAX_QUBITS.
    """
    tables = _laplace_tables(n)
    masks = np.empty((n + 1, len(supports)), dtype=np.int16)
    masks[0] = (1 << n) - 1
    masks[1:] = supports.T + 1
    records = set()
    for lo in range(0, len(supports), ORACLE_BLOCK_SUPPORTS):
        rows = masks[:, lo:lo + ORACLE_BLOCK_SUPPORTS]
        minors = rows & 1
        for col, terms in enumerate(tables, start=1):
            bits = rows >> col & 1
            layer = np.zeros((len(terms[0][0]), rows.shape[1]), dtype=np.int16)
            for pos, (row, sub) in enumerate(terms):
                term = bits[row]
                term *= minors[sub]
                if (pos + col) % 2:
                    layer -= term
                else:
                    layer += term
            minors = layer
        kernel = minors[::-1]  # det(A without row k), k = 0 .. n
        kernel[1::2] *= -1
        kernel[0] = -2 * kernel[0] - kernel[1:].sum(axis=0, dtype=np.int16)
        keep = (kernel > 0).all(axis=0) | (kernel < 0).all(axis=0)
        kept = np.abs(kernel[:, keep].T.astype(np.int64))
        kept //= np.gcd.reduce(kept, axis=1)[:, None]
        records.update(rec for rec in map(_record_from_kernel, kept.tolist()) if rec is not None)
    return records


@cache
def _laplace_tables(n: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
    """Per column j = 1 .. n - 1, per row position p < j + 1, the Laplace
    terms of the (j+1)-subsets S of the n + 1 rows, in lexicographic order:
    row S[p], and the index of S without it among the j-subsets.  The term
    enters det(S) with sign (-1)^(p + j)."""
    tables = []
    index = {(row,): row for row in range(n + 1)}
    for size in range(2, n + 1):
        subsets = list(combinations(range(n + 1), size))
        tables.append(tuple((np.array([s[p] for s in subsets], dtype=np.intp),
                             np.array([index[s[:p] + s[p + 1:]] for s in subsets], dtype=np.intp))
                            for p in range(size)))
        index = {s: k for k, s in enumerate(subsets)}
    return tuple(tables)


def brute_force_oracle(n: int, workers: int = 1) -> set[SearchRecord]:
    """Independent validation: enumerate all (n+1)-row supports directly.

    Column negation makes any chosen row all +1 without touching the kernel,
    so supports containing the all-ones row cover every class; the other n
    rows run over all C(2^n - 1, n) choices, in chunks of consecutive colex
    ranks, each support's kernel read exactly off its signed maximal minors
    (module docstring).  Each support whose weight rows form an irreducible
    c-state of maximal length contributes its kernel-vector record.  With
    workers > 1, forked processes take the chunks in stripes, as in the
    search.
    """
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle cost explodes beyond n={ORACLE_MAX_QUBITS}")
    if n < 2:
        raise ValueError("need at least two qubits")
    return set().union(*_map_stripes(_oracle_chunks, _oracle_tasks(n), workers))


def a_class_matrices(multiset: Sequence[int], z: int) -> list[tuple[tuple[int, ...], ...]]:
    """All A-class sign matrices of one (multiset, Z), ascending, each least
    under row sorting and the group G of value-preserving column permutations.

    An orderly depth-first generation (Read 1978; McKay 1998) reaches each
    class once, by its canonical form, in ascending order.  With position j
    at bit n-1-j, ascending masks are ascending sign rows (-1 < +1).  A
    selection grows by masks in ascending order while its rows are
    independent and no g in G maps it to a smaller sorted tuple.  Dropping
    the largest row keeps both: if g mapped S minus that row to a tuple a,
    first smaller at index i, the sorted image b of S has b_j <= a_j for all
    j (adding a row never raises an order statistic), so b < S.  Table row
    p holds, per g, 2^(masks-1-q) for the position q of g(mask p): a sorted
    tuple is smaller iff its bit sum is larger.  More than A_CLASS_WORK_LIMIT
    of C(masks, n) + |G| * masks raise before anything is built; the limit
    keeps masks <= 62, so every sum fits a uint64.  G comes from runs of
    adjacent equal parts, so the multiset must be nonincreasing and positive.
    """
    n = len(multiset)
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"A-classes are exact only up to n = {MAX_SEARCH_QUBITS}")
    if any(c < 1 for c in multiset) or list(multiset) != sorted(multiset, reverse=True):
        raise ValueError("multiset must be nonincreasing positive integers")
    pats = equal_sum_submultisets(multiset, z)
    keys = np.array(sorted(sum(1 << n - 1 - p for p in pat) for pat in pats), dtype=np.int64)
    runs = [list(g) for _, g in groupby(range(n), key=multiset.__getitem__)]
    width, order = len(keys), prod(factorial(len(run)) for run in runs)
    work = comb(width, n) + order * width
    if work > A_CLASS_WORK_LIMIT:
        raise ValueError(f"A-classes of {tuple(multiset)}, Z = {z}: C({width}, {n}) + {order}*"
                         f"{width} = {work} exceeds A_CLASS_WORK_LIMIT = {A_CLASS_WORK_LIMIT}")
    blocks = [np.fromiter(chain.from_iterable(permutations(run)), np.int64,
                          factorial(len(run)) * len(run)).reshape(-1, len(run)) for run in runs]
    perms = blocks[0]  # rows in product order over the runs, so row 0 is the identity
    for block in blocks[1:]:
        perms = np.hstack([np.repeat(perms, len(block), axis=0), np.tile(block, (len(perms), 1))])
    rows = _bits(keys, n)[:, ::-1]
    images = np.searchsorted(keys, rows @ (1 << n - 1 - perms.T))  # column 0: the identity
    table = np.left_shift(np.uint64(1), (width - 1 - images).astype(np.uint64))

    def grow(chosen: list[int], sums: np.ndarray) -> Iterator[list[int]]:
        nxt = np.arange(chosen[-1] + 1 if chosen else 0, width - n + len(chosen) + 1)
        sel = np.column_stack([np.full((len(nxt), len(chosen)), chosen, dtype=int), nxt])
        grown = sums + table[nxt]
        keep = (grown <= grown[:, :1]).all(axis=1)
        keep &= _full_column_rank(rows[sel].swapaxes(1, 2))[:, -1] >= 0
        for picked, child in zip(sel[keep].tolist(), grown[keep]):
            yield from grow(picked, child) if len(picked) < n else [picked]

    return [tuple(map(tuple, (2 * rows[picked] - 1).tolist()))
            for picked in grow([], np.zeros(order, dtype=np.uint64))]


def records_to_csv(records: Iterable[SearchRecord]) -> str:
    lines = ["multiset,Z,chi_min_denominator"]
    for denominator, multiset, z in sorted(records):
        lines.append(("%d;" * len(multiset))[:-1] % multiset + f",{z},{denominator}")
    return "\n".join(lines) + "\n"
