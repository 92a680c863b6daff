"""Exhaustive search over combinatorial structures of irreducible
maximal-length c-states.

A structure is a multiset of n positive integers with gcd 1 together with a
target sum Z and n equal-sum position-subsets (patterns), one per qubit,
that uniquely pin the integers down.  Each structure determines a minimal
phase pi / (sum - Z).  The enumeration walks multiset totals in ascending
order; for each (multiset, Z) pair a structure exists iff the 0/1 indicator
vectors of the equal-sum subsets, augmented with a homogenizing 1, span rank
n over the rationals.

The search decides that rank in batches, without the homogenizing 1 and
modulo the prime P = 2^31 - 1, and both steps are exact:

- The augmented vectors (x, 1) all lie in the hyperplane c . x = Z t, on
  which dropping t is injective (Z >= 1), so rank{(x, 1)} = rank{x}.
- A nonzero n x n 0/1 minor is at most (n+1)^((n+1)/2) / 2^n in absolute
  value, which is below P for n <= 22 (`MAX_SEARCH_QUBITS`); so a full-rank
  bucket keeps a minor that is nonzero modulo P, and the rank modulo P
  equals the rank over Q.  Larger n is refused.

The structures themselves (`enumerate_structures`) take their patterns from
the same elimination: the pivot rows of an admitted bucket, whose masks come
in ascending order.  Each pivot is the first row nonzero in its column, so
every prefix of the bucket holds as many pivots as its rank, which makes the
pivots the lexicographically first basis, the first n masks whose augmented
indicators are independent.

A brute-force oracle for n <= 6 (`brute_force_oracle`) enumerates supports
directly and must reproduce the same record sets.  It shares nothing with the
search but `_record_from_kernel`: no multisets, mask sums or rank test.  A
support is the all-ones row plus n other sign rows r_i = 1 - 2 b_i, with b_i
their 0/1 bits stacked into B.  A kernel vector (c0, x) has c0 + sum(x) =
2 t and B^T x = t 1, so

- a positive kernel needs B nonsingular: if B^T y = 0 with y != 0, then
  (-sum(y), y) is a kernel vector, and no multiple of it is positive (-sum(y)
  and y cannot share a sign), so the kernel is either its line or more than
  one-dimensional, and neither is a line through a positive vector;
- for nonsingular B the kernel is the line through (2d - sum(x), x) with
  d = det B and B^T x = d 1, an integer x by Cramer's rule.

Each chunk of supports gets one batched float `det` and one `solve`, both
rounded to integers; a value further than `ORACLE_ROUNDING_MARGIN` from its
integer raises ArithmeticError.  A support whose det rounds to 0 is dropped
as singular (the largest LAPACK error measured on these matrices is 5e-15,
and a nonzero det is at least 1).  Every other support is checked exactly
in int64, B^T x = d 1, or ArithmeticError is raised.  Positivity is then
decided on the integers and is exact: sign(d) (2d - sum(x), x) is |d| times
the kernel vector (2 - sum(y), y) with B^T y = 1, whatever nonzero d the
check passes.  Each kept support is certified nonsingular by one more exact
check, B^T A = d I for the rounded solve A, which forces det B != 0.  A
record the oracle returns therefore never rests on a float.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby, permutations
from math import comb, factorial, gcd, isqrt, prod
from multiprocessing import get_context
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .exactlinalg import solve_rational

ORACLE_MAX_QUBITS = 6
# Most supports one oracle chunk holds; about 20 MB of float matrices at n = 6.
ORACLE_CHUNK_SUPPORTS = 1 << 16
# Largest distance from an integer a rounded oracle det or solve may show;
# the largest error measured on these 0/1 matrices is 5e-15.
ORACLE_ROUNDING_MARGIN = 1e-6
# Prime modulus of the batched rank test, and the largest n it is exact for.
RANK_PRIME = 2 ** 31 - 1
MAX_SEARCH_QUBITS = 22
# Most work `a_class_matrices` takes on: C(masks, n) + |G| * masks.
A_CLASS_WORK_LIMIT = 10 ** 7


@dataclass(frozen=True)
class CombinatorialStructure:
    """Multiset + target sum Z + one pattern (0-based position subset) per
    qubit.  Only shape is validated here; the arithmetic invariants are the
    business of `validate_structure` / `uniqueness_check`."""

    n: int
    multiset: tuple[int, ...]
    z: int
    patterns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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

    def record(self) -> "SearchRecord":
        return SearchRecord(self.denominator, self.multiset, self.z)

    def sign_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Pattern-by-position sign matrix: +1 at members, -1 elsewhere."""
        return tuple(
            tuple(1 if j in set(pat) else -1 for j in range(self.n))
            for pat in self.patterns
        )


@dataclass(frozen=True, order=True)
class SearchRecord:
    """Table row: chi_min denominator, multiset (c0 excluded), pattern sum Z.
    Field order gives the (denominator, multiset, Z) sort used everywhere."""

    denominator: int
    multiset: tuple[int, ...]
    z: int


@dataclass(frozen=True)
class SearchResult:
    n: int
    sum_bound: int
    records: tuple[SearchRecord, ...]
    multisets_scanned: int
    rank_tests: int

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(sorted({rec.denominator for rec in self.records}))


def default_sum_bound(n: int) -> int:
    """Default multiset-sum ceiling 4n.

    It is not provably exhaustive: at n = 7 the largest multiset sum found
    is 28 = 4n, with no margin, and at n = 8 a search to 40 finds 966
    records more than one to 32.
    """
    return 4 * n


def completeness_bound(n: int) -> int:
    """Provable multiset-sum ceiling n * floor((n+1)^((n+1)/2) / 2^(n-1)) // (n+1).

    A structure's n+1 kernel coefficients (c0 for the all-ones row, then the
    multiset) are the n x n +-1 minors of its sign matrix divided by their
    gcd g.  Every n x n +-1 determinant is a multiple of 2^(n-1), so g is
    too.  The coefficients are positive and sum to |det [W | 1]| / g, which
    the Hadamard bound caps at (n+1)^((n+1)/2) / 2^(n-1).  On the Z range
    the search scans, c0 = sum - 2Z >= c1 is the largest coefficient, so the
    multiset sum is at most n/(n+1) of that total: 3, 4, 10, 24, 56 and 136
    for n = 3..8.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return n * (isqrt((n + 1) ** (n + 1)) // 2 ** (n - 1)) // (n + 1)


def equal_sum_submultisets(values: Sequence[int], z: int) -> list[tuple[int, ...]]:
    """All proper position subsets of `values` with value sum z.

    Positions index the given sequence, so repeated values yield distinct
    patterns at distinct positions.  Deterministic bitmask order.
    """
    if z < 1:
        raise ValueError("Z must be positive")
    sums = _mask_sums(np.array([values], dtype=object))[0, 1:-1]  # exact for any int
    return [_mask_positions(int(mask)) for mask in np.flatnonzero(sums == z) + 1]


def _mask_sums(values: np.ndarray) -> np.ndarray:
    """Column `mask` of row i: the sum of values[i] over the positions in
    `mask`, for every mask 0 .. 2^n - 1 of a (k, n) array, by n doublings."""
    sums = np.zeros((len(values), 1), dtype=values.dtype)
    for j in range(values.shape[1]):
        sums = np.concatenate([sums, sums + values[:, j:j + 1]], axis=1)
    return sums


def _mask_positions(mask: int) -> tuple[int, ...]:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def partitions_fixed_length(
    total: int, parts: int, max_part: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Nonincreasing positive partitions of `total` into exactly `parts`,
    lexicographically descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    hi = total - (parts - 1)
    if max_part is not None:
        hi = min(hi, max_part)
    lo = -(-total // parts)
    for first in range(hi, lo - 1, -1):
        if parts == 1:
            yield (first,)
        else:
            for rest in partitions_fixed_length(total - first, parts - 1, first):
                yield (first,) + rest


def _rank_test_exact(n: int) -> bool:
    """Whether every n x n 0/1 minor, at most (n+1)^((n+1)/2) / 2^n in
    absolute value, lies below RANK_PRIME."""
    return (n + 1) ** (n + 1) < RANK_PRIME ** 2 * 4 ** n


def _search_tasks(n: int, sum_bound: int) -> list[tuple[int, int, int]]:
    """Independent chunks (n, total, first element) of the multiset space,
    in the order `enumerate_structures` walks it.  Totals stop at
    `completeness_bound(n)` whatever sum_bound asks for, since no structure
    lies above it."""
    if n < 3:
        raise ValueError("maximal-length structures need n >= 3")
    if not _rank_test_exact(n):
        raise ValueError(
            f"search is exact only up to n = {MAX_SEARCH_QUBITS} "
            f"(rank test modulo 2^31 - 1)"
        )
    if sum_bound < n:
        raise ValueError(f"sum bound {sum_bound} is below the smallest multiset sum {n}")
    return [
        (n, total, first)
        for total in range(n, min(sum_bound, completeness_bound(n)) + 1)
        for first in range(total - (n - 1), -(-total // n) - 1, -1)
    ]


@lru_cache(maxsize=None)
def _mask_bits(n: int) -> np.ndarray:
    """0/1 bit rows of the proper masks 1 .. 2^n - 2, then one zero row that
    pads short buckets; built on first use, not at import."""
    masks = np.arange(1, (1 << n) - 1)
    bits = (masks[:, None] >> np.arange(n)) & 1
    table = np.vstack([bits, np.zeros((1, n), dtype=bits.dtype)]).astype(np.int32)
    table.setflags(write=False)
    return table


def _full_column_rank(mats: np.ndarray) -> np.ndarray:
    """Per matrix of a (B, m, n) stack of 0/1 matrices, the row chosen as
    pivot in each column, -1 from the first column without one: the matrix
    has rank n over Q iff its last entry is >= 0.

    Division-free elimination: each step takes the first row with a nonzero
    entry in the leading column as pivot, sets every row to ``p*row -
    a*pivot`` (the pivot row itself becomes zero) and drops the column; a
    matrix without a nonzero entry there is rank deficient and leaves the
    batch.  A step takes entries bounded by b to entries bounded by 2*b^2,
    so the first steps run exactly in int32; once the bound reaches
    RANK_PRIME, each step runs in int64 (products below 2^62) and reduces
    modulo RANK_PRIME.  Every entry tested for zero is thus below
    RANK_PRIME in absolute value, and the rank modulo the prime equals the
    rank over Q while `_rank_test_exact` holds.
    """
    work = np.asarray(mats, dtype=np.int32)
    pivots = np.full((work.shape[2], len(work)), -1)  # transposed: rows fill cheaply
    alive = np.arange(len(work))
    bound = 1
    for col in range(work.shape[2]):
        nonzero = work[:, :, 0] != 0
        has_pivot = nonzero.any(axis=1)
        if not has_pivot.all():
            alive, work, nonzero = alive[has_pivot], work[has_pivot], nonzero[has_pivot]
            if not len(alive):
                break
        first = nonzero.argmax(axis=1)
        pivots[col][alive] = first
        bound = 2 * bound * bound
        if bound >= RANK_PRIME:
            work = work.astype(np.int64, copy=False)
        pivot = work[np.arange(len(work)), first][:, None, :]
        lead = work[:, :, :1] * pivot[:, :, 1:]
        work = pivot[:, :, :1] * work[:, :, 1:]
        work -= lead
        del lead
        if bound >= RANK_PRIME:
            work %= RANK_PRIME
            bound = RANK_PRIME - 1
    return pivots.T


def _admitted_pairs(
    task: tuple[int, int, int]
) -> tuple[list[tuple[tuple[int, ...], int]], int, int, np.ndarray]:
    """The (multiset, Z) pairs of one task that admit a structure, multisets
    in partition order and Z ascending, with the number of gcd-1 multisets
    scanned, of rank tests run, and each pair's witness: the rows of
    `_mask_bits(n)` (mask - 1) that its elimination chose as pivots.

    All multisets of a task share total and largest element, so n array
    doublings give every mask sum, one bincount every bucket size, and the
    buckets with at least n masks and 1 <= Z <= (total - c1) / 2 go through
    `_full_column_rank` in batches of similar size (padding below 2x).
    """
    n, total, first = task
    multisets = [
        (first,) + rest
        for rest in partitions_fixed_length(total - first, n - 1, first)
        if gcd(first, *rest) == 1
    ]
    if not multisets:
        return [], 0, 0, np.empty((0, n), dtype=np.intp)
    width = total + 1  # bucket key = multiset index * width + mask sum
    offsets = width * np.arange(len(multisets))[:, None]
    keys = (_mask_sums(np.array(multisets))[:, 1:-1] + offsets).ravel()
    bits = _mask_bits(n)
    proper = len(bits) - 1
    counts = np.bincount(keys, minlength=len(multisets) * width)
    # Column 0 (Z = 0) is empty: every proper mask sum is at least 1.
    candidate = counts.reshape(-1, width) >= n
    candidate[:, (total - first) // 2 + 1:] = False
    candidate = candidate.ravel()
    tested = np.flatnonzero(candidate)
    # Member masks of the tested buckets, bucket by bucket, then the zero row.
    members = np.flatnonzero(candidate[keys])
    members = members[np.argsort(keys[members], kind="stable")]
    rows = np.append(members % proper, proper)
    sizes = counts[tested]
    starts = np.cumsum(sizes) - sizes
    pivots = np.empty((len(tested), n), dtype=np.intp)
    size_class = np.frexp(sizes)[1]
    for cls in set(size_class.tolist()):
        pick = np.flatnonzero(size_class == cls)
        offsets = np.arange(sizes[pick].max())
        index = np.where(offsets < sizes[pick, None], starts[pick, None] + offsets, len(rows) - 1)
        pivots[pick] = _full_column_rank(bits[rows[index]])
    full = pivots[:, -1] >= 0
    pairs = [(multisets[k], int(z)) for k, z in zip(*np.divmod(tested[full], width))]
    # A bucket's pivots count from its start in `rows`; the zero row never pivots.
    return pairs, len(multisets), len(tested), rows[(starts[:, None] + pivots)[full]]


def _scan_chunk(task: tuple[int, int, int]) -> tuple[list[SearchRecord], int, int]:
    pairs, scanned, tests, _ = _admitted_pairs(task)
    records = [SearchRecord(sum(multiset) - z, multiset, z) for multiset, z in pairs]
    return records, scanned, tests


def enumerate_structures(n: int, sum_bound: int) -> Iterator[CombinatorialStructure]:
    """Every valid structure with multiset sum <= sum_bound, one per
    (multiset, Z) pair, in deterministic order; its patterns are the pair's
    witness sorted by mask."""
    for task in _search_tasks(n, sum_bound):
        pairs, _, _, witnesses = _admitted_pairs(task)
        for (multiset, z), witness in zip(pairs, np.sort(witnesses, axis=1).tolist()):
            patterns = tuple(_mask_positions(row + 1) for row in witness)
            yield CombinatorialStructure(n, multiset, z, patterns)


def search_tables(n: int, sum_bound: Optional[int] = None, workers: int = 1) -> SearchResult:
    """Deduplicated record set for all structures with sum <= sum_bound.

    The multiset space is partitioned by (total sum, first element); chunks
    are independent, and the merged result is sorted, so the output and the
    counters do not depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if sum_bound is None:
        sum_bound = default_sum_bound(n)
    tasks = _search_tasks(n, sum_bound)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_chunk, tasks, chunksize=16))
    else:
        chunks = list(map(_scan_chunk, tasks))
    records = {rec for chunk, _, _ in chunks for rec in chunk}
    return SearchResult(
        n,
        sum_bound,
        tuple(sorted(records)),
        multisets_scanned=sum(scanned for _, scanned, _ in chunks),
        rank_tests=sum(tests for _, _, tests in chunks),
    )


def table_one_denominators(n: int, workers: int = 1) -> tuple[int, ...]:
    """chi_min denominators available to n qubits: the union over maximal
    length structures at k = 3..n plus the two-qubit pi (denominator 1)."""
    if n < 2:
        raise ValueError("phase tables start at two qubits")
    denoms = {1}
    for k in range(3, n + 1):
        denoms.update(search_tables(k, workers=workers).denominators)
    return tuple(sorted(denoms))


def validate_structure(structure: CombinatorialStructure) -> None:
    """Raise ValueError naming the first violated structure invariant."""
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
    if not uniqueness_check(structure):
        raise ValueError("selection does not uniquely define the integers")


def uniqueness_check(structure: CombinatorialStructure) -> bool:
    """True iff the pattern sign matrix is nonsingular and solving the column
    system with right side -c0 * (1..1) reproduces the multiset values."""
    sol = solve_rational(structure.sign_matrix(), [-structure.c0] * structure.n)
    if sol is None:
        return False
    x, free = sol
    return free == 0 and all(x[j] == structure.multiset[j] for j in range(structure.n))


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


def _tail_counts(prefixes: np.ndarray, m: int, k: int) -> np.ndarray:
    """Per prefix row, the number of k-subsets of range(m) above its last
    element: C(m - 1 - last, k), with last = -1 for the empty prefix."""
    start = prefixes[:, -1] + 1 if prefixes.shape[1] else np.zeros(len(prefixes), dtype=np.intp)
    return np.array([comb(m - t, k) for t in range(m + 1)])[start]


def _tail_join(prefixes: np.ndarray, table: np.ndarray, m: int) -> np.ndarray:
    """Each prefix row followed by every row of `table`, the k-subsets of
    range(m) in lexicographic order, that starts above the prefix's last
    element; the result is in lexicographic order.  The rows starting at t
    or above are the last C(m - t, k) rows of the table."""
    sizes = _tail_counts(prefixes, m, table.shape[1])
    ends = np.cumsum(sizes)
    rows = np.arange(int(sizes.sum())) + np.repeat(len(table) - ends, sizes)
    return np.hstack([np.repeat(prefixes, sizes, axis=0), table[rows]])


@lru_cache(maxsize=None)
def _combination_table(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m) as ascending rows in lexicographic order;
    built on first use, not at import."""
    if k == 0:
        table = np.zeros((1, 0), dtype=np.intp)
    else:
        table = _tail_join(np.arange(m)[:, None], _combination_table(m, k - 1), m)
    table.setflags(write=False)
    return table


def _oracle_split(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's supports, as n-subsets of the m = 2^n - 1 sign rows other
    than all-ones, split into p-element prefixes and (n-p)-element tails: a
    support is a prefix followed by a tail above it.  p is the least prefix
    length whose largest block, C(m - p, n - p) supports, fits in one chunk."""
    m = (1 << n) - 1
    p = next(p for p in range(n + 1) if comb(m - p, n - p) <= ORACLE_CHUNK_SUPPORTS)
    return _combination_table(m - n + p, p), _combination_table(m, n - p)


def _oracle_tasks(n: int) -> list[tuple[int, int, int]]:
    """Chunks (n, lo, hi) of the oracle's scan: runs of consecutive prefixes
    of `_oracle_split(n)` holding at most ORACLE_CHUNK_SUPPORTS supports."""
    prefixes, tails = _oracle_split(n)
    bounds, filled = [0], 0
    for i, size in enumerate(_tail_counts(prefixes, (1 << n) - 1, tails.shape[1]).tolist()):
        if filled + size > ORACLE_CHUNK_SUPPORTS:
            bounds.append(i)
            filled = 0
        filled += size
    bounds.append(len(prefixes))
    return [(n, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _nearest_integers(values: np.ndarray) -> np.ndarray:
    """`values` rounded to int64; ArithmeticError when one (NaN included) lies
    further than ORACLE_ROUNDING_MARGIN from its integer."""
    rounded = np.rint(values)
    if not (np.abs(values - rounded) <= ORACLE_ROUNDING_MARGIN).all():
        raise ArithmeticError("oracle det or solve is off its integer by more than the margin")
    return rounded.astype(np.int64)


def _oracle_chunk(task: tuple[int, int, int]) -> set[SearchRecord]:
    n, lo, hi = task
    prefixes, tails = _oracle_split(n)
    return _support_records(n, _tail_join(prefixes[lo:hi], tails, (1 << n) - 1))


def _support_records(n: int, supports: np.ndarray) -> set[SearchRecord]:
    """Records of the supports in the rows of `supports`, each the indices of
    its n sign rows other than all-ones (index i: the bits of mask i + 1), by
    the float det and solve and the exact certificate of the module docstring."""
    bits = (np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1).astype(np.int8)
    bt = bits[supports].swapaxes(1, 2)  # B^T: column i holds the bits of row i
    d = _nearest_integers(np.linalg.det(bt))
    bt, d = bt[d != 0], d[d != 0]
    x = _nearest_integers(np.linalg.solve(bt, np.repeat(d[:, None, None], n, axis=1)))
    if not (bt @ x == d[:, None, None]).all():
        raise ArithmeticError("oracle solve fails its exact int64 check")
    x = x[:, :, 0]
    kernel = np.column_stack([2 * d - x.sum(axis=1), x]) * np.sign(d)[:, None]
    keep = (kernel > 0).all(axis=1)
    bt, kernel = bt[keep], kernel[keep]
    scaled_eye = d[keep, None, None] * np.eye(n, dtype=np.int64)
    if not (bt @ _nearest_integers(np.linalg.solve(bt, scaled_eye)) == scaled_eye).all():
        raise ArithmeticError("oracle adjugate fails its exact int64 check")
    kernel //= np.gcd.reduce(kernel, axis=1)[:, None]
    return {rec for rec in map(_record_from_kernel, kernel.tolist()) if rec is not None}


def brute_force_oracle(n: int, workers: int = 1) -> set[SearchRecord]:
    """Independent validation: enumerate all (n+1)-row supports directly.

    Column negation makes any chosen row all +1 without touching the kernel,
    so supports containing the all-ones row cover every class; the other n
    rows run over all C(2^n - 1, n) choices, in lexicographic chunks with
    one batched float det and solve each (module docstring).  Each support
    whose weight rows form an irreducible c-state of maximal length
    contributes its kernel-vector record.  With workers > 1 the chunks go to
    spawned processes; the result does not depend on the worker count.
    """
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle cost explodes beyond n={ORACLE_MAX_QUBITS}")
    if n < 2:
        raise ValueError("need at least two qubits")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = _oracle_tasks(n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            chunks = list(pool.map(_oracle_chunk, tasks))
    else:
        chunks = list(map(_oracle_chunk, tasks))
    return set().union(*chunks)


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
    keeps masks <= 62, so every sum fits a uint64.
    """
    n = len(multiset)
    if not _rank_test_exact(n):
        raise ValueError(f"A-classes are exact only up to n = {MAX_SEARCH_QUBITS}")
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
    rows = keys[:, None] >> np.arange(n - 1, -1, -1) & 1
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
    for rec in sorted(records):
        lines.append(f"{';'.join(map(str, rec.multiset))},{rec.z},{rec.denominator}")
    return "\n".join(lines) + "\n"
