"""Exhaustive search over combinatorial structures of irreducible
maximal-length c-states.

A structure is a multiset of n positive integers with gcd 1 together with a
target sum Z and n equal-sum position-subsets (patterns), one per qubit,
that uniquely pin the integers down.  Each structure determines a minimal
phase pi / (sum - Z).  The enumeration walks multiset totals in ascending
order; for each (multiset, Z) pair a structure exists iff the 0/1 indicator
vectors of the equal-sum subsets, augmented with a homogenizing 1, span rank
n over the rationals -- a greedy scan decides that exactly, and doubles as a
witness selection.

A brute-force oracle for small n enumerates supports directly and must
reproduce the same record sets.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional, Sequence

from .balance import positive_maximal_kernel
from .exactlinalg import Echelon, solve_rational

ORACLE_MAX_QUBITS = 5


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
    """Provable multiset-sum ceiling (n+1) * floor(n^(n/2)).

    Every coefficient including c0 is an n x n +-1 cofactor, hence Hadamard
    bounded by n^(n/2); summing n+1 of them bounds the total, so enumerating
    to this bound is exhaustive.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return (n + 1) * isqrt(n ** n)


def equal_sum_submultisets(values: Sequence[int], z: int) -> list[tuple[int, ...]]:
    """All proper position subsets of `values` with value sum z.

    Positions index the given sequence, so repeated values yield distinct
    patterns at distinct positions.  Deterministic bitmask order.
    """
    if z < 1:
        raise ValueError("Z must be positive")
    n = len(values)
    sums = _mask_sums(values)
    return [
        _mask_positions(mask)
        for mask in range(1, (1 << n) - 1)
        if sums[mask] == z
    ]


def _mask_sums(values: Sequence[int]) -> list[int]:
    n = len(values)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def _mask_positions(mask: int) -> tuple[int, ...]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def _greedy_selection(n: int, masks: Sequence[int]) -> Optional[list[int]]:
    """First n masks whose augmented indicators are linearly independent.

    The augmented indicator of a subset S is (x_S, 1) in Q^(n+1); all of them
    lie in the hyperplane c . x = Z, so full rank n is the best possible and
    the greedy maximal independent set decides existence exactly.
    """
    ech = Echelon()
    chosen: list[int] = []
    for mask in masks:
        if ech.add([(mask >> j) & 1 for j in range(n)] + [1]):
            chosen.append(mask)
            if len(chosen) == n:
                return chosen
    return None


def _structures_for_multiset(multiset: tuple[int, ...]) -> Iterator[CombinatorialStructure]:
    """Valid structures for one multiset, one per admissible Z, Z ascending."""
    n = len(multiset)
    total = sum(multiset)
    sums = _mask_sums(multiset)
    buckets: dict[int, list[int]] = {}
    for mask in range(1, (1 << n) - 1):
        buckets.setdefault(sums[mask], []).append(mask)
    for z in range(1, (total - multiset[0]) // 2 + 1):
        bucket = buckets.get(z, ())
        if len(bucket) < n:
            continue
        chosen = _greedy_selection(n, bucket)
        if chosen is None:
            continue
        struct = CombinatorialStructure(
            n, multiset, z, tuple(_mask_positions(mask) for mask in chosen)
        )
        # Coefficients including c0 always sum to an even number.
        assert (struct.total + struct.c0) % 2 == 0
        yield struct


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


def _search_tasks(n: int, sum_bound: int) -> list[tuple[int, int, int]]:
    """Independent chunks (n, total, first element) of the multiset space,
    in the order `enumerate_structures` walks it."""
    if n < 3:
        raise ValueError("maximal-length structures need n >= 3")
    if sum_bound < n:
        raise ValueError(f"sum bound {sum_bound} is below the smallest multiset sum {n}")
    return [
        (n, total, first)
        for total in range(n, sum_bound + 1)
        for first in range(total - (n - 1), -(-total // n) - 1, -1)
    ]


def _chunk_structures(task: tuple[int, int, int]) -> Iterator[CombinatorialStructure]:
    n, total, first = task
    for rest in partitions_fixed_length(total - first, n - 1, first):
        multiset = (first,) + rest
        if gcd(*multiset) == 1:
            yield from _structures_for_multiset(multiset)


def _scan_chunk(task: tuple[int, int, int]) -> list[SearchRecord]:
    return [s.record() for s in _chunk_structures(task)]


def enumerate_structures(n: int, sum_bound: int) -> Iterator[CombinatorialStructure]:
    """Every valid structure with multiset sum <= sum_bound, one per
    (multiset, Z) pair, in deterministic order."""
    for task in _search_tasks(n, sum_bound):
        yield from _chunk_structures(task)


def search_tables(n: int, sum_bound: Optional[int] = None, workers: int = 1) -> SearchResult:
    """Deduplicated record set for all structures with sum <= sum_bound.

    The multiset space is partitioned by (total sum, first element); chunks
    are independent, and the merged result is sorted, so the output does not
    depend on the worker count.
    """
    if sum_bound is None:
        sum_bound = default_sum_bound(n)
    tasks = _search_tasks(n, sum_bound)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_chunk, tasks, chunksize=16))
    else:
        chunks = map(_scan_chunk, tasks)
    records = {rec for chunk in chunks for rec in chunk}
    return SearchResult(n, sum_bound, tuple(sorted(records)))


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


def brute_force_oracle(n: int) -> set[SearchRecord]:
    """Independent validation: enumerate all (n+1)-row supports directly.

    Column negation makes any chosen row all +1 without touching the kernel,
    so supports containing the all-ones row cover every class.  Each support
    whose weight rows form an irreducible c-state of maximal length
    contributes its kernel-vector record.
    """
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle cost explodes beyond n={ORACLE_MAX_QUBITS}")
    if n < 2:
        raise ValueError("need at least two qubits")
    ones = (1,) * n
    others = [row for row in product((1, -1), repeat=n) if row != ones]
    records: set[SearchRecord] = set()
    for combo in combinations(others, n):
        vec = positive_maximal_kernel([ones, *combo])
        if vec is None:
            continue
        rec = _record_from_kernel(vec)
        if rec is not None:
            records.add(rec)
    return records


def _canonical_sign_matrix(
    matrix: Sequence[Sequence[int]], multiset: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal form under row sorting and value-preserving
    column permutations."""
    n = len(multiset)
    groups: list[list[int]] = []
    start = 0
    for j in range(1, n + 1):
        if j == n or multiset[j] != multiset[start]:
            groups.append(list(range(start, j)))
            start = j
    best = None
    for perm_parts in product(*(list(permutations(g)) for g in groups)):
        perm = [p for part in perm_parts for p in part]
        candidate = tuple(sorted(tuple(row[j] for j in perm) for row in matrix))
        if best is None or candidate < best:
            best = candidate
    return best


def a_class_matrices(
    multiset: Sequence[int], z: int, limit: int = 20000
) -> list[tuple[tuple[int, ...], ...]]:
    """All A-class sign matrices for one (multiset, Z), canonicalized and
    deduplicated.  `limit` caps the number of raw selections examined;
    exceeding it raises rather than returning a silently truncated list."""
    multiset = tuple(multiset)
    n = len(multiset)
    masks = [
        sum(1 << p for p in pat) for pat in equal_sum_submultisets(multiset, z)
    ]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    examined = 0
    for combo in combinations(masks, n):
        examined += 1
        if examined > limit:
            raise ValueError(f"more than {limit} selections; raise the limit to enumerate")
        if _greedy_selection(n, combo) is None:
            continue
        matrix = [
            [1 if (mask >> j) & 1 else -1 for j in range(n)] for mask in combo
        ]
        seen.add(_canonical_sign_matrix(matrix, multiset))
    return sorted(seen)


def records_to_csv(records: Iterable[SearchRecord]) -> str:
    lines = ["multiset,Z,chi_min_denominator"]
    for rec in sorted(records):
        lines.append(f"{';'.join(map(str, rec.multiset))},{rec.z},{rec.denominator}")
    return "\n".join(lines) + "\n"
