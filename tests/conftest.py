import time
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import numpy as np
import pytest

from topophase import search
from topophase.exactlinalg import kernel_lattice
from topophase.states import SparseState


def brute_force_det(rows):
    """Permutation-sum determinant, independent of the elimination core."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions for the parity
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


class Echelon:
    """Incremental row echelon form of integer vectors, division-free: the
    reference elimination for rank, pivot and solve checks.

    `add` reduces a vector against the stored rows in the order they were
    stored: a row whose pivot column holds 0 in the vector is skipped,
    otherwise ``v = p*v - a*row`` with ``p`` the row's pivot entry and ``a``
    the vector's entry there.  A nonzero remainder is stored divided by its
    content, with its first nonzero column as pivot.  Every stored row is
    zero in the pivot columns of the rows stored before it.
    """

    def __init__(self):
        self.rows = []

    def add(self, vec):
        """Store the reduced vector; False when it lies in the span."""
        v = list(vec)
        for col, row in self.rows:
            a = v[col]
            if a:
                p = row[col]
                v = [x * p - y * a for x, y in zip(v, row)]
        for col, x in enumerate(v):
            if x:
                g = gcd(*v)
                self.rows.append((col, [y // g for y in v]))
                return True
        return False


def echelon_solve(rows, rhs):
    """Reference for `solve_rational`: back-substitution over the `Echelon`
    rows of ``[M*den | num]``, free variables at 0."""
    ncols = len(rows[0]) if rows else 0
    ech = Echelon()
    for row, b in zip(rows, map(Fraction, rhs)):
        ech.add([x * b.denominator for x in row] + [b.numerator])
    if any(col == ncols for col, _ in ech.rows):
        return None
    # Each stored row involves only the pivots of later rows.
    x = [Fraction(0)] * ncols
    solved = []
    for col, row in reversed(ech.rows):
        x[col] = Fraction(row[ncols] - sum(row[c] * x[c] for c in solved), row[col])
        solved.append(col)
    return tuple(x), ncols - len(ech.rows)


def rank_rational(rows):
    """Exact rank over Q by the `Echelon` row step."""
    ech = Echelon()
    return sum(ech.add(row) for row in rows)


def tensor_product(a, b):
    """Concatenate qubits of two states (all amplitude products)."""
    terms = tuple(
        (abits + bbits, aamp * bamp)
        for abits, aamp in a.terms
        for bbits, bamp in b.terms
    )
    return SparseState(a.n + b.n, terms)


def random_su2(rng):
    """Haar-random SU(2) via a normalized quaternion."""
    q = rng.normal(size=4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def python_mask_sums(values):
    """Sum of `values` over every position mask, one Python step per mask:
    the reference for the search's numpy doubling."""
    sums = [0] * (1 << len(values))
    for mask in range(1, 1 << len(values)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def equal_sum_masks(values, z):
    """Proper masks of `values` summing to z, ascending."""
    sums = python_mask_sums(values)
    return [mask for mask in range(1, (1 << len(values)) - 1) if sums[mask] == z]


def greedy_selection(n, masks):
    """First n masks whose augmented indicators (x, 1) are independent, by an
    exact `Echelon` scan, or None: the reference for the search's pivots."""
    ech = Echelon()
    chosen = []
    for mask in masks:
        if ech.add([(mask >> j) & 1 for j in range(n)] + [1]):
            chosen.append(mask)
            if len(chosen) == n:
                return chosen
    return None


def has_affine_dependence(rows):
    """Whether some integer dependence of the rows has a nonzero sum."""
    return any(sum(vec) for vec in kernel_lattice(rows))


def subset_scan_irreducibility(rows):
    """Exhaustive reference for `balance.irreducibility`: the first row subset,
    by size and then lexicographically, carrying a dependence with nonzero
    sum, and whether it is all rows.  Exponential in the row count."""
    m = len(rows)
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            if has_affine_dependence([rows[i] for i in subset]):
                return size == m, subset
    raise ValueError("not an a-state: no dependence with nonzero sum")


# Worked five- and seven-qubit states used across the suite.
FIVE_QUBIT_SIX_TERM = [  # multiset {1,1,1,1,1}, Z=2, chi_min pi/3
    "11111", "10001", "11000", "01100", "00110", "00011",
]
# The third five-qubit display in the published reference tables: its pattern selection is
# the singular pair 4-cycle, so as printed it is reducible with chi_min pi/2.
FIVE_QUBIT_PRINTED_THIRD = [
    "11111", "10000", "01001", "01100", "00110", "00011",
]
FIVE_QUBIT_MAXLEN_PI4 = [  # valid representative: {2,1,1,1,1}, Z=2, chi_min pi/4
    "11111", "10000", "01110", "01001", "00101", "00010",
]
FIVE_QUBIT_MAXLEN_PI5 = [  # multiset {2,2,1,1,1}, Z=2, chi_min pi/5
    "11111", "10000", "01000", "00110", "00101", "00011",
]
SEVEN_QUBIT_PI18 = [  # multiset {7,6,5,4,3,2,1}, Z=10, chi_min pi/18
    "1111111", "1100000", "0011000", "0000110",
    "0010101", "1001011", "0100011", "0101101",
]
# Worked seven-qubit structure for {4,3,3,1,1,1,1}, Z=4 (0-based positions).
WORKED_SEVEN_QUBIT_STRUCTURE = search.CombinatorialStructure(
    7,
    (4, 3, 3, 1, 1, 1, 1),
    4,
    ((0,), (1, 3), (1, 4), (1, 5), (1, 6), (2, 5), (3, 4, 5, 6)),
)
WORKED_SEVEN_QUBIT_SUPPORT = [
    "1111111", "1000000", "0111100", "0000010",
    "0100001", "0010001", "0001011", "0000101",
]


@pytest.fixture(scope="session")
def search_results():
    """Search tables for n = 3..6 at the default bound, shared session-wide."""
    return {n: search.search_tables(n) for n in range(3, 7)}


@pytest.fixture(scope="session")
def search_result_7():
    return search.search_tables(7)


@pytest.fixture(scope="session")
def oracle_results():
    """`brute_force_oracle(n)` for n = 3..5 as (records, seconds taken),
    shared session-wide."""
    out = {}
    for n in (3, 4, 5):
        start = time.monotonic()
        records = search.brute_force_oracle(n)
        out[n] = (records, time.monotonic() - start)
    return out
