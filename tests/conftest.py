import cmath
import os
import random
import time
from fractions import Fraction
from itertools import chain, combinations, groupby, permutations, product
from math import gcd

import numpy as np
import pytest

from paper_fixtures import append_column
from topophase import balance, search
from topophase.exactlinalg import kernel_lattice, solve_rational
from topophase.stabilizers import apply_local_unitaries
from topophase.states import (PRODUCT_RANK_TOLERANCE, SparseState, WeightMatrix, support_state,
                              weight_matrix)


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


def reference_convex_feasible(rows):
    """Reference for `convex_feasible`: the same phase-1 simplex with Bland's
    rule, pivoting in ``Fraction`` arithmetic on the rational tableau.  It
    takes the same pivots, so it returns the same weights."""
    pts = [list(row) for row in rows]
    m = len(pts)
    if m == 0:
        return None
    dim = len(pts[0])
    ncon = dim + 1
    zero, one = Fraction(0), Fraction(1)
    # Tableau columns: m lambda variables, ncon artificials, rhs.
    tableau = []
    for i in range(dim):
        tableau.append([Fraction(pts[j][i]) for j in range(m)]
                       + [one if k == i else zero for k in range(ncon)] + [zero])
    tableau.append([one] * m + [one if k == dim else zero for k in range(ncon)] + [one])
    basis = [m + k for k in range(ncon)]
    # Phase-1 objective: minimize the sum of artificials.  Reduced-cost row.
    cost = [zero] * (m + ncon + 1)
    for row in tableau:
        for j in range(m):
            cost[j] -= row[j]
        cost[-1] -= row[-1]
    while True:
        enter = None
        for j in range(m + ncon):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(ncon):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 simplex objective unbounded")
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for i in range(ncon):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tableau[leave])]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    lam = [zero] * m
    for i, var in enumerate(basis):
        if var < m:
            lam[var] = tableau[i][-1]
        elif tableau[i][-1] != 0:
            return None  # artificial stuck at a nonzero level: infeasible
    return tuple(lam)


def tensor_product(a, b):
    """Concatenate qubits of two states (all amplitude products)."""
    terms = tuple(
        (abits + bbits, aamp * bamp)
        for abits, aamp in a.terms
        for bbits, bamp in b.terms
    )
    return SparseState(a.n + b.n, terms)


def dense_bipartition_product_check(state, subset):
    """Reference for `bipartition_product_check`: the dense 2^|A| x 2^|B|
    coefficient matrix of the split is rank 1, by its singular values."""
    part = sorted(set(subset))
    rest = [q for q in range(state.n) if q not in part]
    mat = np.zeros((2 ** len(part), 2 ** len(rest)), dtype=complex)
    for bits, amp in state.terms:
        i = int("".join(bits[q] for q in part), 2)
        j = int("".join(bits[q] for q in rest), 2) if rest else 0
        mat[i, j] = amp
    sing = np.linalg.svd(mat, compute_uv=False)
    if len(sing) < 2 or sing[0] == 0:
        return True
    return sing[1] <= PRODUCT_RANK_TOLERANCE * sing[0]


def subset_scan_entangled(state):
    """Reference for the `n_partite_entangled` flag: no bipartition passes
    the dense check.  Scans up to 2^(n-1) - 1 splits."""
    if state.n < 2 or state.m == 1:
        return False
    for size in range(1, state.n):
        for subset in combinations(range(1, state.n), size - 1):
            # Qubit 0 is always in the subset, so each split is visited once.
            if dense_bipartition_product_check(state, (0,) + subset):
                return False
    return True


def brute_force_factors(state):
    """Reference for `product_factors`: each qubit's block is the intersection
    of every dense-separable subset (or its complement) that holds it."""
    everything = frozenset(range(state.n))
    blocks = [everything] * state.n
    for size in range(1, state.n):
        for subset in combinations(range(state.n), size):
            if dense_bipartition_product_check(state, subset):
                part = frozenset(subset)
                blocks = [b & (part if q in part else everything - part)
                          for q, b in enumerate(blocks)]
    return tuple(sorted({tuple(sorted(b)) for b in blocks}))


def random_su2(rng):
    """Haar-random SU(2) via a normalized quaternion."""
    q = rng.normal(size=4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def diagonal_stabilizer(phis):
    """Per-qubit diag(e^{-i phi}, e^{+i phi}) in the (|0>, |1>) basis: the
    factors `stabilizers.verify` applies for its angles."""
    return [
        np.array([[cmath.exp(-1j * phi), 0.0], [0.0, cmath.exp(1j * phi)]])
        for phi in phis
    ]


def antidiagonal_stabilizer(deltas):
    """Per-qubit [[0, e^{i delta}], [-e^{-i delta}, 0]] (determinant +1): the
    factors `stabilizers.verify` applies for its angles with `antidiagonal`."""
    return [
        np.array([[0.0, cmath.exp(1j * d)], [-cmath.exp(-1j * d), 0.0]])
        for d in deltas
    ]


def dense_vector(state):
    """Amplitude vector of length 2^n, bit 0 of the string most significant."""
    vec = np.zeros(2 ** state.n, dtype=complex)
    for bits, amp in state.terms:
        vec[int(bits, 2)] = amp
    return vec


def dense_verify(state, angles, antidiagonal=False):
    """Reference for `stabilizers.verify`: (chi, residual) from the dense
    2^n vector, scaled by the largest real or imaginary part, with the
    factors built as 2x2 matrices and chi read at the first
    largest-magnitude amplitude."""
    build = antidiagonal_stabilizer if antidiagonal else diagonal_stabilizer
    scale = max(max(abs(amp.real), abs(amp.imag)) for _, amp in state.terms)
    vec = dense_vector(SparseState(state.n, tuple((b, amp / scale) for b, amp in state.terms)))
    out = apply_local_unitaries(vec, build(angles))
    anchor = int(np.argmax(np.abs(vec)))
    # chi is 0.0 where U psi vanishes at the anchor, as `verify` defines it.
    chi = cmath.phase(out[anchor] / vec[anchor]) if out[anchor] else 0.0
    return chi, float(np.max(np.abs(out - cmath.exp(1j * chi) * vec)))


def telescoped(support, n, seed):
    """The support state extended to n qubits by `append_column`, each
    new column a seeded +-1 column orthogonal to the single kernel vector."""
    state = support_state(len(support[0]), support)
    (kernel,) = weight_matrix(state).kernel
    columns = [list(col) for col in product((1, -1), repeat=state.m)
               if sum(c * x for c, x in zip(kernel, col)) == 0]
    rng = random.Random(seed)
    while state.n < n:
        state = append_column(state, rng.choice(columns))
    return state


def python_mask_sums(values):
    """Sum of `values` over every position mask, one Python step per mask:
    the reference for the search's numpy doubling."""
    sums = [0] * (1 << len(values))
    for mask in range(1, 1 << len(values)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def partitions_fixed_length(total, parts, max_part=None):
    """Nonincreasing positive partitions of `total` into exactly `parts`,
    at most `max_part` each, lexicographically descending."""
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


def reference_multisets(tasks):
    """The gcd-1 multisets of search tasks (n, total, first), one recursive
    partition at a time, in task order: the reference for the search's
    numpy stream."""
    return [
        (first,) + rest
        for n, total, first in tasks
        for rest in partitions_fixed_length(total - first, n - 1, first)
        if gcd(first, *rest) == 1
    ]


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


def independent_selections(multiset, z):
    """The n-mask selections of one (multiset, Z) with independent
    indicators, as sign matrices with rows in mask order: every raw
    selection, C(masks, n) of them, built as one array and rank tested."""
    n = len(multiset)
    masks = [sum(1 << p for p in pat) for pat in search.equal_sum_submultisets(multiset, z)]
    combos = np.array(list(combinations(masks, n)), dtype=np.int64).reshape(-1, n)
    bits = (combos[:, :, None] >> np.arange(n)) & 1
    independent = 2 * bits[search._full_column_rank(bits)[:, -1] >= 0] - 1
    return [tuple(map(tuple, matrix)) for matrix in independent.tolist()]


def sign_orbit(matrix, multiset):
    """Every row-sorted image of a sign matrix under the value-preserving
    column permutations; its minimum is the canonical form."""
    groups = [list(g) for _, g in groupby(range(len(multiset)), key=multiset.__getitem__)]
    return {
        tuple(sorted(tuple(row[j] for j in chain(*parts)) for row in matrix))
        for parts in product(*(permutations(g) for g in groups))
    }


def reference_uniqueness(structure):
    """Reference for the uniqueness test of `search.validate_structure`: solve
    the sign system with right side -c0 * (1..1) and compare the unique
    solution, if there is one, with the multiset."""
    sol = solve_rational(structure.sign_matrix(), [-structure.c0] * structure.n)
    if sol is None:
        return False
    x, free = sol
    return free == 0 and all(x[j] == structure.multiset[j] for j in range(structure.n))


def reference_a_classes(multiset, z):
    """Reference for `search.a_class_matrices`: walk every independent raw
    selection, skip those already in a seen orbit, and keep each new orbit's
    minimum.  Memory grows with C(masks, n)."""
    seen, classes = set(), []
    for selection in independent_selections(multiset, z):
        if tuple(sorted(selection)) not in seen:
            orbit = sign_orbit(selection, multiset)
            seen |= orbit
            classes.append(min(orbit))
    return sorted(classes)


def reference_brute_force_oracle(n):
    """The per-support oracle walk, the reference for
    `search.brute_force_oracle`: one exact `positive_maximal_kernel` call for
    each support of the all-ones row and n other sign rows."""
    ones = (1,) * n
    others = [row for row in product((1, -1), repeat=n) if row != ones]
    records = set()
    for combo in combinations(others, n):
        vec = balance.positive_maximal_kernel(WeightMatrix(n + 1, n, (ones, *combo)))
        if vec is not None:
            rec = search._record_from_kernel(vec)
            if rec is not None:
                records.add(rec)
    return records


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


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two CPUs, so that workers=2 starts two real processes even on a
    one-CPU host: the worker map caps its processes at the CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture(scope="session")
def search_results():
    """Search tables for n = 3..6 at the default bound, shared session-wide."""
    return {n: search.search_tables(n) for n in range(3, 7)}


@pytest.fixture(scope="session")
def search_result_7():
    return search.search_tables(7)


@pytest.fixture(scope="session")
def complete_result_7():
    """The n = 7 search to its provable bound 56, shared session-wide."""
    return search.search_tables(7, search.completeness_bound(7))


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
