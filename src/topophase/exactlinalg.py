"""Exact integer and rational linear algebra.

The package has three elimination schemes, each for its own job; two are
here:

- `_reduce`, integer row reduction carrying a unimodular transform.
  `kernel_lattice` reads the left kernel from the transform, as a basis of
  the full integer lattice; `determinant` is the transform's sign times the
  echelon diagonal; `solve_rational` back-substitutes over the pivot rows
  in integers over one common denominator and builds one Fraction per
  nonzero unknown; `solve_integer` reduces the transpose and
  forward-substitutes over its pivot rows.
- `convex_feasible`, a phase-1 simplex with Bland's rule on an integer
  tableau over one common denominator ``D`` (Edmonds' integer-preserving
  pivot, as in Bareiss' elimination).  Each pivot divides every non-pivot
  row by the previous ``D`` exactly; the division is checked with
  ``divmod`` and a remainder raises ArithmeticError.  The ratio test
  compares cross-products, so no fraction is formed until the weights are
  returned.  `balance.convex_certificate` calls it only on kernels of
  dimension 2 or more: convex weights lie in the rational left kernel, so
  dimension 0 has none and dimension 1 has the one candidate c / sum(c).

The third is the search's rank test, `search._full_column_rank`, which
eliminates modulo a prime in numpy.  One bucket helper, `search._bucket_pivots`,
feeds it both the count vectors of each bucket's canonical masks, for the
search, and the 0/1 masks of the admitted buckets alone, whose pivot rows are
`enumerate_structures`' witness patterns; `a_class_matrices` runs it on its
selections.  The oracle's exact kernel, the int16 Laplace expansion of
`search._support_records`, is kept apart from all three on purpose: the
oracle must share nothing with the search it checks.

Everything is arbitrary precision; no floating point anywhere.  Matrices are
passed around as sequences of equal-length integer rows; the public
operations are pure and never mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

IntRows = Sequence[Sequence[int]]


def _copy_rows(rows: IntRows) -> list[list[int]]:
    out = [[int(x) for x in row] for row in rows]
    if out:
        width = len(out[0])
        for i, row in enumerate(out):
            if len(row) != width:
                raise ValueError(f"ragged matrix: row {i} has length {len(row)}, expected {width}")
    return out


def make_primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide out the content and fix the sign of the first nonzero entry to +."""
    g = gcd(*vec)
    if g == 0:
        return tuple(vec)
    out = [x // g for x in vec]
    for x in out:
        if x:
            if x < 0:
                out = [-y for y in out]
            break
    return tuple(out)


def _reduce(h: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int, int]:
    """Integer row echelon form ``h = u M`` with ``u`` unimodular, in place.

    ``h`` holds the rows of M as int lists of equal length that the caller
    owns; each caller builds them in one validating pass.

    Column by column, the rows below the pivots found so far are reduced by
    ``row -= q * pivot`` against the one with the smallest nonzero entry
    until a single nonzero entry is left; that row is swapped up as the next
    pivot.  Stops once every row holds a pivot.  Returns ``(h, u, rank,
    sign)``: rows ``rank:`` of ``h`` are zero and ``sign = det u`` flips on
    every swap of two distinct rows.
    """
    m = len(h)
    ncols = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    rank, sign = 0, 1
    for col in range(ncols):
        if rank == m:
            break
        while True:
            live = [i for i in range(rank, m) if h[i][col] != 0]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                if i != rank:
                    h[rank], h[i] = h[i], h[rank]
                    u[rank], u[i] = u[i], u[rank]
                    sign = -sign
                rank += 1
                break
            pivot = min(live, key=lambda i: abs(h[i][col]))
            p = h[pivot][col]
            for i in live:
                if i == pivot:
                    continue
                q = h[i][col] // p
                if q:
                    hi, hp = h[i], h[pivot]
                    for j in range(col, ncols):
                        hi[j] -= q * hp[j]
                    ui, up = u[i], u[pivot]
                    for j in range(m):
                        ui[j] -= q * up[j]
    return h, u, rank, sign


def kernel_lattice(rows: IntRows) -> list[tuple[int, ...]]:
    """Basis of the integer left-kernel lattice ``{c : c^T M = 0}``.

    The basis is the rows of `_reduce`'s unimodular transform that take M to
    zero rows, so it generates the full lattice (not a finite-index
    sublattice) and every basis vector is primitive.  Empty list when M has
    full row rank.
    """
    _, u, rank, _ = _reduce(_copy_rows(rows))
    return [make_primitive(vec) for vec in u[rank:]]


def determinant(rows: IntRows) -> int:
    """Exact determinant: the transform's sign times the echelon diagonal."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    h, _, rank, det = _reduce(_copy_rows(rows))
    if rank < n:
        return 0
    for i in range(n):
        det *= h[i][i]
    return det


def solve_rational(
    rows: IntRows, rhs: Sequence[Fraction | int]
) -> Optional[tuple[tuple[Fraction, ...], int]]:
    """Solve ``M x = b`` exactly over the rationals.

    Returns ``(particular_solution, num_free)`` with free variables set to
    zero and ``num_free = cols - rank(M)``, or None when inconsistent.  The
    echelon form of ``[M*den | num]`` is back-substituted over its pivot
    rows in integers: the unknowns solved so far are numerators ``N[c]``
    over one common denominator ``D``, so a pivot row with pivot ``p`` at
    column ``col`` gives ``x[col] = t / (p * D)`` with ``t = rhs * D - sum
    row[c] * N[c]`` over the nonzero ``N[c]``.  With ``t`` and ``p`` reduced
    by their gcd and ``p > 0``, ``N[col] = t``, and ``D`` and every other
    ``N[c]`` are multiplied by ``p``.  One Fraction is built per nonzero
    unknown at the end.  Every echelon form has the same pivot columns, and
    the solution with the other variables at zero is unique.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError(f"rhs length {len(rhs)} does not match {m} rows")
    ncols = len(rows[0]) if m else 0
    augmented = []
    for i, (row, b) in enumerate(zip(rows, map(Fraction, rhs))):
        scale = b.denominator
        aug = [int(x) * scale for x in row]
        if len(aug) != ncols:
            raise ValueError(f"ragged matrix: row {i} has length {len(aug)}, expected {ncols}")
        aug.append(b.numerator)
        augmented.append(aug)
    h, _, rank, _ = _reduce(augmented)
    den, nums = 1, {}
    for row in reversed(h[:rank]):
        col = next(c for c, v in enumerate(row) if v)
        if col == ncols:
            return None  # the pivot row reads 0 = nonzero
        t = row[ncols] * den - sum(row[c] * v for c, v in nums.items())
        if t:
            p = row[col]
            g = gcd(t, p) if p > 0 else -gcd(t, p)
            t, p = t // g, p // g
            if p != 1:
                den *= p
                for c in nums:
                    nums[c] *= p
            nums[col] = t
    x = [Fraction(0)] * ncols
    for c, v in nums.items():
        x[c] = Fraction(v, den)
    return tuple(x), ncols - rank


def solve_integer(rows: IntRows, rhs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One integer solution of ``M x = b``, or None when there is none.

    `_reduce` on the transpose gives ``h = u M^T`` with ``u`` unimodular, so
    the solutions are ``x = u^T y`` for integer ``y`` with ``y^T h = b^T``.
    Forward substitution over the pivot rows of ``h`` fixes ``y`` there,
    rounded down, and the rest of ``y`` is zero; there is a solution iff
    this ``y`` then satisfies every column.
    """
    mat = _copy_rows(rows)
    if len(rhs) != len(mat):
        raise ValueError(f"rhs length {len(rhs)} does not match {len(mat)} rows")
    ncols = len(mat[0]) if mat else 0
    h, u, rank, _ = _reduce([list(col) for col in zip(*mat)])
    y = []
    for i in range(rank):
        col = next(c for c, v in enumerate(h[i]) if v)
        y.append((rhs[col] - sum(y[k] * h[k][col] for k in range(i))) // h[i][col])
    if any(sum(y[k] * h[k][c] for k in range(rank)) != b for c, b in enumerate(rhs)):
        return None
    return tuple(sum(y[k] * u[k][j] for k in range(rank)) for j in range(ncols))


def convex_feasible(rows: IntRows) -> Optional[tuple[Fraction, ...]]:
    """Exact test whether the zero vector lies in the convex hull of `rows`.

    Returns rational weights lambda with lambda_j >= 0, sum 1 and
    ``sum_j lambda_j rows[j] = 0`` when feasible, else None.  Solved as a
    phase-1 simplex with Bland's rule (guaranteed termination) on an integer
    tableau ``T`` over one common denominator ``D``, starting at 1: the
    rational tableau is ``T / D``, and each basic column holds ``D`` in its
    row.  A pivot at ``(r, e)`` with ``p = T[r][e] > 0`` keeps row ``r``,
    sets every other row and the reduced-cost row to
    ``(p * row - row[e] * T[r]) / D`` and then ``D = p`` (Edmonds'
    integer-preserving elimination).  Every entry is a minor of the initial
    tableau, so each division is exact; a nonzero remainder raises
    ArithmeticError.  The ratio test compares cross-products
    ``rhs_i * T[leave][e]`` against ``rhs_leave * T[i][e]``, ties going to
    the smaller basic variable, so the pivots are those of the rational
    simplex.  Returns ``lambda_j = Fraction(T[i][-1], D)``.
    """
    pts = _copy_rows(rows)
    m = len(pts)
    if m == 0:
        return None
    dim = len(pts[0])
    ncon = dim + 1
    # Tableau columns: m lambda variables, ncon artificials, rhs.
    tableau = []
    for i in range(dim):
        tableau.append([pts[j][i] for j in range(m)]
                       + [1 if k == i else 0 for k in range(ncon)] + [0])
    tableau.append([1] * m + [1 if k == dim else 0 for k in range(ncon)] + [1])
    basis = [m + k for k in range(ncon)]
    # Phase-1 objective: minimize the sum of artificials.  Reduced-cost row.
    cost = [0] * (m + ncon + 1)
    for row in tableau:
        for j in range(m):
            cost[j] -= row[j]
        cost[-1] -= row[-1]
    denom = 1
    while True:
        enter = None
        for j in range(m + ncon):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        for i in range(ncon):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / coeff against rhs_leave / T[leave][enter]; both divisors are > 0.
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 simplex objective unbounded")
        pivot_row = tableau[leave]
        for i in range(ncon):
            if i != leave:
                tableau[i] = _eliminate(tableau[i], pivot_row, enter, denom)
        cost = _eliminate(cost, pivot_row, enter, denom)
        denom = pivot_row[enter]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    lam = [Fraction(0)] * m
    for i, var in enumerate(basis):
        if var < m:
            lam[var] = Fraction(tableau[i][-1], denom)
        elif tableau[i][-1] != 0:
            return None  # artificial stuck at a nonzero level: infeasible
    return tuple(lam)


def _eliminate(row: list[int], pivot_row: list[int], col: int, denom: int) -> list[int]:
    """``(p * row - row[col] * pivot_row) / denom`` with ``p = pivot_row[col]``,
    each division checked exact."""
    piv, f = pivot_row[col], row[col]
    out = []
    for x, y in zip(row, pivot_row):
        q, r = divmod(piv * x - f * y, denom)
        if r:
            raise ArithmeticError(f"inexact division by the common denominator {denom}")
        out.append(q)
    return out
