"""Exact integer and rational linear algebra.

The package has three elimination schemes, each for its own job; two are
here:

- `_reduce`, integer row reduction carrying a unimodular transform.
  `kernel_lattice` reads the left kernel from the transform, as a basis of
  the full integer lattice; `determinant` is the transform's sign times the
  echelon diagonal; `solve_rational` back-substitutes over the pivot rows;
  `solve_integer` reduces the transpose and forward-substitutes over its
  pivot rows.
- `convex_feasible`, a phase-1 simplex with Bland's rule in
  ``fractions.Fraction`` arithmetic.

The third is the search's rank test, `search._full_column_rank`, which
eliminates modulo a prime in numpy; its pivot rows are the search's witness
patterns.

Everything is arbitrary precision; no floating point anywhere.  Matrices are
passed around as sequences of equal-length integer rows; all operations are
pure and never mutate their arguments.
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


def _reduce(rows: IntRows) -> tuple[list[list[int]], list[list[int]], int, int]:
    """Integer row echelon form ``h = u M`` with ``u`` unimodular.

    Column by column, the rows below the pivots found so far are reduced by
    ``row -= q * pivot`` against the one with the smallest nonzero entry
    until a single nonzero entry is left; that row is swapped up as the next
    pivot.  Stops once every row holds a pivot.  Returns ``(h, u, rank,
    sign)``: rows ``rank:`` of ``h`` are zero and ``sign = det u`` flips on
    every swap of two distinct rows.
    """
    h = _copy_rows(rows)
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
    _, u, rank, _ = _reduce(rows)
    return [make_primitive(vec) for vec in u[rank:]]


def determinant(rows: IntRows) -> int:
    """Exact determinant: the transform's sign times the echelon diagonal."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    h, _, rank, det = _reduce(rows)
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
    rows; every echelon form has the same pivot columns, and the solution
    with the other variables at zero is unique.
    """
    mat = _copy_rows(rows)
    m = len(mat)
    if len(rhs) != m:
        raise ValueError(f"rhs length {len(rhs)} does not match {m} rows")
    ncols = len(mat[0]) if m else 0
    augmented = [
        [x * b.denominator for x in row] + [b.numerator] for row, b in zip(mat, map(Fraction, rhs))
    ]
    h, _, rank, _ = _reduce(augmented)
    x = [Fraction(0)] * ncols
    for row in reversed(h[:rank]):
        col = next(c for c, v in enumerate(row) if v)
        if col == ncols:
            return None  # the pivot row reads 0 = nonzero
        x[col] = Fraction(row[ncols] - sum(row[c] * x[c] for c in range(col + 1, ncols)), row[col])
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
    phase-1 simplex with Bland's rule (guaranteed termination), pivoting in
    exact rational arithmetic.
    """
    pts = _copy_rows(rows)
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
