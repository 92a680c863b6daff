"""Exact integer and rational linear algebra.

Three elimination schemes, each for its own job:

- `Echelon`, an incremental division-free row echelon form over the
  integers.  `determinant` and `solve_rational` run on its one row step.
  The search is not here: `search._full_column_rank` eliminates modulo a
  prime in numpy, and its pivot rows are the search's witness patterns.
- `kernel_lattice`, integer row reduction carrying a unimodular transform,
  so the left kernel comes out as a basis of the full integer lattice.
- `convex_feasible`, a phase-1 simplex with Bland's rule in
  ``fractions.Fraction`` arithmetic.

Everything is arbitrary precision; no floating point anywhere.  Matrices are
passed around as sequences of equal-length integer rows; all operations are
pure and never mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

# Exact scalar type used throughout the package for rational results.
Rational = Fraction

IntRows = Sequence[Sequence[int]]


def _copy_rows(rows: IntRows) -> list[list[int]]:
    out = [[int(x) for x in row] for row in rows]
    if out:
        width = len(out[0])
        for i, row in enumerate(out):
            if len(row) != width:
                raise ValueError(f"ragged matrix: row {i} has length {len(row)}, expected {width}")
    return out


def vector_gcd(vec: Sequence[int]) -> int:
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def make_primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide out the content and fix the sign of the first nonzero entry to +."""
    g = vector_gcd(vec)
    if g == 0:
        return tuple(vec)
    out = [x // g for x in vec]
    for x in out:
        if x:
            if x < 0:
                out = [-y for y in out]
            break
    return tuple(out)


def kernel_lattice(rows: IntRows) -> list[tuple[int, ...]]:
    """Basis of the integer left-kernel lattice ``{c : c^T M = 0}``.

    Row-reduces M over the integers while carrying a unimodular transform, so
    the returned basis generates the full lattice (not a finite-index
    sublattice) and every basis vector is primitive.  Empty list when M has
    full row rank.
    """
    h = _copy_rows(rows)
    m = len(h)
    ncols = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(r, m) if h[i][col] != 0]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                h[r], h[i] = h[i], h[r]
                u[r], u[i] = u[i], u[r]
                r += 1
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
    return [make_primitive(u[i]) for i in range(r, m)]


class Echelon:
    """Incremental row echelon form of integer vectors, division-free.

    `add` reduces a vector against the stored rows in the order they were
    stored: a row whose pivot column holds 0 in the vector is skipped,
    otherwise ``v = p*v - a*row`` with ``p`` the row's pivot entry and ``a``
    the vector's entry there.  A nonzero remainder is stored divided by its
    content, with its first nonzero column as pivot.  Every stored row is
    zero in the pivot columns of the rows stored before it, so ordering the
    columns by pivot makes the stored rows upper triangular.

    A stored row is ``(mult * added - earlier rows) / content``, where
    ``mult`` is the product of the pivot entries it was multiplied by.
    ``scale_num`` and ``scale_den`` collect the products of the ``mult`` and
    the content factors, so the stored rows' determinant is the added rows'
    determinant times ``scale_num / scale_den``.
    """

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []
        self.scale_num = 1
        self.scale_den = 1

    def add(self, vec: Sequence[int]) -> bool:
        """Store the reduced vector; False when it lies in the span."""
        v = list(vec)
        mult = 1
        for col, row in self.rows:
            a = v[col]
            if a:
                p = row[col]
                v = [x * p - y * a for x, y in zip(v, row)]
                mult *= p
        for col, x in enumerate(v):
            if x:
                g = gcd(*v)
                if g != 1:
                    v = [y // g for y in v]
                self.rows.append((col, v))
                self.scale_num *= mult
                self.scale_den *= g
                return True
        return False


def determinant(rows: IntRows) -> int:
    """Exact determinant: the product of the echelon pivots, unscaled."""
    mat = _copy_rows(rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant requires a square matrix")
    ech = Echelon()
    for row in mat:
        if not ech.add(row):
            return 0
    cols = [col for col, _ in ech.rows]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    prod = -1 if inversions % 2 else 1
    for col, row in ech.rows:
        prod *= row[col]
    return prod * ech.scale_den // ech.scale_num


def solve_rational(
    rows: IntRows, rhs: Sequence[Fraction | int]
) -> Optional[tuple[tuple[Fraction, ...], int]]:
    """Solve ``M x = b`` exactly over the rationals.

    Returns ``(particular_solution, num_free)`` with free variables set to
    zero and ``num_free = cols - rank(M)``, or None when inconsistent.
    """
    mat = _copy_rows(rows)
    m = len(mat)
    if len(rhs) != m:
        raise ValueError(f"rhs length {len(rhs)} does not match {m} rows")
    ncols = len(mat[0]) if m else 0
    ech = Echelon()
    for row, b in zip(mat, map(Fraction, rhs)):
        ech.add([x * b.denominator for x in row] + [b.numerator])
    if any(col == ncols for col, _ in ech.rows):
        return None  # a stored row reads 0 = nonzero
    # Back-substitution: each row involves only the pivots of later rows.
    x = [Fraction(0)] * ncols
    solved: list[int] = []
    for col, row in reversed(ech.rows):
        x[col] = Fraction(row[ncols] - sum(row[c] * x[c] for c in solved), row[col])
        solved.append(col)
    return tuple(x), ncols - len(ech.rows)


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
