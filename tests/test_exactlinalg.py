import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Echelon, brute_force_det, echelon_solve, rank_rational
from topophase.exactlinalg import (
    convex_feasible,
    determinant,
    kernel_lattice,
    solve_integer,
    solve_rational,
)

W3_ROWS = [(1, -1, -1), (-1, 1, -1), (-1, -1, 1)]


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)
sign_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n), min_size=n, max_size=n
    )
)
# The first row starts with 0, so the elimination swaps another row up.
zero_led_matrices = st.one_of(small_matrices, sign_matrices).map(
    lambda rows: [[0] + rows[0][1:]] + rows[1:]
)


class TestDeterminant:
    def test_one_by_one(self):
        assert determinant([[5]]) == 5

    def test_w3_sign_matrix(self):
        assert determinant(W3_ROWS) == -4

    def test_repeated_rows(self):
        assert determinant([[1, 2], [1, 2]]) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_row_permutations(self):
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert determinant([[0, 2, 3], [0, 5, 7], [-1, 4, 4]]) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_matrices, sign_matrices, zero_led_matrices))
    def test_matches_permutation_sum(self, rows):
        assert determinant(rows) == brute_force_det(rows)


class TestKernelLattice:
    def test_antipodal_pair(self):
        assert kernel_lattice([(1, 1, 1), (-1, -1, -1)]) == [(1, 1)]

    def test_full_rank_w3(self):
        assert kernel_lattice(W3_ROWS) == []

    def test_identity(self):
        assert kernel_lattice([(1, 0), (0, 1)]) == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                min_size=1,
                max_size=7,
            )
        )
    )
    def test_basis_annihilates_and_is_primitive(self, rows):
        ncols = len(rows[0])
        basis = kernel_lattice(rows)
        for vec in basis:
            assert len(vec) == len(rows)
            for k in range(ncols):
                assert sum(c * rows[j][k] for j, c in enumerate(vec)) == 0
            assert gcd(*vec) == 1
        # basis size matches the rank deficiency computed independently
        assert len(basis) == len(rows) - rank_rational(rows)


class TestSolveRational:
    def test_scalar(self):
        assert solve_rational([(2,)], [3]) == ((Fraction(3, 2),), 0)

    def test_ghz3_system(self):
        # angles + phase unknowns, rhs in units of pi
        sol = solve_rational([(1, 1, 1, -1), (-1, -1, -1, -1)], [0, 2])
        assert sol is not None
        x, free = sol
        assert x[3] == -1  # raw phase component, -pi
        assert free == 2

    def test_inconsistent(self):
        assert solve_rational([(1,), (1,)], [0, 1]) is None

    def test_pivot_columns_out_of_order(self):
        # The echelon stores pivots 1, 0, 2 in row order; with free variables
        # at 0 the particular solution depends only on the pivot-column set,
        # so it equals the one Gauss-Jordan elimination gives.
        rows = [(0, 2, 1, 3), (3, 1, 0, 1), (1, 1, 1, 1)]
        ech = Echelon()
        for row in rows:
            ech.add(row)
        assert [col for col, _ in ech.rows] == [1, 0, 2]
        assert solve_rational(rows, [1, 2, Fraction(1, 2)]) == (
            (Fraction(3, 8), Fraction(7, 8), Fraction(-3, 4), Fraction(0)),
            1,
        )
        assert solve_rational([(0, 2, 1, 3), (3, 1, 0, 1), (3, 5, 2, 7)], [1, 2, 4]) == (
            (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)),
            2,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                    min_size=1,
                    max_size=6,
                ),
                st.just(n),
            )
        ),
        st.data(),
    )
    def test_solution_substitutes(self, rows_n, data):
        rows, n = rows_n
        entries = data.draw(st.sampled_from((
            st.integers(-5, 5),
            st.fractions(-5, 5, max_denominator=6),
        )))
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        sol = solve_rational(rows, rhs)
        assert sol == echelon_solve(rows, rhs)
        if sol is None:
            # independent consistency check: augmenting must raise the rank
            augmented = [
                [x * b.denominator for x in r] + [b.numerator]
                for r, b in zip(rows, map(Fraction, rhs))
            ]
            assert rank_rational(augmented) > rank_rational(rows)
            return
        x, free = sol
        for row, b in zip(rows, rhs):
            assert sum(Fraction(a) * v for a, v in zip(row, x)) == b
        assert free == n - rank_rational(rows)


class TestSolveInteger:
    def test_rational_but_not_integer(self):
        assert solve_integer([[2]], [1]) is None
        assert solve_integer([[2, 4]], [3]) is None
        assert solve_integer([[2, 0], [0, 3]], [4, 3]) == (2, 1)

    def test_bezout_combination(self):
        x, y = solve_integer([[6, 10]], [2])
        assert 6 * x + 10 * y == 2

    def test_inconsistent_and_empty(self):
        assert solve_integer([[1, 1], [1, 1]], [0, 1]) is None
        assert solve_integer([[0, 0]], [0]) == (0, 0)
        assert solve_integer([[0, 0]], [1]) is None
        assert solve_integer([], []) == ()

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError, match="rhs length"):
            solve_integer([[1, 2]], [1, 2])

    def test_matches_brute_force_box(self):
        # A returned x must solve M x = b; when None comes back, no x in the
        # box may solve it.  Both kinds of None occur: systems with only
        # rational solutions and inconsistent ones.
        rng = random.Random(4242)
        box = range(-6, 7)
        seen = {"integer": 0, "rational only": 0, "inconsistent": 0}
        for _ in range(400):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            rhs = [rng.randint(-4, 4) for _ in range(rows)]
            x = solve_integer(mat, rhs)
            if x is not None:
                assert all(type(v) is int for v in x) and len(x) == cols
                assert [sum(a * v for a, v in zip(row, x)) for row in mat] == rhs
                seen["integer"] += 1
                continue
            for cand in product(box, repeat=cols):
                assert [sum(a * v for a, v in zip(row, cand)) for row in mat] != rhs, (mat, rhs)
            seen["rational only" if solve_rational(mat, rhs) else "inconsistent"] += 1
        assert min(seen.values()) >= 20, seen


class TestConvexFeasible:
    def test_antipodal(self):
        assert convex_feasible([(1, 1, 1), (-1, -1, -1)]) == (Fraction(1, 2), Fraction(1, 2))

    def test_w3_infeasible(self):
        assert convex_feasible(W3_ROWS) is None

    def test_even_parity_corners(self):
        rows = [(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]
        assert convex_feasible(rows) == (Fraction(1, 4),) * 4

    def test_certificates_substitute(self):
        import random

        rng = random.Random(20240817)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = rng.randint(1, 10)
            rows = [
                tuple(rng.choice((-1, 1)) for _ in range(n)) for _ in range(m)
            ]
            lam = convex_feasible(rows)
            if lam is None:
                continue
            assert sum(lam) == 1
            assert all(f >= 0 for f in lam)
            for k in range(n):
                assert sum(f * row[k] for f, row in zip(lam, rows)) == 0

    def test_agrees_with_float_lp(self):
        import random

        import numpy as np
        from scipy.optimize import linprog

        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 8)
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)
            ]
            exact = convex_feasible(rows) is not None
            a_eq = np.vstack([np.array(rows, dtype=float).T, np.ones(m)])
            b_eq = np.zeros(n + 1)
            b_eq[-1] = 1.0
            res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * m,
                          method="highs")
            assert exact == res.success
