import cmath
import math
import random

import numpy as np
import pytest

from conftest import (
    FIVE_QUBIT_MAXLEN_PI5,
    FIVE_QUBIT_SIX_TERM,
    SEVEN_QUBIT_PI18,
    random_su2,
    tensor_product,
)
from topophase.balance import phase_set, solve_stabilizer, winding_for_phase
from topophase.stabilizers import (
    antidiagonal_stabilizer,
    apply_local_unitaries,
    assert_special_unitary,
    diagonal_stabilizer,
    known_family,
    verify,
    wrap_angle,
)
from topophase.states import (
    SparseState,
    ghz_state,
    support_state,
    w_state,
    weight_matrix,
)

TOL = 1e-9


def angles_close(a, b, tol=TOL):
    return abs(wrap_angle(a - b)) <= tol


class TestOperators:
    def test_diagonal_special_unitary(self):
        assert_special_unitary(diagonal_stabilizer([0.3, -1.2, math.pi / 2]))

    def test_antidiagonal_special_unitary(self):
        assert_special_unitary(antidiagonal_stabilizer([0.0, 0.7, -2.0]))

    def test_zero_angles_identity(self):
        for u in diagonal_stabilizer([0.0, 0.0]):
            assert np.allclose(u, np.eye(2))

    def test_one_eigenvector_convention(self):
        (u,) = diagonal_stabilizer([0.4])
        assert cmath.isclose(u[1][1], cmath.exp(0.4j))
        assert cmath.isclose(u[0][0], cmath.exp(-0.4j))

    def test_random_su2_is_special_unitary(self):
        rng = np.random.default_rng(3)
        assert_special_unitary([random_su2(rng) for _ in range(20)])

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            assert_special_unitary([np.array([[1.0, 0.0], [0.0, 2.0]])])


class TestVerify:
    def test_ghz3_diagonal_family(self):
        rng = random.Random(1)
        for p in (0, 1):
            for _ in range(10):
                a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
                u = diagonal_stabilizer([a, b, p * math.pi - a - b])
                res = verify(ghz_state(3), u, TOL)
                assert res.matched and angles_close(res.chi, p * math.pi)

    def test_random_operator_rejected(self):
        rng = np.random.default_rng(7)
        res = verify(ghz_state(3), [random_su2(rng) for _ in range(3)], TOL)
        assert not res.matched and res.residual > TOL

    def test_global_phase_invariance(self):
        u = diagonal_stabilizer([0.2, 0.3, math.pi - 0.5])
        base = verify(ghz_state(3), u, TOL)
        rotated = SparseState(
            3, tuple((bits, amp * cmath.exp(0.7j)) for bits, amp in ghz_state(3).terms)
        )
        res = verify(rotated, u, TOL)
        assert res.matched and angles_close(res.chi, base.chi)

    def test_product_rule(self):
        u1 = diagonal_stabilizer([0.4, math.pi - 0.4])  # chi = pi on GHZ2
        st1 = ghz_state(2)
        chi1 = verify(st1, u1, TOL).chi
        st2, u2, chi2 = known_family("ones_plus_w", 4, qs=(1, 0, 0, 0, 0))
        combined = verify(tensor_product(st1, st2), list(u1) + list(u2), TOL)
        assert combined.matched
        assert angles_close(combined.chi, chi1 + chi2)

    def test_operator_count_checked(self):
        with pytest.raises(ValueError, match="local operators"):
            verify(ghz_state(3), diagonal_stabilizer([0.0]), TOL)

    def test_qubit_cap(self):
        big = support_state(21, ["0" * 21])
        with pytest.raises(ValueError, match="capped"):
            verify(big, diagonal_stabilizer([0.0] * 21), TOL)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            verify(ghz_state(2), diagonal_stabilizer([0.0, 0.0]), 0.0)


class TestKnownFamilies:
    def test_ghz_examples(self):
        st, u, chi = known_family("ghz", 5, p=1, angles=(0.1, 0.2, 0.3, 0.4))
        res = verify(st, u, TOL)
        assert res.matched and angles_close(res.chi, chi) and angles_close(chi, math.pi)

    def test_ghz_antidiag_odd_even(self):
        rng = random.Random(5)
        for n in range(3, 8):
            for q in (0, 1):
                deltas = tuple(rng.uniform(-2, 2) for _ in range(n - 1))
                st, u, chi = known_family("ghz_antidiag", n, q=q, deltas=deltas)
                res = verify(st, u, TOL)
                assert res.matched and angles_close(res.chi, chi)
                if n % 2:
                    assert angles_close(abs(chi), math.pi / 2)
                else:
                    assert angles_close(chi, 0.0) or angles_close(chi, math.pi)

    def test_ones_plus_w_quarter_turn(self):
        st, u, chi = known_family("ones_plus_w", 4, qs=(1, 0, 0, 0, 0))
        res = verify(st, u, TOL)
        assert res.matched and angles_close(chi, math.pi / 3) and angles_close(res.chi, chi)

    def test_ones_plus_w_random_draws(self):
        rng = random.Random(33)
        for n in range(3, 8):
            for _ in range(20):
                qs = tuple(rng.randint(-2, 2) for _ in range(n + 1))
                st, u, chi = known_family("ones_plus_w", n, qs=qs)
                res = verify(st, u, TOL)
                assert res.matched and angles_close(res.chi, chi)
                assert angles_close(chi, wrap_angle(sum(qs) * math.pi / (n - 1)))

    def test_w_continuous_family(self):
        rng = random.Random(2024)
        for n in range(3, 8):
            for _ in range(20):
                alpha = rng.uniform(-math.pi, math.pi)
                st, u, chi = known_family("w", n, alpha=alpha)
                res = verify(st, u, TOL)
                assert res.matched and angles_close(res.chi, chi)

    def test_zeros_plus_w_values(self):
        st, u, chi = known_family("zeros_plus_w", 6, alpha=math.pi)
        res = verify(st, u, TOL)
        assert res.matched and angles_close(res.chi, math.pi) and angles_close(chi, math.pi)
        rng = random.Random(8)
        for n in range(3, 8):
            qs = tuple(rng.randint(0, 1) for _ in range(n))
            st, u, chi = known_family("zeros_plus_w", n, qs=qs)
            res = verify(st, u, TOL)
            assert res.matched and angles_close(res.chi, chi)
            assert angles_close(chi, 0.0) or angles_close(chi, math.pi)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            known_family("cluster", 4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            known_family("ones_plus_w", 4, qs=(1, 0))
        with pytest.raises(ValueError):
            known_family("ghz", 4, p=1, angles=(0.0,), bogus=3)


class TestSolveThenVerify:
    @pytest.mark.parametrize(
        "support",
        [
            ["000", "111"],
            FIVE_QUBIT_SIX_TERM,
            FIVE_QUBIT_MAXLEN_PI5,
            SEVEN_QUBIT_PI18,
        ],
        ids=["ghz3", "five_pi3", "five_pi5", "seven_pi18"],
    )
    def test_exact_solutions_verify(self, support):
        state = support_state(len(support[0]), support)
        w = weight_matrix(state)
        rng = random.Random(hash(tuple(support)) & 0xFFFF)
        windings = [winding_for_phase(w)]
        for _ in range(10):
            cand = tuple(rng.randint(-2, 2) for _ in range(w.m))
            if solve_stabilizer(w, cand) is not None:
                windings.append(cand)
        d = phase_set(w).d
        for winding in windings:
            sol = solve_stabilizer(w, winding)
            u = diagonal_stabilizer([float(f) * math.pi for f in sol.phis])
            res = verify(state, u, TOL)
            assert res.matched
            assert angles_close(res.chi, float(sol.chi) * math.pi)
            assert (sol.chi * d / 2).denominator == 1  # multiple of 2pi/d

    def test_w_state_has_no_derived_stabilizer(self):
        assert winding_for_phase(weight_matrix(w_state(4))) is None


def test_apply_local_unitaries_matches_kron():
    rng = np.random.default_rng(12)
    mats = [random_su2(rng) for _ in range(3)]
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    full = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.allclose(apply_local_unitaries(vec, mats), full @ vec)
