import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIVE_QUBIT_MAXLEN_PI4,
    FIVE_QUBIT_MAXLEN_PI5,
    FIVE_QUBIT_SIX_TERM,
    SEVEN_QUBIT_PI18,
    dense_vector,
    dense_verify,
    random_su2,
    reference_assert_special_unitary,
    telescoped,
    tensor_product,
)
from paper_fixtures import (
    ghz_antidiag_family,
    ghz_family,
    ones_plus_w_family,
    w_family,
    w_state,
    zeros_plus_w_family,
)
from topophase import stabilizers
from topophase.balance import phase_set, solve_stabilizer, winding_for_phase
from topophase.stabilizers import (
    DEFAULT_TOLERANCE,
    SU2_TOLERANCE,
    antidiagonal_stabilizer,
    apply_local_unitaries,
    assert_special_unitary,
    diagonal_stabilizer,
    verify,
    wrap_angle,
)
from topophase.states import (
    SparseState,
    ghz_state,
    support_state,
    weight_matrix,
)

LOG_TOL = math.log10(SU2_TOLERANCE)


def angles_close(a, b):
    return abs(wrap_angle(a - b)) <= DEFAULT_TOLERANCE


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

    def test_determinant_minus_one_rejected(self):
        # Pauli X is unitary, with determinant -1.
        with pytest.raises(ValueError, match="operator 1 has determinant"):
            assert_special_unitary([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])

    def test_not_2x2_rejected(self):
        with pytest.raises(ValueError, match="operator 0 is not 2x2"):
            assert_special_unitary([np.eye(3)])

    @pytest.mark.parametrize("entries", [
        [[math.nan, 0.0], [0.0, math.nan]],
        [[1.0, 0.0], [0.0, math.nan]],
        [[math.inf, 0.0], [0.0, 1.0]],
    ])
    def test_non_finite_rejected(self, entries):
        u = np.array(entries, dtype=complex)
        with pytest.raises(ValueError, match="operator 0 is not unitary"):
            assert_special_unitary([u])
        with pytest.raises(ValueError, match="not unitary"):
            verify(ghz_state(3), [u] * 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1),
            st.sampled_from(("su2", "phase", "scale", "shear")),
            st.sampled_from((1, -1)),
            # log10 of the defect: below SU2_TOLERANCE / 10 (the scale's
            # defect is about twice its size), or above 10 * SU2_TOLERANCE.
            st.one_of(st.floats(LOG_TOL - 4, LOG_TOL - 1.5), st.floats(LOG_TOL + 1, -1)),
        ),
        min_size=1,
        max_size=4,
    ))
    def test_matches_numpy_reference(self, draws):
        # A Haar-random SU(2), alone, times a phase e^{i theta / 2} (a U(2)
        # with determinant e^{i theta}), a scale 1 + eps, or a shear
        # [[1, eps], [0, 1]] (determinant 1, columns not orthogonal); both
        # refuse or accept the same list, with the same message.
        ops = []
        for seed, kind, sign, exponent in draws:
            u = random_su2(np.random.default_rng(seed))
            size = sign * 10.0 ** exponent
            if kind == "phase":
                u = u * cmath.exp(0.5j * size)
            elif kind == "scale":
                u = u * (1 + size)
            elif kind == "shear":
                u = u @ np.array([[1.0, size], [0.0, 1.0]])
            ops.append(u)
        try:
            reference_assert_special_unitary(ops)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                assert_special_unitary(ops)
            assert str(caught.value) == str(exc)
        else:
            assert_special_unitary(ops)


class TestVerify:
    def test_ghz3_diagonal_family(self):
        rng = random.Random(1)
        for p in (0, 1):
            for _ in range(10):
                a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
                u = diagonal_stabilizer([a, b, p * math.pi - a - b])
                res = verify(ghz_state(3), u)
                assert res.matched and angles_close(res.chi, p * math.pi)

    def test_random_operator_rejected(self):
        # A Haar-random factor is neither diagonal nor antidiagonal: refused
        # with one ValueError at any n, with no 2^n vector behind it.
        rng = np.random.default_rng(7)
        for state in (ghz_state(3), support_state(40, ["01" * 20, "1" * 40])):
            with pytest.raises(ValueError, match="only diagonal or antidiagonal factors"):
                verify(state, [random_su2(rng) for _ in range(state.n)])

    def test_global_phase_invariance(self):
        u = diagonal_stabilizer([0.2, 0.3, math.pi - 0.5])
        base = verify(ghz_state(3), u)
        rotated = SparseState(
            3, tuple((bits, amp * cmath.exp(0.7j)) for bits, amp in ghz_state(3).terms)
        )
        res = verify(rotated, u)
        assert res.matched and angles_close(res.chi, base.chi)

    def test_product_rule(self):
        u1 = diagonal_stabilizer([0.4, math.pi - 0.4])  # chi = pi on GHZ2
        st1 = ghz_state(2)
        chi1 = verify(st1, u1).chi
        st2, u2, chi2 = ones_plus_w_family(4, qs=(1, 0, 0, 0, 0))
        combined = verify(tensor_product(st1, st2), list(u1) + list(u2))
        assert combined.matched
        assert angles_close(combined.chi, chi1 + chi2)

    def test_operator_count_checked(self):
        with pytest.raises(ValueError, match="local operators"):
            verify(ghz_state(3), diagonal_stabilizer([0.0]))

    @pytest.mark.parametrize("delta", [0.0, 0.5, -1.0, math.pi / 2])
    def test_anchor_moved_off_the_support(self, delta):
        # The first factor maps GHZ3's support onto {100, 011}: no amplitude
        # is left at the anchor, so chi is 0.0 and the state does not match.
        u = antidiagonal_stabilizer([delta]) + diagonal_stabilizer([0.0, 0.0])
        res = verify(ghz_state(3), u)
        assert not res.matched and res.chi == 0.0
        assert res.residual == pytest.approx(1.0, abs=1e-15)


def random_monomial(rng, n, quarter):
    """n factors, each diagonal or antidiagonal at random.  With `quarter`
    the diagonal angles are multiples of pi/2, so U^2 is +-identity; the
    sign is returned too."""
    factors, sign = [], 1
    for _ in range(n):
        if rng.random() < 0.5:
            factors += antidiagonal_stabilizer([rng.uniform(-math.pi, math.pi)])
            sign = -sign
        elif quarter:
            k = rng.randint(-2, 2)
            factors += diagonal_stabilizer([k * math.pi / 2])
            sign *= (-1) ** k
        else:
            factors += diagonal_stabilizer([rng.uniform(-math.pi, math.pi)])
    return factors, sign


def random_state(rng, n, m):
    # A small amplitude palette, so the largest magnitude is often tied.
    palette = (1, -1, 1j, -1j, 1 + 1j, 0.5 - 2j, 2, rng.uniform(-3, 3))
    support = rng.sample(range(2 ** n), m)
    return SparseState(n, tuple((format(i, f"0{n}b"), complex(rng.choice(palette)))
                                for i in support))


def eigen_state(state, factors, sign):
    """psi + U psi / lam, an eigenvector of U with eigenvalue lam, lam^2 = sign."""
    lam = 1 if sign > 0 else 1j
    vec = dense_vector(state)
    phi = vec + apply_local_unitaries(vec, factors) / lam
    return SparseState(state.n, tuple((format(int(i), f"0{state.n}b"), complex(phi[i]))
                                      for i in np.flatnonzero(phi)))


class TestMonomialApply:
    """The term-by-term apply against the dense reference `dense_verify`."""

    @staticmethod
    def assert_agrees(state, factors):
        res = verify(state, factors)
        chi, residual = dense_verify(state, factors)
        assert res.matched == (residual <= DEFAULT_TOLERANCE)
        assert abs(res.residual - residual) <= 1e-12
        if res.matched:
            assert abs(wrap_angle(res.chi - chi)) <= 1e-12
        return res

    def test_seeded_corpus(self):
        rng = random.Random(1101)
        matched = unmatched = 0
        for case in range(400):
            n = rng.randint(1, 12)
            eigen = case % 2 == 1
            m = rng.randint(1, min(10 if eigen else 20, 2 ** n))
            factors, sign = random_monomial(rng, n, quarter=eigen or rng.random() < 0.5)
            state = random_state(rng, n, m)
            if eigen:
                state = eigen_state(state, factors, sign)
            res = self.assert_agrees(state, factors)
            matched += res.matched
            unmatched += not res.matched
        assert matched >= 150 and unmatched >= 150

    @pytest.mark.parametrize("n", range(14, 21))
    def test_telescoped_structure_states(self, n):
        support = (FIVE_QUBIT_MAXLEN_PI5, FIVE_QUBIT_MAXLEN_PI4, FIVE_QUBIT_SIX_TERM)[n % 3]
        state = telescoped(support, n, seed=n)
        sol = solve_stabilizer(weight_matrix(state), winding_for_phase(weight_matrix(state)))
        derived = diagonal_stabilizer([float(f) * math.pi for f in sol.phis])
        assert self.assert_agrees(state, derived).matched
        factors, _ = random_monomial(random.Random(n), n, quarter=False)
        assert not self.assert_agrees(state, factors).matched


class TestKnownFamilies:
    def test_ghz_examples(self):
        st, u, chi = ghz_family(5, p=1, angles=(0.1, 0.2, 0.3, 0.4))
        res = verify(st, u)
        assert res.matched and angles_close(res.chi, chi) and angles_close(chi, math.pi)

    def test_ghz_antidiag_odd_even(self):
        rng = random.Random(5)
        for n in range(3, 8):
            for q in (0, 1):
                deltas = tuple(rng.uniform(-2, 2) for _ in range(n - 1))
                st, u, chi = ghz_antidiag_family(n, q=q, deltas=deltas)
                res = verify(st, u)
                assert res.matched and angles_close(res.chi, chi)
                if n % 2:
                    assert angles_close(abs(chi), math.pi / 2)
                else:
                    assert angles_close(chi, 0.0) or angles_close(chi, math.pi)

    def test_ones_plus_w_quarter_turn(self):
        st, u, chi = ones_plus_w_family(4, qs=(1, 0, 0, 0, 0))
        res = verify(st, u)
        assert res.matched and angles_close(chi, math.pi / 3) and angles_close(res.chi, chi)

    def test_ones_plus_w_random_draws(self):
        rng = random.Random(33)
        for n in range(3, 8):
            for _ in range(20):
                qs = tuple(rng.randint(-2, 2) for _ in range(n + 1))
                st, u, chi = ones_plus_w_family(n, qs=qs)
                res = verify(st, u)
                assert res.matched and angles_close(res.chi, chi)
                assert angles_close(chi, wrap_angle(sum(qs) * math.pi / (n - 1)))

    def test_w_continuous_family(self):
        rng = random.Random(2024)
        for n in range(3, 8):
            for _ in range(20):
                alpha = rng.uniform(-math.pi, math.pi)
                st, u, chi = w_family(n, alpha=alpha)
                res = verify(st, u)
                assert res.matched and angles_close(res.chi, chi)

    def test_zeros_plus_w_values(self):
        st, u, chi = zeros_plus_w_family(6, qs=(1, 0, 0, 0, 0, 0))
        res = verify(st, u)
        assert res.matched and angles_close(res.chi, math.pi) and angles_close(chi, math.pi)
        rng = random.Random(8)
        for n in range(3, 8):
            qs = tuple(rng.randint(0, 1) for _ in range(n))
            st, u, chi = zeros_plus_w_family(n, qs=qs)
            res = verify(st, u)
            assert res.matched and angles_close(res.chi, chi)
            assert angles_close(chi, 0.0) or angles_close(chi, math.pi)

    @pytest.mark.parametrize("family, params", [
        (ghz_family, {"p": 1, "angles": (0.1,) * 29}),
        (ghz_antidiag_family, {"q": 1}),
        (ones_plus_w_family, {"qs": (1,) + (0,) * 30}),
        (w_family, {"alpha": 0.3}),
        (zeros_plus_w_family, {"qs": (1,) + (0,) * 29}),
    ], ids=["ghz", "ghz_antidiag", "ones_plus_w", "w", "zeros_plus_w"])
    def test_thirty_qubits_without_a_dense_vector(self, family, params, monkeypatch):
        def no_dense(*args):
            raise AssertionError("built a 2^n vector for a monomial operator")

        monkeypatch.setattr(stabilizers, "apply_local_unitaries", no_dense)
        st, u, chi = family(30, **params)
        res = verify(st, u)
        assert res.matched and angles_close(res.chi, chi)


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
            res = verify(state, u)
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
