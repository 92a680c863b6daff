import cmath
import math
import random

import numpy as np
import pytest

from conftest import (
    FIVE_QUBIT_MAXLEN_PI4,
    FIVE_QUBIT_MAXLEN_PI5,
    FIVE_QUBIT_SIX_TERM,
    SEVEN_QUBIT_PI18,
    antidiagonal_stabilizer,
    dense_vector,
    dense_verify,
    diagonal_stabilizer,
    random_su2,
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
    VerificationResult,
    apply_local_unitaries,
    verify,
    wrap_angle,
)
from topophase.states import (
    SparseState,
    ghz_state,
    support_state,
    weight_matrix,
)


def angles_close(a, b):
    return abs(wrap_angle(a - b)) <= DEFAULT_TOLERANCE


def assert_special_unitary(u):
    assert u.shape == (2, 2)
    assert np.allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=1e-15)
    assert abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1) <= 1e-15


class TestOperators:
    """The factors `verify` applies for its angles: the conftest builders
    write them as the 2x2 matrices of the dense reference."""

    def test_diagonal_special_unitary(self):
        for u in diagonal_stabilizer([0.3, -1.2, math.pi / 2, 0.0, math.pi]):
            assert_special_unitary(u)
            assert u[0, 1] == u[1, 0] == 0

    def test_antidiagonal_special_unitary(self):
        for u in antidiagonal_stabilizer([0.0, 0.7, -2.0, math.pi / 2, math.pi]):
            assert_special_unitary(u)
            assert u[0, 0] == u[1, 1] == 0

    def test_zero_angles_identity(self):
        for u in diagonal_stabilizer([0.0, 0.0]):
            assert np.array_equal(u, np.eye(2))
        res = verify(support_state(4, ["0110", "1011", "0001"]), [0.0] * 4)
        assert res == VerificationResult(True, 0.0, 0.0)

    def test_one_eigenvector_convention(self):
        # |1> carries e^{+i phi} and |0> carries e^{-i phi}.
        for bits, sign in (("1", 1), ("0", -1)):
            res = verify(support_state(1, [bits]), [0.4])
            assert res.matched and angles_close(res.chi, sign * 0.4)

    def test_antidiagonal_convention(self):
        # |0> -> -e^{-i delta}|1> and |1> -> e^{i delta}|0>: at delta = pi/2
        # both go to i times the other.
        res = verify(support_state(1, ["0", "1"]), [math.pi / 2], antidiagonal=True)
        assert res.matched and angles_close(res.chi, math.pi / 2)
        assert not verify(support_state(1, ["0", "1"]), [0.0], antidiagonal=True).matched

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_angle_rejected(self, angle):
        # Refused, not read as a NaN chi with no match.
        for antidiagonal in (False, True):
            for state, angles in ((ghz_state(1), [angle]), (ghz_state(3), [0.0, angle, 0.0])):
                with pytest.raises(ValueError, match="^every angle must be finite$"):
                    verify(state, angles, antidiagonal)


class TestVerify:
    def test_ghz3_diagonal_family(self):
        rng = random.Random(1)
        for p in (0, 1):
            for _ in range(10):
                a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
                res = verify(ghz_state(3), [a, b, p * math.pi - a - b])
                assert res.matched and angles_close(res.chi, p * math.pi)

    def test_global_phase_invariance(self):
        phis = [0.2, 0.3, math.pi - 0.5]
        base = verify(ghz_state(3), phis)
        rotated = SparseState(
            3, tuple((bits, amp * cmath.exp(0.7j)) for bits, amp in ghz_state(3).terms)
        )
        res = verify(rotated, phis)
        assert res.matched and angles_close(res.chi, base.chi)

    def test_product_rule(self):
        phis1 = [0.4, math.pi - 0.4]  # chi = pi on GHZ2
        st1 = ghz_state(2)
        chi1 = verify(st1, phis1).chi
        st2, phis2, _, chi2 = ones_plus_w_family(4, qs=(1, 0, 0, 0, 0))
        combined = verify(tensor_product(st1, st2), phis1 + list(phis2))
        assert combined.matched
        assert angles_close(combined.chi, chi1 + chi2)

    def test_operator_count_checked(self):
        for angles in ([0.0], [0.0] * 4):
            for antidiagonal in (False, True):
                with pytest.raises(ValueError, match=f"^need 3 angles, got {len(angles)}$"):
                    verify(ghz_state(3), angles, antidiagonal)

    @pytest.mark.parametrize("delta", [0.0, 0.5, -1.0, math.pi / 2])
    def test_anchor_moved_off_the_support(self, delta):
        # The antidiagonal factors map the support {000, 001} onto
        # {111, 110}: no amplitude is left at the anchor, so chi is 0.0 and
        # the state does not match.
        res = verify(support_state(3, ["000", "001"]), [delta, -delta, 0.0], antidiagonal=True)
        assert not res.matched and res.chi == 0.0
        assert res.residual == pytest.approx(1.0, abs=1e-15)


def random_angles(rng, n, antidiagonal, quarter):
    """n angles of one kind.  Every antidiagonal factor squares to -1, so
    U^2 = (-1)^n; with `quarter` the diagonal angles are multiples of pi/2,
    so U^2 is +-identity too.  The sign of U^2 is returned when it is one."""
    if antidiagonal:
        return [rng.uniform(-math.pi, math.pi) for _ in range(n)], (-1) ** n
    if not quarter:
        return [rng.uniform(-math.pi, math.pi) for _ in range(n)], None
    ks = [rng.randint(-2, 2) for _ in range(n)]
    return [k * math.pi / 2 for k in ks], (-1) ** sum(ks)


def random_state(rng, n, m):
    # A small amplitude palette, so the largest magnitude is often tied.
    palette = (1, -1, 1j, -1j, 1 + 1j, 0.5 - 2j, 2, rng.uniform(-3, 3))
    support = rng.sample(range(2 ** n), m)
    return SparseState(n, tuple((format(i, f"0{n}b"), complex(rng.choice(palette)))
                                for i in support))


def eigen_state(state, angles, antidiagonal, sign):
    """psi + U psi / lam, an eigenvector of U with eigenvalue lam, lam^2 = sign."""
    lam = 1 if sign > 0 else 1j
    build = antidiagonal_stabilizer if antidiagonal else diagonal_stabilizer
    vec = dense_vector(state)
    phi = vec + apply_local_unitaries(vec, build(angles)) / lam
    return SparseState(state.n, tuple((format(int(i), f"0{state.n}b"), complex(phi[i]))
                                      for i in np.flatnonzero(phi)))


class TestMonomialApply:
    """The term-by-term apply against the dense reference `dense_verify`."""

    @staticmethod
    def assert_agrees(state, angles, antidiagonal=False):
        res = verify(state, angles, antidiagonal)
        chi, residual = dense_verify(state, angles, antidiagonal)
        assert res.matched == (residual <= DEFAULT_TOLERANCE)
        assert abs(res.residual - residual) <= 1e-12
        if res.matched:
            assert abs(wrap_angle(res.chi - chi)) <= 1e-12
        return res

    def test_seeded_corpus(self):
        # Each case draws its kind; an eigenstate case needs U^2 = +-1.
        rng = random.Random(1101)
        matched = unmatched = 0
        kinds = {False: 0, True: 0}
        for case in range(400):
            n = rng.randint(1, 12)
            eigen = case % 2 == 1
            m = rng.randint(1, min(10 if eigen else 20, 2 ** n))
            antidiagonal = rng.random() < 0.5
            angles, sign = random_angles(rng, n, antidiagonal,
                                         quarter=eigen or rng.random() < 0.5)
            state = random_state(rng, n, m)
            if eigen:
                state = eigen_state(state, angles, antidiagonal, sign)
            res = self.assert_agrees(state, angles, antidiagonal)
            matched += res.matched
            unmatched += not res.matched
            kinds[antidiagonal] += res.matched
        assert matched >= 150 and unmatched >= 150
        assert min(kinds.values()) >= 50

    @pytest.mark.parametrize("n", range(14, 21))
    def test_telescoped_structure_states(self, n):
        support = (FIVE_QUBIT_MAXLEN_PI5, FIVE_QUBIT_MAXLEN_PI4, FIVE_QUBIT_SIX_TERM)[n % 3]
        state = telescoped(support, n, seed=n)
        sol = solve_stabilizer(weight_matrix(state), winding_for_phase(weight_matrix(state)))
        assert self.assert_agrees(state, [float(f) * math.pi for f in sol.phis]).matched
        rng = random.Random(n)
        for antidiagonal in (False, True):
            angles, _ = random_angles(rng, n, antidiagonal, quarter=False)
            assert not self.assert_agrees(state, angles, antidiagonal).matched


class TestKnownFamilies:
    def test_ghz_examples(self):
        st, phis, antidiagonal, chi = ghz_family(5, p=1, angles=(0.1, 0.2, 0.3, 0.4))
        res = verify(st, phis, antidiagonal)
        assert res.matched and angles_close(res.chi, chi) and angles_close(chi, math.pi)

    def test_ghz_antidiag_odd_even(self):
        rng = random.Random(5)
        for n in range(3, 8):
            for q in (0, 1):
                deltas = tuple(rng.uniform(-2, 2) for _ in range(n - 1))
                st, angles, antidiagonal, chi = ghz_antidiag_family(n, q=q, deltas=deltas)
                assert antidiagonal
                res = verify(st, angles, antidiagonal)
                assert res.matched and angles_close(res.chi, chi)
                if n % 2:
                    assert angles_close(abs(chi), math.pi / 2)
                else:
                    assert angles_close(chi, 0.0) or angles_close(chi, math.pi)

    def test_ones_plus_w_quarter_turn(self):
        st, phis, antidiagonal, chi = ones_plus_w_family(4, qs=(1, 0, 0, 0, 0))
        res = verify(st, phis, antidiagonal)
        assert res.matched and angles_close(chi, math.pi / 3) and angles_close(res.chi, chi)

    def test_ones_plus_w_random_draws(self):
        rng = random.Random(33)
        for n in range(3, 8):
            for _ in range(20):
                qs = tuple(rng.randint(-2, 2) for _ in range(n + 1))
                st, phis, antidiagonal, chi = ones_plus_w_family(n, qs=qs)
                res = verify(st, phis, antidiagonal)
                assert res.matched and angles_close(res.chi, chi)
                assert angles_close(chi, wrap_angle(sum(qs) * math.pi / (n - 1)))

    def test_w_continuous_family(self):
        rng = random.Random(2024)
        for n in range(3, 8):
            for _ in range(20):
                alpha = rng.uniform(-math.pi, math.pi)
                st, phis, antidiagonal, chi = w_family(n, alpha=alpha)
                res = verify(st, phis, antidiagonal)
                assert res.matched and angles_close(res.chi, chi)

    def test_zeros_plus_w_values(self):
        st, phis, antidiagonal, chi = zeros_plus_w_family(6, qs=(1, 0, 0, 0, 0, 0))
        res = verify(st, phis, antidiagonal)
        assert res.matched and angles_close(res.chi, math.pi) and angles_close(chi, math.pi)
        rng = random.Random(8)
        for n in range(3, 8):
            qs = tuple(rng.randint(0, 1) for _ in range(n))
            st, phis, antidiagonal, chi = zeros_plus_w_family(n, qs=qs)
            res = verify(st, phis, antidiagonal)
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
        st, angles, antidiagonal, chi = family(30, **params)
        res = verify(st, angles, antidiagonal)
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
            res = verify(state, [float(f) * math.pi for f in sol.phis])
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
