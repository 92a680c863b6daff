import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from types import ModuleType

import pytest

from conftest import (
    FIVE_QUBIT_MAXLEN_PI4,
    FIVE_QUBIT_MAXLEN_PI5,
    FIVE_QUBIT_PRINTED_THIRD,
    FIVE_QUBIT_SIX_TERM,
    SEVEN_QUBIT_PI18,
    WORKED_SEVEN_QUBIT_SUPPORT,
    WORKED_SEVEN_QUBIT_STRUCTURE,
    brute_force_det,
    has_affine_dependence,
    subset_scan_irreducibility,
    tensor_product,
)
from paper_fixtures import append_column, ones_plus_w_state, w_state, zeros_plus_w_state
from topophase.balance import (
    PhaseSet,
    affine_certificate,
    analysis_report,
    classify,
    construct_state,
    convex_certificate,
    irreducibility,
    is_irreducible_maximal_length,
    phase_set,
    positive_maximal_kernel,
    solve_stabilizer,
    winding_for_phase,
)
from topophase.search import CombinatorialStructure
from topophase.states import (
    WeightMatrix,
    ghz_state,
    support_state,
    weight_matrix,
)

ROTATED_GHZ3 = ["000", "011", "101", "110"]


def wm(state):
    return weight_matrix(state)


def random_support_state(rng, n, m=None):
    m = m or rng.randint(2, min(2 ** n, 12))
    bits = rng.sample([format(i, f"0{n}b") for i in range(2 ** n)], m)
    return support_state(n, bits)


class TestPhaseSet:
    def test_ghz3(self):
        ps = phase_set(wm(ghz_state(3)))
        assert ps.d == 2 and ps.chi_min == Fraction(1)

    def test_ghz3_rotated_basis(self):
        ps = phase_set(wm(support_state(3, ROTATED_GHZ3)))
        assert ps.d == 4 and ps.chi_min == Fraction(1, 2)

    def test_w3_continuous(self):
        ps = phase_set(wm(w_state(3)))
        assert ps.continuous and ps.chi_min is None

    def test_ones_plus_w_four_qubits(self):
        ps = phase_set(wm(ones_plus_w_state(4)))
        assert ps.d == 6 and ps.chi_min == Fraction(1, 3)

    def test_single_term_trivial(self):
        assert phase_set(wm(support_state(3, ["010"]))).continuous

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            PhaseSet(3)

    def test_invariances_and_even_sums(self):
        from topophase.exactlinalg import kernel_lattice

        rng = random.Random(20240201)
        for _ in range(150):
            n = rng.randint(2, 6)
            state = random_support_state(rng, n)
            w = wm(state)
            d = phase_set(w).d
            assert d % 2 == 0
            for vec in kernel_lattice(w.rows):
                assert sum(vec) % 2 == 0
            rows = list(w.rows)
            rng.shuffle(rows)
            assert phase_set(WeightMatrix(w.m, w.n, tuple(rows))).d == d
            perm = rng.sample(range(n), n)
            permuted = tuple(tuple(r[k] for k in perm) for r in w.rows)
            assert phase_set(WeightMatrix(w.m, w.n, permuted)).d == d
            k = rng.randrange(n)
            negated = tuple(
                tuple(-x if j == k else x for j, x in enumerate(r)) for r in w.rows
            )
            assert phase_set(WeightMatrix(w.m, w.n, negated)).d == d


class TestCertificates:
    def test_ghz3_affine(self):
        cert = affine_certificate(wm(ghz_state(3)))
        assert cert.coefficients == (1, 1) and cert.total == 2

    def test_zeros_plus_w_affine_only(self):
        w = wm(zeros_plus_w_state(3))
        cert = affine_certificate(w)
        assert sorted(cert.coefficients) == [-1, 1, 1, 1]
        assert cert.total == 2
        assert convex_certificate(w) is None

    def test_w3_no_affine(self):
        assert affine_certificate(wm(w_state(3))) is None

    def test_ghz3_convex(self):
        assert convex_certificate(wm(ghz_state(3))).coefficients == (1, 1)

    def test_six_term_five_qubit_all_ones(self):
        cert = convex_certificate(wm(support_state(5, FIVE_QUBIT_SIX_TERM)))
        assert cert.coefficients == (1,) * 6

    def test_affine_iff_discrete(self):
        rng = random.Random(4242)
        for _ in range(150):
            state = random_support_state(rng, rng.randint(2, 5))
            w = wm(state)
            assert (affine_certificate(w) is not None) == (phase_set(w).d != 0)

    def test_kernel_read_dimension_one_mixed_signs(self):
        # One kernel vector with entries of both signs: c / sum(c) is the
        # only candidate and it has a negative weight.
        w = wm(zeros_plus_w_state(3))
        assert len(w.kernel) == 1 and min(w.kernel[0]) < 0 < max(w.kernel[0])
        assert convex_certificate(w) is None

    def test_kernel_read_dimension_one_keeps_zeros(self):
        # The antipodal pair carries the only dependence; the third row is
        # outside the support and keeps its zero coefficient.
        w = wm(support_state(3, ["000", "111", "001"]))
        assert w.kernel == ((1, 1, 0),)
        cert = convex_certificate(w)
        assert cert.coefficients == (1, 1, 0) and cert.kind == "convex"

    def test_kernel_read_full_row_rank(self):
        w = wm(w_state(3))
        assert w.kernel == ()
        assert convex_certificate(w) is None

    def test_kernel_read_matches_simplex(self):
        # Differential check of the kernel read against the simplex alone:
        # convex weights, scaled by the lcm of their denominators and made
        # primitive, on random +-1 supports of every kernel dimension.
        from topophase.exactlinalg import convex_feasible, make_primitive

        def simplex_certificate(w):
            lam = convex_feasible(w.rows)
            if lam is None:
                return None
            scale = lcm(*[f.denominator for f in lam])
            return make_primitive([int(f * scale) for f in lam])

        rng = random.Random(2510)
        seen = {}
        for _ in range(400):
            n = rng.randint(1, 12)
            m = rng.randint(1, min(2 ** n, 16))
            w = wm(support_state(n, [format(s, f"0{n}b") for s in rng.sample(range(2 ** n), m)]))
            cert = convex_certificate(w)
            assert (cert and cert.coefficients) == simplex_certificate(w), w.rows
            key = (min(len(w.kernel), 2), cert is not None)
            seen[key] = seen.get(key, 0) + 1
        assert sorted(seen) == [(0, False), (1, False), (1, True), (2, False), (2, True)]
        assert min(seen.values()) >= 10, seen

    def test_convex_implies_affine(self):
        rng = random.Random(777)
        for _ in range(150):
            state = random_support_state(rng, rng.randint(2, 5))
            w = wm(state)
            if convex_certificate(w) is not None:
                assert affine_certificate(w) is not None


class TestIrreducibility:
    def test_ghz3_irreducible(self):
        res = irreducibility(wm(ghz_state(3)))
        assert res.irreducible and res.support == (0, 1)

    def test_antipodal_pair_dominates(self):
        res = irreducibility(wm(support_state(3, ["000", "111", "110"])))
        assert not res.irreducible
        assert res.support == (0, 1)

    def test_five_qubit_maximal_irreducible(self):
        res = irreducibility(wm(support_state(5, FIVE_QUBIT_MAXLEN_PI5)))
        assert res.irreducible and len(res.support) == 6

    def test_non_a_state_rejected(self):
        with pytest.raises(ValueError, match="a-state"):
            irreducibility(wm(w_state(3)))

    def test_drop_one_pass_matches_subset_scan(self):
        rng = random.Random(2024)
        seen = {"irreducible": 0, "reducible, kernel dim 1": 0, "kernel dim >= 2": 0}
        for _ in range(1000):
            n = rng.randint(3, 6)
            state = random_support_state(rng, n, rng.randint(2, min(2 ** n, 10)))
            w = wm(state)
            if not any(sum(v) for v in w.kernel):
                continue
            res = irreducibility(w)
            expected, smallest = subset_scan_irreducibility(w.rows)
            assert res.irreducible == expected, w.rows
            # The kernel criterion, and the report flag that reads it.
            assert (len(w.kernel) == 1 and all(w.kernel[0])) == expected, w.rows
            assert analysis_report(state)["irreducible"] is expected
            if expected:
                # A kernel of dimension two or more always leaves a proper subset.
                assert len(w.kernel) == 1
            if len(w.kernel) == 1:
                assert res.support == smallest
            rows = [w.rows[i] for i in res.support]
            assert has_affine_dependence(rows)
            for k in range(len(rows)):
                assert not has_affine_dependence(rows[:k] + rows[k + 1:]), (w.rows, k)
            key = ("irreducible" if expected else
                   "reducible, kernel dim 1" if len(w.kernel) == 1 else "kernel dim >= 2")
            seen[key] += 1
        assert min(seen.values()) >= 20, seen

    def test_wide_support_without_kernel_lattice(self, monkeypatch):
        # The kernel of 64 rows in 20 dimensions has dimension 44 or more;
        # irreducibility and winding_for_phase each answer with one solve and
        # run no kernel computation beyond the cached basis.
        import topophase.balance

        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel_lattice called from balance")

        monkeypatch.setattr(topophase.balance, "kernel_lattice", no_kernel)
        rng = random.Random(20)
        w = wm(support_state(20, [format(s, "020b") for s in rng.sample(range(2 ** 20), 64)]))
        assert len(w.kernel) >= 44
        res = irreducibility(w)
        assert not res.irreducible
        rows = [w.rows[i] for i in res.support]
        assert has_affine_dependence(rows)
        for k in range(len(rows)):
            assert not has_affine_dependence(rows[:k] + rows[k + 1:])
        d = phase_set(w).d
        for k in (1, 2, -1, 3):
            sol = solve_stabilizer(w, winding_for_phase(w, k))
            assert (sol.chi - Fraction(2 * k, d)) % 2 == 0


class TestMaximalLength:
    def test_seven_qubit_example(self):
        assert is_irreducible_maximal_length(wm(support_state(7, SEVEN_QUBIT_PI18)))

    def test_ghz4_not_maximal(self):
        assert not is_irreducible_maximal_length(wm(ghz_state(4)))

    def test_determinant_test_vs_positive_kernel(self):
        # The determinant test alone can pass for a support whose dependence
        # skips a row (coefficient zero); the positive-kernel check refines it.
        rows = ((1, 1), (1, -1), (-1, 1))
        w = WeightMatrix(3, 2, rows)
        assert is_irreducible_maximal_length(w)
        assert positive_maximal_kernel(rows) is None

    @pytest.mark.parametrize("n, supports", [(3, 35), (4, 1365)])
    def test_positive_kernel_matches_alternating_minors(self, n, supports):
        # Every support with the all-ones row: the kernel of a rank-n matrix
        # is spanned by its alternating maximal minors.
        ones = (1,) * n
        others = [row for row in product((1, -1), repeat=n) if row != ones]
        count = 0
        for combo in combinations(others, n):
            rows = [ones, *combo]
            minors = [
                (-1) ** j * brute_force_det(rows[:j] + rows[j + 1:]) for j in range(n + 1)
            ]
            expected = None
            if all(x > 0 for x in minors) or all(x < 0 for x in minors):
                expected = tuple(abs(x) // gcd(*minors) for x in minors)
            assert positive_maximal_kernel(rows) == expected, rows
            # Expanding det [W | -1] along its last column sums the minors.
            w = WeightMatrix(n + 1, n, tuple(rows))
            assert is_irreducible_maximal_length(w) == (sum(minors) != 0), rows
            count += 1
        assert count == supports

    def test_semistable_flag_matches_positive_kernel(self):
        hits = 0
        for bits in combinations([format(i, "03b") for i in range(8)], 4):
            state = support_state(3, bits)
            expected = positive_maximal_kernel(wm(state).rows) is not None
            assert classify(state).semistable_certified == expected, bits
            hits += expected
        assert hits > 0

    def test_positive_kernel_on_worked_states(self):
        assert positive_maximal_kernel(
            wm(support_state(5, FIVE_QUBIT_MAXLEN_PI5)).rows
        ) == (3, 2, 2, 1, 1, 1)
        assert positive_maximal_kernel(
            wm(support_state(7, SEVEN_QUBIT_PI18)).rows
        ) == (8, 7, 6, 5, 4, 3, 2, 1)


class TestSolveStabilizer:
    def test_ghz3_pi(self):
        sol = solve_stabilizer(wm(ghz_state(3)), (0, 1))
        assert sol.chi == 1  # normalized from -pi to +pi
        assert sol.free_parameters == 2

    def test_ghz3_identity_class(self):
        assert solve_stabilizer(wm(ghz_state(3)), (0, 0)).chi == 0

    def test_rows_satisfied_exactly(self):
        rng = random.Random(5150)
        w = wm(support_state(7, SEVEN_QUBIT_PI18))
        for _ in range(25):
            winding = tuple(rng.randint(-3, 3) for _ in range(w.m))
            sol = solve_stabilizer(w, winding)
            assert sol is not None and sol.free_parameters == 0
            assert -1 < sol.chi <= 1
            assert (sol.chi * 18).denominator == 1  # multiple of pi/18
            for row, a in zip(w.rows, sol.winding):
                assert sum(l * f for l, f in zip(row, sol.phis)) == sol.chi + 2 * a

    def test_inconsistent_winding(self):
        # reducible support: the antipodal pair forces a relation among rhs
        w = wm(support_state(3, ["000", "111", "100", "011"]))
        assert solve_stabilizer(w, (0, 0, 0, 1)) is None

    def test_winding_for_phase_hits_chi_min(self):
        for support, d in [
            (FIVE_QUBIT_SIX_TERM, 6),
            (FIVE_QUBIT_MAXLEN_PI5, 10),
            (SEVEN_QUBIT_PI18, 36),
        ]:
            w = wm(support_state(len(support[0]), support))
            winding = winding_for_phase(w)
            sol = solve_stabilizer(w, winding)
            assert sol.chi == Fraction(2, d)

    def test_winding_for_phase_multidim_kernel(self):
        state = tensor_product(ghz_state(2), ghz_state(2))
        w = wm(state)
        winding = winding_for_phase(w)
        assert solve_stabilizer(w, winding).chi == 1

    def test_winding_for_phase_multiples_on_seeded_corpus(self):
        rng = random.Random(909)
        dims = {1: 0, 2: 0}
        for _ in range(300):
            n = rng.randint(2, 6)
            w = wm(random_support_state(rng, n))
            d = phase_set(w).d
            if d == 0:
                assert winding_for_phase(w) is None
                continue
            dims[min(len(w.kernel), 2)] += 1
            for k in (1, 2, -1, 3):
                winding = winding_for_phase(w, k)
                assert winding is not None and len(winding) == w.m, w.rows
                assert all(type(a) is int for a in winding)
                sol = solve_stabilizer(w, winding)
                assert (sol.chi - Fraction(2 * k, d)) % 2 == 0, (w.rows, k)
        assert min(dims.values()) >= 20, dims

    def test_winding_for_phase_continuous(self):
        assert winding_for_phase(wm(w_state(3))) is None


class TestConstructState:
    def test_worked_seven_qubit_state(self):
        state = construct_state(WORKED_SEVEN_QUBIT_STRUCTURE)
        assert list(state.support) == WORKED_SEVEN_QUBIT_SUPPORT

    def test_ghz_class_representative(self):
        structure = CombinatorialStructure(3, (1, 1, 1), 1, ((0,), (1,), (2,)))
        state = construct_state(structure)
        assert list(state.support) == ["111", "100", "010", "001"]

    def test_ones_plus_w_representative(self):
        structure = CombinatorialStructure(
            5, (1, 1, 1, 1, 1), 1, ((0,), (1,), (2,), (3,), (4,))
        )
        assert construct_state(structure) == ones_plus_w_state(5)

    def test_bad_pattern_sum_rejected(self):
        structure = CombinatorialStructure(3, (2, 1, 1), 1, ((0,), (1,), (2,)))
        with pytest.raises(ValueError, match="sum"):
            construct_state(structure)


class TestTelescope:
    def test_ghz3_column_in_span(self):
        out = append_column(ghz_state(3), (1, -1))
        assert out.n == 4
        a, b = out.support
        assert all(x != y for x, y in zip(a, b))  # antipodal pair
        assert phase_set(wm(out)).d == 2

    def test_ghz3_column_outside_span(self):
        # GHZ3's columns are all (-1, 1), so (1, 1) lies outside their span:
        # the two rows become independent and the phase set continuous.
        assert phase_set(wm(ghz_state(3))).d == 2
        assert phase_set(wm(append_column(ghz_state(3), (1, 1)))).d == 0

    def test_duplicated_column_preserves_d(self):
        state = support_state(5, FIVE_QUBIT_SIX_TERM)
        col = tuple(row[0] for row in wm(state).rows)
        out = append_column(state, col)
        assert out.n == 6
        assert phase_set(wm(out)).d == 6

    def test_random_extensions_preserve_d(self):
        rng = random.Random(31415)
        bases = [
            support_state(5, FIVE_QUBIT_SIX_TERM),
            support_state(5, FIVE_QUBIT_MAXLEN_PI5),
            support_state(7, SEVEN_QUBIT_PI18),
            ghz_state(4),
        ]
        for _ in range(40):
            state = rng.choice(bases)
            w = wm(state)
            k = rng.randrange(state.n)
            sign = rng.choice((1, -1))
            col = tuple(sign * row[k] for row in w.rows)
            out = append_column(state, col)
            assert phase_set(wm(out)).d == phase_set(w).d


class TestBezout:
    # Were states with phases pi/d1 and pi/d2 SLOCC-equivalent, combined
    # evolutions would realize pi / lcm(d1, d2), a multiple of some allowed
    # chi_min pi/d, so lcm(d1, d2) would divide d.  When it divides no
    # allowed d, the two are inequivalent (the Bezout test).
    def test_five_qubit_pairs(self):
        allowed = {1, 2, 3, 4, 5}
        certified = [all(d % lcm(d1, d2) for d in allowed)
                     for d1, d2 in ((3, 4), (3, 5), (1, 2), (2, 4))]
        assert certified == [True, True, False, False]

    def test_seven_qubit_pair(self):
        assert all(d % lcm(17, 18) for d in range(1, 19))


class TestClassify:
    def test_ghz3(self):
        flags = classify(ghz_state(3))
        assert (flags.n_partite_entangled, flags.a_state, flags.c_state,
                flags.semistable_certified) == (True, True, True, False)

    def test_w3(self):
        flags = classify(w_state(3))
        assert (flags.n_partite_entangled, flags.a_state, flags.c_state,
                flags.semistable_certified) == (True, False, False, False)

    def test_five_qubit_maximal(self):
        flags = classify(support_state(5, FIVE_QUBIT_MAXLEN_PI5))
        assert (flags.n_partite_entangled, flags.a_state, flags.c_state,
                flags.semistable_certified) == (True, True, True, True)

    def test_product_state_not_n_partite(self):
        flags = classify(tensor_product(ghz_state(2), ghz_state(2)))
        assert not flags.n_partite_entangled
        assert flags.a_state

    def test_single_term(self):
        flags = classify(support_state(2, ["01"]))
        assert flags.single_term and not flags.a_state


class TestPrintedThirdFiveQubitState:
    """The third five-qubit display in the published reference tables picks the singular
    pair 4-cycle {2,3},{3,4},{4,5},{5,2} (1-based positions) for the structure
    ({2,1,1,1,1}, Z=2), so the printed support is reducible with chi_min pi/2.
    A nonsingular selection yields the intended pi/4 state."""

    def test_printed_state_is_reducible_pi_half(self):
        w = wm(support_state(5, FIVE_QUBIT_PRINTED_THIRD))
        assert phase_set(w).d == 4  # chi_min pi/2, not pi/4
        assert not is_irreducible_maximal_length(w)
        assert not irreducibility(w).irreducible

    def test_printed_selection_fails_uniqueness(self):
        from topophase.search import uniqueness_check

        printed_selection = CombinatorialStructure(
            5, (2, 1, 1, 1, 1), 2, ((0,), (1, 2), (2, 3), (3, 4), (1, 4))
        )
        assert not uniqueness_check(printed_selection)
        state = construct_state(printed_selection)
        assert list(state.support) == FIVE_QUBIT_PRINTED_THIRD

    def test_valid_selection_gives_quarter_phase(self):
        structure = CombinatorialStructure(
            5, (2, 1, 1, 1, 1), 2, ((0,), (1, 2), (1, 3), (1, 4), (2, 3))
        )
        state = construct_state(structure)
        assert list(state.support) == FIVE_QUBIT_MAXLEN_PI4
        w = wm(state)
        assert positive_maximal_kernel(w.rows) == (2, 2, 1, 1, 1, 1)
        assert phase_set(w).chi_min == Fraction(1, 4)


class TestProductPhases:
    def test_ghz2_ghz2_sumset(self):
        state = tensor_product(ghz_state(2), ghz_state(2))
        assert phase_set(wm(state)).d == 2  # {0, pi} + {0, pi} = {0, pi}

    def test_ghz2_with_pi3_factor(self):
        state = tensor_product(ghz_state(2), ones_plus_w_state(4))
        d1 = phase_set(wm(ghz_state(2))).d
        d2 = phase_set(wm(ones_plus_w_state(4))).d
        assert phase_set(wm(state)).d == lcm(d1, d2)


class TestAnalysisReport:
    def test_more_than_sixteen_rows(self):
        # Seventeen rows with a kernel of dimension twelve: the drop-one pass
        # decides what a subset scan over 2^17 subsets could not.
        bits = ["".join(p) for p in product("01", repeat=5)][:17]
        state = support_state(5, bits)
        assert len(wm(state).kernel) == 12
        rep = analysis_report(state)
        assert rep["flags"]["a_state"] is True
        assert rep["irreducible"] is False

    @staticmethod
    def counted_report(monkeypatch, state):
        # Wrap the functions in every module that imported them by name, as
        # the benchmark's tracer does: kernels of the full rows, and any
        # determinant or simplex, are counted.
        import topophase

        full_rows = wm(state).rows
        calls = {"kernel_lattice": 0, "determinant": 0, "convex_feasible": 0}
        modules = [mod for mod in vars(topophase).values() if isinstance(mod, ModuleType)]
        for name in calls:
            original = getattr(topophase.exactlinalg, name)

            def counted(rows, _name=name, _original=original):
                if _name != "kernel_lattice" or tuple(map(tuple, rows)) == full_rows:
                    calls[_name] += 1
                return _original(rows)

            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return analysis_report(state), calls

    def test_one_kernel_per_report(self, monkeypatch):
        # A kernel of dimension 1 also decides the convex certificate,
        # without the simplex.
        state = support_state(5, FIVE_QUBIT_MAXLEN_PI5)
        assert len(wm(state).kernel) == 1
        rep, calls = self.counted_report(monkeypatch, state)
        assert rep["maximal_length"] is True and rep["certificate_kind"] == "convex"
        assert calls == {"kernel_lattice": 1, "determinant": 0, "convex_feasible": 0}

    def test_one_simplex_on_a_wider_kernel(self, monkeypatch):
        state = support_state(5, FIVE_QUBIT_PRINTED_THIRD)
        assert len(wm(state).kernel) == 2
        rep, calls = self.counted_report(monkeypatch, state)
        assert rep["certificate_kind"] == "convex"
        assert calls == {"kernel_lattice": 1, "determinant": 0, "convex_feasible": 1}

    def test_no_bipartition_scan(self, monkeypatch):
        # A 2^(n-1) split scan would not finish on either state; the
        # entanglement flag comes from one pairwise pass, with no
        # `bipartition_product_check` call in any module that imported it.
        import topophase

        original = topophase.states.bipartition_product_check

        def no_scan(*args, **kwargs):
            raise AssertionError("bipartition_product_check called by a report")

        patched = 0
        for mod in [topophase, *vars(topophase).values()]:
            if isinstance(mod, ModuleType) and getattr(mod, original.__name__, None) is original:
                monkeypatch.setattr(mod, original.__name__, no_scan)
                patched += 1
        assert patched
        rng = random.Random(20)
        wide = support_state(20, [format(s, "020b") for s in rng.sample(range(2 ** 20), 64)])
        for state in (ghz_state(40), wide):
            rep = analysis_report(state)
            assert rep["flags"]["n_partite_entangled"] is True

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_twenty_qubits_sixty_four_terms(self, seed):
        # 64 rows in 20 dimensions: the simplex makes 79 to 142 pivots on a
        # 21 x 86 tableau.  The integer tableau takes well under 0.6 s;
        # the Fraction one took 0.5 to 2 s.
        rng = random.Random(seed)
        state = support_state(20, [format(s, "020b") for s in rng.sample(range(2 ** 20), 64)])
        start = time.perf_counter()
        rep = analysis_report(state)
        elapsed = time.perf_counter() - start
        assert rep["certificate_kind"] == "convex"
        cert = rep["certificate"]
        lam = [Fraction(c, sum(cert)) for c in cert]
        assert min(lam) >= 0 and sum(lam) == 1
        rows = wm(state).rows
        assert all(sum(f * row[k] for f, row in zip(lam, rows)) == 0 for k in range(20))
        assert elapsed < 0.6, elapsed

    def test_ghz3_report(self):
        rep = analysis_report(ghz_state(3))
        assert rep["d"] == 2
        assert rep["chi_min"] == {"num": 1, "den": 1}
        assert rep["certificate"] == [1, 1]
        assert rep["certificate_kind"] == "convex"
        assert rep["irreducible"] is True
        assert rep["maximal_length"] is False

    def test_w3_report(self):
        rep = analysis_report(w_state(3))
        assert rep["chi_min"] == "continuous"
        assert rep["certificate"] is None

    def test_seven_qubit_report(self):
        rep = analysis_report(support_state(7, SEVEN_QUBIT_PI18))
        assert rep["d"] == 36
        assert rep["chi_min"] == {"num": 1, "den": 18}
        assert rep["maximal_length"] is True
        assert rep["flags"]["semistable_certified"] is True
