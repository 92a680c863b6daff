import json
import random
import time

import pytest

from conftest import (
    brute_force_factors,
    dense_bipartition_product_check,
    subset_scan_entangled,
    tensor_product,
)
from paper_fixtures import w_state
from topophase.balance import classify
from topophase.states import (
    SparseState,
    bipartition_product_check,
    ghz_state,
    parse_state,
    product_factors,
    state_to_json,
    support_state,
    weight_matrix,
)


class TestParseState:
    def test_ghz3(self):
        state = parse_state('{"n":3,"terms":[{"bits":"000"},{"bits":"111"}]}')
        assert state.n == 3
        assert state.support == ("000", "111")
        assert all(amp == 1 for _, amp in state.terms)

    def test_wrong_length_names_term(self):
        with pytest.raises(ValueError, match="term 0"):
            parse_state('{"n":3,"terms":[{"bits":"00"}]}')

    def test_zero_amplitude(self):
        with pytest.raises(ValueError, match="zero amplitude"):
            parse_state('{"n":2,"terms":[{"bits":"01","amp":[0.0,0.0]}]}')

    def test_duplicate_bits(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_state('{"n":2,"terms":[{"bits":"01"},{"bits":"01"}]}')

    def test_round_trip(self):
        state = SparseState(2, (("01", 0.5 + 0.25j), ("10", -1.0 + 0j)))
        again = parse_state(state_to_json(state))
        assert again == state

    @pytest.mark.parametrize("amp", ['["nan", 0]', "[1, Infinity]", "[NaN, 0]"])
    def test_non_finite_amplitude(self, amp):
        with pytest.raises(ValueError, match="term 1: 'amp' must be finite"):
            parse_state('{"n":2,"terms":[{"bits":"00"},{"bits":"11","amp":%s}]}' % amp)

    def test_non_numeric_amplitude(self):
        with pytest.raises(ValueError, match="term 0: 'amp' entries must be numbers"):
            parse_state('{"n":2,"terms":[{"bits":"00","amp":[[1], 0]}]}')

    @pytest.mark.parametrize("amp", ['["1", 0]', "[true, 0]", "[0, false]", '[1, "0"]'])
    def test_amplitude_must_be_json_numbers(self, amp):
        with pytest.raises(ValueError, match="term 1: 'amp' must be finite JSON numbers"):
            parse_state('{"n":2,"terms":[{"bits":"00"},{"bits":"11","amp":%s}]}' % amp)

    def test_integer_amplitude_beyond_float_range(self):
        with pytest.raises(ValueError, match="term 0: 'amp' entries must be numbers in float"):
            parse_state('{"n":1,"terms":[{"bits":"0","amp":[1%s, 0]}]}' % ("0" * 400))

    def test_integer_amplitude_accepted(self):
        assert parse_state('{"n":1,"terms":[{"bits":"0","amp":[2, -3]}]}').terms == (("0", 2 - 3j),)

    def test_boolean_n(self):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            parse_state('{"n":true,"terms":[{"bits":"1"}]}')

    def test_bad_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_state("{nope")

    def test_term_count_cap(self):
        with pytest.raises(ValueError):
            SparseState(1, (("0", 1), ("1", 1), ("0", 1)))

    def test_term_count_boundary(self):
        full = tuple((format(i, "02b"), 1) for i in range(4))
        assert SparseState(2, full).m == 4
        with pytest.raises(ValueError, match=r"term count 5 outside 1\.\.2\^2"):
            SparseState(2, full + (("00", 1),))
        with pytest.raises(ValueError, match="term count 0"):
            SparseState(2, ())

    def test_huge_n_rejected_without_the_power(self):
        # 2^n is never built: a billion-qubit declaration fails on its bitstring.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="term 0: bitstring '1' is not 1000000000 bits"):
            parse_state('{"n":1000000000,"terms":[{"bits":"1"}]}')
        assert time.perf_counter() - start < 1


class TestWeightMatrix:
    def test_ghz3_rows(self):
        w = weight_matrix(ghz_state(3))
        assert w.rows == ((-1, -1, -1), (1, 1, 1))

    def test_seven_qubit_term(self):
        w = weight_matrix(support_state(7, ["0111100"]))
        assert w.rows[0] == (-1, 1, 1, 1, 1, -1, -1)

    def test_single_term(self):
        assert weight_matrix(support_state(2, ["01"])).rows == ((-1, 1),)

    def test_round_trip_and_symmetries(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 6)
            m = rng.randint(1, min(2 ** n, 8))
            support = rng.sample([format(i, f"0{n}b") for i in range(2 ** n)], m)
            state = support_state(n, support)
            w = weight_matrix(state)
            # support -> rows -> support round trip
            back = ["".join("1" if x == 1 else "0" for x in row) for row in w.rows]
            assert back == list(support)
            # permuting terms permutes rows identically
            perm = rng.sample(range(m), m)
            wp = weight_matrix(support_state(n, [support[i] for i in perm]))
            assert wp.rows == tuple(w.rows[i] for i in perm)
            # flipping bit k of every term negates column k
            k = rng.randrange(n)
            flipped = [
                bits[:k] + ("1" if bits[k] == "0" else "0") + bits[k + 1:]
                for bits in support
            ]
            wf = weight_matrix(support_state(n, flipped))
            for row, frow in zip(w.rows, wf.rows):
                assert frow[k] == -row[k]
                assert frow[:k] == row[:k] and frow[k + 1:] == row[k + 1:]


class TestBipartitionProductCheck:
    def test_bell_entangled(self):
        bell = support_state(2, ["00", "11"])
        assert not bipartition_product_check(bell, [0])

    def test_explicit_product(self):
        state = support_state(3, ["000", "011"])  # |0> x (|00> + |11>)
        assert bipartition_product_check(state, [0])

    def test_ghz3_all_single_splits(self):
        g = ghz_state(3)
        for q in range(3):
            assert not bipartition_product_check(g, [q])

    def test_w_state_entangled_everywhere(self):
        w = w_state(4)
        for q in range(4):
            assert not bipartition_product_check(w, [q])

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            bipartition_product_check(ghz_state(3), [])
        with pytest.raises(ValueError):
            bipartition_product_check(ghz_state(3), [0, 1, 2])

    def test_tensor_product_is_product(self):
        state = tensor_product(ghz_state(2), ghz_state(2))
        assert bipartition_product_check(state, [0, 1])
        assert not bipartition_product_check(state, [0])

    def test_ghz30_half_split_is_entangled(self):
        # A dense check would build a 2^15 x 2^15 complex matrix (16 GiB) here.
        assert not bipartition_product_check(ghz_state(30), range(15))

    def test_ghz_pair_splits_on_the_factor_boundary(self):
        state = tensor_product(ghz_state(15), ghz_state(15))
        assert bipartition_product_check(state, range(15))
        assert bipartition_product_check(state, range(15, 30))
        assert not bipartition_product_check(state, range(14))
        assert not bipartition_product_check(state, range(16))


AMPLITUDES = {
    "unit": lambda rng: complex(1),
    "gauss": lambda rng: complex(rng.gauss(0, 1), rng.gauss(0, 1)),
    # Small exact values, so that sums of products cancel exactly.
    "signed": lambda rng: complex(rng.choice([1, -1, 2, 1j])),
}


def random_state(rng, n, m, amps):
    """m distinct random bitstrings on n qubits, amplitudes drawn by `amps`."""
    support = rng.sample(range(2 ** n), m)
    return SparseState(n, tuple((format(s, f"0{n}b"), AMPLITUDES[amps](rng)) for s in support))


def permute_qubits(state, order):
    """Qubit k of the result is qubit order[k] of `state`."""
    return SparseState(state.n, tuple(
        ("".join(bits[q] for q in order), amp) for bits, amp in state.terms
    ))


def corpus_state(rng, kind, n, amps):
    """One state of the equivalence corpus, at most 16 terms."""
    if kind == "random":
        return random_state(rng, n, rng.randint(2, min(2 ** n, 16)), amps)
    if kind == "tensor":
        # 2-3 factors of random sizes, then the qubits are shuffled.
        sizes = [1] * rng.randint(2, min(3, n))
        for _ in range(n - len(sizes)):
            sizes[rng.randrange(len(sizes))] += 1
        cap = 4 if len(sizes) == 2 else 2
        state = None
        for size in sizes:
            factor = random_state(rng, size, rng.randint(1, min(2 ** size, cap)), amps)
            state = factor if state is None else tensor_product(state, factor)
        return permute_qubits(state, rng.sample(range(n), n))
    # Constant-bit qubits appended to a random state, then shuffled.
    k = rng.randint(1, n - 1)
    base = random_state(rng, k, rng.randint(2, min(2 ** k, 16)) if k > 1 else 2, amps)
    consts = "".join(rng.choice("01") for _ in range(n - k))
    state = SparseState(n, tuple((bits + consts, amp) for bits, amp in base.terms))
    return permute_qubits(state, rng.sample(range(n), n))


class TestProductFactors:
    def test_matches_dense_references(self):
        rng = random.Random(2024)
        flags = {True: 0, False: 0}
        for idx in range(330):
            kind = ("random", "random", "tensor", "constant")[idx % 4]
            n = 2 + idx % 9
            state = corpus_state(rng, kind, n, ("unit", "gauss", "signed")[idx // 4 % 3])
            factors = product_factors(state)
            assert sorted(q for block in factors for q in block) == list(range(n))
            entangled = subset_scan_entangled(state)
            assert classify(state).n_partite_entangled == entangled, state
            flags[entangled] += 1
            if n <= 8:
                assert factors == brute_force_factors(state), state
            for _ in range(4):
                subset = rng.sample(range(n), rng.randint(1, n - 1))
                assert (bipartition_product_check(state, subset)
                        == dense_bipartition_product_check(state, subset)), (state, subset)
        assert min(flags.values()) >= 100, flags

    def test_square_monomials_stay_apart(self):
        # Split by qubits 0 and 2, AD - BC = i*x1 - i*x1^2: it vanishes on
        # 0/1 values of x1 but not as a polynomial, and the state is entangled.
        state = SparseState(3, (("111", 1j), ("010", -1), ("100", -1), ("000", 1)))
        assert brute_force_factors(state) == ((0, 1, 2),)
        assert product_factors(state) == ((0, 1, 2),)

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1e170, 1e-170, -1e170j])
    def test_extreme_amplitudes(self, scale):
        ghz = SparseState(3, (("000", scale), ("111", scale)))
        zero_bell = SparseState(3, (("000", scale), ("011", scale)))
        assert product_factors(ghz) == ((0, 1, 2),)
        assert product_factors(zero_bell) == ((0,), (1, 2))
        assert classify(ghz).n_partite_entangled
        assert not classify(zero_bell).n_partite_entangled

    def test_largest_finite_amplitudes(self):
        # abs() of these overflows; the parts are scaled first.
        big = complex(1.7e308, -1.7e308)
        assert product_factors(SparseState(2, (("00", big), ("11", big)))) == ((0, 1),)
        product = SparseState(2, (("00", big), ("01", big), ("10", big), ("11", big)))
        assert product_factors(product) == ((0,), (1,))

    def test_single_term_and_single_qubit(self):
        assert product_factors(support_state(3, ["101"])) == ((0,), (1,), (2,))
        assert product_factors(support_state(1, ["0", "1"])) == ((0,),)


def test_state_json_is_parseable_json():
    doc = json.loads(state_to_json(ghz_state(3)))
    assert doc["n"] == 3
    assert [t["bits"] for t in doc["terms"]] == ["000", "111"]
