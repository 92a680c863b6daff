import json
import random

import pytest

from topophase.states import (
    SparseState,
    bipartition_product_check,
    ghz_state,
    parse_state,
    state_to_json,
    support_state,
    tensor_product,
    w_state,
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

    def test_boolean_n(self):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            parse_state('{"n":true,"terms":[{"bits":"1"}]}')

    def test_bad_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_state("{nope")

    def test_term_count_cap(self):
        with pytest.raises(ValueError):
            SparseState(1, (("0", 1), ("1", 1), ("0", 1)))


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


def test_state_json_is_parseable_json():
    doc = json.loads(state_to_json(ghz_state(3)))
    assert doc["n"] == 3
    assert [t["bits"] for t in doc["terms"]] == ["000", "111"]
