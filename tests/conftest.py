from itertools import permutations

import pytest

from topophase import search


def brute_force_det(rows):
    """Permutation-sum determinant, independent of the elimination core."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions for the parity
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


# Worked five- and seven-qubit states used across the suite.
FIVE_QUBIT_SIX_TERM = [  # multiset {1,1,1,1,1}, Z=2, chi_min pi/3
    "11111", "10001", "11000", "01100", "00110", "00011",
]
# The third five-qubit display in the published reference tables: its pattern selection is
# the singular pair 4-cycle, so as printed it is reducible with chi_min pi/2.
FIVE_QUBIT_PRINTED_THIRD = [
    "11111", "10000", "01001", "01100", "00110", "00011",
]
FIVE_QUBIT_MAXLEN_PI4 = [  # valid representative: {2,1,1,1,1}, Z=2, chi_min pi/4
    "11111", "10000", "01110", "01001", "00101", "00010",
]
FIVE_QUBIT_MAXLEN_PI5 = [  # multiset {2,2,1,1,1}, Z=2, chi_min pi/5
    "11111", "10000", "01000", "00110", "00101", "00011",
]
SEVEN_QUBIT_PI18 = [  # multiset {7,6,5,4,3,2,1}, Z=10, chi_min pi/18
    "1111111", "1100000", "0011000", "0000110",
    "0010101", "1001011", "0100011", "0101101",
]
# Worked seven-qubit structure for {4,3,3,1,1,1,1}, Z=4 (0-based positions).
WORKED_SEVEN_QUBIT_STRUCTURE = search.CombinatorialStructure(
    7,
    (4, 3, 3, 1, 1, 1, 1),
    4,
    ((0,), (1, 3), (1, 4), (1, 5), (1, 6), (2, 5), (3, 4, 5, 6)),
)
WORKED_SEVEN_QUBIT_SUPPORT = [
    "1111111", "1000000", "0111100", "0000010",
    "0100001", "0010001", "0001011", "0000101",
]


@pytest.fixture(scope="session")
def search_results():
    """Search tables for n = 3..6 at the default bound, shared session-wide."""
    return {n: search.search_tables(n) for n in range(3, 7)}


@pytest.fixture(scope="session")
def search_result_7():
    return search.search_tables(7)
