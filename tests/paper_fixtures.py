"""The paper's closed forms that the tests compare the program against: the
W-type supports, the five stabilizer families of known phase, telescoping
by one appended qubit, and Table I's denominators for n qubits.  The
library itself never builds them.

Each family returns (state, angles, antidiagonal, expected chi in (-pi, pi]):
the angles in radians and the kind of the local factors, as
`stabilizers.verify` takes them.
"""

import math

from topophase.search import search_tables
from topophase.stabilizers import wrap_angle
from topophase.states import SparseState, ghz_state, support_state


def _w_terms(n):
    return ["0" * k + "1" + "0" * (n - 1 - k) for k in range(n)]


def w_state(n):
    return support_state(n, _w_terms(n))


def ones_plus_w_state(n):
    """All-ones term plus the W-state terms."""
    return support_state(n, ["1" * n] + _w_terms(n))


def zeros_plus_w_state(n):
    return support_state(n, ["0" * n] + _w_terms(n))


def ghz_family(n, p, angles=None):
    """Diagonal, n - 1 free angles: chi = p * pi."""
    angles = tuple(angles or (0.0,) * (n - 1))
    phis = angles + (p * math.pi - sum(angles),)
    return ghz_state(n), phis, False, wrap_angle(p * math.pi)


def ghz_antidiag_family(n, q, deltas=None):
    """Antidiagonal, n - 1 free angles: chi = pi/2 + q*pi (odd n) or q*pi (even n)."""
    deltas = tuple(deltas or (0.0,) * (n - 1))
    target = q * math.pi + (math.pi / 2 if n % 2 else 0.0)
    full = deltas + (target - sum(deltas),)
    return ghz_state(n), full, True, wrap_angle(target)


def ones_plus_w_family(n, qs):
    """n + 1 integers qs: chi = sum(qs) * pi / (n - 1)."""
    total = sum(qs)
    chi = wrap_angle(total * math.pi / (n - 1))
    phis = (chi - total * math.pi,) + (chi,) * (n - 1)
    return ones_plus_w_state(n), phis, False, chi


def w_family(n, alpha):
    """The continuous family: every angle alpha, chi = (2 - n) * alpha."""
    return w_state(n), (alpha,) * n, False, wrap_angle((2 - n) * alpha)


def zeros_plus_w_family(n, qs):
    """Per-qubit signs: angles q * pi for n integers qs, chi = sum(qs) * pi."""
    phis = tuple(q * math.pi for q in qs)
    return zeros_plus_w_state(n), phis, False, wrap_angle(sum(qs) * math.pi)


def append_column(state, column):
    """The state on one more qubit, whose bit in term j is 1 iff column[j]
    is +1.  A +-1 column in the rational span of the weight matrix's columns
    leaves its integer left kernel, and so the phase set, unchanged: the
    paper's telescoping."""
    terms = tuple((bits + ("1" if c == 1 else "0"), amp)
                  for (bits, amp), c in zip(state.terms, column))
    return SparseState(state.n + 1, terms)


def table_one_denominators(n):
    """chi_min denominators available to n qubits: the union over maximal
    length structures at k = 3..n plus the two-qubit pi (denominator 1).
    Each k is scanned to the default 4k, so the union is provably
    complete only through n = 7."""
    if n < 2:
        raise ValueError("phase tables start at two qubits")
    denoms = {1}
    for k in range(3, n + 1):
        denoms.update(search_tables(k).denominators)
    return tuple(sorted(denoms))
