"""Sparse n-qubit pure states and their weight matrices.

A state is stored as a list of distinct basis bitstrings with nonzero complex
amplitudes.  The weight matrix maps each support bitstring to a row of +-1
labels, bit 1 -> +1 and bit 0 -> -1; all balancedness analysis runs on these
rows and ignores the amplitude values.

State file format (JSON, UTF-8 without BOM)::

    {"n": 3, "terms": [{"bits": "000"}, {"bits": "111", "amp": [1.0, 0.0]}]}

``amp`` is an optional ``[re, im]`` pair defaulting to 1.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .exactlinalg import kernel_lattice

PRODUCT_RANK_TOLERANCE = 1e-9

_SIGNS = frozenset((-1, 1))
_WEIGHT = {"0": -1, "1": 1}


@dataclass(frozen=True)
class SparseState:
    """n-qubit pure state as (bitstring, amplitude) terms; unnormalized."""

    n: int
    terms: tuple[tuple[str, complex], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state needs at least one qubit")
        # At most 2^n terms, tested without building 2^n for a huge declared n.
        if not self.terms or (len(self.terms) - 1).bit_length() > self.n:
            raise ValueError(f"term count {len(self.terms)} outside 1..2^{self.n}")
        seen = set()
        for idx, (bits, amp) in enumerate(self.terms):
            if len(bits) != self.n or bits.strip("01"):
                raise ValueError(f"term {idx}: bitstring {bits!r} is not {self.n} bits of 0/1")
            if bits in seen:
                raise ValueError(f"term {idx}: duplicate bitstring {bits!r}")
            if amp == 0:
                raise ValueError(f"term {idx}: zero amplitude")
            seen.add(bits)

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(bits for bits, _ in self.terms)


@dataclass(frozen=True)
class WeightMatrix:
    """Rows of +-1 labels for the support of a state in a product basis."""

    m: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.m:
            raise ValueError("row count mismatch")
        seen = set()
        for row in self.rows:
            if len(row) != self.n or not _SIGNS.issuperset(row):
                raise ValueError(f"row {row!r} is not a +-1 vector of length {self.n}")
            if row in seen:
                raise ValueError(f"duplicate weight vector {row!r}")
            seen.add(row)

    @cached_property
    def kernel(self) -> tuple[tuple[int, ...], ...]:
        """Basis of the integer left kernel of the rows, computed once.

        Each vector is primitive with a positive first nonzero entry; the
        phase set, the certificates, irreducibility and maximal length are
        all read from this basis.
        """
        return tuple(kernel_lattice(self.rows))


def support_state(n: int, bitstrings: Iterable[str]) -> SparseState:
    """State with unit amplitude on each of the given bitstrings."""
    return SparseState(n, tuple((bits, complex(1)) for bits in bitstrings))


def ghz_state(n: int) -> SparseState:
    return support_state(n, ["0" * n, "1" * n])


def parse_state(text: str) -> SparseState:
    """Parse the JSON state format, reporting the offending term on error."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "terms" not in doc:
        raise ValueError("state document must be an object with 'n' and 'terms'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("'n' must be an integer")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError("'terms' must be a non-empty array")
    terms = []
    for idx, item in enumerate(raw_terms):
        if not isinstance(item, dict) or "bits" not in item:
            raise ValueError(f"term {idx}: expected an object with 'bits'")
        bits = item["bits"]
        if not isinstance(bits, str):
            raise ValueError(f"term {idx}: 'bits' must be a string")
        amp = complex(1)
        if "amp" in item:
            pair = item["amp"]
            if (not isinstance(pair, list)) or len(pair) != 2:
                raise ValueError(f"term {idx}: 'amp' must be a [re, im] pair")
            try:
                amp = complex(float(pair[0]), float(pair[1]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"term {idx}: 'amp' entries must be numbers in float range") from exc
            # float() also takes strings such as "nan" and booleans.
            if not cmath.isfinite(amp) or any(type(x) not in (int, float) for x in pair):
                raise ValueError(f"term {idx}: 'amp' must be finite JSON numbers")
        terms.append((bits, amp))
    return SparseState(n, tuple(terms))


def state_to_json(state: SparseState) -> str:
    doc = {
        "n": state.n,
        "terms": [
            {"bits": bits, "amp": [amp.real, amp.imag]} for bits, amp in state.terms
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_state(path) -> SparseState:
    with open(path, encoding="utf-8") as fh:
        return parse_state(fh.read())


def weight_matrix(state: SparseState) -> WeightMatrix:
    """Weight matrix of the support, bit 1 -> +1, row order follows term order."""
    rows = tuple(tuple(map(_WEIGHT.__getitem__, bits)) for bits, _ in state.terms)
    return WeightMatrix(state.m, state.n, rows)


def product_factors(state: SparseState) -> tuple[tuple[int, ...], ...]:
    """Unique finest tensor factorization: sorted blocks of qubit indices.

    The amplitudes are the coefficients of the multilinear polynomial
    f = sum_s a_s prod_{k: s_k = 1} x_k, and the state factorizes across a
    bipartition exactly when f is a product of polynomials in the two
    variable sets.  Split by qubits i and j, f = x_i x_j A + x_i B + x_j C + D
    with A, B, C, D free of x_i and x_j.  The two qubits lie in different
    blocks iff AD = BC: then unique factorization gives
    f = (p x_i + r)(a x_j + b), and since f has degree at most one in every
    variable the two factors share none.  Each pair not yet in one block is
    tested in the order (0, 1), (0, 2), ..., and coupled blocks are merged
    by relabelling the smaller one; the loop stops at one block.  No
    2^k-sized array is built.

    Most coupled pairs are decided by the leading term of AD - BC (see
    `_leading_coupled`) in O(m) over the terms sorted once; only a tie of
    leading terms, or a leading product at or below the cutoff, falls back
    to `_coupled`'s full sparse product, O(m^2) a pair.  The decisions are
    the same either way.  The cost is O(n^2 m) when every pair is decided
    by its leading term, and O(n^2 m^2) at worst.

    The amplitudes are first divided by their largest real or imaginary
    part (abs() itself overflows past 1.3e308), so no product overflows and
    the largest |a| lies in [1, sqrt 2].  A coefficient of AD - BC counts as
    nonzero when it exceeds ``PRODUCT_RANK_TOLERANCE`` * sum |a|^2, which
    scales like the products: the relative rank-1 tolerance, since a 2x2
    block has |det| = s1*s2 and sum |a|^2 = s1^2 + s2^2.
    """
    n = state.n
    scale = max(max(abs(amp.real), abs(amp.imag)) for _, amp in state.terms)
    terms = [
        (int(bits, 2), complex(amp.real / scale, amp.imag / scale))
        for bits, amp in state.terms
    ]
    cutoff = PRODUCT_RANK_TOLERANCE * sum(abs(amp) ** 2 for _, amp in terms)
    # The fallback keeps the term order: its float sums depend on it.
    ordered = sorted(terms, reverse=True)
    label = list(range(n))  # qubit -> block
    members = [[q] for q in range(n)]  # block -> qubits, empty once merged
    blocks = n
    for i in range(n - 1):
        bit_i = 1 << (n - 1 - i)
        for j in range(i + 1, n):
            if label[i] == label[j]:
                continue
            bit_j = 1 << (n - 1 - j)
            if _leading_coupled(ordered, bit_i, bit_j, cutoff) or _coupled(
                terms, bit_i, bit_j, cutoff
            ):
                keep, gone = label[i], label[j]
                if len(members[keep]) < len(members[gone]):
                    keep, gone = gone, keep
                for q in members[gone]:
                    label[q] = keep
                members[keep] += members[gone]
                members[gone] = []
                blocks -= 1
                if blocks == 1:
                    return (tuple(range(n)),)
    return tuple(sorted(tuple(sorted(block)) for block in members if block))


def _leading_coupled(ordered, bit_i: int, bit_j: int, cutoff: float) -> bool:
    """Sufficient test for `_coupled`: the leading term of AD - BC alone.

    `ordered` holds the terms in descending order of their bitstring's
    value, so the first term met in each part is its maximum.  With bits i
    and j masked out, the value sum_k e_k 2^k of a monomial's exponent
    vector is the sum of the values of its two keys, so monomials of
    different value differ, and in AD only the product of max A and max D
    reaches the value max A + max D.  So when that value exceeds
    max B + max C (bits i and j add the same on both sides, so the
    unmasked values compare alike), or BC is empty, AD - BC holds the
    coefficient 1 * a * d at that monomial, the value `_coupled` sums
    there; likewise -1 * b * c the other way round.  True when that
    coefficient exceeds `cutoff`; False leaves the pair to `_coupled`.
    """
    both = bit_i | bit_j
    top = {}  # bits i and j of a part -> its first, largest, term
    for term in ordered:
        part = term[0] & both
        if part not in top:
            top[part] = term
            if len(top) == 4:
                break
    a, b, c, d = top.get(both), top.get(bit_i), top.get(bit_j), top.get(0)
    if a and d and (not b or not c or a[0] + d[0] > b[0] + c[0]):
        return abs(a[1] * d[1]) > cutoff
    if b and c and (not a or not d or b[0] + c[0] > a[0] + d[0]):
        return abs(b[1] * c[1]) > cutoff
    return False


def _coupled(terms, bit_i: int, bit_j: int, cutoff: float) -> bool:
    """Whether AD - BC has a coefficient above `cutoff` (see product_factors).

    Terms are (bitstring as int, amplitude); A, B, C, D are keyed by the
    remaining bits, and the monomial of two keys s, t, with exponents
    s_k + t_k in 0..2, is (s & t, s ^ t).
    """
    rest = ~(bit_i | bit_j)
    parts: tuple[dict, ...] = ({}, {}, {}, {})  # D (00), C (01), B (10), A (11)
    for s, amp in terms:
        parts[(2 if s & bit_i else 0) | (1 if s & bit_j else 0)][s & rest] = amp
    d, c, b, a = parts
    coef: dict[tuple[int, int], complex] = {}
    for left, right, sign in ((a, d, 1), (b, c, -1)):
        for s, x in left.items():
            for t, y in right.items():
                key = (s & t, s ^ t)
                coef[key] = coef.get(key, 0) + sign * x * y
    return any(abs(v) > cutoff for v in coef.values())


def bipartition_product_check(state: SparseState, subset: Iterable[int]) -> bool:
    """True iff the state factorizes across the bipartition (subset | rest).

    `subset` holds 0-based qubit indices.  The state factorizes across a
    bipartition exactly when the subset is a union of blocks of
    `product_factors`.
    """
    part = set(subset)
    if not part or len(part) >= state.n:
        raise ValueError("subset must be a proper nonempty set of qubit indices")
    if any(q < 0 or q >= state.n for q in part):
        raise ValueError("qubit index out of range")
    return all(
        part.issuperset(block) or part.isdisjoint(block)
        for block in product_factors(state)
    )
