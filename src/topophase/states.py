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
from typing import Iterable

import numpy as np

PRODUCT_RANK_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SparseState:
    """n-qubit pure state as (bitstring, amplitude) terms; unnormalized."""

    n: int
    terms: tuple[tuple[str, complex], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state needs at least one qubit")
        if not 1 <= len(self.terms) <= 2 ** self.n:
            raise ValueError(f"term count {len(self.terms)} outside 1..2^{self.n}")
        seen = set()
        for idx, (bits, amp) in enumerate(self.terms):
            if len(bits) != self.n or any(ch not in "01" for ch in bits):
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

    def dense(self) -> np.ndarray:
        """Amplitude vector of length 2^n, bit 0 of the string most significant."""
        vec = np.zeros(2 ** self.n, dtype=complex)
        for bits, amp in self.terms:
            vec[int(bits, 2)] = amp
        return vec


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
            if len(row) != self.n or any(x not in (-1, 1) for x in row):
                raise ValueError(f"row {row!r} is not a +-1 vector of length {self.n}")
            if row in seen:
                raise ValueError(f"duplicate weight vector {row!r}")
            seen.add(row)


def support_state(n: int, bitstrings: Iterable[str]) -> SparseState:
    """State with unit amplitude on each of the given bitstrings."""
    return SparseState(n, tuple((bits, complex(1)) for bits in bitstrings))


def ghz_state(n: int) -> SparseState:
    return support_state(n, ["0" * n, "1" * n])


def w_state(n: int) -> SparseState:
    return support_state(n, ["0" * k + "1" + "0" * (n - 1 - k) for k in range(n)])


def ones_plus_w_state(n: int) -> SparseState:
    """All-ones term plus the W-state terms."""
    return support_state(
        n, ["1" * n] + ["0" * k + "1" + "0" * (n - 1 - k) for k in range(n)]
    )


def zeros_plus_w_state(n: int) -> SparseState:
    return support_state(
        n, ["0" * n] + ["0" * k + "1" + "0" * (n - 1 - k) for k in range(n)]
    )


def parse_state(text: str) -> SparseState:
    """Parse the JSON state format, reporting the offending term on error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
            except (TypeError, ValueError) as exc:
                raise ValueError(f"term {idx}: 'amp' entries must be numbers") from exc
            if not cmath.isfinite(amp):
                raise ValueError(f"term {idx}: 'amp' must be finite")
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


def save_state(state: SparseState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))


def weight_matrix(state: SparseState) -> WeightMatrix:
    """Weight matrix of the support, bit 1 -> +1, row order follows term order."""
    rows = tuple(
        tuple(1 if ch == "1" else -1 for ch in bits) for bits, _ in state.terms
    )
    return WeightMatrix(state.m, state.n, rows)


def bipartition_product_check(state: SparseState, subset: Iterable[int]) -> bool:
    """True iff the state factorizes across the bipartition (subset | rest).

    `subset` holds 0-based qubit indices.  The coefficient matrix of the
    bipartition is tested for rank 1 numerically: second singular value below
    ``PRODUCT_RANK_TOLERANCE`` relative to the first.
    """
    part = sorted(set(subset))
    if not part or len(part) >= state.n:
        raise ValueError("subset must be a proper nonempty set of qubit indices")
    if any(q < 0 or q >= state.n for q in part):
        raise ValueError("qubit index out of range")
    rest = [q for q in range(state.n) if q not in part]
    mat = np.zeros((2 ** len(part), 2 ** len(rest)), dtype=complex)
    for bits, amp in state.terms:
        i = int("".join(bits[q] for q in part), 2)
        j = int("".join(bits[q] for q in rest), 2) if rest else 0
        mat[i, j] = amp
    sing = np.linalg.svd(mat, compute_uv=False)
    if len(sing) < 2 or sing[0] == 0:
        return True
    return sing[1] <= PRODUCT_RANK_TOLERANCE * sing[0]


def tensor_product(a: SparseState, b: SparseState) -> SparseState:
    """Concatenate qubits of two states (all amplitude products)."""
    terms = tuple(
        (abits + bbits, aamp * bamp)
        for abits, aamp in a.terms
        for bbits, bamp in b.terms
    )
    return SparseState(a.n + b.n, terms)
