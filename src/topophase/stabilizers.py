"""Numerical verification of stabilizer eigenphase relations.

Materializes local SU(2) operators and checks U|psi> = e^{i chi}|psi> to
DEFAULT_TOLERANCE, each operator first in SU(2) to SU2_TOLERANCE; both
bounds are fixed, since the residual measures float rounding only.  Every
factor must be diagonal or antidiagonal (a monomial operator, as the CLI
builds), and U is applied term by term in O(n*m) at any n; any other
factor is refused with a ValueError.  Eigenbasis convention
throughout: |1> is the +1 eigenvector of a diagonal stabilizer, carrying
e^{+i phi}; this matches the weight-matrix convention bit 1 -> +1, so the
exact rational solutions produced by the balance analysis verify directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import SparseState

DEFAULT_TOLERANCE = 1e-9
SU2_TOLERANCE = 1e-12


@dataclass(frozen=True)
class VerificationResult:
    matched: bool
    chi: float  # radians in (-pi, pi]
    residual: float


def wrap_angle(x: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    w = math.fmod(x, 2 * math.pi)
    if w > math.pi:
        w -= 2 * math.pi
    elif w <= -math.pi:
        w += 2 * math.pi
    return w


def diagonal_stabilizer(phis: Sequence[float]) -> list[np.ndarray]:
    """Per-qubit diag(e^{-i phi}, e^{+i phi}) in the (|0>, |1>) basis."""
    return [
        np.array([[cmath.exp(-1j * phi), 0.0], [0.0, cmath.exp(1j * phi)]])
        for phi in phis
    ]


def antidiagonal_stabilizer(deltas: Sequence[float]) -> list[np.ndarray]:
    """Per-qubit [[0, e^{i delta}], [-e^{-i delta}, 0]] (determinant +1)."""
    return [
        np.array([[0.0, cmath.exp(1j * d)], [-cmath.exp(-1j * d), 0.0]])
        for d in deltas
    ]


def assert_special_unitary(unitaries: Sequence[np.ndarray]) -> None:
    """Raise ValueError unless every operator is a 2x2 matrix in SU(2) to
    SU2_TOLERANCE.

    Each operator ``[[a, b], [c, d]]`` is checked in closed form, in Python
    complex arithmetic: every entry of ``u^H u - I`` and then ``ad - bc - 1``
    must have modulus at most SU2_TOLERANCE.  Each test reads
    ``not (err <= SU2_TOLERANCE)``, so an operator with a NaN or infinite
    entry is refused, as not unitary.
    """
    for k, u in enumerate(unitaries):
        if u.shape != (2, 2):
            raise ValueError(f"operator {k} is not 2x2")
        (a, b), (c, d) = u.tolist()
        ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        gram = (ac * a + cc * c - 1, ac * b + cc * d, bc * a + dc * c, bc * b + dc * d - 1)
        if not all(abs(e) <= SU2_TOLERANCE for e in gram):
            raise ValueError(f"operator {k} is not unitary to {SU2_TOLERANCE}")
        if not abs(a * d - b * c - 1) <= SU2_TOLERANCE:
            raise ValueError(f"operator {k} has determinant != 1")


def apply_local_unitaries(vec: np.ndarray, unitaries: Sequence[np.ndarray]) -> np.ndarray:
    """The n local operators applied to a dense 2^n vector, qubit 0 first.

    Nothing in the package calls it: it is the tests' dense reference for
    `verify`, kept here while the benchmark's trace list names it.
    """
    n = len(unitaries)
    psi = np.asarray(vec, dtype=complex).reshape((2,) * n)
    for k, u in enumerate(unitaries):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [k])), 0, k)
    return psi.reshape(-1)


def verify(state: SparseState, unitaries: Sequence[np.ndarray]) -> VerificationResult:
    """Check U|psi> = e^{i chi}|psi> term by term, for U whose every factor
    is diagonal or antidiagonal; any other factor raises ValueError.

    Factor k maps bit b to b ^ f (f = 0 diagonal, 1 antidiagonal) with
    entry u[b ^ f, b]; the entries multiply in qubit order, as
    `apply_local_unitaries` applies them.  chi is extracted from the
    amplitude ratio at the largest-magnitude input amplitude (ties to the
    smallest dense index), and is 0.0, with no match, where U|psi> vanishes
    there.  The residual max|U psi - e^{i chi} psi|, over the union of both
    supports, must be at most DEFAULT_TOLERANCE after every amplitude is
    divided by the largest real or imaginary part (as in
    `states.product_factors`), so the result does not depend on the input's
    global phase or normalization and nothing overflows.
    """
    if len(unitaries) != state.n:
        raise ValueError(f"need {state.n} local operators, got {len(unitaries)}")
    assert_special_unitary(unitaries)
    flips, entries = 0, []
    for u in unitaries:
        f = next((g for g in (0, 1) if u[1 - g, 0] == 0 and u[g, 1] == 0), None)
        if f is None:
            raise ValueError("verify applies only diagonal or antidiagonal factors")
        flips = flips << 1 | f
        entries.append((complex(u[f, 0]), complex(u[1 - f, 1])))
    scale = max(max(abs(amp.real), abs(amp.imag)) for _, amp in state.terms)
    inputs, outputs = {}, {}
    for bits, amp in state.terms:
        amp /= scale
        inputs[int(bits, 2)] = amp
        for pair, ch in zip(entries, bits):
            amp *= pair[ch == "1"]
        outputs[int(bits, 2) ^ flips] = amp
    union = sorted(inputs.keys() | outputs.keys())
    vec, out = (np.array([side.get(i, 0) for i in union], dtype=complex)
                for side in (inputs, outputs))
    anchor = int(np.argmax(np.abs(vec)))
    chi = wrap_angle(cmath.phase(out[anchor] / vec[anchor])) if out[anchor] else 0.0
    residual = float(np.max(np.abs(out - cmath.exp(1j * chi) * vec)))
    return VerificationResult(residual <= DEFAULT_TOLERANCE, chi, residual)
