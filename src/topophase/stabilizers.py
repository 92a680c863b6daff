"""Numerical verification of stabilizer eigenphase relations.

Materializes local SU(2) operators, applies them to dense state vectors, and
checks U|psi> = e^{i chi}|psi> to a tolerance.  Eigenbasis convention
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

from .states import (
    SparseState,
    ghz_state,
    ones_plus_w_state,
    w_state,
    zeros_plus_w_state,
)

MAX_DENSE_QUBITS = 20
DEFAULT_TOLERANCE = 1e-9
SU2_TOLERANCE = 1e-12

FAMILY_NAMES = ("ghz", "ghz_antidiag", "ones_plus_w", "w", "zeros_plus_w")


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


def assert_special_unitary(unitaries: Sequence[np.ndarray], tol: float = SU2_TOLERANCE) -> None:
    for k, u in enumerate(unitaries):
        if u.shape != (2, 2):
            raise ValueError(f"operator {k} is not 2x2")
        if np.max(np.abs(u.conj().T @ u - np.eye(2))) > tol:
            raise ValueError(f"operator {k} is not unitary to {tol}")
        if abs(np.linalg.det(u) - 1) > tol:
            raise ValueError(f"operator {k} has determinant != 1")


def apply_local_unitaries(vec: np.ndarray, unitaries: Sequence[np.ndarray]) -> np.ndarray:
    n = len(unitaries)
    psi = np.asarray(vec, dtype=complex).reshape((2,) * n)
    for k, u in enumerate(unitaries):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [k])), 0, k)
    return psi.reshape(-1)


def verify(
    state: SparseState,
    unitaries: Sequence[np.ndarray],
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationResult:
    """Check U|psi> = e^{i chi}|psi> by dense tensor contraction.

    chi is extracted from the amplitude ratio at the largest-magnitude input
    amplitude, then the residual max|U psi - e^{i chi} psi| is checked
    globally after every amplitude is divided by the largest real or
    imaginary part (as in `states.product_factors`), so the result does not
    depend on the input's global phase or normalization and nothing
    overflows.
    """
    if state.n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense verification capped at {MAX_DENSE_QUBITS} qubits")
    if len(unitaries) != state.n:
        raise ValueError(f"need {state.n} local operators, got {len(unitaries)}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    assert_special_unitary(unitaries)
    # Scale the m terms: dividing the dense vector would write all 2^n entries.
    scale = max(max(abs(amp.real), abs(amp.imag)) for _, amp in state.terms)
    vec = SparseState(state.n, tuple((b, amp / scale) for b, amp in state.terms)).dense()
    out = apply_local_unitaries(vec, unitaries)
    anchor = int(np.argmax(np.abs(vec)))
    ratio = out[anchor] / vec[anchor]
    chi = wrap_angle(cmath.phase(ratio))
    residual = float(np.max(np.abs(out - cmath.exp(1j * chi) * vec)))
    return VerificationResult(residual <= tolerance, chi, residual)


def known_family(name: str, n: int, **params):
    """Closed-form stabilizer families: (state, operators, expected chi).

    ghz            p int, angles: n-1 free angles; chi = p * pi
    ghz_antidiag   q int, deltas: n-1 free angles; chi = pi/2 + q*pi (odd n)
                   or q*pi (even n)
    ones_plus_w    qs: n+1 ints; chi = sum(qs) * pi / (n - 1)
    w              alpha float, qs: n ints; continuous family,
                   chi = (2 - n) * alpha - sum(qs) * pi
    zeros_plus_w   alpha in {0, pi} applied to the first qubit, or qs: n ints;
                   chi = sum(qs) * pi in {0, pi}
    """
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    if n < 2:
        raise ValueError("families need at least two qubits")

    if name == "ghz":
        p = int(params.pop("p", 0))
        angles = tuple(params.pop("angles", (0.0,) * (n - 1)))
        _reject_extra(params)
        if len(angles) != n - 1:
            raise ValueError(f"ghz family takes {n - 1} free angles")
        phis = angles + (p * math.pi - sum(angles),)
        return ghz_state(n), diagonal_stabilizer(phis), wrap_angle(p * math.pi)

    if name == "ghz_antidiag":
        q = int(params.pop("q", 0))
        deltas = tuple(params.pop("deltas", (0.0,) * (n - 1)))
        _reject_extra(params)
        if len(deltas) != n - 1:
            raise ValueError(f"ghz_antidiag family takes {n - 1} free angles")
        target = q * math.pi + (math.pi / 2 if n % 2 else 0.0)
        full = deltas + (target - sum(deltas),)
        return ghz_state(n), antidiagonal_stabilizer(full), wrap_angle(target)

    if name == "ones_plus_w":
        qs = tuple(int(x) for x in params.pop("qs"))
        _reject_extra(params)
        if len(qs) != n + 1:
            raise ValueError(f"ones_plus_w family takes {n + 1} integers")
        total = sum(qs)
        chi = wrap_angle(total * math.pi / (n - 1))
        phis = (chi - total * math.pi,) + (chi,) * (n - 1)
        return ones_plus_w_state(n), diagonal_stabilizer(phis), chi

    if name == "w":
        alpha = float(params.pop("alpha", 0.0))
        qs = tuple(int(x) for x in params.pop("qs", (0,) * n))
        _reject_extra(params)
        if len(qs) != n:
            raise ValueError(f"w family takes {n} integers")
        phis = tuple(alpha + q * math.pi for q in qs)
        chi = wrap_angle((2 - n) * alpha - sum(qs) * math.pi)
        return w_state(n), diagonal_stabilizer(phis), chi

    # zeros_plus_w: stabilizers are per-qubit signs +-identity.
    if "qs" in params:
        qs = tuple(int(x) for x in params.pop("qs"))
    else:
        alpha = float(params.pop("alpha", 0.0))
        lead = round(alpha / math.pi)
        if abs(alpha - lead * math.pi) > 1e-12:
            raise ValueError("zeros_plus_w alpha must be a multiple of pi")
        qs = (lead,) + (0,) * (n - 1)
    _reject_extra(params)
    if len(qs) != n:
        raise ValueError(f"zeros_plus_w family takes {n} integers")
    phis = tuple(q * math.pi for q in qs)
    return zeros_plus_w_state(n), diagonal_stabilizer(phis), wrap_angle(sum(qs) * math.pi)


def _reject_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unexpected family parameters: {sorted(params)}")
