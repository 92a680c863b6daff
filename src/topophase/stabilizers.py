"""Numerical verification of stabilizer eigenphase relations.

Checks U|psi> = e^{i chi}|psi> to DEFAULT_TOLERANCE, term by term in O(n*m)
at any n, for U a product of local SU(2) factors given by their angles, all
diagonal diag(e^{-i phi}, e^{+i phi}) or all antidiagonal
[[0, e^{i delta}], [-e^{-i delta}, 0]], as the CLI builds them.  The bound is
fixed: the residual measures float rounding only.  Eigenbasis convention: |1>
is the +1 eigenvector of a diagonal stabilizer, carrying e^{+i phi}, as bit 1
is +1 in the weight matrix, so the balance analysis's exact rational
solutions verify directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import SparseState

DEFAULT_TOLERANCE = 1e-9


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


def apply_local_unitaries(vec: np.ndarray, unitaries: Sequence[np.ndarray]) -> np.ndarray:
    """The n local operators applied to a dense 2^n vector, qubit 0 first.

    Nothing in the package calls it: it is the tests' dense reference for
    `verify`, whose 2x2 inputs the tests build, kept here while the
    benchmark's trace list names it.
    """
    n = len(unitaries)
    psi = np.asarray(vec, dtype=complex).reshape((2,) * n)
    for k, u in enumerate(unitaries):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [k])), 0, k)
    return psi.reshape(-1)


def verify(state: SparseState, angles: Sequence[float],
           antidiagonal: bool = False) -> VerificationResult:
    """Check U|psi> = e^{i chi}|psi> term by term, for U the product of the
    n factors of the given angles in radians: factor k is
    diag(e^{-i phi_k}, e^{i phi_k}), or [[0, e^{i delta_k}],
    [-e^{-i delta_k}, 0]] with `antidiagonal`.

    A wrong angle count or a non-finite angle is refused with a ValueError.
    Factor k maps bit b to b ^ f (f = 0 diagonal, 1 antidiagonal) with entry
    u[b ^ f, b], multiplied in qubit order as in `apply_local_unitaries`.
    chi is read at the largest input amplitude (ties to the smallest dense
    index), and is 0.0, with no match, where U|psi> vanishes there.  The
    residual max|U psi - e^{i chi} psi| over both supports must be at most
    DEFAULT_TOLERANCE once every amplitude is divided by the largest real or
    imaginary part, so neither global phase nor normalization matters.
    """
    if len(angles) != state.n:
        raise ValueError(f"need {state.n} angles, got {len(angles)}")
    if not all(map(math.isfinite, angles)):
        raise ValueError("every angle must be finite")
    if antidiagonal:
        flips = (1 << state.n) - 1
        entries = [(-cmath.exp(-1j * d), cmath.exp(1j * d)) for d in angles]
    else:
        flips = 0
        entries = [(cmath.exp(-1j * phi), cmath.exp(1j * phi)) for phi in angles]
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
