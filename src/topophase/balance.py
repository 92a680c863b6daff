"""Balancedness analysis of weight matrices and exact phase sets.

For the Cartan subgroup diagonal in a given product basis, the achievable
global phases of a state are controlled by the integer left-kernel lattice of
its weight matrix: the coordinate sums of the kernel vectors form an ideal
d*Z, and the phase set is either all of R (d = 0, no affine dependence) or
exactly the multiples of 2*pi/d.

Certificates, stabilizer-angle solves and representative-state
construction live here.  Angles and phases are exact rationals in units
of pi.  `analysis_report` decides each flag once, off the cached kernel
basis (semistability by `positive_maximal_kernel`); `classify` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .exactlinalg import convex_feasible, make_primitive, solve_integer, solve_rational
from .states import (
    SparseState,
    WeightMatrix,
    product_factors,
    support_state,
    weight_matrix,
)


@dataclass(frozen=True)
class PhaseSet:
    """Exact phase set of one Cartan subgroup: d = 0 means continuous,
    otherwise the phases are exactly the integer multiples of 2*pi/d."""

    d: int

    def __post_init__(self):
        if self.d < 0 or self.d % 2:
            raise ValueError("d must be 0 or a positive even integer")

    @property
    def continuous(self) -> bool:
        return self.d == 0

    @property
    def chi_min(self) -> Optional[Fraction]:
        """Smallest positive phase in units of pi, or None when continuous."""
        return None if self.d == 0 else Fraction(2, self.d)


@dataclass(frozen=True)
class KernelCertificate:
    """Primitive integer dependence of the weight-matrix rows.

    kind 'affine': nonzero coefficient sum.  kind 'convex': all nonzero
    coefficients positive (zero entries mark rows outside the support S).
    """

    coefficients: tuple[int, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("affine", "convex"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        nonzero = [c for c in self.coefficients if c]
        if not nonzero or gcd(*nonzero) != 1:
            raise ValueError("certificate must be primitive and nonzero")
        if self.kind == "affine" and self.total == 0:
            raise ValueError("affine certificate needs a nonzero sum")
        if self.kind == "convex" and (any(c < 0 for c in nonzero) or self.total <= 0):
            raise ValueError("convex certificate needs positive coefficients")

    @property
    def total(self) -> int:
        return sum(self.coefficients)


@dataclass(frozen=True)
class StabilizerSolution:
    """Exact diagonal-stabilizer angles for chosen winding numbers.

    Every row j satisfies sum_k l_jk * phis[k] = chi + 2 * winding[j],
    all in units of pi.
    """

    winding: tuple[int, ...]
    phis: tuple[Fraction, ...]
    chi: Fraction
    free_parameters: int


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    support: tuple[int, ...]


@dataclass(frozen=True)
class ClassificationFlags:
    """Basis-relative classification; only `n_partite_entangled` is
    basis-independent.  `semistable_certified` means the state is an
    irreducible maximal-length c-state in the given basis, which certifies
    semistability (and hence topological phases including pi)."""

    n_partite_entangled: bool
    a_state: bool
    c_state: bool
    semistable_certified: bool
    single_term: bool


def phase_set(w: WeightMatrix) -> PhaseSet:
    """Phase set of the Cartan subgroup diagonal in the state's basis.

    d is the generator of the ideal of coordinate sums over the integer
    left-kernel lattice of the weight matrix; d is even whenever nonzero
    because each row has odd entries (+-1 each), so c.W = 0 forces
    sum(c) = 0 mod 2.
    """
    return PhaseSet(gcd(*(sum(vec) for vec in w.kernel)))


def affine_certificate(w: WeightMatrix) -> Optional[KernelCertificate]:
    """A primitive kernel vector with nonzero (positive) sum, if one exists."""
    for vec in w.kernel:
        s = sum(vec)
        if s:
            if s < 0:
                vec = tuple(-x for x in vec)
            return KernelCertificate(vec, "affine")
    return None


def convex_certificate(w: WeightMatrix) -> Optional[KernelCertificate]:
    """Positive integer dependence witnessing 0 in the convex hull of rows.

    Convex weights lie in the rational left kernel, so the cached kernel
    basis decides dimensions 0 and 1 without the simplex: with no kernel
    vector there are none, and with one primitive vector c (first nonzero
    entry positive) the only candidate is c / sum(c), feasible iff
    min(c) >= 0, whose certificate is c itself.  The simplex runs only on
    kernels of dimension 2 or more.
    """
    if len(w.kernel) <= 1:
        if w.kernel and min(w.kernel[0]) >= 0:
            return KernelCertificate(w.kernel[0], "convex")
        return None
    lam = convex_feasible(w.rows)
    if lam is None:
        return None
    scale = lcm(*[f.denominator for f in lam])
    return KernelCertificate(make_primitive([int(f * scale) for f in lam]), "convex")


def irreducibility(w: WeightMatrix) -> IrreducibilityResult:
    """Inclusion-minimal row subset carrying a dependence with nonzero sum.

    One exact solve of c [W | 1] = (0, ..., 0, 1): with the free variables
    at zero, c lies on independent rows of [W | 1], where no other
    dependence has sum 1, so no proper subset of its support carries one.
    Irreducible iff that support is all rows, iff the kernel is one vector
    with no zero entry (on a larger kernel some c_i is not a multiple of
    sum(c)).  Raises ValueError when the input is not an a-state.
    """
    sol = solve_rational([*zip(*w.rows), (1,) * w.m], [0] * w.n + [1])
    if sol is None:
        raise ValueError("not an a-state in this basis: no dependence with nonzero sum")
    supp = tuple(i for i, x in enumerate(sol[0]) if x)
    return IrreducibilityResult(len(supp) == w.m, supp)


def is_irreducible_maximal_length(w: WeightMatrix) -> bool:
    """Maximal-length test: m = n+1 rows and a nonsingular augmented matrix
    [W | -1], that is, a one-dimensional kernel whose vector has a nonzero
    sum."""
    return w.m == w.n + 1 and len(w.kernel) == 1 and sum(w.kernel[0]) != 0


def positive_maximal_kernel(w: WeightMatrix) -> Optional[tuple[int, ...]]:
    """Primitive all-positive kernel vector of an (n+1) x n weight matrix.

    Returns the coefficients exactly when the rows form an irreducible
    c-state of maximal length (rank n, one-dimensional kernel, all
    coefficients nonzero with a common sign), read off the cached basis
    (first nonzero entry positive); None otherwise.
    """
    if is_irreducible_maximal_length(w) and min(w.kernel[0]) > 0:
        return w.kernel[0]
    return None


def solve_stabilizer(
    w: WeightMatrix, winding: Sequence[int]
) -> Optional[StabilizerSolution]:
    """Solve the eigenphase system for given winding numbers, in pi units.

    Row j demands sum_k l_jk * phi_k = chi + 2*pi*winding[j].  Returns a
    particular exact solution with chi normalized into (-pi, pi] (the winding
    numbers are shifted along to keep every row exact), plus the dimension of
    the solution space; None when the system is inconsistent.
    """
    if len(winding) != w.m:
        raise ValueError(f"winding length {len(winding)} does not match {w.m} rows")
    sol = solve_rational([row + (-1,) for row in w.rows], [2 * a for a in winding])
    if sol is None:
        return None
    x, free = sol
    phis, chi = x[: w.n], x[w.n]
    folded = chi % 2
    if folded > 1:
        folded -= 2
    shift = int(chi - folded) // 2
    return StabilizerSolution(
        winding=tuple(a + shift for a in winding),
        phis=tuple(phis),
        chi=folded,
        free_parameters=free,
    )


def winding_for_phase(w: WeightMatrix, multiple: int = 1) -> Optional[tuple[int, ...]]:
    """Winding numbers whose stabilizer solution has chi = multiple * chi_min.

    None for continuous-phase inputs.  The stabilizer rows are consistent
    with chi exactly when c . winding = -chi * sum(c) / 2 for every kernel
    vector c, an integer system K a = t over the kernel basis.  That basis
    spans a saturated lattice, so one `solve_integer` always finds a.
    """
    d = phase_set(w).d
    if d == 0:
        return None
    return solve_integer(w.kernel, [-multiple * sum(vec) // d for vec in w.kernel])


def construct_state(structure) -> SparseState:
    """Representative state of a combinatorial structure.

    Term 0 is the all-ones bitstring (carrying the derived coefficient c0);
    term j has bit k set iff position j-1 belongs to pattern k.  All
    amplitudes are 1.  The structure's shape is checked when it is built;
    the pattern sums are checked here.
    """
    multiset = tuple(structure.multiset)
    z = structure.z
    patterns = tuple(tuple(p) for p in structure.patterns)
    n = len(multiset)
    for k, pat in enumerate(patterns):
        if sum(multiset[p] for p in pat) != z:
            raise ValueError(f"pattern {k} does not sum to Z={z}")
    membership = [set(pat) for pat in patterns]
    bits = ["1" * n]
    for j in range(n):
        bits.append("".join("1" if j in membership[k] else "0" for k in range(n)))
    try:
        return support_state(n, bits)
    except ValueError as exc:
        raise ValueError(f"malformed structure: {exc}") from exc


def classify(state: SparseState) -> ClassificationFlags:
    """Classification flags; the balancedness flags refer to the
    computational basis of the input."""
    return ClassificationFlags(**analysis_report(state)["flags"])


def analysis_report(state: SparseState) -> dict:
    """JSON-ready analysis of one state in its computational basis."""
    w = weight_matrix(state)
    ps = phase_set(w)
    single = state.m == 1
    entangled = state.n >= 2 and not single and len(product_factors(state)) == 1
    affine = affine_certificate(w)
    # A convex certificate has a positive sum, so only an a-state has one.
    convex = convex_certificate(w) if affine is not None else None
    cert = convex or affine
    if ps.continuous:
        chi_min = "continuous"
    else:
        chi_min = {"num": ps.chi_min.numerator, "den": ps.chi_min.denominator}
    # See irreducibility: one kernel vector with no zero entry.
    irreducible = affine is not None and len(w.kernel) == 1 and all(w.kernel[0])
    return {
        "n": state.n,
        "m": state.m,
        "d": ps.d,
        "chi_min": chi_min,
        "certificate": list(cert.coefficients) if cert else None,
        "certificate_kind": cert.kind if cert else None,
        "irreducible": irreducible,
        "maximal_length": is_irreducible_maximal_length(w),
        "flags": {
            "n_partite_entangled": entangled,
            "a_state": affine is not None,
            "c_state": convex is not None,
            "semistable_certified": positive_maximal_kernel(w) is not None,
            "single_term": single,
        },
        "basis": "computational",
    }
