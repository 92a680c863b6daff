"""Seeded state corpora for the `analyze` and `verify` workloads.

Nothing here imports topophase.  Maximal-length bases are screened by float
minors and confirmed by exact rational elimination in this file, so the
expected phase data of a constructed state comes from a kernel vector the
program under test never touched.

A constructed state starts from an irreducible maximal-length c-state on n0
qubits: n0 + 1 distinct +-1 rows, one of them all ones, whose left kernel is
spanned by a single all-positive vector c.  It is then telescoped to n qubits
by appending +-1 columns orthogonal to c (exactly the columns in the row
matrix's column span, so the kernel and the phase set are unchanged).  With
c0 the largest coefficient, the multiset is the other n0 coefficients and
Z = (sum(multiset) - c0) / 2, so chi_min = pi / (sum(multiset) - Z) and the
analysis must report d = 2 * (sum(multiset) - Z).

A random state is m distinct uniformly random bitstrings.  The (n, m)
histogram of every corpus is fixed by its size; the seed only picks the rows
and columns, so corpora of different seeds cost about the same to analyze.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

# States per qubit count (for `analyze`, that many constructed and as many
# random) and the base sizes n0 cycled through for constructed states.  The
# analyze counts put the median job inside the n = 10 group and the 90th
# percentile inside the n = 11 group, so neither sits on a gap between groups.
ANALYZE_SIZES = {
    "full": {"per_n": {8: 8, 9: 12, 10: 18, 11: 12}, "base_qubits": (3, 4, 5, 6, 7)},
    "tiny": {"per_n": {5: 2, 6: 2}, "base_qubits": (3, 4)},
}
VERIFY_SIZES = {
    "full": {"per_n": {n: 15 for n in range(14, 21)}, "base_qubits": (3, 4, 5, 6, 7)},
    "tiny": {"per_n": {6: 2, 7: 2, 8: 2}, "base_qubits": (3, 4)},
}
# Random analyze states have n-3 .. n+2 terms, never more than MAX_TERMS.
MAX_TERMS = 14
BASE_BATCH = 4096


@dataclass(frozen=True)
class CorpusState:
    """One generated state; `multiset` and `z` are set for constructed states."""

    name: str
    n: int
    bits: tuple[str, ...]
    kind: str
    kernel_dim: int
    multiset: Optional[tuple[int, ...]] = None
    z: Optional[int] = None

    @property
    def m(self) -> int:
        return len(self.bits)

    @property
    def denominator(self) -> int:
        """chi_min = pi / denominator for a constructed state."""
        return sum(self.multiset) - self.z

    def rows(self) -> list[list[int]]:
        return _rows(self.bits)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "terms": [{"bits": b} for b in self.bits]}) + "\n"


def _rows(bits: Sequence[str]) -> list[list[int]]:
    """Weight rows, bit 1 -> +1 and bit 0 -> -1."""
    return [[1 if ch == "1" else -1 for ch in b] for b in bits]


def left_kernel(rows: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Rational basis of {c : sum_j c_j * rows[j] = 0} (Gauss-Jordan on the transpose)."""
    m, n = len(rows), len(rows[0])
    a = [[Fraction(rows[j][k]) for j in range(m)] for k in range(n)]
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(n):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        vec = [Fraction(0)] * m
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][free]
        basis.append(vec)
    return basis


def _primitive_positive(vec: Sequence[Fraction]) -> Optional[tuple[int, ...]]:
    """The primitive integer multiple of `vec` if all its entries share one strict sign."""
    if all(x > 0 for x in vec):
        pass
    elif all(x < 0 for x in vec):
        vec = [-x for x in vec]
    else:
        return None
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _random_bits(rng: random.Random, n: int, m: int) -> list[str]:
    rows: list[str] = []
    seen = set()
    while len(rows) < m:
        b = format(rng.getrandbits(n), f"0{n}b")
        if b not in seen:
            seen.add(b)
            rows.append(b)
    return rows


def _maximal_length_bases(rng: random.Random, n0: int, count: int) -> list:
    """`count` supports (repeats allowed) of n0 + 1 rows, all-ones first, with a
    one-dimensional all-positive left kernel, as (rows, c, multiset, Z).

    Candidates are screened in batches by float minors (exact after rounding:
    |det| <= 7^3.5 for n0 <= 7), then confirmed by `left_kernel`.
    """
    ones = (1,) * n0
    others = np.array([r for r in product((1, -1), repeat=n0) if r != ones])
    signs = np.array([(-1) ** j for j in range(n0 + 1)])
    gen = np.random.default_rng(rng.getrandbits(64))
    found: list = []
    while len(found) < count:
        picks = np.argsort(gen.random((BASE_BATCH, len(others))), axis=1)[:, :n0]
        batch = np.concatenate([np.ones((BASE_BATCH, 1, n0)), others[picks]], axis=1)
        minors = np.stack(
            [np.linalg.det(np.delete(batch, j, axis=1)) for j in range(n0 + 1)], axis=1
        )
        minors = np.rint(minors) * signs
        hits = np.all(minors > 0, axis=1) | np.all(minors < 0, axis=1)
        for k in np.flatnonzero(hits)[: count - len(found)]:
            rows = [ones] + [tuple(int(x) for x in others[i]) for i in sorted(picks[k])]
            basis = left_kernel(rows)
            c = _primitive_positive(basis[0]) if len(basis) == 1 else None
            if c is None:
                raise AssertionError("float screen disagrees with exact kernel")
            rest = sorted(c, reverse=True)
            multiset = tuple(rest[1:])
            found.append((rows, c, multiset, (sum(multiset) - rest[0]) // 2))
    return found


def _telescoped(rng: random.Random, name: str, base, n: int) -> CorpusState:
    rows, c, multiset, z = base
    m, n0 = len(rows), len(rows[0])
    orthogonal = [
        col for col in product((1, -1), repeat=m) if sum(ci * x for ci, x in zip(c, col)) == 0
    ]
    columns = [[row[k] for row in rows] for k in range(n0)]
    columns += [list(rng.choice(orthogonal)) for _ in range(n - n0)]
    rng.shuffle(columns)
    order = list(range(m))
    rng.shuffle(order)
    bits = tuple("".join("1" if col[j] == 1 else "0" for col in columns) for j in order)
    return CorpusState(name, n, bits, "constructed", 1, multiset, z)


def _constructed(rng: random.Random, prefix: str, per_n: dict, base_qubits) -> list:
    """Telescoped states, `per_n[n]` for each qubit count n, base sizes cycled."""
    need = Counter(base_qubits[i % len(base_qubits)] for k in per_n.values() for i in range(k))
    pools = {n0: _maximal_length_bases(rng, n0, k) for n0, k in sorted(need.items())}
    out = []
    for n, count in per_n.items():
        for i in range(count):
            base = pools[base_qubits[i % len(base_qubits)]].pop()
            out.append(_telescoped(rng, f"{prefix}{n}c{i}", base, n))
    return out


def random_state(rng: random.Random, name: str, n: int, m: int) -> CorpusState:
    bits = tuple(_random_bits(rng, n, m))
    return CorpusState(name, n, bits, "random", len(left_kernel(_rows(bits))))


def analyze_corpus(seed: int, size: str) -> list[CorpusState]:
    spec = ANALYZE_SIZES[size]
    rng = random.Random(f"analyze:{seed}")
    out = _constructed(rng, "a", spec["per_n"], spec["base_qubits"])
    for n, count in spec["per_n"].items():
        terms = list(range(n - 3, min(n + 2, MAX_TERMS) + 1))
        for i in range(count):
            out.append(random_state(rng, f"a{n}r{i}", n, terms[i % len(terms)]))
    return out


def verify_corpus(seed: int, size: str) -> list[CorpusState]:
    spec = VERIFY_SIZES[size]
    rng = random.Random(f"verify:{seed}")
    return _constructed(rng, "v", spec["per_n"], spec["base_qubits"])


def write_corpus(corpus: Sequence[CorpusState], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for state in corpus:
        path = os.path.join(directory, state.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(state.to_json())
        paths.append(path)
    return paths


def describe(corpus: Sequence[CorpusState]) -> dict:
    """Corpus properties reported with the results."""
    hist = Counter((s.n, s.m) for s in corpus)
    return {
        "states": len(corpus),
        "constructed": sum(s.kind == "constructed" for s in corpus),
        "nm_histogram": {f"{n},{m}": k for (n, m), k in sorted(hist.items())},
        "kernel_dim_gt1_share": sum(s.kernel_dim > 1 for s in corpus) / len(corpus),
    }
