"""The built-in reference measures, each described once by the recurrence
coefficients of its orthonormal polynomials, and the moments derived from them.

Two kinds are supported: the uniform probability measure on an axis-aligned
box, and the normalized counting measure on the discrete hypercube {-1,1}^n.
Both factor across coordinates.  Each axis's orthonormal family p_0 = 1, p_1,
... satisfies x p_j = a_j p_{j-1} + b_j p_j + a_{j+1} p_{j+1}; ``recurrence(t)``
returns a_0..a_t (a_0 = 0) and b_0..b_t per axis.  The Jacobi matrix J (b on
its diagonal, a_1, a_2, ... beside it) gives (J^j)[a, b] = int x^j p_a p_b dmu,
so every moment is a product of entries (J^j)[0, 0], with no integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .polyring import MonomialBasis, enumerate_basis


@dataclass(frozen=True)
class UniformBox:
    """Uniform probability measure on the box [lo_1,hi_1] x ... x [lo_n,hi_n]."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be non-empty and of equal length")
        # the recurrence takes (lo + hi)/2 and (hi - lo)/2, so both must be finite
        if not all(0 < b - a < math.inf and math.isfinite(a + b) for a, b in zip(lo, hi)):
            raise ValueError("box bounds must satisfy lo < hi componentwise, "
                             "with lo + hi and hi - lo finite")

    @property
    def n(self) -> int:
        return len(self.lo)

    def recurrence(self, t: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Shifted Legendre: b_j = (lo+hi)/2, a_j = (hi-lo)/2 * j/sqrt(4j^2-1)."""
        j = np.arange(1, t + 1)
        s = np.concatenate(([0.0], j / np.sqrt(4.0 * j * j - 1.0)))
        return [(0.5 * (hi - lo) * s, np.full(t + 1, 0.5 * (lo + hi)))
                for lo, hi in zip(self.lo, self.hi)]


@dataclass(frozen=True)
class CountingHypercube:
    """Normalized counting (probability) measure on {-1, 1}^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    def recurrence(self, t: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """b = 0 and a_1 = 1; a_2 = 0, as x^2 == 1 on {-1, 1} leaves no p_2."""
        a = np.zeros(t + 1)
        a[1:2] = 1.0
        return [(a, np.zeros(t + 1))] * self.n


ReferenceMeasure = Union[UniformBox, CountingHypercube]


@dataclass
class MomentSequence:
    """Truncated moment sequence y_alpha, |alpha| <= t, graded-lex ordered."""

    values: np.ndarray
    basis: MonomialBasis

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.basis),):
            raise ValueError(
                f"moment vector length {self.values.shape} != basis size {len(self.basis)}")

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def t(self) -> int:
        return self.basis.t


def jacobi_powers(measure: ReferenceMeasure, m: int, p: int) -> List[np.ndarray]:
    """Per axis k, the (p+1, m, m) array J_k^0..J_k^p of the side-m Jacobi
    matrix, so (J_k^j)[a, b] = int x_k^j p_a p_b dmu_k wherever a + b + j
    < 2m: no walk of j steps from a to b then leaves the leading m x m block.
    """
    out = []
    for a, b in measure.recurrence(m - 1):
        J = np.diag(b) + np.diag(a[1:], 1) + np.diag(a[1:], -1)
        P = np.empty((p + 1, m, m))
        P[0] = np.eye(m)
        for j in range(p):
            P[j + 1] = P[j] @ J
        out.append(P)
    return out


def moments(measure: ReferenceMeasure, t: int) -> MomentSequence:
    """Exact moments y_alpha = int x^alpha dmu = prod_k (J_k^alpha_k)[0, 0]
    for all |alpha| <= t."""
    if t < 0:
        raise ValueError(f"degree bound must be >= 0, got {t}")
    basis = enumerate_basis(measure.n, t)
    values = np.ones(len(basis))
    for k, P in enumerate(jacobi_powers(measure, t // 2 + 1, t)):
        values *= P[:, 0, 0][basis.array[:, k]]
    return MomentSequence(values, basis)
