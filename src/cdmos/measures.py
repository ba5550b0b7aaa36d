"""The built-in reference measures: closed-form moments and the recurrence
coefficients of their orthonormal polynomials.

Two kinds are supported: the uniform probability measure on an axis-aligned
box, and the normalized counting measure on the discrete hypercube {-1,1}^n.
Both factor across coordinates, so every moment is a product of univariate
closed forms; no numerical integration happens in the library.  Each axis's
orthonormal family p_0 = 1, p_1, ... is described once, by the coefficients
of its three-term recurrence x p_j = a_j p_{j-1} + b_j p_j + a_{j+1} p_{j+1},
which each measure's ``recurrence(t)`` returns as the arrays a_0..a_t (a_0 = 0)
and b_0..b_t per axis; the orthonormal basis is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .polyring import MonomialBasis, enumerate_basis, monomial_values


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
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box bounds must satisfy lo < hi componentwise")

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


def _box_univariate_moments(lo: float, hi: float, t: int) -> np.ndarray:
    """m_k = (1/(hi-lo)) * integral of x^k over [lo, hi], k = 0..t."""
    k = np.arange(t + 1)
    return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))


def _hypercube_univariate_moments(t: int) -> np.ndarray:
    m = np.zeros(t + 1)
    m[::2] = 1.0
    return m


def coordinate_moments(measure: ReferenceMeasure, t: int) -> list[np.ndarray]:
    """Per-coordinate univariate moment tables; y_alpha = prod_i m_i[alpha_i]."""
    if isinstance(measure, UniformBox):
        return [_box_univariate_moments(lo, hi, t) for lo, hi in zip(measure.lo, measure.hi)]
    if isinstance(measure, CountingHypercube):
        return [_hypercube_univariate_moments(t)] * measure.n
    raise ValueError(f"unsupported measure kind: {type(measure).__name__}")


def moments(measure: ReferenceMeasure, t: int) -> MomentSequence:
    """Exact moments y_alpha = int x^alpha dmu for all |alpha| <= t."""
    if t < 0:
        raise ValueError(f"degree bound must be >= 0, got {t}")
    n = measure.n
    uni = coordinate_moments(measure, t)
    basis = enumerate_basis(n, t)
    values = np.ones(len(basis))
    for j in range(n):
        values *= uni[j][basis.array[:, j]]
    return MomentSequence(values, basis)


def dirac_moments(x: Sequence[float], t: int) -> MomentSequence:
    """Moments of the Dirac measure at x: y_alpha = x^alpha."""
    basis = enumerate_basis(len(x), t)
    return MomentSequence(monomial_values(basis, x), basis)

