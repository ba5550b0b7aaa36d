"""Orthonormal polynomial bases, the Christoffel-Darboux kernel, and the
Christoffel function for the built-in reference measures.

Both built-in measures are products of univariate measures, so the basis is
the tensor product of univariate orthonormal families, and T_alpha(x) is the
product over the axes k of p_k[alpha_k](x_k).  Evaluation runs on the
univariate three-term recurrences directly, one (t+1)-row table per axis.
The monomial coefficients of the family form the unique lower-triangular
change-of-basis matrix D with positive diagonal (the tests check it against
the Cholesky factor of the Gram matrix); D is what maps a moment vector y
to the coefficients sigma = D y, and evaluation does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import CountingHypercube, ReferenceMeasure, UniformBox, moments
from .momentmat import localizing_matrix
from .polyring import MonomialBasis, Polynomial, enumerate_basis, vector_to_poly

DEFAULT_DEGREE_CAP = 8


class BasisConstructionError(RuntimeError):
    """Raised when an orthonormal basis cannot be built at the requested degree."""


@dataclass
class OrthoBasis:
    """Rows of D are the coefficients of T_alpha in the monomial basis."""

    measure: ReferenceMeasure
    basis: MonomialBasis
    D: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def t(self) -> int:
        return self.basis.t

    def eval_all(self, x) -> np.ndarray:
        """Vector (T_alpha(x)) over the graded-lex basis; for a (k, n) array of
        points, the (k, m) array of these vectors.

        Each axis's univariate family is tabulated at the points by its
        three-term recurrence, and T_alpha is the product of the tables'
        rows alpha_k; the monomial coefficients in D are not used.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"points of shape {x.shape} do not match basis dimension {self.n}")
        E = self.basis.array
        tables = _univariate_values(self.measure, x, self.t)
        V = tables[0][E[:, 0]]
        for k in range(1, self.n):
            V *= tables[k][E[:, k]]
        # one row per point, contiguous for the callers' row-wise products
        return np.ascontiguousarray(np.moveaxis(V, 0, -1))


def _legendre_univariate(lo: float, hi: float, t: int) -> np.ndarray:
    """Coefficients (rows) of shifted orthonormal Legendre polynomials.

    T_k(x) = sqrt(2k+1) P_k(u) with u = (2x - lo - hi)/(hi - lo); orthonormal
    for the uniform probability measure on [lo, hi].
    """
    c0 = -(lo + hi) / (hi - lo)
    c1 = 2.0 / (hi - lo)
    P = np.zeros((t + 1, t + 1))
    P[0, 0] = 1.0
    if t >= 1:
        P[1, 0] = c0
        P[1, 1] = c1
    for k in range(1, t):
        # (k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}
        uP = c0 * P[k] + c1 * np.roll(P[k], 1)
        uP[0] = c0 * P[k, 0]
        P[k + 1] = ((2 * k + 1) * uP - k * P[k - 1]) / (k + 1)
    scale = np.sqrt(2 * np.arange(t + 1) + 1)
    return scale[:, None] * P


def _legendre_values(lo: float, hi: float, x: np.ndarray, t: int) -> np.ndarray:
    """The (t+1,) + x.shape table of T_0..T_t of `_legendre_univariate` at x,
    by the same recurrence on values instead of coefficients."""
    u = (2 * x - lo - hi) / (hi - lo)
    P = np.empty((t + 1,) + x.shape)
    P[0] = 1.0
    if t >= 1:
        P[1] = u
    for k in range(1, t):
        P[k + 1] = ((2 * k + 1) * u * P[k] - k * P[k - 1]) / (k + 1)
    P *= np.sqrt(2 * np.arange(t + 1) + 1).reshape((t + 1,) + (1,) * x.ndim)
    return P


def _hypercube_univariate(t: int) -> np.ndarray:
    # On {-1,1} the monomials 1 and x are already orthonormal; x^2 == 1 on the
    # support, so degree >= 2 has a singular Gram matrix.
    if t >= 2:
        raise BasisConstructionError(
            "Gram matrix numerically singular at degree 2: x^2 == 1 on the "
            "support of the counting hypercube measure")
    T = np.eye(t + 1)
    return T


def _univariate_values(measure: ReferenceMeasure, x: np.ndarray,
                       t: int) -> list[np.ndarray]:
    """Per axis k, the (t+1,) + x.shape[:-1] table of p_k[0..t] at x[..., k]."""
    if isinstance(measure, UniformBox):
        return [_legendre_values(lo, hi, x[..., k], t)
                for k, (lo, hi) in enumerate(zip(measure.lo, measure.hi))]
    if isinstance(measure, CountingHypercube):
        # the family 1, x of _hypercube_univariate
        return [np.stack([np.ones_like(x[..., k]), x[..., k]])[:t + 1]
                for k in range(measure.n)]
    raise BasisConstructionError(
        f"no tensorized construction for measure kind {type(measure).__name__}")


def _tensor_basis(measure: ReferenceMeasure, basis: MonomialBasis) -> np.ndarray:
    """D[alpha, beta] = prod_k uni_k[alpha_k, beta_k] where beta <= alpha
    componentwise, and 0.0 elsewhere."""
    t = basis.t
    if isinstance(measure, UniformBox):
        uni = [_legendre_univariate(lo, hi, t) for lo, hi in zip(measure.lo, measure.hi)]
    elif isinstance(measure, CountingHypercube):
        uni = [_hypercube_univariate(t)] * measure.n
    else:
        raise BasisConstructionError(
            f"no tensorized construction for measure kind {type(measure).__name__}")
    E = basis.array
    D = np.ones((len(basis), len(basis)))
    for k in range(basis.n):
        D *= uni[k][E[:, None, k], E[None, :, k]]
    below = (E[None, :, :] <= E[:, None, :]).all(axis=2)
    return np.where(below, D, 0.0)


def build_basis(measure: ReferenceMeasure, t: int) -> OrthoBasis:
    """Orthonormal basis up to degree t for the given reference measure."""
    if t < 0:
        raise ValueError(f"degree bound must be >= 0, got {t}")
    if t > DEFAULT_DEGREE_CAP:
        raise BasisConstructionError(
            f"degree {t} exceeds cap {DEFAULT_DEGREE_CAP}; the monomial "
            "coefficients of T_alpha grow with the degree, so float64 "
            "evaluation loses accuracy beyond this")
    basis = enumerate_basis(measure.n, t)
    return OrthoBasis(measure, basis, _tensor_basis(measure, basis))


def ortho_expansion_poly(sigma: np.ndarray, B: OrthoBasis) -> Polynomial:
    """The polynomial sum_alpha sigma_alpha T_alpha(x), in monomial coordinates."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (len(B.basis),):
        raise ValueError(f"coefficient length {sigma.shape} != basis size {len(B.basis)}")
    return vector_to_poly(B.D.T @ sigma, B.basis)


def cd_kernel(B: OrthoBasis, x: Sequence[float], y: Sequence[float]) -> float:
    """K_t(x, y) = sum_{|alpha| <= t} T_alpha(x) T_alpha(y)."""
    return float(B.eval_all(x) @ B.eval_all(y))


def reproduce(B: OrthoBasis, p: Polynomial, x: Sequence[float]) -> float:
    """int p(y) K_t(x, y) dmu(y), evaluated with exact moments; equals p(x)."""
    if p.n != B.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {B.n}")
    if p.degree > B.t:
        raise ValueError(f"degree {p.degree} exceeds kernel degree {B.t}")
    # Column 0 of M_t(p y) is (int p x^beta dmu)_beta, so D times it is
    # (int p T_alpha dmu)_alpha.
    py = localizing_matrix(moments(B.measure, 2 * B.t + p.degree), p, B.t)[:, 0]
    return float(B.eval_all(x) @ B.D @ py)


def christoffel(B: OrthoBasis, x: Sequence[float]) -> float:
    """The Christoffel function 1 / K_t(x, x); in (0, 1] under probability mu."""
    T = B.eval_all(x)
    return 1.0 / float(T @ T)
