"""Orthonormal polynomial bases, the Christoffel-Darboux kernel, and the
Christoffel function for the built-in reference measures.

Two construction routes are provided and cross-validated in the tests:

* Cholesky of the Gram (moment) matrix: fully general but ill-conditioned at
  higher degree, since the Gram matrix is Hankel-like.
* Tensorized univariate three-term recurrences: stable, available for the
  built-in product measures only.

Both yield the unique lower-triangular change-of-basis matrix with positive
diagonal, so they agree whenever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import (CountingHypercube, MomentSequence, ReferenceMeasure,
                       UniformBox, moments)
from .momentmat import moment_matrix
from .polyring import (MonomialBasis, Polynomial, coeff_vector, enumerate_basis,
                       monomial_values, vector_to_poly)

DEFAULT_DEGREE_CAP = 8
GRAM_CONDITION_LIMIT = 1e12


class BasisConstructionError(RuntimeError):
    """Raised when an orthonormal basis cannot be built at the requested degree."""


@dataclass
class OrthoBasis:
    """Rows of D are the coefficients of T_alpha in the monomial basis."""

    measure: ReferenceMeasure
    t: int
    basis: MonomialBasis
    D: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.n

    def eval_all(self, x: Sequence[float]) -> np.ndarray:
        """Vector (T_alpha(x)) over the graded-lex basis."""
        return self.D @ monomial_values(self.basis, x)

    def ortho_polynomial(self, alpha) -> Polynomial:
        i = self.basis.position(alpha)
        return vector_to_poly(self.D[i], self.basis)


def gram_matrix(measure: ReferenceMeasure, t: int) -> np.ndarray:
    """G(alpha, beta) = int x^(alpha+beta) dmu, indices over N^n_t."""
    return moment_matrix(moments(measure, 2 * t), t).matrix


def _check_gram_conditioning(measure: ReferenceMeasure, t: int, G: np.ndarray) -> None:
    basis = enumerate_basis(measure.n, t)
    if np.linalg.cond(G) <= GRAM_CONDITION_LIMIT:
        return
    # locate the smallest degree whose principal block is already bad
    for s in range(t + 1):
        size = sum(1 for a in basis if sum(a) <= s)
        if np.linalg.cond(G[:size, :size]) > GRAM_CONDITION_LIMIT:
            raise BasisConstructionError(
                f"Gram matrix numerically singular at degree {s} "
                f"(measure {type(measure).__name__}, requested t={t})")
    raise BasisConstructionError(
        f"Gram matrix numerically singular at degree {t}")


def _cholesky_basis(measure: ReferenceMeasure, t: int) -> np.ndarray:
    G = gram_matrix(measure, t)
    _check_gram_conditioning(measure, t, G)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise BasisConstructionError(
            f"Gram matrix numerically singular at degree {t} "
            f"(measure {type(measure).__name__})")
    # D = L^{-1}: lower triangular with positive diagonal, D G D' = I
    return np.linalg.solve(L, np.eye(len(G)))


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


def _hypercube_univariate(t: int) -> np.ndarray:
    # On {-1,1} the monomials 1 and x are already orthonormal; x^2 == 1 on the
    # support, so degree >= 2 has a singular Gram matrix.
    if t >= 2:
        raise BasisConstructionError(
            "Gram matrix numerically singular at degree 2: x^2 == 1 on the "
            "support of the counting hypercube measure")
    T = np.eye(t + 1)
    return T


def _tensor_basis(measure: ReferenceMeasure, t: int) -> np.ndarray:
    if isinstance(measure, UniformBox):
        uni = [_legendre_univariate(lo, hi, t) for lo, hi in zip(measure.lo, measure.hi)]
    elif isinstance(measure, CountingHypercube):
        uni = [_hypercube_univariate(t)] * measure.n
    else:
        raise BasisConstructionError(
            f"no tensorized construction for measure kind {type(measure).__name__}")
    basis = enumerate_basis(measure.n, t)
    m = len(basis)
    D = np.zeros((m, m))
    for i, alpha in enumerate(basis):
        for j, beta in enumerate(basis):
            if any(b > a for a, b in zip(alpha, beta)):
                continue
            v = 1.0
            for k, (a, b) in enumerate(zip(alpha, beta)):
                v *= uni[k][a, b]
            D[i, j] = v
    return D


def build_basis(measure: ReferenceMeasure, t: int, method: str = "auto",
                degree_cap: int = DEFAULT_DEGREE_CAP) -> OrthoBasis:
    """Orthonormal basis up to degree t for the given reference measure.

    method: "auto" (tensorized when available), "tensor", or "cholesky".
    """
    if t < 0:
        raise ValueError(f"degree bound must be >= 0, got {t}")
    if t > degree_cap:
        raise BasisConstructionError(
            f"degree {t} exceeds cap {degree_cap}; float64 Cholesky degrades "
            "beyond this (raise degree_cap explicitly to override)")
    if method == "cholesky":
        D = _cholesky_basis(measure, t)
    elif method == "tensor":
        D = _tensor_basis(measure, t)
    elif method == "auto":
        if isinstance(measure, (UniformBox, CountingHypercube)):
            D = _tensor_basis(measure, t)
        else:
            D = _cholesky_basis(measure, t)
    else:
        raise ValueError(f"unknown construction method {method!r}")
    return OrthoBasis(measure, t, enumerate_basis(measure.n, t), D)


def to_ortho_coords(y: MomentSequence, B: OrthoBasis) -> np.ndarray:
    """sigma = D y; equals (int T_alpha dphi) when y are the moments of phi."""
    if y.n != B.n or y.t != B.t:
        raise ValueError(
            f"size mismatch: moments (n={y.n}, t={y.t}) vs basis (n={B.n}, t={B.t})")
    return B.D @ y.values


def from_ortho_coords(sigma: np.ndarray, B: OrthoBasis) -> np.ndarray:
    """Inverse of to_ortho_coords: recover the monomial-moment vector."""
    return np.linalg.solve(B.D, np.asarray(sigma, dtype=float))


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
    mom = moments(B.measure, B.t + p.degree)
    # s_alpha = int p T_alpha dmu = sum_beta D[alpha, beta] sum_gamma p_gamma y_{beta+gamma}
    s = np.empty(len(B.basis))
    for i, _ in enumerate(B.basis):
        acc = 0.0
        row = B.D[i]
        for j, beta in enumerate(B.basis):
            if row[j] == 0.0:
                continue
            inner = 0.0
            for gamma, c in p.terms.items():
                inner += c * mom.value(tuple(a + b for a, b in zip(beta, gamma)))
            acc += row[j] * inner
        s[i] = acc
    return float(B.eval_all(x) @ s)


def christoffel(B: OrthoBasis, x: Sequence[float]) -> float:
    """The Christoffel function 1 / K_t(x, x); in (0, 1] under probability mu."""
    return 1.0 / cd_kernel(B, x, x)
