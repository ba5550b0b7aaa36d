"""Orthonormal polynomial bases, truncated multiplication operators, the
Christoffel-Darboux kernel, and the Christoffel function for the built-in
reference measures.

Both built-in measures are products of univariate measures, so the basis is
the tensor product of univariate orthonormal families: T_alpha(x) is the
product over the axes k of p_k[alpha_k](x_k).  Each family is described
only by the measure's ``recurrence(t)`` coefficients (a_j, b_j), and T is
read by running them on values at points (``_axis_tables``), at any degree.
The integrals int f T_a T_b dmu are products of powers of the Jacobi
matrices (``multiplication``).  The same recurrence run on monomial
coefficient rows gives the change of basis D with sigma = D y, built only
when read and capped at DEFAULT_DEGREE_CAP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import ReferenceMeasure, jacobi_powers
from .polyring import MonomialBasis, Polynomial, enumerate_basis

DEFAULT_DEGREE_CAP = 8


class BasisConstructionError(RuntimeError):
    """Raised when an orthonormal basis cannot be built at the requested degree."""


@dataclass
class OrthoBasis:
    """The orthonormal polynomials T_alpha, |alpha| <= t, in ``basis`` order."""

    measure: ReferenceMeasure
    basis: MonomialBasis

    @functools.cached_property
    def D(self) -> np.ndarray:
        """Rows of D are the monomial coefficients of T_alpha; built when read."""
        if self.t > DEFAULT_DEGREE_CAP:
            raise BasisConstructionError(
                f"degree {self.t} exceeds cap {DEFAULT_DEGREE_CAP}; the monomial "
                "coefficients of T_alpha grow with the degree, so float64 "
                "evaluation loses accuracy beyond this")
        return _tensor_basis(self.measure, self.basis)

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
        tables = _axis_tables(self.measure, self.t, np.ones(x.shape[:-1]),
                              lambda k, p: x[..., k] * p)
        V = tables[0][E[:, 0]]
        for k in range(1, self.n):
            V *= tables[k][E[:, k]]
        # one row per point, contiguous for the callers' row-wise products
        return np.ascontiguousarray(np.moveaxis(V, 0, -1))


def _recurrence(measure: ReferenceMeasure, t: int):
    """The measure's ``recurrence(t)``, once every axis is known to carry
    p_0..p_t: a_j = 0 ends an axis's family at degree j - 1."""
    rec = measure.recurrence(t)
    for k, (a, _) in enumerate(rec):
        if 0.0 in a[1:]:
            j = list(a[1:]).index(0.0) + 1
            raise BasisConstructionError(
                f"Gram matrix singular at degree {j}: the support of the "
                f"measure has only {j} points on axis {k + 1}")
    return rec


def _axis_tables(measure: ReferenceMeasure, t: int, first: np.ndarray,
                 times_x) -> list[np.ndarray]:
    """Per axis k, the (t+1,) + first.shape table of p_k[0..t]: from p_{-1} = 0
    and p_0 = first, p_{j+1} = (x p_j - b_j p_j - a_j p_{j-1}) / a_{j+1} with the
    measure's ``recurrence(t)``, where times_x(k, p) is the product x_k p."""
    tables = []
    for k, (a, b) in enumerate(_recurrence(measure, t)):
        P = np.zeros((t + 2,) + first.shape)   # P[j + 1] holds p_j
        P[1] = first
        for j in range(t):
            P[j + 2] = (times_x(k, P[j + 1]) - b[j] * P[j + 1] - a[j] * P[j]) / a[j + 1]
        tables.append(P[1:])
    return tables


def _tensor_basis(measure: ReferenceMeasure, basis: MonomialBasis) -> np.ndarray:
    """D[alpha, beta] = prod_k uni_k[alpha_k, beta_k] where beta <= alpha
    componentwise, and 0.0 elsewhere; row j of uni_k holds the monomial
    coefficients of p_k[j], so x_k p is a shift of p's row."""
    t = basis.t
    uni = _axis_tables(measure, t, np.eye(1, t + 1)[0],
                       lambda k, p: np.concatenate(([0.0], p[:-1])))
    E = basis.array
    D = np.ones((len(basis), len(basis)))
    for k in range(basis.n):
        D *= uni[k][E[:, None, k], E[None, :, k]]
    below = (E[None, :, :] <= E[:, None, :]).all(axis=2)
    return np.where(below, D, 0.0)


def build_basis(measure: ReferenceMeasure, t: int) -> OrthoBasis:
    """Orthonormal basis up to degree t; the support must carry p_t on each axis."""
    if t < 0:
        raise ValueError(f"degree bound must be >= 0, got {t}")
    _recurrence(measure, t)
    return OrthoBasis(measure, enumerate_basis(measure.n, t))


def multiplication(measure: ReferenceMeasure, f: Polynomial, t: int) -> np.ndarray:
    """A[a, b] = int f T_a T_b dmu = sum_alpha f_alpha prod_k (J_k^alpha_k)[a_k, b_k]
    over |a|, |b| <= t: f's multiplication operator truncated to degree t.
    Jacobi matrices of side t + deg f // 2 + 1 make every entry exact."""
    _recurrence(measure, t)
    E = enumerate_basis(measure.n, t).array
    alphas = np.array(list(f.terms), dtype=np.intp).reshape(-1, measure.n)
    A = np.ones((len(alphas), len(E), len(E)))
    for k, P in enumerate(jacobi_powers(measure, t + f.degree // 2 + 1, f.degree)):
        A *= P[alphas[:, k, None, None], E[None, :, k, None], E[None, None, :, k]]
    return np.tensordot(np.fromiter(f.terms.values(), float, len(alphas)), A, axes=1)


def cd_kernel(B: OrthoBasis, x: Sequence[float], y: Sequence[float]) -> float:
    """K_t(x, y) = sum_{|alpha| <= t} T_alpha(x) T_alpha(y)."""
    return float(B.eval_all(x) @ B.eval_all(y))


def reproduce(B: OrthoBasis, p: Polynomial, x: Sequence[float]) -> float:
    """int p(y) K_t(x, y) dmu(y); equals p(x).  Column 0 of the multiplication
    operator is (int p T_alpha dmu)_alpha, as T_0 = 1."""
    if p.n != B.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {B.n}")
    if p.degree > B.t:
        raise ValueError(f"degree {p.degree} exceeds kernel degree {B.t}")
    return float(B.eval_all(x) @ multiplication(B.measure, p, B.t)[:, 0])


def christoffel(B: OrthoBasis, x: Sequence[float]) -> float:
    """The Christoffel function 1 / K_t(x, x); in (0, 1] under probability mu."""
    T = B.eval_all(x)
    return 1.0 / float(T @ T)
