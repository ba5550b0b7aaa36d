"""Orthonormal polynomial bases, truncated multiplication operators, the
Christoffel-Darboux kernel, and the Christoffel function for the built-in
reference measures.

Both built-in measures are products of univariate measures, so the basis is
the tensor product of univariate orthonormal families: T_alpha(x) is the
product over the axes k of p_k[alpha_k](x_k).  Each family is described
only by the measure's ``recurrence(t)`` coefficients (a_j, b_j), and T is
read by running them on values at points (``_axis_table``), at any degree.
The integrals int f T_a T_b dmu are products of powers of the Jacobi
matrices (``multiplication``).  The same recurrence run on a moment vector
gives sigma_alpha = L_y(T_alpha) (``OrthoBasis.riesz``), at any degree too;
run on the unit moment vectors it gives T's monomial coefficients.  Every
readout takes an ``OrthoBasis``, which checks on construction that the
measure's support carries the family up to its degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import ReferenceMeasure, jacobi_powers
from .polyring import MonomialBasis, Polynomial, _grlex_rank, enumerate_basis


class BasisConstructionError(RuntimeError):
    """Raised when an orthonormal basis cannot be built at the requested degree."""


@dataclass
class OrthoBasis:
    """The orthonormal polynomials T_alpha, |alpha| <= t, in ``basis`` order.

    Built only when the measure's support carries p_0..p_t on each axis:
    a_j = 0 in its ``recurrence(t)`` ends that axis's family at degree j - 1.
    """

    measure: ReferenceMeasure
    basis: MonomialBasis

    def __post_init__(self):
        if self.measure.n != self.n:
            raise ValueError(f"measure dimension {self.measure.n} does not match "
                             f"basis dimension {self.n}")
        for k, (a, _) in enumerate(self.measure.recurrence(self.t)):
            if 0.0 in a[1:]:
                j = list(a[1:]).index(0.0) + 1
                raise BasisConstructionError(
                    f"Gram matrix singular at degree {j}: the support of the "
                    f"measure has only {j} points on axis {k + 1}")

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
        rows alpha_k.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"points of shape {x.shape} do not match basis dimension {self.n}")
        E = self.basis.array
        V = np.ones(x.shape[:-1] + (len(E),))
        for k, ab in enumerate(self.measure.recurrence(self.t)):
            P = _axis_table(ab, self.t, np.ones(x.shape[:-1]), lambda p: x[..., k] * p)
            # one row per point: (p_j at the point)_j, gathered into rows alpha_k
            V *= np.take(P.T, E[:, k], axis=-1)
        return V

    def riesz(self, y) -> np.ndarray:
        """(L_y(T_alpha))_alpha over the graded-lex basis for the moments
        y_beta = L_y(x^beta) in basis order; for an (N, ...) stack of moment
        vectors, the (N, ...) stack of these vectors.

        Axis by axis, x_k^j becomes p_k[j](x_k): the functionals p_j(x_k) L
        follow the three-term recurrence, x_k L having L's moments shifted by
        e_k.  That of p_j(x_k) L is read only at degrees <= t - j, so the
        moments past degree t are never read, and are taken as 0.  A Dirac at
        xi gives T(xi); y = I gives T's monomial coefficients, row by row.
        """
        y = np.asarray(y, dtype=float)
        E, N, t = self.basis.array, len(self.basis), self.t
        if y.shape[:1] != (N,):
            raise ValueError(f"moments of shape {y.shape} do not match basis size {N}")
        # row N stands for every moment past degree t and stays 0
        V = np.concatenate([y, np.zeros((1,) + y.shape[1:])])
        below_t = E.sum(axis=1) < t
        for k, ab in enumerate(self.measure.recurrence(t)):
            e_k = np.eye(self.n, dtype=np.intp)[k]
            up = np.append(np.where(below_t, _grlex_rank(E + e_k), N), N)
            P = _axis_table(ab, t, V, lambda p: p[up])
            # row beta is (p_{beta_k}(x_k) L)(x^beta / x_k^beta_k)
            V = P[np.append(E[:, k], 0), np.append(_grlex_rank(E - E[:, k, None] * e_k), N)]
        return V[:N]


def _axis_table(ab: tuple[np.ndarray, np.ndarray], t: int, first: np.ndarray,
                times_x) -> np.ndarray:
    """The (t+1,) + first.shape table of p[0..t] of one axis with recurrence
    coefficients ab = (a, b): from p_{-1} = 0 and p_0 = first,
    p_{j+1} = (x p_j - b_j p_j - a_j p_{j-1}) / a_{j+1}, where times_x(p) is
    the product x p."""
    a, b = ab
    P = np.zeros((t + 2,) + first.shape)   # P[j + 1] holds p_j
    P[1] = first
    for j in range(t):
        P[j + 2] = (times_x(P[j + 1]) - b[j] * P[j + 1] - a[j] * P[j]) / a[j + 1]
    return P[1:]


def build_basis(measure: ReferenceMeasure, t: int) -> OrthoBasis:
    """Orthonormal basis up to degree t >= 0; the support must carry p_t on each axis."""
    return OrthoBasis(measure, enumerate_basis(measure.n, t))


def multiplication(B: OrthoBasis, f: Polynomial) -> np.ndarray:
    """A[a, b] = int f T_a T_b dmu = sum_alpha f_alpha prod_k (J_k^alpha_k)[a_k, b_k]
    over the basis T_a, |a| <= t: f's multiplication operator truncated to
    degree t.  Jacobi matrices of side t + deg f // 2 + 1 make every entry exact."""
    E = B.basis.array
    alphas = np.array(list(f.terms), dtype=np.intp).reshape(-1, B.n)
    A = np.ones((len(alphas), len(E), len(E)))
    for k, P in enumerate(jacobi_powers(B.measure, B.t + f.degree // 2 + 1, f.degree)):
        # the powers' slabs on the basis once, then one slab per term
        A *= P[:, E[:, k, None], E[None, :, k]][alphas[:, k]]
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
    return float(B.eval_all(x) @ multiplication(B, p)[:, 0])


def christoffel(B: OrthoBasis, x: Sequence[float]) -> float:
    """The Christoffel function 1 / K_t(x, x); in (0, 1] under probability mu."""
    T = B.eval_all(x)
    return 1.0 / float(T @ T)
