"""Shared test oracles: tensor-product Gauss-Legendre quadrature, the
Cholesky-of-Gram orthonormal basis, the SOS multipliers expanded as
polynomials, and helpers.

The oracles live here, not in the library: the package only ever uses
closed-form moments and tensorized recurrences, and the tests check those
against numerical integration and a Gram-matrix factorization computed by
independent routes.
"""

import itertools

import numpy as np
import pytest

from cdmos.measures import MomentSequence, moments
from cdmos.momentmat import moment_matrix
from cdmos.polyring import Polynomial, enumerate_basis


def box_quadrature(func, lo, hi, points=40):
    """Integral of func over the box [lo, hi] against the uniform probability
    measure, via tensor-product Gauss-Legendre (exact for degree < 2*points)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    nodes, weights = np.polynomial.legendre.leggauss(points)
    axes_x = [0.5 * (b - a) * nodes + 0.5 * (a + b) for a, b in zip(lo, hi)]
    # weights normalized so the box has total mass 1
    axes_w = [weights / 2.0 for _ in lo]
    total = 0.0
    for idx in itertools.product(*(range(points) for _ in lo)):
        x = tuple(axes_x[i][k] for i, k in enumerate(idx))
        w = 1.0
        for i, k in enumerate(idx):
            w *= axes_w[i][k]
        total += w * func(x)
    return total


def make_moment_sequence(n, t, values):
    """A moment sequence of order t in n variables holding the given values."""
    return MomentSequence(np.asarray(values, dtype=float), enumerate_basis(n, t))


def gram_matrix(measure, t):
    """G(alpha, beta) = int x^(alpha+beta) dmu, indices over N^n_t."""
    return moment_matrix(moments(measure, 2 * t), t)


def cholesky_basis(measure, t):
    """Change-of-basis matrix D = L^{-1} for the Gram matrix G = L L': lower
    triangular with positive diagonal and D G D' = I."""
    L = np.linalg.cholesky(gram_matrix(measure, t))
    return np.linalg.solve(L, np.eye(len(L)))


def multiplier_poly(cert, j):
    """The SOS multiplier psi_j = v_s' Q_j v_s of a certificate, expanded one
    Gram entry at a time into a polynomial."""
    g, s, Q = cert.multipliers[j]
    basis = enumerate_basis(g.n, s)
    psi = Polynomial.zero(g.n)
    for a in range(len(basis)):
        for b in range(len(basis)):
            if Q[a, b] != 0.0:
                e = tuple(x + z for x, z in zip(basis.exponents[a], basis.exponents[b]))
                psi = psi + Polynomial.monomial(g.n, e, Q[a, b])
    return psi


def random_polynomial(rng, n, degree, density=0.7):
    """Random sparse polynomial with coefficients in [-1, 1]."""
    terms = {}
    for alpha in itertools.product(range(degree + 1), repeat=n):
        if sum(alpha) > degree:
            continue
        if rng.random() < density:
            terms[alpha] = rng.uniform(-1.0, 1.0)
    if not terms:
        terms[(0,) * n] = rng.uniform(-1.0, 1.0)
    return Polynomial(n, terms)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
