"""Shared test oracles: tensor-product Gauss-Legendre quadrature, the
Cholesky-of-Gram orthonormal basis, the monomial coefficients of the
orthonormal polynomials from their recurrences run on coefficient rows, the
orthonormal polynomials, their values and their expansions through these
coefficients, the SOS multipliers expanded as polynomials, the per-row
density table formatter, the localizing matrix summed one index table per
term, the upper bound as the smallest eigenvalue of the monomial moment
pencil, the moments of a Dirac measure, and helpers, among them the
benchmark's box_deep problem file.

The oracles live here, not in the library: the package only ever uses the
recurrence coefficients of each measure, and the tests check what it derives
from them against numerical integration, a Gram-matrix factorization and
the monomial moment matrices, computed by independent routes.
"""

import functools
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from cdmos.measures import MomentSequence, moments
from cdmos.momentmat import localizing_matrix, moment_matrix
from cdmos.polyring import (Polynomial, coeff_vector, enumerate_basis,
                            monomial_values)
from cdmos.sdp import gen_eig_min


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


def dirac_moments(x, t):
    """Moments of the Dirac measure at x: y_alpha = x^alpha."""
    basis = enumerate_basis(len(x), t)
    return MomentSequence(monomial_values(basis, x), basis)


def make_moment_sequence(n, t, values):
    """A moment sequence of order t in n variables holding the given values."""
    return MomentSequence(np.asarray(values, dtype=float), enumerate_basis(n, t))


def moment_value(y, alpha):
    """The entry y_alpha of a moment sequence, looked up by its exponent."""
    return float(y.values[y.basis.position(alpha)])


def vector_to_poly(v, basis):
    """The polynomial with coefficient vector v over a monomial basis: the
    inverse of ``coeff_vector``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (len(basis),):
        raise ValueError(f"vector length {v.shape} != basis size {len(basis)}")
    return Polynomial(basis.n, {a: v[i] for i, a in enumerate(basis)})


def tensor_basis(measure, basis):
    """D[alpha, beta] = prod_k uni_k[alpha_k, beta_k] where beta <= alpha
    componentwise, and 0.0 elsewhere: row alpha holds the monomial
    coefficients of T_alpha.  Row j of uni_k holds those of p_k[j], run on
    the measure's recurrence, where x_k p is a shift of p's row."""
    t = basis.t
    E = basis.array
    D = np.ones((len(basis), len(basis)))
    for k, (a, b) in enumerate(measure.recurrence(t)):
        uni = np.zeros((t + 2, t + 1))   # uni[j + 1] holds p_j's coefficients
        uni[1, 0] = 1.0
        for j in range(t):
            shifted = np.concatenate(([0.0], uni[j + 1, :-1]))
            uni[j + 2] = (shifted - b[j] * uni[j + 1] - a[j] * uni[j]) / a[j + 1]
        D *= uni[1:][E[:, None, k], E[None, :, k]]
    below = (E[None, :, :] <= E[:, None, :]).all(axis=2)
    return np.where(below, D, 0.0)


def ortho_expansion_poly(sigma, B):
    """The polynomial sum_alpha sigma_alpha T_alpha(x), in monomial
    coordinates: D' sigma."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (len(B.basis),):
        raise ValueError(f"coefficient length {sigma.shape} != basis size {len(B.basis)}")
    return vector_to_poly(tensor_basis(B.measure, B.basis).T @ sigma, B.basis)


def ortho_polynomial(B, alpha):
    """T_alpha of an orthonormal basis as a polynomial: row alpha of D."""
    return vector_to_poly(tensor_basis(B.measure, B.basis)[B.basis.position(alpha)],
                          B.basis)


def monomial_route_eval(B, x):
    """(T_alpha(x)) through the monomial coefficients: D v_t(x), for one point
    or row-wise for a (k, n) array of points."""
    return (tensor_basis(B.measure, B.basis) @ monomial_values(B.basis, x).T).T


def smoothed_objective(f, y_values, basis):
    """int f * (sum_alpha sigma_alpha T_alpha) dmu with sigma = L_y(T), the
    library's ``riesz``, computed with exact moments.

    Equals <f, y> by the change-of-basis identity; an independent cross-check
    of the density route.
    """
    prod = f * ortho_expansion_poly(basis.riesz(np.asarray(y_values, dtype=float)), basis)
    mom = moments(basis.measure, prod.degree)
    return float(coeff_vector(prod, mom.basis) @ mom.values)


def box_grid(lo, hi, k):
    """The (k^n, n) array of points of the regular k-per-axis grid on the box,
    built through meshgrid(indexing="ij")."""
    axes = [np.linspace(a, b, k) for a, b in zip(lo, hi)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def density_csv_per_row(points, sigma, kernel_diag):
    """The density table built one row dict at a time, each value through repr."""
    rows = [{"x": x, "sigma": s, "kernel_diag": k}
            for x, s, k in zip(points.tolist(), sigma.tolist(), kernel_diag.tolist())]
    n = points.shape[1]
    lines = [",".join([f"x{i+1}" for i in range(n)] + ["sigma", "kernel_diag"])]
    for r in rows:
        lines.append(",".join([repr(v) for v in r["x"]] +
                              [repr(r["sigma"]), repr(r["kernel_diag"])]))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def sum_table(n, t, s, gamma):
    """idx[a, b] = the position of alpha_a + alpha_b + gamma (|alpha| <= s),
    looked up in the enumeration of the degree-t basis."""
    position = {alpha: i for i, alpha in enumerate(enumerate_basis(n, t))}
    alphas = list(enumerate_basis(n, s))
    idx = np.array([[position[tuple(p + q + r for p, q, r in zip(a, b, gamma))]
                     for b in alphas] for a in alphas])
    idx.flags.writeable = False     # one cached table serves every caller
    return idx


def localizing_matrix_per_term(y, g, s):
    """M_s(g y) summed term by term: sum_gamma g_gamma * y[sum_table(gamma)],
    starting from zeros, in ``g.terms`` order with the constant term last."""
    m = len(enumerate_basis(y.n, s))
    M = np.zeros((m, m))
    constant = (0,) * g.n
    for gamma, c in sorted(g.terms.items(), key=lambda term: term[0] == constant):
        M += c * y.values[sum_table(y.n, y.t, s, gamma)]
    return M


def pencil_upper_bound(f, measure, t):
    """u_t as the smallest eigenvalue of the monomial pencil
    (M_t(f y_mu), M_t(y_mu)), built from the exact moments of mu."""
    y = moments(measure, 2 * t + f.degree)
    return gen_eig_min(localizing_matrix(y, f, t), moment_matrix(y, t))[0]


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
                e = tuple(basis.array[a] + basis.array[b])
                psi = psi + Polynomial.monomial(g.n, e, Q[a, b])
    return psi


def box_deep_problem(variant):
    """The benchmark's box_deep problem file (n = 2, degree 6, orders 3..6)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.box_deep(variant).text()


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
