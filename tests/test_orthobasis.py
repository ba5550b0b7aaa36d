import itertools

import numpy as np
import pytest
from conftest import (box_quadrature, cholesky_basis, dirac_moments, gram_matrix,
                      monomial_route_eval, ortho_expansion_poly, ortho_polynomial,
                      random_polynomial, tensor_basis)

from cdmos.measures import CountingHypercube, UniformBox, moments
from cdmos.orthobasis import (BasisConstructionError, OrthoBasis, build_basis,
                              cd_kernel, christoffel, reproduce)
from cdmos.polyring import Polynomial, enumerate_basis

UNIT = UniformBox((-1.0,), (1.0,))


class TestBuildBasis:
    def test_unit_interval_degree_one(self):
        B = build_basis(UNIT, 1)
        T0 = ortho_polynomial(B, (0,))
        T1 = ortho_polynomial(B, (1,))
        assert T0 == Polynomial.constant(1, 1.0)
        # quadrature oracle: mean zero, unit norm
        assert box_quadrature(lambda x: T1(x), [-1], [1]) == pytest.approx(0, abs=1e-12)
        assert box_quadrature(lambda x: T1(x) ** 2, [-1], [1]) == pytest.approx(1, abs=1e-10)
        assert T1.terms[(1,)] == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_unit_interval_degree_two_matches_gram_schmidt(self):
        # independent Gram-Schmidt oracle on {1, x, x^2} via quadrature
        inner = lambda p, q: box_quadrature(lambda x: p(x) * q(x), [-1], [1])
        basis = [lambda x: 1.0, lambda x: x[0], lambda x: x[0] ** 2]
        ortho = []
        for f in basis:
            g = f
            for h in ortho:
                c = inner(g, h)
                g = (lambda x, g=g, h=h, c=c: g(x) - c * h(x))
            nrm = np.sqrt(inner(g, g))
            ortho.append(lambda x, g=g, nrm=nrm: g(x) / nrm)
        B = build_basis(UNIT, 2)
        T2 = ortho_polynomial(B, (2,))
        for xv in np.linspace(-1, 1, 7):
            assert T2((xv,)) == pytest.approx(ortho[2]((xv,)), abs=1e-9)
        # closed form sqrt(5) (3x^2 - 1)/2
        assert T2.terms[(2,)] == pytest.approx(np.sqrt(5) * 1.5, abs=1e-12)
        assert T2.terms[(0,)] == pytest.approx(-np.sqrt(5) / 2, abs=1e-12)

    def test_hypercube_degree_one_is_monomials(self):
        B = build_basis(CountingHypercube(2), 1)
        np.testing.assert_allclose(tensor_basis(B.measure, B.basis), np.eye(3), atol=1e-14)

    def test_hypercube_degree_two_fails(self):
        with pytest.raises(BasisConstructionError, match="degree 2"):
            build_basis(CountingHypercube(2), 2)

    def test_support_checked_on_construction(self):
        # the support check belongs to the type, not to build_basis
        with pytest.raises(BasisConstructionError, match="only 2 points on axis 1"):
            OrthoBasis(CountingHypercube(2), enumerate_basis(2, 2))
        OrthoBasis(CountingHypercube(2), enumerate_basis(2, 1))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree bound must be >= 0, got -1"):
            build_basis(UNIT, -1)

    def test_dimension_checked_on_construction(self):
        with pytest.raises(ValueError, match="measure dimension 1 does not match"):
            OrthoBasis(UNIT, enumerate_basis(2, 1))

    def test_degree_cap(self):
        # only the monomial coefficients that `cdmos basis` prints are capped
        # (test_cli), not the basis or the moments it reads
        B = build_basis(UNIT, 9)
        xi = (0.3,)
        np.testing.assert_allclose(B.riesz(dirac_moments(xi, 9).values),
                                   B.eval_all(xi), atol=1e-14)

    @pytest.mark.parametrize("measure,t", [
        (UNIT, 4),
        (UniformBox((0.0, -2.0), (1.5, 1.0)), 3),
        (CountingHypercube(3), 1),
    ])
    def test_tensor_equals_cholesky(self, measure, t):
        Dt = tensor_basis(measure, build_basis(measure, t).basis)
        Dc = cholesky_basis(measure, t)
        assert np.max(np.abs(Dt - Dc)) <= 1e-8

    @pytest.mark.parametrize("measure,tmax", [
        (UNIT, 4),
        (UniformBox((-1.0, -1.0), (1.0, 1.0)), 4),
        (CountingHypercube(2), 1),
    ])
    def test_structure_invariants(self, measure, tmax):
        D = tensor_basis(measure, build_basis(measure, tmax).basis)
        # lower triangular with positive diagonal, and D G D' = I
        assert np.allclose(D, np.tril(D))
        assert (np.diag(D) > 0).all()
        G = gram_matrix(measure, tmax)
        assert np.max(np.abs(D @ G @ D.T - np.eye(len(G)))) <= 1e-8

    @pytest.mark.parametrize("measure,tmax", [
        (UNIT, 4), (UniformBox((-1.0, -1.0), (1.0, 1.0)), 3)])
    def test_orthonormality_against_quadrature(self, measure, tmax):
        B = build_basis(measure, tmax)
        polys = [ortho_polynomial(B, a) for a in B.basis]
        for i, p in enumerate(polys):
            for j in range(i, len(polys)):
                q = polys[j]
                val = box_quadrature(lambda x: p(x) * q(x), measure.lo, measure.hi)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


class TestOrthoCoords:
    def test_dirac_gives_ortho_values(self, rng):
        # sigma = L_y(T) of the Dirac at xi is sigma_alpha = T_alpha(xi)
        B = build_basis(UNIT, 3)
        for _ in range(5):
            xi = (float(rng.uniform(-1, 1)),)
            sigma = B.riesz(dirac_moments(xi, 3).values)
            np.testing.assert_allclose(sigma, B.eval_all(xi), atol=1e-10)

    def test_reference_measure_gives_first_unit_vector(self):
        B = build_basis(UNIT, 3)
        sigma = B.riesz(moments(UNIT, 3).values)
        e1 = np.zeros(4)
        e1[0] = 1.0
        np.testing.assert_allclose(sigma, e1, atol=1e-12)


class TestRiesz:
    @pytest.mark.parametrize("measure,degree,bound", [
        (UniformBox((-1.0, -1.0), (1.0, 1.0)), 8, 5e-14),
        (UniformBox((-1.0, -1.0), (1.0, 1.0)), 12, 1e-12),
        (UniformBox((-1.0, -1.0), (1.0, 1.0)), 24, 2e-8),
        (UniformBox((0.5,), (3.0,)), 8, 1e-9),
        # off-centre the power moments xi^beta reach 3^16 against |T(xi)| of
        # order 10: D y loses up to 2.3e-3 at these points
        (UniformBox((0.5,), (3.0,)), 16, 2e-3),
    ])
    def test_dirac_gives_ortho_values(self, measure, degree, bound, rng):
        # the exactness statement: sigma = L_y(T) of the Dirac at xi is T(xi),
        # to the rounding of the moments, amplified by |D| |y| / |T(xi)|
        B = build_basis(measure, degree)
        D = tensor_basis(measure, B.basis)
        for _ in range(10):
            xi = tuple(rng.uniform(measure.lo, measure.hi))
            y = dirac_moments(xi, degree).values
            ref = B.eval_all(xi)
            err = np.max(np.abs(B.riesz(y) - ref))
            assert err <= bound * np.max(np.abs(ref))
            assert err <= np.finfo(float).eps * np.max(np.abs(D) @ np.abs(y))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_gives_monomial_coefficients(self, n):
        # L_y for the unit moment vector e_beta reads the coefficient of x^beta
        for measure in (UniformBox((-1.0,) * n, (1.0,) * n),
                        UniformBox((0.5,) + (-2.0,) * (n - 1), (3.0,) + (1.0,) * (n - 1))):
            for t in range(9):
                B = build_basis(measure, t)
                D = B.riesz(np.eye(len(B.basis)))
                ref = tensor_basis(measure, B.basis)
                if n == 1:
                    np.testing.assert_array_equal(D, ref)
                assert np.max(np.abs(D - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_stack_matches_columns(self, rng):
        B = build_basis(UniformBox((0.0, -2.0), (1.5, 1.0)), 4)
        Y = rng.standard_normal((len(B.basis), 3, 2))
        S = B.riesz(Y)
        assert S.shape == Y.shape
        for i, j in itertools.product(range(3), range(2)):
            np.testing.assert_array_equal(S[:, i, j], B.riesz(Y[:, i, j]))

    def test_wrong_length_raises(self):
        B = build_basis(UNIT, 2)
        with pytest.raises(ValueError, match="basis size 3"):
            B.riesz(np.ones(4))


def max_row_error(T, ref):
    """max over rows of |T - ref|_inf / |ref|_inf: single entries can cancel
    to ~1e-2 of their row, so errors are measured against the row's scale."""
    return float(np.max(np.abs(T - ref).max(axis=1) / np.abs(ref).max(axis=1)))


class TestEvalAllOracles:
    @pytest.mark.parametrize("measure", [
        UniformBox((0.5,), (3.0,)), UniformBox((0.0, -2.0), (1.5, 1.0))])
    def test_matches_scaled_legvander(self, measure, rng):
        t = 8
        B = build_basis(measure, t)
        X = rng.uniform(measure.lo, measure.hi, size=(50, measure.n))
        ref = np.ones((len(X), len(B.basis)))
        for k in range(measure.n):
            u = (2 * X[:, k] - measure.lo[k] - measure.hi[k]) / (measure.hi[k] - measure.lo[k])
            V = np.polynomial.legendre.legvander(u, t) * np.sqrt(2 * np.arange(t + 1) + 1)
            ref *= V[:, B.basis.array[:, k]]
        assert max_row_error(B.eval_all(X), ref) <= 1e-14

    def test_matches_mpmath_at_degree_24(self, rng):
        # 40-digit Legendre values, away from any float rounding of u;
        # eval_all runs on the recurrence alone, at any degree
        mpmath = pytest.importorskip("mpmath")
        measure, t = UniformBox((-2.0,), (3.0,)), 24
        B = build_basis(measure, t)
        X = rng.uniform(-2.0, 3.0, size=(30, 1))
        with mpmath.workdps(40):
            ref = np.array([[float(mpmath.sqrt(2 * j + 1) *
                                   mpmath.legendre(j, (2 * mpmath.mpf(x) - 1) / 5))
                             for j in range(t + 1)] for x in X[:, 0]])
        assert max_row_error(B.eval_all(X), ref) <= 1e-14

    @pytest.mark.parametrize("measure,tmax", [
        (UNIT, 8),
        (UniformBox((-1.0, -1.0), (1.0, 1.0)), 8),
        # off-centre the monomial coefficients of T_alpha grow with t and the
        # monomial route itself loses digits (2.4e-11 at t = 8 on this box)
        (UniformBox((0.0, -2.0), (1.5, 1.0)), 4),
    ])
    def test_matches_monomial_route(self, measure, tmax, rng):
        X = rng.uniform(measure.lo, measure.hi, size=(50, measure.n))
        for t in range(tmax + 1):
            B = build_basis(measure, t)
            assert max_row_error(B.eval_all(X), monomial_route_eval(B, X)) <= 1e-12

    def test_counting_hypercube_exact(self, rng):
        B = build_basis(CountingHypercube(3), 1)
        X = np.vstack([list(itertools.product([-1.0, 1.0], repeat=3)),
                       rng.uniform(-1, 1, size=(10, 3))])
        np.testing.assert_array_equal(B.eval_all(X), np.hstack([np.ones((len(X), 1)), X]))
        np.testing.assert_array_equal(B.eval_all(X), monomial_route_eval(B, X))


class TestKernel:
    @pytest.mark.parametrize("measure,t", [
        (UNIT, 5),
        (UniformBox((0.0, -2.0), (1.5, 1.0)), 4),
        (CountingHypercube(3), 1),
    ])
    def test_eval_all_batch_matches_points(self, measure, t, rng):
        B = build_basis(measure, t)
        X = rng.uniform(-1, 1, size=(30, measure.n))
        T = B.eval_all(X)
        assert T.shape == (30, len(B.basis))
        for i, x in enumerate(X):
            # relative to the row's scale: single entries can cancel to ~1e-2
            ref = B.eval_all(x)
            np.testing.assert_allclose(T[i], ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    def test_wrong_dimension_raises(self):
        B = build_basis(UniformBox((-1.0, -1.0), (1.0, 1.0)), 2)
        for x in [(0.1,), (0.1, 0.2, 0.3), np.zeros((4, 3)), np.zeros((2, 2, 2))]:
            with pytest.raises(ValueError, match="dimension"):
                B.eval_all(x)

    def test_value_at_endpoint(self):
        B = build_basis(UNIT, 2)
        assert cd_kernel(B, (-1.0,), (-1.0,)) == pytest.approx(9.0, abs=1e-10)

    def test_symmetry(self, rng):
        B = build_basis(UniformBox((-1.0, -1.0), (1.0, 1.0)), 2)
        for _ in range(10):
            x = tuple(rng.uniform(-1, 1, size=2))
            y = tuple(rng.uniform(-1, 1, size=2))
            assert cd_kernel(B, x, y) == pytest.approx(cd_kernel(B, y, x), rel=1e-13)

    def test_diagonal_at_least_one(self, rng):
        B = build_basis(UNIT, 3)
        for _ in range(100):
            x = (float(rng.uniform(-1, 1)),)
            assert cd_kernel(B, x, x) >= 1.0 - 1e-12


class TestReproduce:
    def test_linear_at_point(self):
        B = build_basis(UNIT, 2)
        x = Polynomial.variable(1, 0)
        assert reproduce(B, x, (0.7,)) == pytest.approx(0.7, abs=1e-10)

    def test_constant(self, rng):
        B = build_basis(UNIT, 2)
        one = Polynomial.constant(1, 1.0)
        for _ in range(5):
            x = (float(rng.uniform(-1, 1)),)
            assert reproduce(B, one, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("measure,t", [
        (UNIT, 3), (UniformBox((-1.0, -1.0), (1.0, 1.0)), 2)])
    def test_random_pairs(self, measure, t, rng):
        B = build_basis(measure, t)
        n = measure.n
        for _ in range(50):
            p = random_polynomial(rng, n, int(rng.integers(0, t + 1)))
            x = tuple(rng.uniform(-1, 1, size=n))
            assert reproduce(B, p, x) == pytest.approx(p(x), abs=1e-8)

    def test_off_centre_box_at_degree_8(self, rng):
        measure = UniformBox((0.5,), (3.0,))
        B = build_basis(measure, 8)
        for _ in range(50):
            p = random_polynomial(rng, 1, int(rng.integers(0, 9)))
            x = (float(rng.uniform(0.5, 3.0)),)
            assert abs(reproduce(B, p, x) - p(x)) <= 1e-11

    def test_off_centre_box_at_degree_24(self, rng):
        # reproduce reads the Jacobi matrices and eval_all only
        lo, hi, t = -2.0, 3.0, 24
        B = build_basis(UniformBox((lo,), (hi,)), t)
        grid = np.linspace(lo, hi, 2001)
        for _ in range(10):
            p = random_polynomial(rng, 1, t)
            scale = max(abs(p((xv,))) for xv in grid)
            for xv in rng.uniform(lo, hi, size=5):
                assert abs(reproduce(B, p, (xv,)) - p((xv,))) <= 1e-12 * scale

    def test_degree_overflow(self):
        B = build_basis(UNIT, 2)
        x = Polynomial.variable(1, 0)
        with pytest.raises(ValueError):
            reproduce(B, x * x * x, (0.0,))


class TestChristoffel:
    def test_reciprocal_of_kernel(self, rng):
        B = build_basis(UNIT, 2)
        assert christoffel(B, (-1.0,)) == pytest.approx(1 / 9, abs=1e-10)
        for _ in range(10):
            x = (float(rng.uniform(-1, 1)),)
            assert christoffel(B, x) * cd_kernel(B, x, x) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("t", [16, 24, 40])
    def test_gauss_weights_at_gauss_nodes(self, t):
        # at the zeros of p_{t+1} the Christoffel function of degree t is the
        # (t+1)-point Gauss weight, halved for the probability measure
        B = build_basis(UNIT, t)
        nodes, weights = np.polynomial.legendre.leggauss(t + 1)
        got = np.array([christoffel(B, (x,)) for x in nodes])
        assert np.max(np.abs(got - weights / 2) / (weights / 2)) <= 1e-11

    def test_degree_zero_is_one(self, rng):
        B = build_basis(UNIT, 0)
        for _ in range(5):
            assert christoffel(B, (float(rng.uniform(-1, 1)),)) == 1.0


def test_ortho_expansion_poly_inverts_eval(rng):
    B = build_basis(UNIT, 3)
    sigma = rng.standard_normal(len(B.basis))
    p = ortho_expansion_poly(sigma, B)
    for xv in np.linspace(-1, 1, 5):
        assert p((xv,)) == pytest.approx(float(sigma @ B.eval_all((xv,))), rel=1e-10, abs=1e-10)
