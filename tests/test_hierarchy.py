import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (box_deep_problem, moment_value, multiplier_poly,
                      ortho_expansion_poly, pencil_upper_bound, random_polynomial,
                      smoothed_objective)

from cdmos import hierarchy, momentmat
from cdmos.cli import parse_problem
from cdmos.hierarchy import (HierarchyError, UpperBoundResult, certify_and_extract,
                             lower_bound, min_relaxation_order, sandwich_sweep,
                             upper_bound)
from cdmos.measures import CountingHypercube, MomentSequence, UniformBox, moments
from cdmos.momentmat import SemialgebraicSet, localizing_matrix
from cdmos.orthobasis import BasisConstructionError, OrthoBasis, build_basis
from cdmos.polyring import Polynomial, coeff_vector, enumerate_basis, monomial_values
from cdmos.sdp import _TOL, SdpBlock, SdpProblem, SdpStatus, solve_sdp

X = Polynomial.variable(1, 0)
UNIT_INTERVAL = SemialgebraicSet(1, (1.0 - X * X,), box=((-1.0,), (1.0,)))
UNIT_MEASURE = UniformBox((-1.0,), (1.0,))

X1, X2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
UNIT_SQUARE = SemialgebraicSet(2, (1.0 - X1 * X1, 1.0 - X2 * X2),
                               box=((-1.0, -1.0), (1.0, 1.0)))
SQUARE_MEASURE = UniformBox((-1.0, -1.0), (1.0, 1.0))


class TestLowerBound:
    def test_linear_on_interval(self):
        r = lower_bound(X, UNIT_INTERVAL, 1)
        assert r.rho == pytest.approx(-1.0, abs=1e-6)
        assert r.extraction.certified

    def test_square_on_interval(self):
        # brute-force grid oracle for the true minimum
        grid = np.linspace(-1, 1, 2001)
        fstar = min((X * X)((g,)) for g in grid)
        assert fstar == pytest.approx(0.0, abs=1e-6)
        r = lower_bound(X * X, UNIT_INTERVAL, 1)
        assert r.rho == pytest.approx(0.0, abs=1e-6)
        # y* is the dirac at 0
        np.testing.assert_allclose(r.y.values, [1, 0, 0], atol=1e-5)

    def test_constant_objective(self):
        c = Polynomial.constant(1, 2.5)
        for t in (1, 2):
            r = lower_bound(c, UNIT_INTERVAL, t)
            assert r.rho == pytest.approx(2.5, abs=1e-7)

    def test_order_too_small(self):
        with pytest.raises(ValueError, match="below minimum"):
            lower_bound(X * X * X * X, UNIT_INTERVAL, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 1"):
            lower_bound(X1 * X2, UNIT_INTERVAL, 1)

    def test_certificate_residual(self):
        r = lower_bound(X, UNIT_INTERVAL, 1)
        assert r.certificate.residual() <= 1e-6
        assert r.certificate.lam == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("case", ["box_bilinear", "hypercube"])
    def test_residual_matches_polynomial_reassembly(self, case):
        # oracle: rebuild f - lam - sum psi_j g_j from Polynomial objects
        if case == "box_bilinear":
            pf = parse_problem((Path(__file__).parents[1] / "problems"
                                / "box_bilinear.txt").read_text())
            f, B, orders = pf.objective, pf.semialgebraic_set(), range(1, 4)
        else:
            f = X1 * X2 + 0.5 * X1 - 0.3 * X2
            B = SemialgebraicSet(2, (X1 * X1 - 1.0, 1.0 - X1 * X1,
                                     X2 * X2 - 1.0, 1.0 - X2 * X2))
            orders = range(1, 3)
        for t in orders:
            cert = lower_bound(f, B, t).certificate
            r = f - Polynomial.constant(f.n, cert.lam)
            for j, (g, _, _) in enumerate(cert.multipliers):
                r = r - multiplier_poly(cert, j) * g
            expected = max((abs(c) for c in r.terms.values()), default=0.0)
            assert cert.residual() == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("f", [X, X * X * X], ids=["x", "x^3"])
    def test_unbounded_reported_as_such(self, f):
        # c'y runs to -inf over primal-feasible iterates
        with pytest.raises(HierarchyError, match=r"unbounded after \d+ iterations"):
            lower_bound(f, SemialgebraicSet(1, ()), 2)

    def test_sigma_populated_with_measure(self):
        r = lower_bound(X, UNIT_INTERVAL, 1, measure=UNIT_MEASURE)
        assert r.sigma is not None and r.density_basis is not None
        assert r.sigma.shape == (3,)

    def test_density_basis_shares_y_index(self):
        # sigma is indexed exactly like y*: its basis is built on y's own index
        r = lower_bound(X1 * X2, UNIT_SQUARE, 2, measure=SQUARE_MEASURE)
        assert r.density_basis.basis is r.y.basis
        assert r.sigma.shape == r.y.values.shape

    def test_measure_of_other_dimension_rejected(self):
        with pytest.raises(ValueError, match="measure dimension 1 does not match"):
            lower_bound(X1 * X2, UNIT_SQUARE, 1, measure=UNIT_MEASURE)


def cube_wide_problem(variant):
    """The benchmark's cube_wide draw: n = 10, sum_{i<j} s_ij x_i x_j with
    s_ij = +-1 drawn in pair order, on the box constraints 1 - x_i^2."""
    n = 10
    x = [Polynomial.variable(n, i) for i in range(n)]
    rng = np.random.default_rng([3, variant])
    f = Polynomial.zero(n)
    for i, j in itertools.combinations(range(n), 2):
        f = f + float(rng.choice((-1.0, 1.0))) * x[i] * x[j]
    return f, SemialgebraicSet(n, tuple(1.0 - v * v for v in x))


class TestBlocksMatchReadout:
    """The solver's blocks and ``localizing_matrix`` read one assembly of
    M_s(g y), so they agree bit for bit on any moment vector, entry (0, 0)
    too: the block holds g's constant term in its constant and adds it
    after g's other terms, as the assembly lists it last."""

    @pytest.mark.parametrize("case", ["box", "many_terms", "hypercube"])
    def test_blocks_equal_localizing_matrix(self, case, rng):
        if case == "box":
            pf = parse_problem(CUBIC)
            f, B, t = pf.objective, pf.semialgebraic_set(), 3
        elif case == "many_terms":
            g = 1.5 - X1 * X1 - X2 * X2 + 0.3 * X1 * X2 - 0.2 * X1 + 0.1 * X2
            f, B, t = X1 * X2, SemialgebraicSet(2, UNIT_SQUARE.constraints + (g,)), 2
        else:
            (f, B), t = cube_wide_problem(0), 1
        r = lower_bound(f, B, t)
        for _ in range(5):
            y = np.concatenate(([1.0], rng.standard_normal(len(r.y.values) - 1)))
            for blk, (g, s, _) in zip(r.certificate.problem.blocks,
                                      r.certificate.multipliers):
                M = localizing_matrix(MomentSequence(y, r.y.basis), g, s)
                assert np.array_equal(blk.at(y[1:]), M)


class TestUpperBound:
    def test_constant_density_order_zero(self):
        u = upper_bound(X, UNIT_MEASURE, 0)
        assert u.u == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 1"):
            upper_bound(X1 * X2, UNIT_MEASURE, 1)
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            upper_bound(X, UNIT_MEASURE, -1)

    def test_result_holds_its_basis(self):
        # the basis upper_bound built is stored, not its measure
        names = {f.name for f in dataclasses.fields(UpperBoundResult)}
        assert "basis" in names and "measure" not in names
        u = upper_bound(X1 * X2 + X1, SQUARE_MEASURE, 2)
        assert isinstance(u.basis, OrthoBasis) and u.basis.t == 2
        assert len(u.eigvec) == len(u.basis.basis)

    def test_strictly_decreasing_sweep(self):
        us = [upper_bound(X, UNIT_MEASURE, t).u for t in range(1, 5)]
        assert all(us[i + 1] < us[i] for i in range(3))
        assert all(u >= -1.0 for u in us)

    def test_constant_objective(self):
        c = Polynomial.constant(1, -0.75)
        for t in range(3):
            assert upper_bound(c, UNIT_MEASURE, t).u == pytest.approx(-0.75, abs=1e-12)

    def test_matches_direct_pencil_oracle(self):
        # independent assembly of the same pencil with dense eigenvalues
        from scipy.linalg import eigh
        f = X * X - X
        t = 2
        y = moments(UNIT_MEASURE, 2 * t + f.degree)
        basis = enumerate_basis(1, t)
        A = np.zeros((len(basis), len(basis)))
        B = np.zeros_like(A)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                B[i, j] = moment_value(y, (a[0] + b[0],))
                A[i, j] = sum(c * moment_value(y, (a[0] + b[0] + g[0],))
                              for g, c in f.terms.items())
        oracle = eigh(A, B, eigvals_only=True)[0]
        assert upper_bound(f, UNIT_MEASURE, t).u == pytest.approx(oracle, rel=1e-10)

    def test_density_integrates_to_one_and_nonnegative(self, rng):
        # (t+1)-point Gauss-Legendre integrates the degree-2t density exactly
        u = upper_bound(X, UNIT_MEASURE, 3)
        nodes, weights = np.polynomial.legendre.leggauss(4)
        mass = sum(w / 2 * u.sos_density((x,)) for x, w in zip(nodes, weights))
        assert mass == pytest.approx(1.0, abs=1e-8)
        for _ in range(1000):
            x = (float(rng.uniform(-1, 1)),)
            assert u.sos_density(x) >= -1e-10

    @pytest.mark.parametrize("t", [16, 24])
    def test_density_above_degree_cap(self, t, rng):
        u = upper_bound(X, UNIT_MEASURE, t)
        nodes, weights = np.polynomial.legendre.leggauss(t + 1)
        mass = float(weights / 2 @ u.sos_density(nodes[:, None]))
        assert abs(mass - 1.0) <= 1e-12
        assert (u.sos_density(rng.uniform(-1, 1, size=(1000, 1))) >= 0.0).all()

    @pytest.mark.parametrize("f, measure", [
        (X * X * X - 0.5 * X, UNIT_MEASURE),
        (X1 * X1 * X2 - X1 * X2 + 0.3 * X2, UniformBox((-1.0, 0.5), (2.0, 1.5)))])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_lazy_density_matches_eager(self, f, measure, t, rng):
        # sigma(x) = (v' T(x))^2 for the unit eigenvector v in the T basis,
        # against its monomial form, relative to the largest value: near a
        # zero of v' T the monomial form cancels, so single values can lose
        # their own digits
        u = upper_bound(f, measure, t)
        X = rng.uniform(measure.lo, measure.hi, size=(20, measure.n))
        q = ortho_expansion_poly(u.eigvec, build_basis(measure, t))
        expected = np.array([q(x) ** 2 for x in X])
        got = np.array([u.sos_density(x) for x in X])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)

    def test_hypercube_singular_mass_rejected(self):
        # x^2 == 1 on {-1, 1} leaves no p_2, so there is no order-2 density
        with pytest.raises(BasisConstructionError, match="only 2 points on axis 1"):
            upper_bound(X1 * X2, CountingHypercube(2), 2)

    @pytest.mark.parametrize("t", [4, 16, 24, 40])
    def test_linear_is_gauss_node(self, t):
        # for f = x, A is the Jacobi matrix of side t + 1, whose smallest
        # eigenvalue is the smallest zero of P_{t+1}
        node = np.polynomial.legendre.leggauss(t + 1)[0][0]
        assert abs(upper_bound(X, UNIT_MEASURE, t).u - node) <= 1e-12

    @pytest.mark.parametrize("n, degree, orders, measure", [
        (4, 4, (2, 3), UniformBox((-1.0,) * 4, (1.0,) * 4)),
        (2, 6, (3, 4, 5, 6), UniformBox((-1.0,) * 2, (1.0,) * 2)),
        (10, 2, (1,), CountingHypercube(10))])
    def test_matches_monomial_pencil(self, n, degree, orders, measure, rng):
        # the benchmark workloads' shapes, where the pencil is accurate
        for _ in range(3):
            f = random_polynomial(rng, n, degree)
            for t in orders:
                assert upper_bound(f, measure, t).u == pytest.approx(
                    pencil_upper_bound(f, measure, t), abs=1e-9)


class TestCertifyAndExtract:
    def test_single_minimizer(self):
        r = lower_bound(X, UNIT_INTERVAL, 1)
        ex = r.extraction
        assert ex.certified
        assert len(ex.minimizers) == 1
        xi, fv = ex.minimizers[0]
        assert xi[0] == pytest.approx(-1.0, abs=1e-6)
        assert fv == pytest.approx(r.rho, abs=1e-6)

    def test_two_symmetric_minimizers(self):
        f = (X * X - 1.0) * (X * X - 1.0)
        B = SemialgebraicSet(1, (4.0 - X * X,))
        r = lower_bound(f, B, 2)
        ex = r.extraction
        assert ex.certified
        points = sorted(xi[0] for xi, _ in ex.minimizers)
        assert points == pytest.approx([-1.0, 1.0], abs=1e-4)
        for xi, _ in ex.minimizers:
            assert abs(f(xi)) <= 1e-6

    def test_continuous_measure_not_certified(self):
        # moments of the reference measure are never flat at these orders
        r = lower_bound(X, UNIT_INTERVAL, 2)
        r.y = moments(UNIT_MEASURE, 4)
        ex = certify_and_extract(r, UNIT_INTERVAL)
        assert not ex.certified

    def test_reads_the_relaxations_moment_block(self, monkeypatch):
        # M_t(y*) is certificate.problem.blocks[0] at y*, assembled once; the
        # readout localizing_matrix (and moment_matrix through it) is off the
        # solve path, at a solved order and at a closed-form one
        expected = [lower_bound(X1 * X2, UNIT_SQUARE, 2)]
        expected.append(lower_bound(X1 * X2, UNIT_SQUARE, 3, prev=expected[0]))

        def no_readout(*args):
            raise AssertionError("localizing_matrix called on the solve path")

        monkeypatch.setattr(momentmat, "localizing_matrix", no_readout)
        r2 = lower_bound(X1 * X2, UNIT_SQUARE, 2)
        r3 = lower_bound(X1 * X2, UNIT_SQUARE, 3, prev=r2)
        assert r2.extraction.certified and r3.solution.iterations == 0
        assert [r2.extraction, r3.extraction] == [r.extraction for r in expected]

    def test_extracted_points_feasible(self):
        r = lower_bound(X1 * X2, UNIT_SQUARE, 2)
        ex = r.extraction
        assert ex.certified
        for xi, fv in ex.minimizers:
            assert UNIT_SQUARE.contains(xi, tol=1e-6)
            assert abs(fv - r.rho) <= 1e-6


class TestReconstructDensity:
    def test_kernel_section_at_certified_minimizer(self):
        r = lower_bound(X, UNIT_INTERVAL, 1, measure=UNIT_MEASURE)
        expected = r.density_basis.eval_all((-1.0,))
        np.testing.assert_allclose(r.sigma, expected, atol=1e-5)
        np.testing.assert_allclose(r.sigma, [1.0, -np.sqrt(3), np.sqrt(5)],
                                   atol=1e-5)
        assert r.density((-1.0,)) == pytest.approx(9.0, abs=1e-4)
        (xi, chris), = r.christoffel_at().items()
        assert chris == pytest.approx(1 / 9, abs=1e-5)
        assert r.density(xi) * chris == pytest.approx(1.0, abs=1e-4)

    def test_reference_moments_give_unit_density(self):
        basis = build_basis(UNIT_MEASURE, 2)
        sigma = basis.riesz(moments(UNIT_MEASURE, 2).values)
        np.testing.assert_allclose(sigma, [1.0, 0.0, 0.0], atol=1e-12)
        sigma_poly = ortho_expansion_poly(sigma, basis)
        for xv in np.linspace(-1, 1, 9):
            assert sigma_poly((xv,)) == pytest.approx(1.0, abs=1e-12)

    def test_smoothed_objective_equals_rho(self):
        r = lower_bound(X, UNIT_INTERVAL, 1, measure=UNIT_MEASURE)
        val = smoothed_objective(X, r.y.values, r.density_basis)
        assert val == pytest.approx(r.rho, abs=1e-9)

    def test_no_density_raises(self):
        r = lower_bound(X, UNIT_INTERVAL, 1)
        for read in (lambda: r.density((0.0,)), r.christoffel_at):
            with pytest.raises(ValueError, match="order 1 has no density: no reference measure"):
                read()
        # no orthonormal family of degree 2t = 2 for the counting measure
        B = SemialgebraicSet(2, (X1 * X1 - 1.0, 1.0 - X1 * X1,
                                 X2 * X2 - 1.0, 1.0 - X2 * X2))
        r = lower_bound(X1 * X2, B, 1, measure=CountingHypercube(2))
        for read in (lambda: r.density((0.0, 0.0)), r.christoffel_at):
            with pytest.raises(ValueError, match="degree 2"):
                read()


class TestChangeOfBasisIdentity:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_random_pairs(self, t, rng):
        # <f~, sigma> = <f, y> for arbitrary y, independent of the solver
        basis = build_basis(UNIT_MEASURE, 2 * t)
        b2t = enumerate_basis(1, 2 * t)
        for _ in range(30):
            f = random_polynomial(rng, 1, int(rng.integers(0, 2 * t + 1)))
            y = rng.standard_normal(len(b2t))
            lhs = smoothed_objective(f, y, basis)
            rhs = float(np.array([f.terms.get(a, 0.0) for a in b2t]) @ y)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSandwichSweep:
    def test_univariate_linear(self):
        rows = sandwich_sweep(X, UNIT_INTERVAL, UNIT_MEASURE, 4)
        rhos = [row.rho for row in rows]
        us = [row.u for row in rows]
        assert all(r is not None and u is not None for r, u in zip(rhos, us))
        for r, u in zip(rhos, us):
            assert r - 1e-6 <= -1.0 <= u
        for a, b in zip(rhos, rhos[1:]):
            assert b >= a - 1e-7
        for a, b in zip(us, us[1:]):
            assert b <= a + 1e-7

    def test_constant(self):
        c = Polynomial.constant(1, 0.25)
        rows = sandwich_sweep(c, UNIT_INTERVAL, UNIT_MEASURE, 3)
        for row in rows:
            assert row.rho == pytest.approx(0.25, abs=1e-7)
            assert row.u == pytest.approx(0.25, abs=1e-10)

    def test_bilinear_asymptotic_upper_bounds(self):
        rows = sandwich_sweep(X1 * X2, UNIT_SQUARE, SQUARE_MEASURE, 3)
        assert rows[0].rho == pytest.approx(-1.0, abs=1e-6)
        us = [row.u for row in rows]
        assert all(b < a for a, b in zip(us, us[1:]))
        assert all(u > -1.0 + 1e-3 for u in us)  # never reaches f*

    def test_cross_order_sandwich(self):
        rows = sandwich_sweep(X, UNIT_INTERVAL, UNIT_MEASURE, 3)
        for r1 in rows:
            for r2 in rows:
                assert r1.rho - 1e-6 <= r2.u

    def test_no_measure_skips_upper(self):
        B = SemialgebraicSet(1, (4.0 - X * X,))
        rows = sandwich_sweep(X, B, None, 2)
        for row in rows:
            assert row.upper is None
            assert row.lower is not None


class TestHypercube:
    def test_discrete_exactness(self):
        B = SemialgebraicSet(2, (X1 * X1 - 1.0, 1.0 - X1 * X1,
                                 X2 * X2 - 1.0, 1.0 - X2 * X2))
        m = CountingHypercube(2)
        r = lower_bound(X1 * X2, B, 1, measure=m)
        assert r.rho == pytest.approx(-1.0, abs=1e-6)
        assert r.sigma is None and r.density_error is not None
        u = upper_bound(X1 * X2, m, 1)
        assert u.u == pytest.approx(-1.0, abs=1e-10)

    def test_dual_residual_at_rounding_level(self):
        # +-1 max-cut instances: as mu -> 0 the Newton steps must keep the
        # dual equation satisfied to rounding, well inside the 1e-8 tolerance
        n = 6
        x = [Polynomial.variable(n, i) for i in range(n)]
        B = SemialgebraicSet(n, tuple(1.0 - v * v for v in x))
        for seed in range(8):
            signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, n))
            f = Polynomial.zero(n)
            for i in range(n):
                for j in range(i + 1, n):
                    f = f + signs[i, j] * x[i] * x[j]
            assert lower_bound(f, B, 1).solution.dual_residual <= 1e-9

    @pytest.mark.parametrize("variant", range(16))
    def test_refinement_keeps_certificate_exact(self, variant):
        # the 16 cube_wide benchmark draws (n = 10, signs drawn in pair
        # order); without the refinement solve in solve_sdp the certificate
        # residual of draw 1 is about 1e-9, with it about 1e-11.  The
        # residual moves with the summation order alone: up to 7x on draw 10
        r = lower_bound(*cube_wide_problem(variant), 1)
        assert r.certificate.residual() <= 1e-10

    def test_min_relaxation_order(self):
        B = SemialgebraicSet(2, (X1 * X1 - 1.0,))
        assert min_relaxation_order(X1 * X2, B) == 1
        assert min_relaxation_order((X1 * X2) * (X1 * X2), B) == 2


# ROADMAP item 4's cubic on [-1, 1]^3, minimum -2.2
CUBIC = """\
variables = x1 x2 x3
objective = x1 x2 + x2 x3 - 0.5 x1 + 0.3 x3^3
constraint = 1 - x1^2 >= 0
constraint = 1 - x2^2 >= 0
constraint = 1 - x3^2 >= 0
measure = uniform_box
box = -1 1 ; -1 1 ; -1 1
orders = 2..4
"""


class TestClosedForm:
    """Orders above a certified one are taken in closed form: its minimizers
    and Gram blocks give their optimum, which ``solve_sdp`` returns when it
    passes the stopping test; otherwise the order is solved from the default
    start, as if alone."""

    @pytest.mark.parametrize("text", [box_deep_problem(0), CUBIC], ids=["sextic", "cubic"])
    def test_sweep_agrees_with_lone_orders(self, text):
        pf = parse_problem(text)
        f, B, mu = pf.objective, pf.semialgebraic_set(), pf.measure
        rows = sandwich_sweep(f, B, mu, pf.orders[1], t_min=pf.orders[0])
        assert rows[0].lower.extraction.certified
        for row in rows:
            lone = lower_bound(f, B, row.t, measure=mu)
            # measured 3.8e-8, 4.9e-9 and 2.9e-8 at most
            assert abs(row.rho - lone.rho) <= 1e-6
            ex, lone_ex = row.lower.extraction, lone.extraction
            assert ex.certified == lone_ex.certified
            assert len(ex.minimizers) == len(lone_ex.minimizers)
            for (xi, _), (lone_xi, _) in zip(ex.minimizers, lone_ex.minimizers):
                np.testing.assert_allclose(xi, lone_xi, rtol=0, atol=1e-6)
            scale = np.max(np.abs(lone.sigma))
            np.testing.assert_allclose(row.lower.sigma, lone.sigma, rtol=0, atol=1e-6 * scale)
            if row.t == pf.orders[0]:
                continue
            # the closed form: y* = sum_i w_i delta_xi_i, sigma = sum_i w_i T(xi_i)
            assert row.lower.solution.iterations == 0
            assert row.lower.certificate.residual() <= 1e-9
            points = np.array([xi for xi, _ in ex.minimizers])
            dirac = monomial_values(row.lower.y.basis, points)
            w = np.linalg.lstsq(dirac.T, row.lower.y.values, rcond=None)[0]
            sigma = w @ row.lower.density_basis.eval_all(points)
            scale = np.max(np.abs(row.lower.sigma))
            np.testing.assert_allclose(row.lower.sigma, sigma, rtol=0, atol=1e-8 * scale)

    def test_failed_closed_form_is_solved_cold(self):
        # the Dirac moments at a minimizer moved by 1e-3 fail the stopping
        # test, so the order is solved as if alone
        f = X1 * X2 + 0.5 * X1 - 0.3 * X2 + X1 * X1 * X1 * X1
        prev = lower_bound(f, UNIT_SQUARE, 2, measure=SQUARE_MEASURE)
        assert prev.extraction.certified
        moved = [(tuple(x + 1e-3 for x in xi), fv) for xi, fv in prev.extraction.minimizers]
        prev.extraction = dataclasses.replace(prev.extraction, minimizers=moved)
        row = lower_bound(f, UNIT_SQUARE, 3, measure=SQUARE_MEASURE, prev=prev)
        lone = lower_bound(f, UNIT_SQUARE, 3, measure=SQUARE_MEASURE)
        assert row.solution.iterations == lone.solution.iterations > 0
        assert row.rho == lone.rho
        np.testing.assert_array_equal(row.y.values, lone.y.values)
        np.testing.assert_array_equal(row.sigma, lone.sigma)
        assert row.extraction == lone.extraction

    def test_negative_weight_is_solved_cold(self, monkeypatch):
        # Dirac moments at 0.5 and 0.9 fit order 1's y* = (1, -1, 1) only with
        # a negative weight, so no candidate is offered and order 2 is solved
        # as if alone
        prev = lower_bound(X, UNIT_INTERVAL, 1, measure=UNIT_MEASURE)
        assert prev.extraction.certified
        moved = [((0.5,), 0.5), ((0.9,), 0.9)]
        prev.extraction = dataclasses.replace(prev.extraction, minimizers=moved)
        V = monomial_values(prev.y.basis, np.array([xi for xi, _ in moved]))
        assert (np.linalg.lstsq(V.T, prev.y.values, rcond=None)[0] < 0.0).any()
        candidates, solve = [], hierarchy.solve_sdp
        monkeypatch.setattr(hierarchy, "solve_sdp", lambda prob, candidate:
                            candidates.append(candidate) or solve(prob, candidate))
        row = lower_bound(X, UNIT_INTERVAL, 2, measure=UNIT_MEASURE, prev=prev)
        lone = lower_bound(X, UNIT_INTERVAL, 2, measure=UNIT_MEASURE)
        assert candidates == [None, None]
        assert row.solution.iterations == lone.solution.iterations > 0
        assert row.rho == lone.rho
        np.testing.assert_array_equal(row.y.values, lone.y.values)
        assert row.extraction == lone.extraction

    def test_higher_prev_is_solved_cold(self):
        # a certified prev of a higher order gives no closed form
        f = X1 * X2 + 0.5 * X1 - 0.3 * X2 + X1 * X1 * X1 * X1
        prev = lower_bound(f, UNIT_SQUARE, 3)
        assert prev.extraction.certified
        row = lower_bound(f, UNIT_SQUARE, 2, prev=prev)
        lone = lower_bound(f, UNIT_SQUARE, 2)
        assert row.solution.iterations == lone.solution.iterations > 0
        np.testing.assert_array_equal(row.y.values, lone.y.values)

    def test_measureless_sweep_takes_the_closed_form(self):
        # the closed form needs no reference measure, and gives the same rows
        f = X1 * X2 + 0.5 * X1 - 0.3 * X2 + X1 * X1 * X1 * X1
        bare = sandwich_sweep(f, UNIT_SQUARE, None, 4)
        with_mu = sandwich_sweep(f, UNIT_SQUARE, SQUARE_MEASURE, 4)
        assert bare[0].lower.extraction.certified
        for row, other in zip(bare, with_mu):
            assert row.rho == other.rho
            assert row.lower.extraction == other.lower.extraction
        for row in bare[1:]:
            assert row.lower.solution.iterations == 0
            assert row.lower.certificate.residual() <= 1e-9

    @pytest.mark.parametrize("objective, g, box, orders", [
        # ROADMAP item 3's quartic; t = 10 fails when solved alone
        ("x^4 - 3 x^2 + 0.7 x", "-x^2 + x + 6", (-2.0, 3.0), (2, 9)),
        # the off-centre box, on which t = 5 fails either way
        ("x^4 - 7 x^3 + 17 x^2 - 17 x", "-x^2 + 3.5 x - 1.5", (0.5, 3.0), (2, 4)),
    ])
    def test_sweep_loses_no_order(self, objective, g, box, orders):
        pf = parse_problem(f"variables = x\nobjective = {objective}\n"
                           f"constraint = {g} >= 0\nmeasure = uniform_box\n"
                           f"box = {box[0]} {box[1]}\norders = {orders[0]}..{orders[1]}\n")
        rows = sandwich_sweep(pf.objective, pf.semialgebraic_set(), pf.measure,
                              orders[1], t_min=orders[0])
        assert [row.t for row in rows if row.lower_error is None] == list(
            range(orders[0], orders[1] + 1))


class TestOneMeasurement:
    """``solve_sdp`` measures each pair once: the returned solution's status,
    objectives, measures and coefficient residual r = c - A*(Z) all belong
    to the pair it returns, and the certificate reads its residual off r."""

    def test_max_iter_solution_describes_its_pair(self):
        # f = x with no constraint at t = 3 ends max_iter: the solution
        # describes the pair it returns even when no pair passed the test
        t = 3
        basis = enumerate_basis(1, 2 * t)
        c = coeff_vector(X, basis)[1:]
        prob = SdpProblem(c, hierarchy._moment_blocks([(Polynomial.constant(1, 1.0), t)], basis))
        sol = solve_sdp(prob)
        assert sol.status is SdpStatus.MAX_ITER
        (blk,), (Z,) = prob.blocks, sol.dual_blocks
        r = c - blk.adjoint(Z)
        assert sol.dual_residual == float(np.max(np.abs(r))) / (1.0 + prob.cost_scale)
        assert sol.objective == float(c @ sol.y)
        assert sol.dual_objective == -float(np.sum(blk.const * Z))
        np.testing.assert_array_equal(sol.coeff_residual, r)
        assert max(sol.primal_residual, sol.dual_residual, sol.gap) > _TOL

    def test_certificate_residual_runs_no_adjoint(self, monkeypatch):
        # at a solved order and at a closed-form one
        r2 = lower_bound(X1 * X2, UNIT_SQUARE, 2)
        r3 = lower_bound(X1 * X2, UNIT_SQUARE, 3, prev=r2)
        assert r3.solution.iterations == 0

        def no_adjoint(*args):
            raise AssertionError("SdpBlock.adjoint called by the certificate")

        monkeypatch.setattr(SdpBlock, "adjoint", no_adjoint)
        for r in (r2, r3):
            assert r.certificate.residual() == float(np.max(np.abs(r.solution.coeff_residual)))
            assert r.certificate.residual() / (1.0 + r.certificate.problem.cost_scale) == \
                r.solution.dual_residual

    def test_closed_form_builds_no_schur_workspace(self, monkeypatch):
        f = X1 * X2 + 0.5 * X1 - 0.3 * X2 + X1 * X1 * X1 * X1
        prev = lower_bound(f, UNIT_SQUARE, 2)
        assert prev.extraction.certified

        @property
        def no_workspace(self):
            raise AssertionError("Schur workspace sized for a passing candidate")

        monkeypatch.setattr(SdpBlock, "schur_floats", no_workspace)
        monkeypatch.setattr(SdpBlock, "_schur_plan", no_workspace)
        row = lower_bound(f, UNIT_SQUARE, 3, prev=prev)
        assert row.solution.status is SdpStatus.OPTIMAL and row.solution.iterations == 0
        assert row.extraction.certified


@st.composite
def offcentre_boxes(draw):
    lo = draw(st.floats(-3.0, 3.0))
    return lo, lo + draw(st.floats(0.5, 4.0))


class TestBoxStatuses:
    """On a box the reference measure's moments are an interior point of
    every moment relaxation, and its dual is feasible too, so no order may
    report ``infeasible`` or ``unbounded`` (Josz and Henrion, "Strong duality
    in Lasserre's hierarchy for polynomial optimization", Optim. Lett. 2016).
    Every order is solved alone, so the closed form never applies."""

    def test_offcentre_quartic_certifies(self):
        pf = parse_problem((Path(__file__).parents[1] / "problems"
                            / "offcentre_quartic.txt").read_text())
        f, B = pf.objective, pf.semialgebraic_set()
        rows = {}
        for t in range(2, 11):
            try:
                rows[t] = lower_bound(f, B, t)
            except HierarchyError as exc:
                assert "infeasible" not in str(exc) and "unbounded" not in str(exc)
        for t in (6, 8, 10):
            assert rows[t].extraction.certified
            assert rows[t].rho == pytest.approx(rows[2].rho, abs=1e-6)

    # 25 draws and the example, 7 orders each: about 6 s on 2 vCPUs
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(coeffs=st.tuples(*[st.floats(-1.0, 1.0)] * 4, st.floats(0.2, 1.0)),
           box=offcentre_boxes())
    @example(coeffs=(0.896, 0.747, -0.718, 0.56, 1.187), box=(-2.07, -0.8))
    def test_never_infeasible_on_a_box(self, coeffs, box):
        f = Polynomial(1, {(k,): c for k, c in enumerate(coeffs)})
        lo, hi = box
        B = SemialgebraicSet(1, ((X - lo) * (hi - X),), box=((lo,), (hi,)))
        for t in range(2, 9):
            try:
                lower_bound(f, B, t)
            except HierarchyError as exc:
                assert "infeasible" not in str(exc) and "unbounded" not in str(exc)


@st.composite
def box_quartics(draw):
    """A quartic with coefficients in [-1, 1] on [-1, 1]^n, n = 1 or 2, and
    the uniform measure on that box."""
    n = draw(st.sampled_from([1, 2]))
    exps = [a for a in itertools.product(range(5), repeat=n) if sum(a) <= 4]
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(exps), max_size=len(exps)))
    x = [Polynomial.variable(n, i) for i in range(n)]
    B = SemialgebraicSet(n, tuple(1.0 - v * v for v in x), box=((-1.0,) * n, (1.0,) * n))
    return Polynomial(n, dict(zip(exps, coeffs))), B, UniformBox(*B.box)


class TestSweepInvariants:
    """ROADMAP item 4's invariants (c) and (f) on random box quartics: rho_t
    does not decrease and u_t does not increase with t, and each row of a
    sweep, closed form or solved, agrees with its order solved alone."""

    # 30 draws, orders 2..5 swept and solved alone: about 2 s on 2 vCPUs
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(problem=box_quartics())
    def test_monotone_and_agrees_with_lone_orders(self, problem):
        f, B, mu = problem
        rows = sandwich_sweep(f, B, mu, 5, t_min=2)
        assert [row.lower_error for row in rows] == [None] * 4
        for a, b in zip(rows, rows[1:]):
            # rho_t, a primal objective, lies above order t's optimum by at
            # most the absolute gap the stopping test allows
            sol = a.lower.solution
            slack = _TOL * (1.0 + abs(sol.objective) + abs(sol.dual_objective))
            assert b.rho >= a.rho - slack
            # u_t, an eigenvalue over nested spaces, moves only by rounding
            assert b.u <= a.u + 1e-12 * (1.0 + abs(a.u))
        for row in rows:
            lone = lower_bound(f, B, row.t, measure=mu)
            assert abs(row.rho - lone.rho) <= 1e-6
            assert row.lower.extraction.certified == lone.extraction.certified
