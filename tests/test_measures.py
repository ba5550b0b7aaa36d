import numpy as np
import pytest
from conftest import (box_quadrature, dirac_moments, moment_matrix, moment_value,
                      random_polynomial)

from cdmos.measures import CountingHypercube, UniformBox, moments
from cdmos.polyring import Polynomial, coeff_vector


def pairing(p, y):
    """<p, y> = sum_alpha p_alpha y_alpha."""
    return float(coeff_vector(p, y.basis) @ y.values)


class TestUniformBoxMoments:
    def test_symmetric_interval_against_quadrature(self):
        y = moments(UniformBox((-1.0,), (1.0,)), 4)
        expected = [box_quadrature(lambda x, k=k: x[0] ** k, [-1], [1])
                    for k in range(5)]
        np.testing.assert_allclose(y.values, expected, atol=1e-12)
        np.testing.assert_allclose(y.values, [1, 0, 1 / 3, 0, 1 / 5], atol=1e-15)

    def test_unit_interval(self):
        y = moments(UniformBox((0.0,), (1.0,)), 3)
        np.testing.assert_allclose(y.values, [1, 1 / 2, 1 / 3, 1 / 4], atol=1e-15)

    def test_moments_factor_across_coordinates(self, rng):
        box = UniformBox((-1.5, 0.2), (0.5, 2.0))
        y = moments(box, 4)
        for alpha in y.basis:
            oracle = box_quadrature(
                lambda x, a=alpha: x[0] ** a[0] * x[1] ** a[1], box.lo, box.hi)
            assert moment_value(y, alpha) == pytest.approx(oracle, abs=1e-12)

    def test_affine_pushforward_consistency(self, rng):
        # moments over a random box equal the [-1,1]^n moments composed with
        # the affine map, checked against the quadrature oracle
        for _ in range(5):
            lo = rng.uniform(-3, 0, size=2)
            hi = lo + rng.uniform(0.5, 3, size=2)
            box = UniformBox(tuple(lo), tuple(hi))
            y = moments(box, 3)
            mid = (lo + hi) / 2
            half = (hi - lo) / 2
            for alpha in y.basis:
                oracle = box_quadrature(
                    lambda u, a=alpha: np.prod(
                        [(mid[i] + half[i] * u[i]) ** a[i] for i in range(2)]),
                    [-1, -1], [1, 1])
                assert moment_value(y, alpha) == pytest.approx(oracle, abs=1e-11)

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            UniformBox((1.0,), (0.0,))

    @pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (-1.0, float("nan")),
                                        (-float("inf"), 1.0), (-1e308, 1e308),
                                        (1e308, 1.7e308)])
    def test_non_finite_box(self, lo, hi):
        # the recurrence's midpoint (lo + hi)/2 and half-width (hi - lo)/2 must be finite
        with pytest.raises(ValueError, match="finite"):
            UniformBox((lo,), (hi,))


class TestCountingHypercubeMoments:
    def test_degree_two(self):
        y = moments(CountingHypercube(2), 2)
        assert moment_value(y, (0, 0)) == 1.0
        assert moment_value(y, (1, 0)) == 0.0
        assert moment_value(y, (0, 1)) == 0.0
        assert moment_value(y, (1, 1)) == 0.0
        assert moment_value(y, (2, 0)) == 1.0
        assert moment_value(y, (0, 2)) == 1.0

    def test_even_exponents_only(self):
        y = moments(CountingHypercube(3), 4)
        for alpha in y.basis:
            expected = 1.0 if all(a % 2 == 0 for a in alpha) else 0.0
            assert moment_value(y, alpha) == expected

    def test_matches_explicit_sum_over_vertices(self):
        import itertools
        y = moments(CountingHypercube(2), 3)
        for alpha in y.basis:
            brute = np.mean([
                np.prod([s[i] ** alpha[i] for i in range(2)])
                for s in itertools.product([-1, 1], repeat=2)])
            assert moment_value(y, alpha) == pytest.approx(brute, abs=1e-15)


class TestDiracMoments:
    def test_at_zero(self):
        np.testing.assert_array_equal(dirac_moments((0.0,), 3).values,
                                      [1, 0, 0, 0])

    def test_at_minus_one(self):
        np.testing.assert_array_equal(dirac_moments((-1.0,), 2).values,
                                      [1, -1, 1])

    def test_integration_against_dirac_is_evaluation(self, rng):
        for _ in range(10):
            p = random_polynomial(rng, 2, 3)
            x = tuple(rng.uniform(-1, 1, size=2))
            y = dirac_moments(x, 3)
            assert pairing(p, y) == pytest.approx(p(x), rel=1e-12, abs=1e-12)


class TestIntegrate:
    def test_x_squared_on_symmetric_interval(self):
        x = Polynomial.variable(1, 0)
        y = moments(UniformBox((-1.0,), (1.0,)), 4)
        oracle = box_quadrature(lambda p: p[0] ** 2, [-1], [1])
        assert pairing(x * x, y) == pytest.approx(oracle, abs=1e-14)
        assert pairing(x * x, y) == pytest.approx(1 / 3, abs=1e-15)

    def test_constant_one_on_probability_measures(self):
        one1 = Polynomial.constant(1, 1.0)
        one3 = Polynomial.constant(3, 1.0)
        assert pairing(one1, moments(UniformBox((-2.0,), (5.0,)), 2)) == 1.0
        assert pairing(one3, moments(CountingHypercube(3), 2)) == 1.0

    def test_degree_overflow(self):
        x = Polynomial.variable(1, 0)
        with pytest.raises(ValueError):
            pairing(x * x * x, moments(UniformBox((-1.0,), (1.0,)), 2))


@pytest.mark.parametrize("measure", [
    UniformBox((-1.0,), (1.0,)),
    UniformBox((0.0, -2.0), (1.0, 1.0)),
    CountingHypercube(2),
])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_moment_matrices_psd(measure, t):
    # any t with 2t <= 6 checkable from degree-6 moments
    y = moments(measure, 2 * t)
    M = moment_matrix(y, t)
    assert np.linalg.eigvalsh(M)[0] >= -1e-9
