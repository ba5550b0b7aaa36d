import itertools
import math

import numpy as np
import pytest
from conftest import vector_to_poly
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmos.polyring import (PolyParseError, Polynomial, _binomials, _grlex_rank,
                            coeff_vector, enumerate_basis, grlex_key, monomial_values,
                            parse_polynomial)


class TestEnumerateBasis:
    def test_univariate(self):
        b = enumerate_basis(1, 2)
        assert list(b) == [(0,), (1,), (2,)]

    def test_bivariate_degree_one(self):
        b = enumerate_basis(2, 1)
        assert list(b) == [(0, 0), (1, 0), (0, 1)]

    def test_size_matches_binomial(self):
        # brute-force enumeration oracle: filter the grid, sort by grlex_key
        for n, t in itertools.product(range(1, 6), range(6)):
            brute = [a for a in itertools.product(range(t + 1), repeat=n)
                     if sum(a) <= t]
            b = enumerate_basis(n, t)
            assert len(b) == len(brute) == math.comb(n + t, t)
            assert list(b) == sorted(brute, key=grlex_key)
            assert b.array.tolist() == [list(a) for a in sorted(brute, key=grlex_key)]
            with pytest.raises(ValueError, match="read-only"):
                b.array[0, 0] = 1

    def test_three_vars_degree_four_is_35(self):
        assert len(enumerate_basis(3, 4)) == 35

    def test_position_is_inverse_of_enumeration(self):
        b = enumerate_basis(3, 3)
        for i, alpha in enumerate(b):
            assert _grlex_rank(np.array(alpha)) == i

    # the benchmark workloads' moment bases: cube_wide (n = 10, 2t = 2),
    # box_dense (4, 6) and box_deep (2, 12)
    @pytest.mark.parametrize("n, t", [(10, 2), (4, 6), (2, 12)])
    def test_rank_is_enumeration_position(self, n, t):
        b = enumerate_basis(n, t)
        for _ in range(2):      # the second pass reads the cached tables
            np.testing.assert_array_equal(_grlex_rank(b.array), np.arange(len(b)))
        assert [_grlex_rank(np.array(alpha)) for alpha in b] == list(range(len(b)))

    def test_binomial_table_is_cached_read_only(self):
        # the table is shared by every later call, so no caller may write it
        table = _binomials(9, 4)
        assert _binomials(9, 4) is table
        assert not table.flags.writeable
        assert table.tolist() == [[math.comb(a, b) for b in range(5)] for a in range(9)]
        with pytest.raises(ValueError, match="read-only"):
            table[8, 4] = 0

    def test_position_bounds(self):
        b = enumerate_basis(2, 4)
        assert _grlex_rank(np.array((0, 4))) == len(b) - 1
        assert (0, 4) in b and (1, 4) not in b and (1,) not in b and (-1, 2) not in b

    def test_strictly_increasing(self):
        b = enumerate_basis(2, 4)
        keys = [grlex_key(a) for a in b]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 2)


@settings(derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
                min_size=2, max_size=20))
def test_grlex_is_total_and_idempotent(alphas):
    once = sorted(alphas, key=grlex_key)
    assert sorted(once, key=grlex_key) == once
    for a, b in zip(once, once[1:]):
        if a != b:
            assert grlex_key(a) < grlex_key(b)


class TestPolynomialEval:
    def test_known_values(self):
        x = Polynomial.variable(1, 0)
        p = 1.0 - x * x
        assert p((1.0,)) == 0.0
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        q = x1 * x2 + 2.0
        assert q((3.0, -1.0)) == -1.0

    def test_matches_per_term_oracle(self, rng):
        from conftest import random_polynomial
        for _ in range(20):
            p = random_polynomial(rng, 2, 3)
            x = rng.uniform(-2, 2, size=2)
            oracle = sum(c * x[0] ** a[0] * x[1] ** a[1]
                         for a, c in p.terms.items())
            assert p(tuple(x)) == pytest.approx(oracle, rel=1e-13, abs=1e-13)

    def test_dimension_mismatch(self):
        p = Polynomial.variable(2, 0)
        with pytest.raises(ValueError):
            p((1.0,))


class TestArithmetic:
    def test_difference_of_squares(self):
        x = Polynomial.variable(1, 0)
        assert (1.0 + x) * (1.0 - x) == 1.0 - x * x

    def test_additive_inverse_gives_zero(self):
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = 3.0 * x1 * x1 - x2 + 1.0
        assert p + (-1.0) * p == Polynomial(2)
        assert (p + (-1.0) * p).degree == 0

    def test_product_degree_additive(self, rng):
        from conftest import random_polynomial
        for _ in range(50):
            p = random_polynomial(rng, 2, int(rng.integers(1, 4)), density=0.9)
            q = random_polynomial(rng, 2, int(rng.integers(1, 4)), density=0.9)
            # convolution oracle for the top-degree coefficients
            conv = {}
            for a, ca in p.terms.items():
                for b, cb in q.terms.items():
                    k = (a[0] + b[0], a[1] + b[1])
                    conv[k] = conv.get(k, 0.0) + ca * cb
            conv = {k: v for k, v in conv.items() if v != 0.0}
            prod = p * q
            assert prod.terms == pytest.approx(conv)
            if conv:
                assert prod.degree == max(sum(k) for k in conv)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(1, 0) + Polynomial.variable(2, 0)

    @pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            Polynomial(1, {(1,): c})

    def test_overflowing_arithmetic_rejected(self):
        # every polynomial, parsed or computed, goes through the same check
        x = Polynomial.variable(1, 0)
        with pytest.raises(ValueError, match="non-finite coefficient inf at exponent"):
            (1e200 * x) * (1e200 * x)
        with pytest.raises(ValueError, match="non-finite coefficient inf at exponent"):
            1.5e308 * x + 1.5e308 * x

    @given(st.integers(-5, 5), st.integers(-5, 5))
    @settings(derandomize=True, max_examples=30)
    def test_eval_multiplicative(self, a, b):
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x1 * x1 - 2.0 * x2 + 1.0
        q = x1 * x2 + 3.0
        x = (float(a) / 2, float(b) / 2)
        lhs = (p * q)(x)
        rhs = p(x) * q(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestCoeffVector:
    def test_known_values(self):
        x = Polynomial.variable(1, 0)
        b = enumerate_basis(1, 2)
        assert coeff_vector(1.0 - x * x, b).tolist() == [1.0, 0.0, -1.0]

    def test_zero_polynomial(self):
        b = enumerate_basis(2, 2)
        assert not coeff_vector(Polynomial(2), b).any()

    def test_round_trip_identity(self, rng):
        b = enumerate_basis(2, 3)
        for _ in range(10):
            v = rng.standard_normal(len(b))
            back = coeff_vector(vector_to_poly(v, b), b)
            np.testing.assert_array_equal(back, v)

    def test_pairing_evaluates_polynomial(self, rng):
        from conftest import random_polynomial
        b = enumerate_basis(2, 4)
        p = random_polynomial(rng, 2, 4)
        v = coeff_vector(p, b)
        x = (0.3, -0.7)
        assert float(v @ monomial_values(b, x)) == pytest.approx(p(x), rel=1e-12)

    def test_monomial_values_batch_rows(self, rng):
        b = enumerate_basis(3, 4)
        X = rng.uniform(-1.5, 1.5, size=(25, 3))
        V = monomial_values(b, X)
        assert V.shape == (25, len(b))
        for i, x in enumerate(X):
            # per-monomial loop oracle; NumPy's vectorized power may differ
            # from Python's ** by an ulp per factor
            oracle = [math.prod(float(xi) ** a for xi, a in zip(x, alpha))
                      for alpha in b]
            np.testing.assert_array_equal(V[i], monomial_values(b, x))
            np.testing.assert_allclose(V[i], oracle, rtol=8 * np.finfo(float).eps, atol=0)
        with pytest.raises(ValueError, match="dimension"):
            monomial_values(b, X[:, :2])

    def test_degree_overflow(self):
        x = Polynomial.variable(1, 0)
        with pytest.raises(ValueError):
            coeff_vector(x * x * x, enumerate_basis(1, 2))


class TestParsing:
    def test_basic(self):
        p = parse_polynomial("1 - x1^2 + 2 x1 x2", ["x1", "x2"])
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert p == 1.0 - x1 * x1 + 2.0 * x1 * x2

    def test_star_and_whitespace_insensitive(self):
        a = parse_polynomial("3*x1^2*x2", ["x1", "x2"])
        b = parse_polynomial("3 x1 ^ 2 x2", ["x1", "x2"])
        assert a == b

    def test_repeated_terms_sum_in_file_order(self):
        # x2 repeats and keeps its place; x1 cancels and reappears at the end;
        # the constant cancels for good; a zero term adds nothing
        p = parse_polynomial("2 x1 + x2 - 3 + x1 x2 - 2 x1 + 0.5 x2 + 0 x1^2 + 4 x1 + 3",
                             ["x1", "x2"])
        assert list(p.terms.items()) == [((0, 1), 1.5), ((1, 1), 1.0), ((1, 0), 4.0)]

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError, match="x3"):
            parse_polynomial("x1 + x3", ["x1", "x2"])

    def test_dangling_sign(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x1 + ", ["x1"])

    def test_round_trip_through_to_string(self, rng):
        from conftest import random_polynomial
        for _ in range(10):
            p = random_polynomial(rng, 2, 3)
            back = parse_polynomial(p.to_string(), ["x1", "x2"])
            # to_string prints repr's digits where %g's six do not read back
            assert back.terms == p.terms
