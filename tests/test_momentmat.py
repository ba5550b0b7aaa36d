import numpy as np
import pytest
from conftest import (dirac_moments, localizing_matrix_per_term, make_moment_sequence,
                      moment_matrix, moment_value, random_polynomial)
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmos.measures import UniformBox, moments
from cdmos.momentmat import _pair_ranks, localizing_matrix
from cdmos.polyring import Polynomial, enumerate_basis, monomial_values


class TestLocalizingMatrix:
    def test_moment_matrix_of_uniform(self):
        y = moments(UniformBox((-1.0,), (1.0,)), 4)
        M = moment_matrix(y, 1)
        np.testing.assert_allclose(M, [[1, 0], [0, 1 / 3]], atol=1e-15)

    def test_vanishing_constraint_kills_dirac(self):
        x = Polynomial.variable(1, 0)
        y = dirac_moments((1.0,), 4)
        M = localizing_matrix(y, 1.0 - x * x, 1)
        np.testing.assert_allclose(M, np.zeros((2, 2)), atol=1e-14)

    def test_rank_one_dirac_identity(self, rng):
        # M_s(g * dirac(x)) = g(x) v_s(x) v_s(x)'
        for _ in range(10):
            g = random_polynomial(rng, 2, 2)
            x = tuple(rng.uniform(-1, 1, size=2))
            s = 2
            y = dirac_moments(x, 2 * s + g.degree)
            M = localizing_matrix(y, g, s)
            v = monomial_values(enumerate_basis(2, s), x)
            np.testing.assert_allclose(M, g(x) * np.outer(v, v), atol=1e-12)

    def test_dirac_localizing_psd_for_feasible_point(self, rng):
        x = Polynomial.variable(1, 0)
        g = 1.0 - x * x
        for _ in range(10):
            pt = (float(rng.uniform(-1, 1)),)
            y = dirac_moments(pt, 2 * 1 + g.degree)
            M = localizing_matrix(y, g, 1)
            assert np.linalg.eigvalsh(M)[0] >= -1e-10

    def test_symmetry_exact(self, rng):
        g = random_polynomial(rng, 2, 3)
        y = moments(UniformBox((-1.0, -1.0), (1.0, 1.0)), 2 * 2 + g.degree)
        M = localizing_matrix(y, g, 2)
        assert (M == M.T).all()

    def test_linearity_in_moments(self, rng):
        g = random_polynomial(rng, 1, 2)
        s = 1
        t = 2 * s + g.degree
        basis = enumerate_basis(1, t)
        y1 = make_moment_sequence(1, t, rng.standard_normal(len(basis)))
        y2 = make_moment_sequence(1, t, rng.standard_normal(len(basis)))
        a, b = 0.75, -2.5
        comb = make_moment_sequence(1, t, a * y1.values + b * y2.values)
        M = localizing_matrix(comb, g, s)
        expected = (a * localizing_matrix(y1, g, s) +
                    b * localizing_matrix(y2, g, s))
        np.testing.assert_allclose(M, expected, atol=1e-12)

    @given(n=st.integers(1, 3), s=st.integers(0, 2), extra=st.integers(0, 2),
           terms=st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                                 st.floats(-1.0, 1.0), max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_matches_definition(self, n, s, extra, terms, seed):
        # M[a, b] = sum_gamma g_gamma y_{alpha_a + alpha_b + gamma}, looked up
        # one monomial at a time, on moment sequences longer than needed too
        g = Polynomial(n, {gamma[:n]: c for gamma, c in terms.items()})
        t = 2 * s + g.degree + extra
        rng = np.random.default_rng(seed)
        y = make_moment_sequence(n, t, rng.standard_normal(len(enumerate_basis(n, t))))
        basis = enumerate_basis(n, s)
        expected = np.array([[sum(c * moment_value(y, tuple(p + q + r for p, q, r in zip(a, b, gamma)))
                                  for gamma, c in g.terms.items())
                              for b in basis] for a in basis]).reshape(len(basis), len(basis))
        np.testing.assert_allclose(localizing_matrix(y, g, s), expected,
                                   rtol=1e-13, atol=1e-13)

    @given(n=st.integers(1, 3), s=st.integers(0, 3),
           terms=st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                 st.floats(-1.0, 1.0), max_size=6),
           lo=st.lists(st.floats(-2.0, 1.0), min_size=3, max_size=3),
           width=st.lists(st.floats(0.25, 2.0), min_size=3, max_size=3))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_bit_identical_to_per_term_sum(self, n, s, terms, lo, width):
        # the shifted-moment route adds the same terms in the same order as
        # one table per term, so it is exact, not close; g = 1 is the moment
        # matrix and g = x_i the extraction's multiplication matrices
        box = UniformBox(lo[:n], [a + w for a, w in zip(lo, width)][:n])
        gs = [Polynomial(n, {gamma[:n]: c for gamma, c in terms.items()}),
              Polynomial.constant(n, 1.0)] + [Polynomial.variable(n, i) for i in range(n)]
        for g in gs:
            y = moments(box, 2 * s + g.degree)
            assert np.array_equal(localizing_matrix(y, g, s),
                                  localizing_matrix_per_term(y, g, s))

    def test_too_short_moment_sequence(self):
        y = moments(UniformBox((-1.0,), (1.0,)), 2)
        with pytest.raises(ValueError, match="too short"):
            moment_matrix(y, 2)

    @pytest.mark.parametrize("n, s", [(1, 3), (2, 2), (4, 1)])
    def test_pair_ranks_cached_read_only(self, n, s):
        # one table per (n, s), shared by every block of that order: the
        # ranks of alpha_a + alpha_b in the degree-2s basis, row-major
        b = enumerate_basis(n, 2 * s)
        ranks = _pair_ranks(b, s)
        assert _pair_ranks(enumerate_basis(n, 2 * s + 1), s) is ranks
        assert not ranks.flags.writeable
        alphas = list(enumerate_basis(n, s))
        position = {alpha: i for i, alpha in enumerate(b)}
        assert ranks.tolist() == [position[tuple(x + y for x, y in zip(a, c))]
                                  for a in alphas for c in alphas]
        with pytest.raises(ValueError, match="read-only"):
            ranks[0] = 1
