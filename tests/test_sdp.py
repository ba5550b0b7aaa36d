import itertools

import numpy as np
import pytest

from cdmos.polyring import enumerate_basis
from cdmos.sdp import (SdpBlock, SdpOptions, SdpProblem, SdpStatus, dump_sdp,
                       gen_eig_min, solve_sdp)


def single_block_problem(c, coeffs, const=None, eq=None):
    coeffs = np.asarray(coeffs, dtype=float)
    d = coeffs.shape[1]
    blk = SdpBlock(const=np.zeros((d, d)) if const is None else const,
                   coeffs=coeffs)
    N = len(c)
    if eq is None:
        E, b = np.zeros((0, N)), np.zeros(0)
    else:
        E, b = eq
    return SdpProblem(c=np.asarray(c, dtype=float), blocks=[blk],
                      eq_lhs=E, eq_rhs=b)


class TestSolveSdp:
    def test_nonnegativity_scalar(self):
        prob = single_block_problem([1.0], np.ones((1, 1, 1)))
        sol = solve_sdp(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-7)

    def test_two_by_two_correlation(self):
        # minimize y1 s.t. [[1, y1],[y1, 1]] PSD, y0 = 1 -> y1* = -1
        coeffs = np.zeros((2, 2, 2))
        coeffs[0] = np.eye(2)
        coeffs[1] = np.array([[0, 1], [1, 0]])
        prob = single_block_problem(
            [0.0, 1.0], coeffs,
            eq=(np.array([[1.0, 0.0]]), np.array([1.0])))
        sol = solve_sdp(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-6)
        assert sol.y[1] == pytest.approx(-1.0, abs=1e-6)

    def test_order_one_moment_relaxation_against_grid_oracle(self):
        # min y1 s.t. y0=1, [[y0,y1],[y1,y2]] PSD, y0 - y2 >= 0
        # (the order-1 relaxation of min x on [-1,1])
        coeffs_m = np.zeros((3, 2, 2))
        coeffs_m[0, 0, 0] = 1.0
        coeffs_m[1, 0, 1] = coeffs_m[1, 1, 0] = 1.0
        coeffs_m[2, 1, 1] = 1.0
        coeffs_l = np.zeros((3, 1, 1))
        coeffs_l[0, 0, 0] = 1.0
        coeffs_l[2, 0, 0] = -1.0
        prob = SdpProblem(
            c=np.array([0.0, 1.0, 0.0]),
            blocks=[SdpBlock(np.zeros((2, 2)), coeffs_m),
                    SdpBlock(np.zeros((1, 1)), coeffs_l)],
            eq_lhs=np.array([[1.0, 0.0, 0.0]]), eq_rhs=np.array([1.0]))
        sol = solve_sdp(prob)
        assert sol.status is SdpStatus.OPTIMAL

        # brute-force grid oracle over feasible (y1, y2)
        best = np.inf
        for y1 in np.linspace(-1.5, 1.5, 301):
            for y2 in np.linspace(-0.5, 1.0, 151):
                M = np.array([[1.0, y1], [y1, y2]])
                if np.linalg.eigvalsh(M)[0] >= -1e-12 and 1.0 - y2 >= 0:
                    best = min(best, y1)
        assert best == pytest.approx(-1.0, abs=1e-2)
        assert sol.objective == pytest.approx(-1.0, abs=1e-6)

    def test_weak_duality(self):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0] = np.eye(2)
        coeffs[1] = np.array([[0, 1], [1, 0]])
        prob = single_block_problem(
            [0.0, 1.0], coeffs,
            eq=(np.array([[1.0, 0.0]]), np.array([1.0])))
        sol = solve_sdp(prob)
        assert sol.dual_objective <= sol.objective + 1e-7

    def test_solution_block_feasibility(self):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0] = np.eye(2)
        coeffs[1] = np.array([[0, 1], [1, 0]])
        prob = single_block_problem(
            [0.0, 1.0], coeffs,
            eq=(np.array([[1.0, 0.0]]), np.array([1.0])))
        sol = solve_sdp(prob)
        for S in sol.slack_blocks:
            assert np.linalg.eigvalsh(S)[0] >= -10 * SdpOptions().tol

    def test_determinism(self):
        coeffs = np.zeros((3, 2, 2))
        coeffs[0, 0, 0] = 1.0
        coeffs[1, 0, 1] = coeffs[1, 1, 0] = 1.0
        coeffs[2, 1, 1] = 1.0
        def run():
            prob = SdpProblem(
                c=np.array([0.0, 1.0, 0.25]),
                blocks=[SdpBlock(np.zeros((2, 2)), coeffs)],
                eq_lhs=np.array([[1.0, 0.0, 0.0]]), eq_rhs=np.array([1.0]))
            return solve_sdp(prob)
        a, b = run(), run()
        assert a.iterations == b.iterations
        assert (a.y == b.y).all()
        assert a.objective == b.objective

    def test_infeasible_pair(self):
        # [y1 - 1] PSD and [-y1] PSD cannot both hold
        blk1 = SdpBlock(np.array([[-1.0]]), np.array([[[1.0]]]))
        blk2 = SdpBlock(np.array([[0.0]]), np.array([[[-1.0]]]))
        prob = SdpProblem(c=np.array([0.0]), blocks=[blk1, blk2],
                          eq_lhs=np.zeros((0, 1)), eq_rhs=np.zeros(0))
        sol = solve_sdp(prob, SdpOptions(max_iter=100))
        assert sol.status in (SdpStatus.INFEASIBLE, SdpStatus.MAX_ITER)
        assert sol.status is not SdpStatus.OPTIMAL


def dense_and_pattern_blocks(rng):
    """Random small blocks, each with its dense (N, d, d) coefficient tensor."""
    N, d = 9, 5
    coeffs = rng.standard_normal((N, d, d)) * (rng.random((N, d, d)) < 0.4)
    coeffs = coeffs + coeffs.transpose(0, 2, 1)
    yield SdpBlock(np.zeros((d, d)), coeffs), coeffs
    # localizing-style block of g = 1.5 - 0.5 x1 + 2 x2^2 at order 1 in two
    # variables; the constant term appears twice, so its (k, a, b) entries
    # repeat across terms
    basis = enumerate_basis(2, 4)
    terms = [(1.0, basis.sum_index(1)), (-0.5, basis.sum_index(1, (1, 0))),
             (2.0, basis.sum_index(1, (0, 2))), (0.5, basis.sum_index(1))]
    coeffs = np.zeros((len(basis), 3, 3))
    for w, idx in terms:
        for a in range(3):
            for b in range(3):
                coeffs[idx[a, b], a, b] += w
    yield SdpBlock.from_terms(3, len(basis), terms), coeffs


class TestPatternOperators:
    """apply, adjoint and schur against the dense formulas they replace."""

    @staticmethod
    def assert_close(got, ref):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_against_dense_formulas(self, rng):
        for blk, coeffs in dense_and_pattern_blocks(rng):
            N, d = coeffs.shape[:2]
            y = rng.standard_normal(N)
            X = rng.standard_normal((d, d))
            Z = X + X.T
            W = X @ X.T + d * np.eye(d)
            Winv = np.linalg.inv(W)
            self.assert_close(blk.apply(y), np.einsum("k,kab->ab", y, coeffs))
            self.assert_close(blk.adjoint(Z), np.einsum("kab,ab->k", coeffs, Z))
            ref = np.array([[np.trace(Winv @ Ak @ Winv @ Al) for Al in coeffs]
                            for Ak in coeffs])
            self.assert_close(blk.schur(Winv), ref)

    def test_from_terms_validation(self):
        basis = enumerate_basis(1, 2)
        with pytest.raises(ValueError, match="symmetric"):
            SdpBlock.from_terms(2, 3, [(1.0, np.array([[0, 1], [2, 2]]))])
        with pytest.raises(ValueError, match="out of range"):
            SdpBlock.from_terms(2, 2, [(1.0, basis.sum_index(1))])


class TestGenEigMin:
    def test_identity_mass(self):
        lam, v = gen_eig_min(np.diag([2.0, 5.0]), np.eye(2))
        assert lam == pytest.approx(2.0)

    def test_proportional_pencil(self, rng):
        A = rng.standard_normal((5, 5))
        B = A @ A.T + 5 * np.eye(5)
        lam, v = gen_eig_min(2.0 * B, B)
        assert lam == pytest.approx(2.0, rel=1e-10)

    def test_residual(self, rng):
        X = rng.standard_normal((6, 6))
        A = 0.5 * (X + X.T)
        Y = rng.standard_normal((6, 6))
        B = Y @ Y.T + 3 * np.eye(6)
        lam, v = gen_eig_min(A, B)
        assert np.linalg.norm(A @ v - lam * B @ v) <= 1e-8 * np.linalg.norm(A)

    def test_rejects_indefinite_mass(self):
        with pytest.raises(np.linalg.LinAlgError):
            gen_eig_min(np.eye(2), np.diag([1.0, -1.0]))


def test_dump_round_readable():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = np.array([[0, 1], [1, 0]])
    prob = single_block_problem(
        [0.0, 1.0], coeffs, eq=(np.array([[1.0, 0.0]]), np.array([1.0])))
    text = dump_sdp(prob)
    assert "nvars 2" in text
    assert "blockdims 2" in text
    assert "eq 0 rhs 1.0" in text
