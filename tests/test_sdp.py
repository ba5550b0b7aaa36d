import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import adjoint, localizing_matrix_per_term, random_polynomial

import cdmos
from cdmos.hierarchy import _moment_blocks
from cdmos.measures import MomentSequence
from cdmos.momentmat import localizing_pattern
from cdmos.polyring import Polynomial, coeff_vector, enumerate_basis
from cdmos.sdp import (_TOL, SdpBlock, SdpProblem, SdpStatus, _Layout, _lower_inv,
                       _max_step, _nt_scaling, _stack_cholesky, gen_eig_min, solve_sdp)


def dense_block(const, coeffs):
    """The pattern block of a (d, d) constant and (N, d, d) coefficients A_k,
    both exactly symmetric, so the pattern is symmetric bit for bit."""
    const, coeffs = np.asarray(const, dtype=float), np.asarray(coeffs, dtype=float)
    assert np.array_equal(const, const.T)
    assert np.array_equal(coeffs, coeffs.transpose(0, 2, 1))
    k, a, b = np.nonzero(coeffs)
    return SdpBlock(const, len(coeffs), k, a * len(const) + b, coeffs[k, a, b])


def schur(blk, Winv):
    """blk.schur in a fresh workspace of its own."""
    return blk.schur(Winv, np.empty(blk.schur_floats))


def single_block_problem(c, coeffs, const=None):
    coeffs = np.asarray(coeffs, dtype=float)
    d = coeffs.shape[1]
    blk = dense_block(np.zeros((d, d)) if const is None else const, coeffs)
    return SdpProblem(c=np.asarray(c, dtype=float), blocks=[blk])


def correlation_problem():
    # minimize y1 s.t. [[1, y1],[y1, 1]] PSD -> y1* = -1
    return single_block_problem([1.0], [[[0.0, 1.0], [1.0, 0.0]]], const=np.eye(2))


class TestSolveSdp:
    def test_nonnegativity_scalar(self):
        prob = single_block_problem([1.0], np.ones((1, 1, 1)))
        sol = solve_sdp(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-7)

    def test_two_by_two_correlation(self):
        sol = solve_sdp(correlation_problem())
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-6)
        assert sol.y[0] == pytest.approx(-1.0, abs=1e-6)

    def test_order_one_moment_relaxation_against_grid_oracle(self):
        # min y1 s.t. [[1,y1],[y1,y2]] PSD, 1 - y2 >= 0
        # (the order-1 relaxation of min x on [-1,1], with y0 = 1 substituted)
        coeffs_m = np.zeros((2, 2, 2))
        coeffs_m[0, 0, 1] = coeffs_m[0, 1, 0] = 1.0
        coeffs_m[1, 1, 1] = 1.0
        coeffs_l = np.zeros((2, 1, 1))
        coeffs_l[1, 0, 0] = -1.0
        prob = SdpProblem(
            c=np.array([1.0, 0.0]),
            blocks=[dense_block(np.diag([1.0, 0.0]), coeffs_m),
                    dense_block(np.ones((1, 1)), coeffs_l)])
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
        sol = solve_sdp(correlation_problem())
        assert sol.dual_objective <= sol.objective + 1e-7

    def test_solution_block_feasibility(self):
        prob = correlation_problem()
        sol = solve_sdp(prob)
        for blk in prob.blocks:
            assert np.linalg.eigvalsh(blk.at(sol.y))[0] >= -10 * _TOL

    def test_determinism(self):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0, 0, 1] = coeffs[0, 1, 0] = 1.0
        coeffs[1, 1, 1] = 1.0
        def run():
            prob = SdpProblem(
                c=np.array([1.0, 0.25]),
                blocks=[dense_block(np.diag([1.0, 0.0]), coeffs)])
            return solve_sdp(prob)
        a, b = run(), run()
        assert a.iterations == b.iterations
        assert (a.y == b.y).all()
        assert a.objective == b.objective

    def test_blocks_returned_in_callers_order(self):
        c, blocks = interleaved_problem()
        assert [blk.dim for blk in blocks] == [3, 1, 3, 1]
        sol = solve_sdp(SdpProblem(c=c, blocks=blocks))
        perm = [3, 2, 0, 1]
        psol = solve_sdp(SdpProblem(c=c, blocks=[blocks[j] for j in perm]))
        assert sol.status is SdpStatus.OPTIMAL and psol.status is SdpStatus.OPTIMAL
        assert np.max(np.abs(sol.y - psol.y)) <= 1e-10
        assert [m.shape for m in sol.dual_blocks] == [(blk.dim, blk.dim) for blk in blocks]
        for i, j in enumerate(perm):
            assert np.max(np.abs(sol.dual_blocks[j] - psol.dual_blocks[i])) <= 1e-10

    def test_infeasible_pair(self):
        # [y1 - 1] PSD and [-y1] PSD cannot both hold
        blk1 = dense_block(np.array([[-1.0]]), np.array([[[1.0]]]))
        blk2 = dense_block(np.array([[0.0]]), np.array([[[-1.0]]]))
        prob = SdpProblem(c=np.array([0.0]), blocks=[blk1, blk2])
        # the dual objective diverges while the primal residual stays put:
        # infeasible, not unbounded
        assert solve_sdp(prob).status is SdpStatus.INFEASIBLE

    def test_optimal_candidate_is_returned(self):
        # the solver's own optimum passes, with iterations 0, and is returned
        c, blocks = interleaved_problem()
        prob = SdpProblem(c=c, blocks=blocks)
        sol = solve_sdp(prob)
        pair = solve_sdp(prob, candidate=(sol.y, sol.dual_blocks))
        assert pair.status is SdpStatus.OPTIMAL and pair.iterations == 0
        assert pair.objective == sol.objective
        assert max(pair.primal_residual, pair.dual_residual, pair.gap) <= _TOL
        np.testing.assert_array_equal(pair.y, sol.y)
        for Z, Zsol in zip(pair.dual_blocks, sol.dual_blocks):
            np.testing.assert_array_equal(Z, Zsol)

    @pytest.mark.parametrize("dy, scale", [
        (-1e-6, 1.0),    # [[1, y], [y, 1]] is indefinite at y = -1 - 1e-6
        (0.0, 1.001),    # Z no longer matches c: the dual residual is 1e-3 / 2
        (1e-3, 1.0),     # a feasible y away from the optimum leaves a gap of 1e-3
    ])
    def test_failed_candidate_is_solved_cold(self, dy, scale):
        prob = correlation_problem()
        sol = solve_sdp(prob)
        got = solve_sdp(prob, candidate=(sol.y + dy, [scale * Z for Z in sol.dual_blocks]))
        assert got.iterations == sol.iterations > 0
        np.testing.assert_array_equal(got.y, sol.y)
        np.testing.assert_array_equal(got.dual_blocks[0], sol.dual_blocks[0])

    @pytest.mark.parametrize("y, Zs", [
        (np.zeros(2), [np.eye(2)]),
        (np.zeros(1), [np.eye(3)]),
        (np.zeros(1), [np.eye(2), np.eye(2)]),
    ], ids=["y length", "block side", "block count"])
    def test_malformed_candidate_rejected(self, y, Zs):
        with pytest.raises(ValueError, match="candidate does not match"):
            solve_sdp(correlation_problem(), candidate=(y, Zs))

    def test_problem_needs_a_block(self):
        with pytest.raises(ValueError, match="at least one PSD block"):
            SdpProblem(c=np.ones(2), blocks=[])

    def test_problem_blocks_match_its_variables(self):
        blk = correlation_problem().blocks[0]
        with pytest.raises(ValueError, match="coefficient count != number of variables"):
            SdpProblem(c=np.ones(2), blocks=[blk])


def interleaved_problem():
    """A small SDP in three variables whose blocks have sides 3, 1, 3, 1.

    The first block, a correlation matrix in y, keeps the feasible set
    bounded; the others are random but strictly feasible at y = 0, so the
    data are generic and the optimal y and dual blocks are unique.
    """
    rng = np.random.default_rng(7)
    corr = np.zeros((3, 3, 3))
    for k, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
        corr[k, a, b] = corr[k, b, a] = 1.0
    X = rng.standard_normal((3, 3, 3))
    return rng.standard_normal(3), [
        dense_block(np.eye(3), corr),
        dense_block([[0.5]], rng.standard_normal((3, 1, 1))),
        dense_block(np.eye(3), 0.5 * (X + X.transpose(0, 2, 1))),
        dense_block([[0.8]], rng.standard_normal((3, 1, 1)))]


def dense_moments(gs, basis):
    """Per pair (g, s), the dense constant and (N - 1, d, d) coefficients of
    M_s(g y) with y_0 = 1 substituted: the per-term sum on unit moment
    vectors."""
    units = [MomentSequence(e, basis) for e in np.eye(len(basis))]
    out = []
    for g, s in gs:
        mats = np.array([localizing_matrix_per_term(y, g, s) for y in units])
        out.append((mats[0], mats[1:]))
    return out


def dense_and_pattern_blocks(rng):
    """Random small blocks, each with its dense constant and (N, d, d)
    coefficient tensor."""
    N, d = 9, 5
    coeffs = rng.standard_normal((N, d, d)) * (rng.random((N, d, d)) < 0.4)
    coeffs = coeffs + coeffs.transpose(0, 2, 1)
    yield dense_block(np.zeros((d, d)), coeffs), np.zeros((d, d)), coeffs
    # localizing block of g = 1.5 - 0.5 x1 + 2 x2^2 at order 1 in two
    # variables, y_0 = 1 substituted, so the entries at y_0 sit in the constant
    basis = enumerate_basis(2, 4)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    g = 1.5 - 0.5 * x1 + 2.0 * x2 * x2
    [(const, coeffs)] = dense_moments([(g, 1)], basis)
    yield _moment_blocks([(g, 1)], basis)[0], const, coeffs
    # its whole pattern over y_0..y_14 with the constant term split in two
    # (1 + 0.5), so its (k, a, b) entries repeat across terms
    one, rest = Polynomial.constant(2, 1.0), g - 1.5
    var, pos, val = map(np.concatenate, zip(*(localizing_pattern(basis, h, 1)
                                               for h in (one, rest, 0.5 * one))))
    yield (SdpBlock(np.zeros((3, 3)), len(basis), var, pos, val), np.zeros((3, 3)),
           np.concatenate([const[None], coeffs]))


class TestPatternOperators:
    """apply, adjoint and schur against the dense formulas they replace."""

    @staticmethod
    def assert_close(got, ref):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_against_dense_formulas(self, rng):
        for blk, const, coeffs in dense_and_pattern_blocks(rng):
            N, d = coeffs.shape[:2]
            y = rng.standard_normal(N)
            X = rng.standard_normal((d, d))
            Z = X + X.T
            W = X @ X.T + d * np.eye(d)
            Winv = np.linalg.inv(W)
            np.testing.assert_array_equal(blk.const, const)
            self.assert_close(blk.apply(y), np.einsum("k,kab->ab", y, coeffs))
            self.assert_close(adjoint(blk, Z), np.einsum("kab,ab->k", coeffs, Z))
            ref = np.array([[np.trace(Winv @ Ak @ Winv @ Al) for Al in coeffs]
                            for Ak in coeffs])
            self.assert_close(schur(blk, Winv), ref)

    def test_stack_matches_members(self, rng):
        # moment and 2-term localizing blocks of one side, y_0 substituted
        basis = enumerate_basis(2, 4)
        N = len(basis) - 1
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        gs = [(Polynomial.constant(2, 1.0), 1), (1.0 - x1 * x1, 1), (1.0 - x2 * x2, 1)]
        blocks = _moment_blocks(gs, basis)
        dense = dense_moments(gs, basis)
        stack = SdpBlock.stack(blocks)
        y = rng.standard_normal(N)
        X = rng.standard_normal((3, 3, 3))
        Z = X + X.transpose(0, 2, 1)
        Winv = np.linalg.inv(X @ X.transpose(0, 2, 1) + 3 * np.eye(3))
        np.testing.assert_array_equal(stack.const, np.stack([c for c, _ in dense]))
        self.assert_close(stack.apply(y), np.stack([blk.apply(y) for blk in blocks]))
        self.assert_close(adjoint(stack, Z), sum(adjoint(blk, Zj) for blk, Zj in zip(blocks, Z)))
        self.assert_close(schur(stack, Winv), sum(schur(blk, W) for blk, W in zip(blocks, Winv)))
        ref = sum(np.array([[np.trace(W @ Ak @ W @ Al) for Al in coeffs] for Ak in coeffs])
                  for (_, coeffs), W in zip(dense, Winv))
        self.assert_close(schur(stack, Winv), ref)
        with pytest.raises(ValueError, match="one side"):
            SdpBlock.stack(blocks[:1] + _moment_blocks([(gs[0][0], 2)], basis))

    def test_layout_matches_each_stack_bit_for_bit(self, rng):
        # solve_sdp reads the stacks through one flat layout; each of its
        # sums takes the same terms in the same order as the stack's own
        # operator, so the iterates do not depend on the layout
        stacks = [stack for stack, _, _ in box_dense_stacks(rng)]
        lay = _Layout(stacks)
        y = rng.standard_normal(stacks[0].num_vars)
        Z = rng.standard_normal(lay.hi[-1])
        assert lay.apply(y).tobytes() == b"".join(blk.apply(y).tobytes() for blk in stacks)
        for got, blk, Zs in zip(lay.adjoints(Z), stacks, lay.views(Z)):
            assert got.tobytes() == adjoint(blk, Zs).tobytes()
        assert lay.sums(Z) == [float(np.sum(Zs)) for Zs in lay.views(Z)]
        # the transposes, lam_a, lam_b and the identity, gathered
        lams = [rng.uniform(1.0, 2.0, blk.const.shape[:2]) for blk in stacks]
        lam = np.concatenate([v.ravel() for v in lams])
        for s, (blk, v, Zs) in enumerate(zip(stacks, lams, lay.views(Z))):
            shape = blk.const.shape
            for got, ref in [(Z[lay.perm], np.swapaxes(Zs, -1, -2)),
                             (lam[lay.row], np.broadcast_to(v[..., :, None], shape)),
                             (lam[lay.col], np.broadcast_to(v[..., None, :], shape)),
                             (lay.eye, np.broadcast_to(np.eye(blk.dim), shape))]:
                np.testing.assert_array_equal(lay.views(got)[s], ref)

    def test_at_is_exactly_symmetric(self, rng):
        # solve_sdp never symmetrizes S: the pattern lists (a, b) and (b, a)
        # with the same terms in the same order, so A(y) is symmetric bit
        # for bit; a moment block, a localizing block of a g with all ten
        # terms of degree <= 2, and a stack, on y of widely spread scales
        basis = enumerate_basis(3, 6)
        g = random_polynomial(rng, 3, 2, density=1.0)
        assert len(g.terms) == 10
        blocks = _moment_blocks([(Polynomial.constant(3, 1.0), 3), (g, 2)], basis)
        xs = [Polynomial.variable(3, i) for i in range(3)]
        blocks.append(SdpBlock.stack(_moment_blocks([(1.0 - x * x, 2) for x in xs], basis)))
        for blk in blocks:
            for _ in range(5):
                y = rng.standard_normal(blk.num_vars) * 10.0 ** rng.uniform(-6, 6, blk.num_vars)
                M = blk.at(y)
                np.testing.assert_array_equal(M, np.swapaxes(M, -1, -2))

    def test_schur_of_large_blocks(self, rng):
        # N = 209 (four variables, degree 6): the reduction onto k takes
        # several gathers, some of one layer and some of several
        basis = enumerate_basis(4, 6)
        N = len(basis) - 1
        for stack, Winv, gs in box_dense_stacks(rng):
            # tr(A_k W A_l W) = vec(A_k)' (W kron W) vec(A_l) for symmetric W
            ref = sum(C @ np.kron(W, W) @ C.T for C, W in zip(
                [coeffs.reshape(N, -1) for _, coeffs in dense_moments(gs, basis)], Winv))
            self.assert_close(schur(stack, Winv), ref)

    @pytest.mark.parametrize("first", [0, 1])
    def test_schur_shared_workspace_is_exact(self, rng, first):
        # one buffer for both stacks, in either order: NaN before the first
        # call, then left dirty by the other stack's build
        stacks = box_dense_stacks(rng)
        work = np.full(max(stack.schur_floats for stack, _, _ in stacks), np.nan)
        for stack, Winv, _ in stacks[first:] + stacks[:first]:
            np.testing.assert_array_equal(stack.schur(Winv, work), schur(stack, Winv))

    def test_schur_with_workspace_allocates_little(self, rng):
        # numpy reports its buffers to tracemalloc: a call that passes the
        # workspace allocates far less than one X (g d^2 N floats)
        stacks = box_dense_stacks(rng)
        work = np.empty(max(stack.schur_floats for stack, _, _ in stacks))
        for stack, Winv, _ in stacks:
            stack.schur(Winv, work)            # builds the gather plan
            tracemalloc.start()
            try:
                stack.schur(Winv, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < stack.const.size * stack.num_vars * 8 / 4


def spd(rng, d):
    X = rng.standard_normal((d, d))
    return X @ X.T + d * np.eye(d)


def box_dense_stacks(rng):
    """The stacks of a four-variable box problem at order 3 (N = 209): the
    side-35 moment block, and the four side-15 localizing blocks of
    1 - x_i^2; each with random SPD Winv and the members' pairs (g, s)."""
    basis = enumerate_basis(4, 6)
    xs = [Polynomial.variable(4, i) for i in range(4)]
    out = []
    for dim, gs in [(35, [(Polynomial.constant(4, 1.0), 3)]),
                    (15, [(1.0 - x * x, 2) for x in xs])]:
        stack = SdpBlock.stack(_moment_blocks(gs, basis))
        Winv = np.linalg.inv(np.stack([spd(rng, dim) for _ in gs]))
        out.append((stack, Winv, gs))
    return out


class TestDenseKernels:
    # sides around the block-recursion leaf of 48, and a few levels deep
    @pytest.mark.parametrize("d", [1, 47, 48, 49, 97, 209])
    def test_lower_inv_against_inv(self, rng, d):
        L = np.linalg.cholesky(spd(rng, d))
        Linv = _lower_inv(L)
        np.testing.assert_array_equal(Linv, np.tril(Linv))
        ref = np.linalg.inv(L)
        assert np.linalg.norm(Linv - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("d", [1, 4, 12])
    def test_nt_scaling_identities(self, rng, d):
        S, Z = spd(rng, d), spd(rng, d)
        Rinv, lam = _nt_scaling(np.stack((S, Z)))
        scale = np.linalg.norm(S) + np.linalg.norm(Z)
        assert np.linalg.norm(Rinv @ S @ Rinv.T - np.diag(lam)) <= 1e-12 * scale
        assert np.linalg.norm(Rinv.T @ np.diag(lam) @ Rinv - Z) <= 1e-12 * scale

    @pytest.mark.parametrize("shape", [(1,), (5,), (3, 5)])
    def test_max_step_pair_matches_one_direction(self, rng, shape):
        # the pair's lengths are sup {a : diag(lam) + a*dt PSD} over the
        # stack, each read off one direction's own eigvalsh; a direction
        # that stays in the cone (dt PSD) gives +inf
        lam = rng.uniform(0.1, 2.0, shape)
        s = 1.0 / np.sqrt(lam)

        def one_direction(dt):
            wmin = float(np.linalg.eigvalsh(s[..., :, None] * dt * s[..., None, :])[..., 0].min())
            return np.inf if wmin >= 0.0 else -1.0 / wmin

        X = rng.standard_normal(shape + shape[-1:])
        sym = X + np.swapaxes(X, -1, -2)
        pd = X @ np.swapaxes(X, -1, -2) + np.eye(shape[-1])
        for dtS, dtZ in [(sym, -sym), (sym, pd), (pd, -pd), (pd, pd)]:
            got = _max_step([s[..., :, None] * np.stack((dtS, dtZ)) * s[..., None, :]])
            assert got == (one_direction(dtS), one_direction(dtZ))
            if dtZ is pd:
                assert got[1] == np.inf
        # over several stacks, each direction's least length
        pairs = [s[..., :, None] * np.stack(p) * s[..., None, :] for p in [(sym, pd), (pd, -sym)]]
        assert _max_step(pairs) == tuple(map(min, zip(*(_max_step([p]) for p in pairs))))

    def test_cli_imports_numpy_only(self):
        # every `cdmos` run pays for what the package imports: beyond numpy
        # itself (which loads numpy.random on numpy 1.x), only the standard
        # library may load; scipy and numpy.random in particular may not
        src = str(Path(cdmos.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, numpy; before = set(sys.modules); import cdmos.cli; "
                "print(sorted(m for m in set(sys.modules) - before "
                "if m.split('.')[0] not in sys.stdlib_module_names | {'cdmos'}))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_stack_cholesky_jitters_only_the_singular_member(self, rng):
        S = np.stack([spd(rng, 3), np.ones((3, 3)), spd(rng, 3)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)
        L = _stack_cholesky(S, 1e-15)
        for Lj, Sj in zip(L, S):
            np.testing.assert_array_equal(Lj, _stack_cholesky(Sj, 1e-15))
        for j in (0, 2):
            np.testing.assert_array_equal(L[j], np.linalg.cholesky(S[j]))
        jitter = np.diag(L[1] @ L[1].T - S[1])
        assert np.all(jitter > 0.0)

    @pytest.mark.parametrize("diag, jitter", [
        ((0.5, -0.003), 1e-2),      # floor * max(1, 0.5), then 10x that
        ((4.0, -0.01), 4e-2),
        ((4.0, -39.0), 40.0),       # the fifth and last jitter
        ((4.0, -41.0), None)])      # beyond it
    def test_stack_cholesky_jitter_schedule(self, rng, diag, jitter):
        # a matrix alone and inside a stacked (S, Z) pair get the same factor
        # and the jitter floor * max(1, max diagonal) * 10^k of the first k
        # that factors; the healthy members get none
        m = np.diag(diag)
        pair = np.stack((np.stack((spd(rng, 2), m)), np.stack((m, spd(rng, 2)))))
        if jitter is None:
            for M in (m, pair):
                with pytest.raises(np.linalg.LinAlgError, match="not numerically"):
                    _stack_cholesky(M, 1e-3)
            return
        L = _stack_cholesky(m, 1e-3)
        np.testing.assert_allclose(L @ L.T, m + jitter * np.eye(2), rtol=1e-12)
        Lp = _stack_cholesky(pair, 1e-3)
        assert Lp.shape == pair.shape
        for Lj, Pj in zip(Lp.reshape(-1, 2, 2), pair.reshape(-1, 2, 2)):
            np.testing.assert_array_equal(
                Lj, L if np.array_equal(Pj, m) else np.linalg.cholesky(Pj))


class TestCostModel:
    def test_linalg_calls_per_iteration(self, monkeypatch):
        # order 2 of a quartic on [-1, 1]^2: a stack of one 6x6 moment block
        # and a stack of two 3x3 localizing blocks, N = 14 free moments
        xs = [Polynomial.variable(2, i) for i in range(2)]
        basis = enumerate_basis(2, 4)
        prob = SdpProblem(
            c=coeff_vector(Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (1, 1): -1.0,
                                          (1, 0): 0.5}), basis)[1:],
            blocks=_moment_blocks([(Polynomial.constant(2, 1.0), 2)] +
                                  [(1.0 - x * x, 1) for x in xs], basis))
        counts = dict.fromkeys(["cholesky", "svd", "eigvalsh", "inv"], 0)
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        sol = solve_sdp(prob)
        assert sol.status is SdpStatus.OPTIMAL
        # each iteration but the last measured one takes a step; a step
        # factors, per stack, the (S, Z) pair in one Cholesky, takes one
        # SVD for the NT scaling and one eigvalsh per phase for the step
        # lengths, and factors the Schur complement in one Cholesky, whose
        # inverse (N <= 48) is one leaf
        steps = sol.iterations - 1
        assert steps > 0
        assert counts == {"cholesky": 3 * steps, "svd": 2 * steps,
                          "eigvalsh": 4 * steps, "inv": steps}


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

