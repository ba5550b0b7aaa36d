"""Linear-algebra kernel: semidefinite solver and eigensolvers.

The SDP solved here is in the standard form of SDPA,

    min  c'y   s.t.   A0_j + sum_k y_k A_kj  PSD   for each block j,

with y free and no equality constraints.  The moment relaxations substitute
their normalization y_0 = 1 before the solve, so its terms sit in the
constants A0_j and the solver sees y_1..y_{N-1} only.  The algorithm is an
infeasible-start Mehrotra predictor-corrector with Nesterov-Todd scaling on
the PSD blocks.  Slack blocks S_j track the affine maps, dual blocks Z_j are
their multipliers; at optimality the Z_j are the Gram matrices of the SOS
certificate, and its constant coefficient, the certified lower bound, is
lambda = c_0 + dual objective.

Each block stores its coefficient matrices A_kj as a sparse index pattern
(for moment and localizing blocks, one table of moment positions per term of
g_j), not as a dense (N, d, d) tensor.  The solver touches them only through
A(y) = sum_k y_k A_k and A*(Z) = (<A_k, Z>)_k, both one bincount over the
pattern, and through the Schur complement tr(A_k W^-1 A_l W^-1), built in
O(N d^3) from the pattern as in Fujisawa, Kojima and Nakata, "Exploiting
sparsity in primal-dual interior-point methods for semidefinite programming"
(Math. Prog. 1997).

The Newton systems are solved through the explicit inverse of the Schur
complement's Cholesky factor, formed once per iteration by 2x2 block
recursion (``_lower_inv``); each of the iteration's four solves (predictor
and corrector, each with one refinement step) is then two matrix-vector
products.  The NT scaling reads its inverse factor off the SVD it already
computes, so the module needs numpy alone.

Everything is deterministic: identical inputs and options give identical
iterates within one build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


class SdpBlock:
    """Affine symmetric map y -> const + sum_k y_k A_k, required PSD.

    The coefficient matrices A_k are stored as one sparse pattern, never as a
    dense (N, d, d) tensor: entry e adds val[e] to A_{var[e]} at the flat
    position pos[e] = a*d + b, and repeated entries add up.  The pattern is
    symmetric: it lists (a, b) and (b, a) alike.

    ``SdpBlock(const, coeffs)`` converts dense (N, d, d) coefficients once;
    ``SdpBlock.from_terms`` builds moment and localizing blocks from integer
    index tables.  The solver only uses the three pattern operators
    ``apply``, ``adjoint`` and ``schur``.
    """

    def __init__(self, const, coeffs):
        const = np.asarray(const, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        d = const.shape[0]
        if const.shape != (d, d) or coeffs.ndim != 3 or coeffs.shape[1:] != (d, d):
            raise ValueError("inconsistent block shapes")
        if not np.allclose(const, const.T):
            raise ValueError("block constant matrix must be symmetric")
        if not np.allclose(coeffs, np.transpose(coeffs, (0, 2, 1))):
            raise ValueError("block coefficient matrices must be symmetric")
        k, a, b = np.nonzero(coeffs)
        self._set_pattern(const, coeffs.shape[0], k, a * d + b, coeffs[k, a, b])

    @classmethod
    def from_terms(cls, dim: int, num_vars: int, terms) -> "SdpBlock":
        """Block of side dim equal to sum_i w_i * y[idx_i], with y[-1] read as 1.

        Each term is a weight w_i and a symmetric (dim, dim) table idx_i of
        variable indices, so A_k holds w_i wherever idx_i equals k, and the
        constant holds w_i wherever idx_i equals -1.
        """
        tables = [np.asarray(idx) for _, idx in terms]
        for idx in tables:
            if idx.shape != (dim, dim) or not np.array_equal(idx, idx.T):
                raise ValueError("index tables must be symmetric and of the block's shape")
            if idx.min() < -1 or idx.max() >= num_vars:
                raise ValueError("block variable index out of range")
        var = np.asarray(tables, dtype=np.intp).ravel()
        pos = np.tile(np.arange(dim * dim), len(tables))
        val = np.repeat([float(w) for w, _ in terms], dim * dim)
        one = var == -1
        const = np.bincount(pos[one], val[one], minlength=dim * dim).reshape(dim, dim)
        blk = cls.__new__(cls)
        blk._set_pattern(const, num_vars, var[~one], pos[~one], val[~one])
        return blk

    def _set_pattern(self, const, num_vars, var, pos, val):
        d = const.shape[0]
        var = np.asarray(var, dtype=np.intp)
        pos = np.asarray(pos, dtype=np.intp)
        self.const = const
        self.num_vars = num_vars
        self.var, self.pos, self.val = var, pos, np.asarray(val, dtype=float)

        # Schur complement plan.  Scatter: row (a, l) of the stacked products
        # A_l W^-1 sums val * W^-1[b] over the entries (l, a, b).
        a, b = np.divmod(pos, d)
        row = a * num_vars + var
        order = np.argsort(row, kind="stable")
        rows, self._scatter_starts = np.unique(row[order], return_index=True)
        self._scatter_a, self._scatter_l = np.divmod(rows, num_vars)
        self._scatter_src, self._scatter_val = b[order], self.val[order]
        # Reduce: <A_k, B> over the upper triangle, off-diagonals counted twice
        # (B = W^-1 A_l W^-1 is symmetric), grouped by k.
        upper = np.flatnonzero(a <= b)
        upper = upper[np.argsort(var[upper], kind="stable")]
        self._reduce_vars, self._reduce_starts = np.unique(var[upper], return_index=True)
        self._reduce_pos = pos[upper]
        self._reduce_val = np.where(a[upper] == b[upper], 1.0, 2.0) * self.val[upper]

    @property
    def dim(self) -> int:
        return self.const.shape[0]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """The linear part sum_k y_k A_k."""
        d = self.dim
        return np.bincount(self.pos, self.val * y[self.var], minlength=d * d).reshape(d, d)

    def at(self, y: np.ndarray) -> np.ndarray:
        return self.const + self.apply(y)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """The vector (<A_k, Z>)_k."""
        return np.bincount(self.var, self.val * Z.ravel()[self.pos], minlength=self.num_vars)

    def schur(self, Winv: np.ndarray) -> np.ndarray:
        """The matrix (tr(A_k Winv A_l Winv))_kl for symmetric Winv, in O(N d^3).

        Scatter rows of Winv into X[a, :, l] = (A_l Winv)[a, :], multiply
        every A_l Winv by Winv in one matmul, and sum the products' entries
        onto k through the pattern.
        """
        d, N = self.dim, self.num_vars
        X = np.zeros((d, d, N))
        X[self._scatter_a, :, self._scatter_l] = np.add.reduceat(
            self._scatter_val[:, None] * Winv[self._scatter_src],
            self._scatter_starts, axis=0)
        B = (Winv @ X.reshape(d, d * N)).reshape(d * d, N)
        del X
        G = B[self._reduce_pos]
        G *= self._reduce_val[:, None]
        M = np.zeros((N, N))
        M[self._reduce_vars] = np.add.reduceat(G, self._reduce_starts, axis=0)
        return M


@dataclass
class SdpProblem:
    c: np.ndarray             # objective over the free variables y
    blocks: List[SdpBlock]

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        N = self.c.shape[0]
        if not self.blocks:
            raise ValueError("at least one PSD block is required")
        for blk in self.blocks:
            if blk.num_vars != N:
                raise ValueError("block coefficient count != number of variables")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class SdpOptions:
    tol: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98


@dataclass
class SdpSolution:
    y: np.ndarray
    objective: float
    dual_objective: float
    dual_blocks: List[np.ndarray]    # Z_j: SOS-certificate Gram matrices
    slack_blocks: List[np.ndarray]   # S_j = A0_j + sum_k y_k A_kj at the iterate
    status: SdpStatus
    iterations: int
    primal_residual: float
    dual_residual: float
    gap: float


def _jittered_cholesky(M: np.ndarray, floor: float) -> np.ndarray:
    """Lower Cholesky factor of M + jitter*I, retrying with escalating jitter
    from floor * max(1, max diag M): roundoff can push the smallest eigenvalue
    of a positive definite M marginally negative."""
    scale = max(1.0, float(np.max(np.diag(M))))
    jitter = 0.0
    for _ in range(6):
        try:
            return np.linalg.cholesky(M + jitter * np.eye(M.shape[0]))
        except np.linalg.LinAlgError:
            jitter = max(10.0 * jitter, floor * scale)
    raise np.linalg.LinAlgError("matrix is not numerically positive definite")


_INV_LEAF = 48


def _lower_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix.

    By 2x2 block recursion, [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1,
    D^-1]]: above the leaves (side <= _INV_LEAF, inverted by LAPACK) the work
    is matrix multiplication.
    """
    n = L.shape[0]
    if n <= _INV_LEAF:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    Ai = _lower_inv(L[:h, :h])
    Di = _lower_inv(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = Ai
    out[h:, h:] = Di
    out[h:, :h] = -Di @ (L[h:, :h] @ Ai)
    return out


def _chol_regularized(M: np.ndarray) -> np.ndarray:
    """Inverse Linv of the lower Cholesky factor of the Schur complement, with
    escalating diagonal jitter (M loses definiteness to roundoff as the
    barrier parameter collapses); M^-1 r = Linv' (Linv r)."""
    return _lower_inv(_jittered_cholesky(M, 1e-14))


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """NT scaling for one block: the inverse factor Rinv and the scaled spectrum.

    With S = Ls Ls', Z = Lz Lz' and Lz' Ls = U diag(lam) V', the factor
    Rinv = diag(lam)^-1/2 U' Lz' (as in SDPT3) equals diag(lam)^1/2 V' Ls^-1,
    so W = R R' with W Z W = S, and both Rinv S Rinv' and R' Z R equal
    diag(lam).
    """
    Ls = _jittered_cholesky(S, 1e-15)
    Lz = _jittered_cholesky(Z, 1e-15)
    U, lam, _ = np.linalg.svd(Lz.T @ Ls)
    Rinv = (U / np.sqrt(lam)).T @ Lz.T
    return Rinv, lam


def _max_step(lam: np.ndarray, dtilde: np.ndarray) -> float:
    """sup {a : diag(lam) + a*dtilde PSD}, via the Lam^{-1/2}-scaled spectrum."""
    s = 1.0 / np.sqrt(lam)
    w = np.linalg.eigvalsh(s[:, None] * dtilde * s[None, :])
    wmin = w[0]
    if wmin >= 0.0:
        return np.inf
    return -1.0 / wmin


def solve_sdp(prob: SdpProblem, opts: Optional[SdpOptions] = None) -> SdpSolution:
    """Primal-dual predictor-corrector path following; see module docstring."""
    opts = opts or SdpOptions()
    c = prob.c
    N = prob.num_vars
    blocks = prob.blocks
    nb = len(blocks)
    dims = [blk.dim for blk in blocks]
    total_dim = sum(dims)

    data_scale = max(1.0, max(float(np.max(np.abs(blk.val), initial=0.0)) for blk in blocks),
                     max(float(np.max(np.abs(blk.const), initial=0.0)) for blk in blocks))
    cost_scale = max(1.0, float(np.max(np.abs(c), initial=0.0)))

    # "big identity" strictly feasible start
    y = np.zeros(N)
    S = [10.0 * data_scale * np.eye(d) for d in dims]
    Z = [10.0 * cost_scale * np.eye(d) for d in dims]

    cnorm = 1.0 + cost_scale

    status = SdpStatus.MAX_ITER
    it = 0
    pres = dres = gap_rel = np.inf
    for it in range(1, opts.max_iter + 1):
        # residuals
        Rres = [blk.at(y) - S[j] for j, blk in enumerate(blocks)]
        rd = c
        for j, blk in enumerate(blocks):
            rd = rd - blk.adjoint(Z[j])
        mu = sum(float(np.sum(S[j] * Z[j])) for j in range(nb)) / total_dim

        pobj = float(c @ y)
        dobj = -sum(float(np.sum(blk.const * Z[j])) for j, blk in enumerate(blocks))
        gap_abs = mu * total_dim
        gap_rel = gap_abs / (1.0 + abs(pobj) + abs(dobj))
        pres = max(float(np.max(np.abs(Rres[j]))) for j in range(nb)) / (1.0 + data_scale)
        dres = float(np.max(np.abs(rd), initial=0.0)) / cnorm

        if pres <= opts.tol and dres <= opts.tol and gap_rel <= opts.tol:
            status = SdpStatus.OPTIMAL
            break

        # crude infeasibility signal: complementarity collapsed but the affine
        # residuals cannot be driven down
        if mu < 1e-14 * data_scale and (pres > 1e-6 or dres > 1e-6):
            status = SdpStatus.INFEASIBLE
            break
        if abs(dobj) > 1e12 * cost_scale or abs(pobj) > 1e12 * cost_scale:
            status = SdpStatus.INFEASIBLE
            break

        try:
            Rinvs, lams = zip(*[_nt_scaling(S[j], Z[j]) for j in range(nb)])

            # Schur complement M_kl = sum_j tr(A_kj W_j^-1 A_lj W_j^-1)
            Hres = []
            M = np.zeros((N, N))
            for j, blk in enumerate(blocks):
                Rinv = Rinvs[j]
                M += blk.schur(Rinv.T @ Rinv)
                Hres.append(Rinv @ Rres[j] @ Rinv.T)
            M = 0.5 * (M + M.T)
            Linv = _chol_regularized(M)

            def newton(Dmats):
                Cs = []
                h = -rd.copy()
                for j in range(nb):
                    Rinv, lam = Rinvs[j], lams[j]
                    Cj = 2.0 * Dmats[j] / (lam[:, None] + lam[None, :])
                    Cs.append(Cj)
                    h += blocks[j].adjoint(Rinv.T @ (Cj - Hres[j]) @ Rinv)

                def directions(dy):
                    dS, dtS, dZ = [], [], []
                    for j, blk in enumerate(blocks):
                        Rinv = Rinvs[j]
                        dS.append(Rres[j] + blk.apply(dy))
                        dtS.append(Rinv @ dS[j] @ Rinv.T)
                        dZ.append(Rinv.T @ (Cs[j] - dtS[j]) @ Rinv)
                    return dS, dtS, dZ

                # M is built from W^-1, so its rounding errors grow like
                # cond(W) as mu -> 0 and dZ stops satisfying the dual equation
                # A*(dZ) = rd; one step of iterative refinement against that
                # equation keeps the dual residual at rounding level.
                dy = Linv.T @ (Linv @ h)
                _, _, dZ = directions(dy)
                err = rd - sum(blk.adjoint(dZ[j]) for j, blk in enumerate(blocks))
                dy = dy - Linv.T @ (Linv @ err)
                dS, dtS, dZ = directions(dy)
                dtZ = [Cs[j] - dtS[j] for j in range(nb)]
                return (dy, dS, dZ, [0.5 * (m + m.T) for m in dtS],
                        [0.5 * (m + m.T) for m in dtZ])

            # predictor (affine scaling direction)
            D_aff = [np.diag(-lams[j] ** 2) for j in range(nb)]
            _, _, _, dtS_a, dtZ_a = newton(D_aff)

            ap = min((_max_step(lams[j], dtS_a[j]) for j in range(nb)), default=np.inf)
            ad = min((_max_step(lams[j], dtZ_a[j]) for j in range(nb)), default=np.inf)
            ap = min(1.0, ap)
            ad = min(1.0, ad)
            mu_aff = sum(float(np.sum(
                (np.diag(lams[j]) + ap * dtS_a[j]) *
                (np.diag(lams[j]) + ad * dtZ_a[j]).T))
                for j in range(nb)) / total_dim
            sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

            # corrector
            D_cor = []
            for j in range(nb):
                lam = lams[j]
                cross = dtS_a[j] @ dtZ_a[j]
                D_cor.append(sigma * mu * np.eye(len(lam)) - np.diag(lam ** 2)
                             - 0.5 * (cross + cross.T))
            dy, dS, dZ, dtS, dtZ = newton(D_cor)
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        ap = min((_max_step(lams[j], dtS[j]) for j in range(nb)), default=np.inf)
        ad = min((_max_step(lams[j], dtZ[j]) for j in range(nb)), default=np.inf)
        ap = min(1.0, opts.step_fraction * ap)
        ad = min(1.0, opts.step_fraction * ad)

        y = y + ap * dy
        for j in range(nb):
            S[j] = 0.5 * ((S[j] + ap * dS[j]) + (S[j] + ap * dS[j]).T)
            Z[j] = 0.5 * ((Z[j] + ad * dZ[j]) + (Z[j] + ad * dZ[j]).T)

    pobj = float(c @ y)
    dobj = -sum(float(np.sum(blk.const * Z[j])) for j, blk in enumerate(blocks))
    return SdpSolution(
        y=y, objective=pobj, dual_objective=dobj,
        dual_blocks=Z, slack_blocks=[blk.at(y) for blk in blocks],
        status=status, iterations=it,
        primal_residual=float(pres), dual_residual=float(dres), gap=float(gap_rel))


def gen_eig_min(A: np.ndarray, B: np.ndarray) -> Tuple[float, np.ndarray]:
    """Smallest lambda with A v = lambda B v, for symmetric A and SPD B.

    Reduced to the standard symmetric problem for C = L^-1 A L^-T, with
    B = L L' and L^-1 from ``_lower_inv``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("B is not positive definite")
    Linv = _lower_inv(L)
    C = Linv @ A @ Linv.T
    w, Q = np.linalg.eigh(0.5 * (C + C.T))
    return float(w[0]), Linv.T @ Q[:, 0]
