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

Each block stores its coefficient matrices A_kj as a sparse index pattern,
which for the relaxations comes from ``momentmat.localizing_pattern``, never
as a dense (N, d, d) tensor.  Before the first iteration the solver stacks
the blocks of each side d into one ``SdpBlock`` with (g, d, d) data, so every
per-block step (residuals, NT scaling, Newton directions, updates) is one
batched numpy call per side; on a box, all the localizing blocks of
1 - x_i^2 share one stack.  Each phase (predictor, corrector) takes its
primal and dual step lengths from one eigvalsh per stack, of the scaled
directions dS~ and dZ~ stacked as a pair.  The solver touches the patterns
only through A(y) = sum_k y_k A_k and A*(Z) = (<A_k, Z>)_k, both one
bincount over the stack, and through the Schur complement
sum_j tr(A_kj W_j^-1 A_lj W_j^-1), built in O(N d^3) per block
from the pattern as in Fujisawa, Kojima and Nakata, "Exploiting sparsity in
primal-dual interior-point methods for semidefinite programming" (Math. Prog.
1997).  Its two sparse sums (rows of W^-1 scattered into A_l W^-1, products
reduced onto k) are direct gathers, done in layers of distinct target rows.
The scatter takes one layer for a moment block, whose rows are all
distinct, and one per term of g_j for a localizing block; the reduction
takes as many as the most upper-triangle entries any A_k has in the stack
(7 for the side-35 moment block of four variables at order 3).  Every
intermediate of that build (the products X = A_l W^-1 and B = W^-1 X, the
gathers, each stack's sum) is carved out of one float64 workspace that
``solve_sdp`` allocates before its loop, sized for the largest stack, so
the build takes no fresh pages after the first iteration; each stack's sum
is added to the Schur complement before the next stack's build.  One
helper, ``_stack_cholesky``, factors each stack's S and Z as one pair and the
Schur complement, jittered per matrix: a stack whose batched factorization
fails is factored member by member, and a matrix gets jitter only after its
own factorization fails.

The Newton systems are solved through the explicit inverse of the Schur
complement's Cholesky factor, formed once per iteration by 2x2 block
recursion (``_lower_inv``); each of the iteration's four solves (predictor
and corrector, each with one refinement step) is then two matrix-vector
products.  The NT scaling reads its inverse factor off the SVD it already
computes, so the module needs numpy alone.

Statuses: ``optimal`` when the stopping test passes; ``unbounded``, or else
``infeasible``, when the objective passes 1e12 * cost_scale (unbounded: c'y
to -inf over primal-feasible iterates); ``numerical_failure`` when a Cholesky
factorization fails even with jitter; else ``max_iter``.  A stall ends no run.
Whatever the status, the returned pair is the last one measured, and its
objectives, measures and coefficient residual come from that one measurement.

Everything is deterministic: identical inputs and options give identical
iterates within one build.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


class SdpBlock:
    """Affine symmetric map y -> const + sum_k y_k A_k, required PSD; or a
    stack of g such maps of one side d, acted on together.

    The coefficient matrices A_k are stored as one sparse pattern, never as a
    dense (N, d, d) tensor: entry e adds val[e] to A_{var[e]} at the flat
    position pos[e] = a*d + b, and repeated entries add up.  The pattern is
    symmetric: it lists (a, b) and (b, a) with the same values in the same
    order, so A(y) is symmetric bit for bit.  A stack has a (g, d, d)
    constant and member j's entries sit at pos = j*d^2 + a*d + b, so apply
    returns (g, d, d), adjoint takes (g, d, d) and sums over the members, and
    schur sums the members' Schur complements.

    ``SdpBlock(const, num_vars, var, pos, val)`` takes the pattern as it is
    (the relaxation's blocks come from ``momentmat.localizing_pattern``);
    ``SdpBlock.stack`` concatenates blocks of one side.  The solver only uses
    the three pattern operators ``apply``, ``adjoint`` and ``schur``.
    """

    def __init__(self, const, num_vars: int, var, pos, val):
        self.const = np.asarray(const, dtype=float)
        self.num_vars = num_vars
        self.var = np.asarray(var, dtype=np.intp)
        self.pos = np.asarray(pos, dtype=np.intp)
        self.val = np.asarray(val, dtype=float)

    @classmethod
    def stack(cls, blocks: Sequence["SdpBlock"]) -> "SdpBlock":
        """The g single blocks, all of one side and variable count, as one stack."""
        d, N = blocks[0].dim, blocks[0].num_vars
        if any(blk.const.shape != (d, d) or blk.num_vars != N for blk in blocks):
            raise ValueError("stacked blocks must be single blocks of one side "
                             "and variable count")
        return cls(
            np.stack([blk.const for blk in blocks]), N,
            np.concatenate([blk.var for blk in blocks]),
            np.concatenate([blk.pos + j * d * d for j, blk in enumerate(blocks)]),
            np.concatenate([blk.val for blk in blocks]))

    @property
    def dim(self) -> int:
        return self.const.shape[-1]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """The linear part sum_k y_k A_k (one matrix per stack member)."""
        return np.bincount(self.pos, self.val * y[self.var],
                           minlength=self.const.size).reshape(self.const.shape)

    def at(self, y: np.ndarray) -> np.ndarray:
        return self.const + self.apply(y)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """The vector (<A_k, Z>)_k, summed over the stack's members."""
        return np.bincount(self.var, self.val * Z.ravel()[self.pos], minlength=self.num_vars)

    @functools.cached_property
    def _schur_plan(self):
        """Gathers for ``schur`` and the workspace they need, built on its
        first call.

        Scatter: row (j, a, l) of the stacked products A_l W_j^-1 sums
        val * W_j^-1[b] over the entries (l, j, a, b).  Reduce: <A_k, B_j>
        over the upper triangle, off-diagonals counted twice (B_j =
        W_j^-1 A_l W_j^-1 is symmetric), summed onto row k.  Both sums go
        layer by layer (``_layers``), one fancy-indexed update per layer.
        The scatter's terms, d wide, are gathered at once; the reduction's,
        N wide, in chunks of at most _GATHER_FLOATS floats (or one row), a
        layer larger than that split into pieces.

        The workspace is X's half, then B's half.  Before the matmul, the
        scatter's gathered terms sit in B's half; after it, the sum and the
        reduction's gathers sit in X's.  Returned with the plans are the two
        halves' sizes.
        """
        d, N = self.dim, self.num_vars
        ja, b = np.divmod(self.pos, d)            # ja = j*d + a
        order, layers = _layers(ja * N + self.var)
        sja, sl = ja[order], self.var[order]
        scatter = (sja - sja % d + b[order], self.val[order],
                   [(s, sja[s], sl[s]) for s in layers])
        upper = np.flatnonzero(ja % d <= b)
        order, layers = _layers(self.var[upper])
        upper = upper[order]
        weight = np.where(ja[upper] % d == b[upper], 1.0, 2.0) * self.val[upper]
        rk, rpos = self.var[upper], self.pos[upper]
        step = max(1, _GATHER_FLOATS // N)
        pieces = [slice(i, min(i + step, s.stop))
                  for s in layers for i in range(s.start, s.stop, step)]
        chunks = []
        for s in pieces:
            if chunks and (s.stop - chunks[-1][0].start) * N <= _GATHER_FLOATS:
                chunks[-1].append(s)
            else:
                chunks.append([s])
        reduce = []
        for c in chunks:
            lo, hi = c[0].start, c[-1].stop
            reduce.append((rpos[lo:hi], weight[lo:hi],
                           [(slice(s.start - lo, s.stop - lo), rk[s]) for s in c]))
        size = self.const.size * N
        gathered = max((len(pos) for pos, _, _ in reduce), default=0)
        return scatter, reduce, (max(size, N * (N + gathered)), max(size, d * len(self.pos)))

    @property
    def schur_floats(self) -> int:
        """The size of the workspace ``schur`` needs, in float64s."""
        return sum(self._schur_plan[2])

    def schur(self, Winv: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The matrix (sum_j tr(A_kj Winv_j A_lj Winv_j))_kl for symmetric Winv
        (one matrix per stack member), in O(N d^3) per member.

        Scatter rows of Winv_j into X[j, a, :, l] = (A_lj Winv_j)[a, :],
        multiply every A_lj Winv_j by Winv_j in one batched matmul into B,
        and gather the products' entries onto k through the pattern.  X, B,
        the gathers and the result are carved out of ``work``, a flat float64
        buffer of at least ``schur_floats`` entries, so a solve that passes
        one buffer to every call takes no fresh pages here.  The result is a
        view of ``work``: it is valid until the next call that uses the same
        buffer.
        """
        d, N = self.dim, self.num_vars
        (src, val, targets), reduce, (nx, _) = self._schur_plan
        rows = Winv.reshape(-1, d)                # row j*d + b is Winv_j[b]
        g = rows.shape[0] // d
        size = self.const.size * N
        B = work[nx:nx + size].reshape(g, d, d * N)
        part = work[nx:nx + len(src) * d].reshape(-1, d)
        # mode="clip" leaves these in-range indices alone; the default
        # "raise" would gather into a fresh buffer and copy it into out
        np.take(rows, src, axis=0, out=part, mode="clip")
        part *= val[:, None]
        X = work[:size].reshape(g * d, d, N)
        X.fill(0.0)
        # the first layer is assigned, as += would read X back
        for i, (s, ja, l) in enumerate(targets):
            if i:
                X[ja, :, l] += part[s]
            else:
                X[ja, :, l] = part[s]
        np.matmul(Winv.reshape(g, d, d), X.reshape(g, d, d * N), out=B)
        B = B.reshape(g * d * d, N)
        M = work[:N * N].reshape(N, N)
        M.fill(0.0)
        for pos, weight, layers in reduce:
            G = work[N * N:N * (N + len(pos))].reshape(-1, N)
            np.take(B, pos, axis=0, out=G, mode="clip")
            G *= weight[:, None]
            for s, k in layers:
                M[k] += G[s]
        return M


# Largest reduction gather in floats (128 KiB).  It bounds the gathers' share
# of the Schur workspace, which for a localizing block of many terms would
# otherwise exceed X, and the temporary of each fancy-indexed += onto M.
_GATHER_FLOATS = 1 << 14


def _layers(key):
    """Order the entries into layers in which no key repeats.

    Layer i holds the i-th entry, in the entries' order, of every key that
    has more than i entries.  Returns the entry order, layer by layer and by
    key within a layer, and the layers' slices of it.  A fancy-indexed
    assignment or += over one layer then touches each target once, so the
    layers sum the entries per key without ``np.add.at`` or ``reduceat``.
    """
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = sorted_key[1:] != sorted_key[:-1]
    idx = np.arange(len(key))
    rank = idx - np.maximum.accumulate(np.where(new, idx, 0))
    ends = np.cumsum(np.bincount(rank)).tolist()
    return order[np.argsort(rank, kind="stable")], [
        slice(s, e) for s, e in zip([0] + ends[:-1], ends)]


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

    @functools.cached_property
    def data_scale(self) -> float:
        """The largest |entry| of any block's constant or coefficients, at least 1."""
        return max(1.0, *(float(np.max(np.abs(m), initial=0.0))
                          for blk in self.blocks for m in (blk.val, blk.const)))

    @functools.cached_property
    def cost_scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.c), initial=0.0)))

    def stopping(self, violation: float, rd: np.ndarray, pobj: float, dobj: float,
                 gap: float, tol: float) -> Tuple[bool, Tuple[float, float, float]]:
        """``solve_sdp``'s stopping test and its three relative measures: the
        primal violation over 1 + data_scale, max |c - A*(Z)| (rd) over
        1 + cost_scale, and the gap <S, Z> over 1 + |pobj| + |dobj|.  It
        passes when all three are <= tol."""
        measures = (violation / (1.0 + self.data_scale),
                    float(np.max(np.abs(rd), initial=0.0)) / (1.0 + self.cost_scale),
                    abs(gap) / (1.0 + abs(pobj) + abs(dobj)))
        return all(m <= tol for m in measures), measures


@dataclass
class SdpOptions:
    tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.tol < float("inf"):
            raise ValueError(f"solver tolerance must be positive and finite, got {self.tol}")


@dataclass
class SdpSolution:
    """The returned pair (y, [Z_j]) and ``solve_sdp``'s one measurement of
    it, whatever the status: the objectives c'y and -<A0, Z>, the stopping
    test's three measures, and the coefficient residual r = c - A*(Z), whose
    max |r| / (1 + cost_scale) is ``dual_residual``."""
    y: np.ndarray
    objective: float
    dual_objective: float
    dual_blocks: List[np.ndarray]    # Z_j: SOS-certificate Gram matrices
    status: SdpStatus
    iterations: int
    primal_residual: float
    dual_residual: float
    gap: float
    coeff_residual: np.ndarray


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
    ``_stack_cholesky``'s escalating diagonal jitter (M loses definiteness to
    roundoff as the barrier parameter collapses); M^-1 r = Linv' (Linv r)."""
    return _lower_inv(_stack_cholesky(M, 1e-14))


def _stack_cholesky(M: np.ndarray, floor: float) -> np.ndarray:
    """Lower Cholesky factors of a matrix or of any stack of them, jittered
    per matrix: roundoff can push the smallest eigenvalue of a positive
    definite matrix marginally negative.  The batched factorization is tried
    first; if it fails, each member is factored alone, and a member whose own
    factorization fails is retried with jitter*I added, from floor * max(1,
    its max diagonal entry) up by 10x, 5 times."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    d = M.shape[-1]
    factors = []
    for m in M.reshape(-1, d, d):
        jitter = 0.0
        for _ in range(6):    # the plain factorization, then 5 jitters
            try:
                factors.append(np.linalg.cholesky(m + jitter * np.eye(d) if jitter else m))
                break
            except np.linalg.LinAlgError:
                jitter = 10.0 * jitter or floor * max(1.0, float(np.max(np.diag(m))))
        else:
            raise np.linalg.LinAlgError("matrix is not numerically positive definite")
    return np.stack(factors).reshape(M.shape)


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """NT scaling for a block or a stack: the inverse factors Rinv and the
    scaled spectra.

    With S = Ls Ls', Z = Lz Lz' and Lz' Ls = U diag(lam) V', the factor
    Rinv = diag(lam)^-1/2 U' Lz' (as in SDPT3) equals diag(lam)^1/2 V' Ls^-1,
    so W = R R' with W Z W = S, and both Rinv S Rinv' and R' Z R equal
    diag(lam).
    """
    Ls, Lz = _stack_cholesky(np.stack((S, Z)), 1e-15)
    U, lam, _ = np.linalg.svd(_t(Lz) @ Ls)
    Rinv = _t(U / np.sqrt(lam)[..., None, :]) @ _t(Lz)
    return Rinv, lam


def _max_step(lam: np.ndarray, dtS: np.ndarray, dtZ: np.ndarray) -> Tuple[float, float]:
    """sup {a : diag(lam) + a*dt PSD} for dt = dtS and dt = dtZ over every member
    of a stack: one eigvalsh of the Lam^{-1/2}-scaled pair."""
    s = 1.0 / np.sqrt(lam)
    w = np.linalg.eigvalsh(s[..., :, None] * np.stack((dtS, dtZ)) * s[..., None, :])
    wmin = w[..., 0].reshape(2, -1).min(axis=1).tolist()
    return tuple(np.inf if m >= 0.0 else -1.0 / m for m in wmin)


def _diag(lam: np.ndarray) -> np.ndarray:
    """diag(lam) for each row of a (g, d) stack of vectors."""
    return lam[..., :, None] * np.eye(lam.shape[-1])


def _t(m: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack (ndarray.mT needs numpy 2)."""
    return np.swapaxes(m, -1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _t(m))


# fraction of the longest step that keeps S and Z PSD taken by each iteration
_STEP_FRACTION = 0.98
_MAX_ITER = 200   # solve_sdp returns its 200th iterate with status max_iter


def solve_sdp(prob: SdpProblem, opts: Optional[SdpOptions] = None,
              candidate=None) -> SdpSolution:
    """Primal-dual predictor-corrector path following; see module docstring.

    ``candidate = (y, [Z_j])``, PSD Z_j in the order of ``prob.blocks``, is
    returned as an optimal solution with 0 iterations when it passes the
    stopping test, its primal violation being the largest -lambda_min(A_j(y))
    or 0.  Otherwise the iteration runs from its default start, as without a
    candidate: the candidate is never iterated from.
    """
    opts = opts or SdpOptions()
    c = prob.c
    N = prob.num_vars
    blocks = prob.blocks
    total_dim = sum(blk.dim for blk in blocks)
    # one stack per block side, in order of first appearance; every block
    # step below is one batched call per stack
    sides = {}
    for j, blk in enumerate(blocks):
        sides.setdefault(blk.dim, []).append(j)
    members = list(sides.values())
    stacks = [SdpBlock.stack([blocks[j] for j in js]) for js in members]
    ns = len(stacks)

    def measure(y, S, Z, violation):
        """rd = c - A*(Z), c'y, -<A0, Z>, mu = <S, Z> / total_dim and the
        stopping verdict and measures of the pair (y, Z) with slacks S, for
        the candidate and every iterate: the one place they are formed."""
        rd = c
        for s, blk in enumerate(stacks):
            rd = rd - blk.adjoint(Z[s])
        pobj = float(c @ y)
        dobj = -sum(float(np.sum(blk.const * Z[s])) for s, blk in enumerate(stacks))
        mu = sum(float(np.sum(S[s] * Z[s])) for s in range(ns)) / total_dim
        return (rd, pobj, dobj, mu) + prob.stopping(violation, rd, pobj, dobj,
                                                    mu * total_dim, opts.tol)

    if candidate is not None:
        y, Zs = candidate
        if ([np.shape(y)] + [np.shape(Z) for Z in Zs]
                != [(N,)] + [(blk.dim, blk.dim) for blk in blocks]):
            raise ValueError("candidate does not match the problem's variables and blocks")
        S = [blk.at(y) for blk in stacks]
        rd, pobj, dobj, _, passed, measures = measure(
            y, S, [np.stack([Zs[j] for j in js]) for js in members],
            max(0.0, -min(float(np.linalg.eigvalsh(m)[..., 0].min()) for m in S)))
        if passed:
            return SdpSolution(y, pobj, dobj, list(Zs), SdpStatus.OPTIMAL, 0, *measures, rd)

    # one Schur workspace for every stack and iteration
    work = np.empty(max(blk.schur_floats for blk in stacks))

    data_scale, cost_scale = prob.data_scale, prob.cost_scale
    # "big identity" start: interior to the cones, though not feasible, as
    # the iteration is infeasible-start
    y = np.zeros(N)
    S = [10.0 * data_scale * np.broadcast_to(np.eye(blk.dim), blk.const.shape)
         for blk in stacks]
    Z = [10.0 * cost_scale * np.broadcast_to(np.eye(blk.dim), blk.const.shape)
         for blk in stacks]

    for it in range(1, _MAX_ITER + 1):
        Rres = [blk.at(y) - S[s] for s, blk in enumerate(stacks)]
        rd, pobj, dobj, mu, passed, (pres, dres, gap_rel) = measure(
            y, S, Z, max(float(np.max(np.abs(Rres[s]))) for s in range(ns)))
        if passed:
            status = SdpStatus.OPTIMAL
            break
        if abs(dobj) > 1e12 * cost_scale or abs(pobj) > 1e12 * cost_scale:
            status = (SdpStatus.UNBOUNDED if pobj < -1e12 * cost_scale and pres <= opts.tol
                      else SdpStatus.INFEASIBLE)
            break
        if it == _MAX_ITER:
            status = SdpStatus.MAX_ITER
            break
        try:
            Rinvs, lams = zip(*[_nt_scaling(S[s], Z[s]) for s in range(ns)])

            # Schur complement M_kl = sum_j tr(A_kj W_j^-1 A_lj W_j^-1)
            M = np.zeros((N, N))
            for s, blk in enumerate(stacks):
                M += blk.schur(_t(Rinvs[s]) @ Rinvs[s], work)
            M = 0.5 * (M + M.T)
            Linv = _chol_regularized(M)
            Hres = [Rinvs[s] @ Rres[s] @ _t(Rinvs[s]) for s in range(ns)]

            def newton(Dmats):
                Cs = []
                h = -rd.copy()
                for s in range(ns):
                    Rinv, lam = Rinvs[s], lams[s]
                    Cs.append(2.0 * Dmats[s] / (lam[..., :, None] + lam[..., None, :]))
                    h += stacks[s].adjoint(_t(Rinv) @ (Cs[s] - Hres[s]) @ Rinv)

                def directions(dy):
                    dS = [Rres[s] + blk.apply(dy) for s, blk in enumerate(stacks)]
                    dtS = [Rinvs[s] @ dS[s] @ _t(Rinvs[s]) for s in range(ns)]
                    dZ = [_t(Rinvs[s]) @ (Cs[s] - dtS[s]) @ Rinvs[s] for s in range(ns)]
                    return dS, dtS, dZ

                # M is built from W^-1, so its rounding errors grow like
                # cond(W) as mu -> 0 and dZ stops satisfying the dual equation
                # A*(dZ) = rd; one step of iterative refinement against that
                # equation keeps the dual residual at rounding level.
                dy = Linv.T @ (Linv @ h)
                _, _, dZ = directions(dy)
                err = rd - sum(blk.adjoint(dZ[s]) for s, blk in enumerate(stacks))
                dy = dy - Linv.T @ (Linv @ err)
                dS, dtS, dZ = directions(dy)
                dtZ = [Cs[s] - dtS[s] for s in range(ns)]
                return dy, dS, dZ, [_sym(m) for m in dtS], [_sym(m) for m in dtZ]

            # predictor (affine scaling direction)
            _, _, _, dtS_a, dtZ_a = newton([_diag(-lam ** 2) for lam in lams])

            ap, ad = (min(1.0, *a) for a in zip(*map(_max_step, lams, dtS_a, dtZ_a)))
            mu_aff = sum(float(np.sum((_diag(lams[s]) + ap * dtS_a[s]) *
                                      _t(_diag(lams[s]) + ad * dtZ_a[s])))
                         for s in range(ns)) / total_dim
            sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

            # corrector
            D_cor = [_diag(sigma * mu - lams[s] ** 2) - _sym(dtS_a[s] @ dtZ_a[s])
                     for s in range(ns)]
            dy, dS, dZ, dtS, dtZ = newton(D_cor)
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        ap, ad = (min(1.0, _STEP_FRACTION * min(a)) for a in zip(*map(_max_step, lams, dtS, dtZ)))

        # A(y) is symmetric bit for bit (see SdpBlock), so S needs no _sym
        y = y + ap * dy
        for s in range(ns):
            S[s] = S[s] + ap * dS[s]
            Z[s] = _sym(Z[s] + ad * dZ[s])

    dual_blocks = [None] * len(blocks)
    for js, Zs in zip(members, Z):
        for j, Zj in zip(js, Zs):
            dual_blocks[j] = Zj.copy()
    return SdpSolution(y, pobj, dobj, dual_blocks, status, it, pres, dres, gap_rel, rd)


def gen_eig_min(A: np.ndarray, B: np.ndarray) -> Tuple[float, np.ndarray]:
    """Smallest lambda with A v = lambda B v, for symmetric A and SPD B (else
    ``LinAlgError``): the standard symmetric problem for C = L^-1 A L^-T, with
    B = L L' and L^-1 from ``_lower_inv``."""
    Linv = _lower_inv(np.linalg.cholesky(np.asarray(B, dtype=float)))
    C = Linv @ np.asarray(A, dtype=float) @ Linv.T
    w, Q = np.linalg.eigh(0.5 * (C + C.T))
    return float(w[0]), Linv.T @ Q[:, 0]
