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
per-block factorization and product is one batched numpy call per side; on a
box, all the localizing blocks of 1 - x_i^2 share one stack.  The stacks'
matrices lie side by side in one flat vector (``_Layout``), so an elementwise
step (a
residual, a right-hand side, an update), a transpose (one gather) and
A(y) = sum_k y_k A_k are one call for all stacks, and the stacks' adjoints
A*(Z) = (<A_k, Z>)_k are one bincount with one row per stack.  Each phase
(predictor, corrector) takes its primal and dual step lengths from one
eigvalsh per stack, of the scaled directions dS~ and dZ~ stacked as a pair.
The solver touches the patterns only through A(y), A*(Z) and the Schur
complement sum_j tr(A_kj W_j^-1 A_lj W_j^-1), built in O(N d^3) per block
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

Cost of an iteration.  Per stack, an iteration makes one Cholesky
factorization of the stacked pair (S, Z), one SVD for the NT scaling and two
eigvalsh for the step lengths; per iteration, one Cholesky factorization of
the Schur complement and one LAPACK inverse per leaf of its factor (one leaf
up to N = 48).  On the relaxations' blocks, 1x1 to a few dozen rows, that
LAPACK work is about a quarter of an iteration's time (cube_wide, N = 65);
the rest is numpy dispatch, which is why the loop keeps its calls few.
The adjoints and the inner products <., .> (objectives, mu) stay per stack,
combined stack by stack in a fixed order, as floating-point sums depend on
their order: one bincount of A*(Z) over all the stacks' entries changes the
certificate residual max |c - A*(Z)| on 7 of the 16 cube_wide draws, by up
to a factor 6 either way.

Statuses: ``optimal`` when the stopping test passes, each of its three
relative measures (primal violation, coefficient residual, gap) being at most
the solver's one tolerance, ``_TOL`` = 1e-8; ``unbounded``, or else
``infeasible``, when the objective passes 1e12 * cost_scale (unbounded: c'y
to -inf over primal-feasible iterates); ``numerical_failure`` when a Cholesky
factorization fails even with jitter; else ``max_iter``.  A stall ends no run.
Whatever the status, the returned pair is the last one measured, and its
objectives, measures and coefficient residual come from that one measurement.

Everything is deterministic: identical inputs give identical iterates within
one build.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
    returns (g, d, d), and schur sums the members' Schur complements.

    ``SdpBlock(const, num_vars, var, pos, val)`` takes the pattern as it is
    (the relaxation's blocks come from ``momentmat.localizing_pattern``);
    ``SdpBlock.stack`` concatenates blocks of one side.  The solver calls
    ``schur`` on each stack and applies A and A* to all its stacks at once,
    through the stacks' patterns laid end to end (``_Layout``).
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
        for i, (pos, weight, layers) in enumerate(reduce):
            G = work[N * N:N * (N + len(pos))].reshape(-1, N)
            np.take(B, pos, axis=0, out=G, mode="clip")
            G *= weight[:, None]
            for s, k in layers:
                if i or s.start:
                    M[k] += G[s]
                else:       # the first layer's rows are assigned, as in the scatter
                    M[k] = G[s]
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
                 gap: float) -> Tuple[bool, Tuple[float, float, float]]:
        """``solve_sdp``'s stopping test and its three relative measures: the
        primal violation over 1 + data_scale, max |c - A*(Z)| (rd) over
        1 + cost_scale, and the gap <S, Z> over 1 + |pobj| + |dobj|.  It
        passes when all three are <= _TOL = 1e-8."""
        measures = (violation / (1.0 + self.data_scale),
                    float(np.max(np.abs(rd), initial=0.0)) / (1.0 + self.cost_scale),
                    abs(gap) / (1.0 + abs(pobj) + abs(dobj)))
        return all(m <= _TOL for m in measures), measures


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
_ABOVE = ~np.tri(_INV_LEAF, dtype=bool)    # a leaf's strict upper triangle


def _lower_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix.

    By 2x2 block recursion, [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1,
    D^-1]]: above the leaves (side <= _INV_LEAF, inverted by LAPACK) the work
    is matrix multiplication.
    """
    n = L.shape[0]
    if n <= _INV_LEAF:
        Linv = np.linalg.inv(L)
        Linv[_ABOVE[:n, :n]] = 0.0
        return Linv
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


def _nt_scaling(SZ: np.ndarray):
    """NT scaling for a block or a stack, given S and Z stacked on a leading
    axis of 2: the inverse factors Rinv and the scaled spectra.

    With S = Ls Ls', Z = Lz Lz' and Lz' Ls = U diag(lam) V', the factor
    Rinv = diag(lam)^-1/2 U' Lz' (as in SDPT3) equals diag(lam)^1/2 V' Ls^-1,
    so W = R R' with W Z W = S, and both Rinv S Rinv' and R' Z R equal
    diag(lam).
    """
    Ls, Lz = _stack_cholesky(SZ, 1e-15)
    LzT = Lz.swapaxes(-1, -2)
    U, lam, _ = np.linalg.svd(LzT @ Ls)
    Rinv = (U / np.sqrt(lam)[..., None, :]).swapaxes(-1, -2) @ LzT
    return Rinv, lam


def _max_step(pairs) -> Tuple[float, float]:
    """sup {a : I + a*dt PSD} for dt = dt~S and dt = dt~Z over every member
    of every stack, given each stack's Lam^{-1/2}-scaled pair (dt~S, dt~Z)
    stacked on a leading axis of 2: one eigvalsh per stack."""
    wmin = np.concatenate([np.linalg.eigvalsh(p)[..., 0].reshape(2, -1) for p in pairs],
                          axis=1).min(axis=1).tolist()
    return tuple(np.inf if m >= 0.0 else -1.0 / m for m in wmin)


class _Layout:
    """The matrices of a solve's stacks side by side in one flat vector, stack
    s at [lo[s], hi[s]), so an elementwise step, A(y) and the stacks'
    adjoints are one call for all stacks.  The stacks' positions are
    disjoint, so each entry of ``apply`` and of an ``adjoints`` row sums the
    same terms in the same order as that stack's pattern alone would, and
    ``sums`` adds each stack's entries as np.sum of its (g, d, d) array
    does."""

    def __init__(self, stacks: Sequence[SdpBlock]):
        self.stacks = stacks
        self.hi = np.cumsum([blk.const.size for blk in stacks]).tolist()
        self.lo = [0] + self.hi[:-1]
        self.const, self.pos, self.var, self.val = (np.concatenate(parts) for parts in zip(*[
            (blk.const.ravel(), blk.pos + a, blk.var, blk.val)
            for a, blk in zip(self.lo, stacks)]))
        # stack s's adjoint gathers into bins s*N .. s*N + N-1
        self.bins = np.concatenate([blk.var + s * blk.num_vars for s, blk in enumerate(stacks)])
        # per flat entry (j, a, b) of a stack: its transpose's position, and
        # the positions of lam_a and lam_b in the stacks' spectra end to end
        tables, at = [], 0
        for a0, blk in zip(self.lo, stacks):
            d = blk.dim
            j, a, b = np.indices(blk.const.shape).reshape(3, -1)
            tables.append((a0 + (j * d + b) * d + a, at + j * d + a, at + j * d + b))
            at += blk.const.size // d
        self.perm, self.row, self.col = map(np.concatenate, zip(*tables))
        self.eye = (self.row == self.col).astype(float)

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Each stack's (g, d, d) matrices in flat[..., lo[s]:hi[s]]."""
        return [flat[..., a:b].reshape(flat.shape[:-1] + blk.const.shape)
                for a, b, blk in zip(self.lo, self.hi, self.stacks)]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k A_k of every stack, flat."""
        return np.bincount(self.pos, self.val * y[self.var], minlength=self.hi[-1])

    def adjoints(self, Z: np.ndarray) -> np.ndarray:
        """(<A_k, Z_s>)_k for each stack s, one row per stack."""
        ns, N = len(self.stacks), self.stacks[0].num_vars
        return np.bincount(self.bins, self.val * Z[self.pos], minlength=ns * N).reshape(ns, N)

    def sums(self, x: np.ndarray) -> List[float]:
        """The sum of each stack's entries of a flat vector."""
        return [float(x[a:b].sum()) for a, b in zip(self.lo, self.hi)]


# fraction of the longest step that keeps S and Z PSD taken by each iteration
_STEP_FRACTION = 0.98
_MAX_ITER = 200   # solve_sdp returns its 200th iterate with status max_iter
_TOL = 1e-8       # the stopping test's bound on each of its three measures


def solve_sdp(prob: SdpProblem, candidate=None) -> SdpSolution:
    """Primal-dual predictor-corrector path following; see module docstring.

    ``candidate = (y, [Z_j])``, PSD Z_j in the order of ``prob.blocks``, is
    returned as an optimal solution with 0 iterations when it passes the
    stopping test, its primal violation being the largest -lambda_min(A_j(y))
    or 0.  Otherwise the iteration runs from its default start, as without a
    candidate: the candidate is never iterated from.
    """
    c = prob.c
    N = prob.num_vars
    blocks = prob.blocks
    total_dim = sum(blk.dim for blk in blocks)
    # one stack per block side, in order of first appearance; every
    # factorization and product below is one batched call per stack, and
    # every elementwise step one call over the stacks' flat layout
    sides = {}
    for j, blk in enumerate(blocks):
        sides.setdefault(blk.dim, []).append(j)
    members = list(sides.values())
    stacks = [SdpBlock.stack([blocks[j] for j in js]) for js in members]
    lay = _Layout(stacks)
    const, perm, row, col, eye = lay.const, lay.perm, lay.row, lay.col, lay.eye
    views, A, adjoints, sums = lay.views, lay.apply, lay.adjoints, lay.sums
    total = len(const)

    def measure(y, S, Z, violation):
        """rd = c - A*(Z), c'y, -<A0, Z>, mu = <S, Z> / total_dim and the
        stopping verdict and measures of the pair (y, Z) with slacks S, for
        the candidate and every iterate: the one place they are formed."""
        rd = c
        for a in adjoints(Z):
            rd = rd - a
        pobj = float(c @ y)
        dobj = -sum(sums(const * Z))
        mu = sum(sums(S * Z)) / total_dim
        return (rd, pobj, dobj, mu) + prob.stopping(violation, rd, pobj, dobj,
                                                    mu * total_dim)

    if candidate is not None:
        y, Zs = candidate
        if ([np.shape(y)] + [np.shape(Z) for Z in Zs]
                != [(N,)] + [(blk.dim, blk.dim) for blk in blocks]):
            raise ValueError("candidate does not match the problem's variables and blocks")
        S = const + A(y)
        rd, pobj, dobj, _, passed, measures = measure(
            y, S, np.concatenate([np.ravel(Zs[j]) for js in members for j in js]),
            max(0.0, -min(float(np.linalg.eigvalsh(m)[..., 0].min()) for m in views(S))))
        if passed:
            return SdpSolution(y, pobj, dobj, list(Zs), SdpStatus.OPTIMAL, 0, *measures, rd)

    # one Schur workspace for every stack and iteration, and flat buffers
    # for the per-stack products, written through their stacks' views:
    # H = Rinv Rres Rinv', T = Rinv' (C - H) Rinv, DT = (dt~S, dt~Z), dZ and
    # P = dt~S dt~Z of the predictor
    work = np.empty(max(blk.schur_floats for blk in stacks))
    H, T, dZ, P = np.empty((4, total))
    DT = np.empty((2, total))
    Hv, Tv, dZv, Pv, dtSv, dtZv = map(views, (H, T, dZ, P, DT[0], DT[1]))

    data_scale, cost_scale = prob.data_scale, prob.cost_scale
    # "big identity" start: interior to the cones, though not feasible, as
    # the iteration is infeasible-start; S and Z are updated in place
    y = np.zeros(N)
    SZ = np.stack((10.0 * data_scale * eye, 10.0 * cost_scale * eye))
    S, Z = SZ
    SZv = views(SZ)

    for it in range(1, _MAX_ITER + 1):
        Rres = const + A(y) - S
        rd, pobj, dobj, mu, passed, (pres, dres, gap_rel) = measure(
            y, S, Z, float(np.abs(Rres).max()))
        if passed:
            status = SdpStatus.OPTIMAL
            break
        if abs(dobj) > 1e12 * cost_scale or abs(pobj) > 1e12 * cost_scale:
            status = (SdpStatus.UNBOUNDED if pobj < -1e12 * cost_scale and pres <= _TOL
                      else SdpStatus.INFEASIBLE)
            break
        if it == _MAX_ITER:
            status = SdpStatus.MAX_ITER
            break
        try:
            Rinvs, lams = zip(*map(_nt_scaling, SZv))
            RinvTs = [R.swapaxes(-1, -2) for R in Rinvs]

            # Schur complement M_kl = sum_j tr(A_kj W_j^-1 A_lj W_j^-1)
            M = np.zeros((N, N))
            for blk, R, RT in zip(stacks, Rinvs, RinvTs):
                M += blk.schur(RT @ R, work)
            M = 0.5 * (M + M.T)
            Linv = _chol_regularized(M)
            LinvT = Linv.T
            for R, RT, m, out in zip(Rinvs, RinvTs, views(Rres), Hv):
                np.matmul(R @ m, RT, out=out)
            lam = np.concatenate([v.ravel() for v in lams])
            lrow = lam[row]
            lsum = lrow + lam[col]
            lrow2 = lrow ** 2
            s = 1.0 / np.sqrt(lam)
            srow, scol = s[row], s[col]

            def newton(D, dual):
                """dy, dS and the symmetrized (dt~S, dt~Z) stacked on a leading
                axis of 2, for the right-hand side D; dZ into its buffer when
                ``dual``."""
                C = 2.0 * D / lsum
                for R, RT, m, out in zip(Rinvs, RinvTs, views(C - H), Tv):
                    np.matmul(RT @ m, R, out=out)
                h = -rd
                for a in adjoints(T):
                    h += a

                def directions(dy, dual):
                    dS = Rres + A(dy)
                    for R, RT, m, out in zip(Rinvs, RinvTs, views(dS), dtSv):
                        np.matmul(R @ m, RT, out=out)
                    np.subtract(C, DT[0], out=DT[1])
                    if dual:
                        for R, RT, m, out in zip(Rinvs, RinvTs, dtZv, dZv):
                            np.matmul(RT @ m, R, out=out)
                    return dS

                # M is built from W^-1, so its rounding errors grow like
                # cond(W) as mu -> 0 and dZ stops satisfying the dual equation
                # A*(dZ) = rd; one step of iterative refinement against that
                # equation keeps the dual residual at rounding level.
                dy = LinvT @ (Linv @ h)
                directions(dy, True)
                err = rd - sum(adjoints(dZ))
                dy = dy - LinvT @ (Linv @ err)
                dS = directions(dy, dual)
                return dy, dS, 0.5 * (DT + DT[:, perm])

            # predictor (affine scaling direction)
            _, _, dt = newton(-lrow2 * eye, False)
            ap, ad = (min(1.0, a) for a in _max_step(views(srow * dt * scol)))
            Lam = lrow * eye
            mu_aff = sum(sums((Lam + ap * dt[0]) * (Lam + ad * dt[1])[perm])) / total_dim
            sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

            # corrector
            for u, v, out in zip(views(dt[0]), views(dt[1]), Pv):
                np.matmul(u, v, out=out)
            dy, dS, dt = newton((sigma * mu - lrow2) * eye - 0.5 * (P + P[perm]), True)
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        ap, ad = (min(1.0, _STEP_FRACTION * a) for a in _max_step(views(srow * dt * scol)))

        # A(y) is symmetric bit for bit (see SdpBlock), so S needs no symmetrizing
        y = y + ap * dy
        S += ap * dS
        Z += ad * dZ
        np.multiply(0.5, Z + Z[perm], out=Z)

    dual_blocks = [None] * len(blocks)
    for js, Zs in zip(members, views(Z)):
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
