"""Lower- and upper-bound hierarchies, exactness certification, minimizer
extraction, and the signed polynomial density.

The lower bound at order t is computed purely in moment form:

    rho_t = inf { <f, y> : y_0 = 1, M_{t-d_j}(g_j y) PSD, j = 0..m }

whose SDP dual multipliers are the Gram matrices of the SOS certificate
f - rho = sum_j psi_j g_j.  The upper bound at order t minimizes the
integral of f against SOS densities (v' T(x))^2 of degree 2t and mass |v|^2
= 1, so u_t is the smallest eigenvalue of A_ab = int f T_a T_b dmu, f's
multiplication operator on the orthonormal basis T up to degree t.

Once a reference measure is fixed, the optimal moment vector y* turns into
coefficients sigma_alpha = L_y*(T_alpha) of a signed polynomial density in
the orthonormal basis, indexed like y* and read off it by T's recurrence
(``OrthoBasis.riesz``); at an exact relaxation with minimizer xi,
sigma_alpha = T_alpha(xi), the density is the kernel section
x -> K_2t(xi, x), and its value at xi is the reciprocal Christoffel function
(``LowerBoundResult.density`` and ``christoffel_at``).  Both hierarchies'
densities are read through T(x), on the basis their result holds.

A sweep over orders passes each order's result to the next.  Once order t-1
is certified, the order-t optimum is known in closed form: y* holds the
moments of a mixture of Dirac measures at the extracted minimizers, and the
lower order's Gram blocks, padded with zeros, still form a certificate.  The
pair is taken when it passes the solver's own stopping test, and the order
is solved otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .measures import MomentSequence, ReferenceMeasure
from .momentmat import SemialgebraicSet, half_degree, localizing_pattern
from .orthobasis import (BasisConstructionError, OrthoBasis, build_basis,
                         christoffel, multiplication)
from .polyring import (MonomialBasis, Polynomial, _grlex_rank, coeff_vector,
                       enumerate_basis, monomial_values)
from .sdp import SdpBlock, SdpProblem, SdpSolution, SdpStatus, solve_sdp

RANK_TOL = 1e-6
FEASIBILITY_TOL = 1e-6
OPTIMALITY_TOL = 1e-6
CLUSTER_TOL = 1e-5


class HierarchyError(RuntimeError):
    """Solver or assembly failure at a specific relaxation order."""

    def __init__(self, t: int, message: str):
        super().__init__(f"order {t}: {message}")
        self.t = t


@dataclass
class SosCertificate:
    """lam + sum_j psi_j g_j with psi_j = v' Q_j v from the dual Gram blocks
    Q_j of ``problem``, the relaxation's SDP, and the coefficients r of
    f - lam - sum_j psi_j g_j past the constant."""

    lam: float
    multipliers: List[Tuple[Polynomial, int, np.ndarray]]  # (g_j, order, Gram Q_j)
    problem: SdpProblem
    r: np.ndarray    # c - A*(Q): the solver's coefficient residual of its pair

    def residual(self) -> float:
        """Max coefficient deviation of f - lam - sum psi_j g_j: max |r|, read
        off the solver's one measurement of the returned pair, whose dual
        residual is max |r| / (1 + cost_scale).  The constant coefficient is
        exact by construction, as lam = c_0 + the dual objective."""
        return float(np.max(np.abs(self.r)))


@dataclass
class Extraction:
    minimizers: List[Tuple[Tuple[float, ...], float]] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """A certified order is one with an extracted minimizer."""
        return bool(self.minimizers)


@dataclass
class LowerBoundResult:
    t: int
    rho: float
    f: Polynomial
    y: MomentSequence
    certificate: SosCertificate
    solution: SdpSolution
    extraction: Extraction = field(default_factory=Extraction)
    sigma: Optional[np.ndarray] = None      # L_y*(T_alpha), when a measure is declared
    density_basis: Optional[OrthoBasis] = None   # T on y.basis, sigma's index
    density_error: Optional[str] = None

    def _require_density(self) -> OrthoBasis:
        if self.sigma is None:
            raise ValueError(f"order {self.t} has no density: "
                             f"{self.density_error or 'no reference measure declared'}")
        return self.density_basis

    def density(self, x) -> np.ndarray:
        """The signed density sigma(x) = T(x)' sigma at a point, or at each
        row of a (k, n) array."""
        return self._require_density().eval_all(x) @ self.sigma

    def christoffel_at(self) -> Dict[Tuple[float, ...], float]:
        """The Christoffel function 1 / K_2t(xi, xi) at each certified minimizer xi."""
        B = self._require_density()
        return {xi: christoffel(B, xi) for xi, _ in self.extraction.minimizers}


@dataclass
class UpperBoundResult:
    t: int
    u: float
    eigvec: np.ndarray       # unit v in the orthonormal basis T, eigenvector for u
    basis: OrthoBasis

    def sos_density(self, x) -> np.ndarray:
        """sigma(x) = (v' T(x))^2 at a point, or at each row of a (k, n) array."""
        return (self.basis.eval_all(x) @ self.eigvec) ** 2


def _moment_blocks(gs: List[Tuple[Polynomial, int]],
                   basis2t: MonomialBasis) -> List[SdpBlock]:
    """One SDP block per pair (g_j, s_j): M_{s_j}(g_j y) from
    ``localizing_pattern`` as an affine map of y_1..y_{N-1}.  Position 0 of
    the graded-lex basis is the monomial 1, so the entries at y_0 = 1 sum into
    the constant and the rest number the free moments from 0."""
    N = len(basis2t) - 1
    blocks = []
    for g, s in gs:
        var, pos, val = localizing_pattern(basis2t, g, s)
        d = math.comb(basis2t.n + s, s)
        one = var == 0
        const = np.bincount(pos[one], val[one], minlength=d * d).reshape(d, d)
        blocks.append(SdpBlock(const, N, var[~one] - 1, pos[~one], val[~one]))
    return blocks


def min_relaxation_order(f: Polynomial, B: SemialgebraicSet) -> int:
    return max([math.ceil(f.degree / 2), 1] + B.half_degrees)


def _closed_form(prev: LowerBoundResult, prob: SdpProblem, basis2t: MonomialBasis):
    """The candidate optimum (y, [Z_j]) of ``prob`` read off a certified lower
    order ``prev``, or None when its weights are not >= 0: y holds the moments
    of sum_i w_i delta_xi_i at prev's minimizers, w fit to prev's moments by
    least squares and scaled to sum 1, and Z_j is prev's Gram block Q_j padded
    with zeros.  A graded-lex basis of lower degree is a prefix of one of
    higher degree, so prev's moments pair with the leading monomials of
    basis2t and prev's SOS identity holds unchanged."""
    V = monomial_values(basis2t, np.array([xi for xi, _ in prev.extraction.minimizers]))
    w = np.linalg.lstsq(V[:, :len(prev.y.values)].T, prev.y.values, rcond=None)[0]
    if (w < 0.0).any():
        return None
    y = (w / w.sum()) @ V
    return y[1:], [np.pad(Q, (0, blk.dim - len(Q)))
                   for blk, (_, _, Q) in zip(prob.blocks, prev.certificate.multipliers)]


def lower_bound(f: Polynomial, B: SemialgebraicSet, t: int,
                measure: Optional[ReferenceMeasure] = None,
                prev: Optional[LowerBoundResult] = None) -> LowerBoundResult:
    """Order-t moment relaxation; returns rho_t, y*, SOS certificate, and the
    signed density coefficients when a reference measure is declared.

    ``prev``, the result of the same problem at a lower order, gives the
    order-t optimum in closed form when that order was certified (see
    ``_closed_form``), which ``solve_sdp`` takes when it passes the stopping
    test; the order is solved otherwise, as if alone.
    """
    if f.n != B.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {B.n}")
    if t < min_relaxation_order(f, B):
        raise ValueError(f"order {t} below minimum {min_relaxation_order(f, B)}")
    basis2t = enumerate_basis(f.n, 2 * t)
    c = coeff_vector(f, basis2t)
    # (g_j, s_j = t - d_j) for j = 0..m, with g_0 == 1
    gs = [(g, t - half_degree(g)) for g in (Polynomial.constant(B.n, 1.0),) + B.constraints]
    prob = SdpProblem(c=c[1:], blocks=_moment_blocks(gs, basis2t))
    candidate = None
    if prev is not None and prev.t < t and prev.extraction.certified:
        candidate = _closed_form(prev, prob, basis2t)
    sol = solve_sdp(prob, candidate)
    if sol.status is not SdpStatus.OPTIMAL:
        raise HierarchyError(t, f"SDP solver returned {sol.status.value} after "
                             f"{sol.iterations} iterations (primal {sol.primal_residual:.1e}, "
                             f"dual {sol.dual_residual:.1e}, gap {sol.gap:.1e})")
    y = MomentSequence(np.concatenate(([1.0], sol.y)), basis2t)
    rho = float(c @ y.values)
    cert = SosCertificate(
        lam=float(c[0] + sol.dual_objective),
        multipliers=[(g, s, Q) for (g, s), Q in zip(gs, sol.dual_blocks)],
        problem=prob, r=sol.coeff_residual)
    result = LowerBoundResult(t=t, rho=rho, f=f, y=y, certificate=cert, solution=sol)
    result.extraction = certify_and_extract(result, B)
    if measure is not None:
        try:
            basis = OrthoBasis(measure, basis2t)
        except BasisConstructionError as exc:
            # no degree-2t orthonormal family for this measure (e.g. counting
            # hypercube beyond multilinear degree)
            result.density_error = str(exc)
        else:
            result.density_basis = basis
            result.sigma = basis.riesz(y.values)
    return result


# ---------------------------------------------------------------------------
# Exactness certification via flat truncation, and minimizer extraction.
# ---------------------------------------------------------------------------

def _numerical_rank(w: np.ndarray) -> int:
    """The number of eigenvalues, in ascending order w, above RANK_TOL of the
    largest; for a moment matrix that is >= y_0 = 1."""
    return int(np.sum(w > RANK_TOL * float(w[-1])))


def certify_and_extract(r: LowerBoundResult, B: SemialgebraicSet) -> Extraction:
    """Flat-truncation rank test; on success, extract minimizers from the
    multiplication operators on the column space of the moment matrix.

    Every returned point is re-checked by direct evaluation: g_j(xi) >= -1e-6
    and |f(xi) - rho| <= 1e-6.  A failed rank test or no passing point is NotCertified.
    """
    y, t, n = r.y, r.t, r.y.n
    # M_t(y) is the relaxation's own moment block at y; M_{t-1}(y) is its
    # leading m x m block, and M_{t-1}(x_i y) is M_t(y)[rows_i, :m] with
    # rows_i the positions of alpha + e_i, |alpha| < t
    Mt = r.certificate.problem.blocks[0].at(y.values[1:])
    m = math.comb(n + t - 1, t - 1)
    Mlow = Mt[:m, :m]
    w, Q = np.linalg.eigh(Mlow)
    rank = _numerical_rank(w)
    if _numerical_rank(np.linalg.eigvalsh(Mt)) != rank:
        return Extraction()

    U = Q[:, -rank:]
    G = U.T @ Mlow @ U
    rows = _grlex_rank(y.basis.array[:m, None, :] + np.eye(n, dtype=np.intp))
    Ns = [np.linalg.solve(G, U.T @ Mt[rows[:, i], :m] @ U) for i in range(n)]

    # simultaneous diagonalization via a fixed generic combination: weights
    # in [0.5, 1.5) spread by the golden ratio, so no two coincide
    wts = 0.5 + (np.arange(1, n + 1) * 0.6180339887498949) % 1.0
    wts /= wts.sum()
    Nc = sum(wi * Ni for wi, Ni in zip(wts, Ns))
    _, T = np.linalg.eig(Nc)
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        return Extraction()
    candidates = []
    for col in range(rank):
        xi = tuple(float(np.real((Tinv[col] @ Ni @ T[:, col]))) for Ni in Ns)
        candidates.append(xi)

    # filter by epsilon-feasibility and epsilon-optimality, then merge clusters
    accepted: List[Tuple[Tuple[float, ...], float]] = []
    for xi in candidates:
        if not B.contains(xi, tol=FEASIBILITY_TOL):
            continue
        fval = r.f(xi)
        if abs(fval - r.rho) > OPTIMALITY_TOL:
            continue
        if any(max(abs(a - b) for a, b in zip(xi, prev)) <= CLUSTER_TOL
               for prev, _ in accepted):
            continue
        accepted.append((xi, fval))
    accepted.sort(key=lambda p: p[0])
    return Extraction(accepted)


# ---------------------------------------------------------------------------
# Upper-bound hierarchy (SOS densities) via a symmetric eigenvalue problem.
# ---------------------------------------------------------------------------

def upper_bound(f: Polynomial, measure: ReferenceMeasure, t: int) -> UpperBoundResult:
    """u_t = min eigenvalue of A_ab = int f T_a T_b dmu, |a|, |b| <= t; its unit
    eigenvector v gives the optimal SOS density (v' T(x))^2."""
    if f.n != measure.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {measure.n}")
    if t < 0:
        raise ValueError(f"order must be >= 0, got {t}")
    basis = build_basis(measure, t)
    w, V = np.linalg.eigh(multiplication(basis, f))
    return UpperBoundResult(t=t, u=float(w[0]), eigvec=V[:, 0], basis=basis)


# ---------------------------------------------------------------------------
# Sandwich sweep over orders.
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    t: int
    lower: Optional[LowerBoundResult] = None
    upper: Optional[UpperBoundResult] = None
    lower_error: Optional[str] = None
    upper_error: Optional[str] = None

    @property
    def rho(self) -> Optional[float]:
        return self.lower.rho if self.lower is not None else None

    @property
    def u(self) -> Optional[float]:
        return self.upper.u if self.upper is not None else None

    @property
    def gap(self) -> Optional[float]:
        if self.lower is None or self.upper is None:
            return None
        return self.upper.u - self.lower.rho


def sandwich_sweep(f: Polynomial, B: SemialgebraicSet,
                   measure: Optional[ReferenceMeasure], t_max: int,
                   t_min: Optional[int] = None) -> List[SweepRow]:
    """Run both hierarchies for t = t_min..t_max; individual-order failures are
    recorded in the row and the sweep continues."""
    if t_min is None:
        t_min = min_relaxation_order(f, B)
    rows = []
    for t in range(t_min, t_max + 1):
        row = SweepRow(t=t)
        try:
            row.lower = lower_bound(f, B, t, measure=measure,
                                    prev=rows[-1].lower if rows else None)
        except Exception as exc:  # per-order isolation is the contract here
            row.lower_error = str(exc)
        if measure is not None:
            try:
                row.upper = upper_bound(f, measure, t)
            except Exception as exc:
                row.upper_error = str(exc)
        rows.append(row)
    return rows
