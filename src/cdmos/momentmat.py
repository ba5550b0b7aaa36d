"""Moment and localizing matrix assembly, and semialgebraic sets.  The one
assembly of M_s(g y) is ``localizing_pattern``: ``localizing_matrix`` sums it
over a moment vector, and the relaxation's SDP blocks hold it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .measures import MomentSequence
from .polyring import MonomialBasis, Polynomial, _grlex_rank


def localizing_pattern(basis: MonomialBasis, g: Polynomial, s: int):
    """M_s(g y) for moments y on ``basis`` (2s + deg g <= basis.t) as sparse
    entries: val[e] * y[var[e]] adds to flat position pos[e] = a*m + b, m =
    C(n+s, s).  One entry per term and position, row-major within a term,
    the terms in ``g.terms`` order but the constant last: an SDP block that
    holds it in its constant then adds it to entry (0, 0) last too, as
    ``localizing_matrix`` does.  var is one rank table of delta + gamma over
    |delta| <= 2s, read at the ranks of alpha_a + alpha_b (``_pair_ranks``)."""
    m = math.comb(basis.n + s, s)
    deltas = basis.array[:math.comb(basis.n + 2 * s, 2 * s)]
    terms = sorted(g.terms.items(), key=lambda term: not any(term[0]))
    gammas = np.array([gamma for gamma, _ in terms], dtype=np.intp).reshape(-1, basis.n)
    shifted = _grlex_rank(gammas[:, None, :] + deltas[None, :, :])
    var = shifted[:, _pair_ranks(basis, s)].ravel()
    pos = np.tile(np.arange(m * m), len(gammas))
    val = np.repeat(np.array([c for _, c in terms], dtype=float), m * m)
    return var, pos, val


_PAIR_RANKS: Dict[Tuple[int, int], np.ndarray] = {}


def _pair_ranks(basis: MonomialBasis, s: int) -> np.ndarray:
    """The graded-lex ranks of alpha_a + alpha_b over |alpha| <= s (s <=
    basis.t), row-major in (a, b) and read-only: one table per (n, s), shared
    by every block of order s."""
    key = (basis.n, s)
    if key not in _PAIR_RANKS:
        alphas = basis.array[:math.comb(basis.n + s, s)]
        _PAIR_RANKS[key] = _grlex_rank(alphas[:, None, :] + alphas[None, :, :]).ravel()
        _PAIR_RANKS[key].flags.writeable = False
    return _PAIR_RANKS[key]


def localizing_matrix(y: MomentSequence, g: Polynomial, s: int) -> np.ndarray:
    """M(alpha, beta) = sum_gamma g_gamma y_{alpha+beta+gamma}, order-s index set:
    one bincount of ``localizing_pattern``, so each entry gets the same
    additions, in the same order, as the term-by-term sum in ``g.terms``
    order with the constant term last."""
    if g.n != y.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {y.n}")
    if s < 0:
        raise ValueError(f"order must be >= 0, got {s}")
    if 2 * s + g.degree > y.t:
        raise ValueError(
            f"moment sequence too short: need degree {2 * s + g.degree}, have {y.t}")
    var, pos, val = localizing_pattern(y.basis, g, s)
    m = math.comb(y.n + s, s)
    return np.bincount(pos, val * y.values[var], minlength=m * m).reshape(m, m)


def moment_matrix(y: MomentSequence, s: int) -> np.ndarray:
    """The g == 1 special case of the localizing matrix."""
    return localizing_matrix(y, Polynomial.constant(y.n, 1.0), s)


def half_degree(g: Polynomial) -> int:
    """d = ceil(deg g / 2); the zero polynomial contributes 0."""
    return math.ceil(g.degree / 2)


@dataclass(frozen=True)
class SemialgebraicSet:
    """B = {x : g_j(x) >= 0, j = 1..m}; g_0 == 1 is implicit everywhere."""

    n: int
    constraints: Tuple[Polynomial, ...]
    box: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for g in self.constraints:
            if g.n != self.n:
                raise ValueError(f"constraint dimension {g.n} != set dimension {self.n}")

    @property
    def half_degrees(self) -> List[int]:
        """d_j = ceil(deg g_j / 2) for j = 1..m (g_0's d_0 = 0 is implicit)."""
        return [half_degree(g) for g in self.constraints]

    def contains(self, x, tol: float = 0.0) -> bool:
        return all(g(x) >= -tol for g in self.constraints)

