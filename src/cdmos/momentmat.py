"""Moment and localizing matrix assembly, and semialgebraic sets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .measures import MomentSequence
from .polyring import Polynomial, _grlex_rank


def localizing_matrix(y: MomentSequence, g: Polynomial, s: int) -> np.ndarray:
    """M(alpha, beta) = sum_gamma g_gamma y_{alpha+beta+gamma}, order-s index set.

    Built from the shifted moments z_delta = sum_gamma g_gamma y_{delta+gamma}
    over |delta| <= 2s, one rank table for all terms, and read off as
    M(alpha, beta) = z_{alpha+beta}; each entry gets the same additions, in
    the same order, as the term-by-term sum of y's tables.
    """
    if g.n != y.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {y.n}")
    if s < 0:
        raise ValueError(f"order must be >= 0, got {s}")
    if 2 * s + g.degree > y.t:
        raise ValueError(
            f"moment sequence too short: need degree {2 * s + g.degree}, have {y.t}")
    deltas = y.basis.array[:math.comb(y.n + 2 * s, 2 * s)]
    gammas = np.array(list(g.terms), dtype=np.intp).reshape(-1, y.n)
    shifted = _grlex_rank(gammas[:, None, :] + deltas[None, :, :])
    z = np.zeros(len(deltas))
    for idx, c in zip(shifted, g.terms.values()):
        z += c * y.values[idx]
    return z[y.basis.sum_index(s)]


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

