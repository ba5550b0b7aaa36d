"""Moment-SOS bounds for polynomial optimization, with the signed-density /
Christoffel-Darboux reconstruction of the dual relaxation variable."""

from .hierarchy import (Extraction, HierarchyError, LowerBoundResult, SweepRow,
                        UpperBoundResult, certify_and_extract, lower_bound,
                        sandwich_sweep, upper_bound)
from .measures import CountingHypercube, MomentSequence, UniformBox, moments
from .momentmat import SemialgebraicSet, localizing_matrix
from .orthobasis import (BasisConstructionError, OrthoBasis, build_basis,
                         cd_kernel, christoffel)
from .polyring import (MonomialBasis, Polynomial, coeff_vector, enumerate_basis,
                       parse_polynomial)
from .sdp import SdpBlock, SdpProblem, SdpSolution, SdpStatus, solve_sdp

__version__ = "0.1.0"
