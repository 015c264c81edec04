"""Guaranteed range bounds, positivity certificates, and global minimization
for polynomials and rational functions over simplices, via the simplicial
Bernstein form with exact rational arithmetic."""

__version__ = "0.1.0"

from .errors import (
    BadEdge,
    BernboundError,
    BudgetExhausted,
    DegenerateSimplex,
    DegreeMismatch,
    DegreeTooLow,
    DenominatorNotPositive,
    DimensionMismatch,
    InvalidArgument,
    NonPositiveClaim,
    NonPositiveEpsilon,
    OrderExceedsDegree,
    SimplexMismatch,
)
from .rationals import Interval, parse_rational, format_rational
from .indexing import IndexSet, binom_graded, enumerate_indices
from .powerpoly import PowerPoly
from .geometry import (
    Simplex,
    affine_pullback,
    barycentric,
    bisect_edge,
    diameter_sq,
    grid_point,
    longest_edge,
    round_length,
    standard_simplex,
)
from .polypatch import (
    BernsteinPatch,
    SecondDifferences,
    discretization_bound,
    to_bernstein,
    to_bernstein_standard,
)
from .ratpatch import (
    ConvergenceConstants,
    RationalPatch,
    Sharpness,
    convergence_constants,
    rational_patch,
)
from .certify import (
    AprioriInfo,
    CertificateReport,
    ClaimedMinimum,
    Mode,
    Verdict,
    Witness,
    apriori_degree_omega,
    apriori_degree_pr,
    apriori_depth,
    cert_predicate,
    certify_global,
    certify_local,
    certify_negative,
    certify_sharpness,
)
from .optimize import (
    MinimizationResult,
    apriori_steps,
    local_bounds,
    minimize,
)
