"""Exact expansion coefficients for regular and connected regular labeled graphs.

The package computes, in exact rational arithmetic, the coefficient series
of the asymptotic growth of the number of k-regular labeled graphs (and of
the connected ones), cross-validated by independent exact counting routes
and a high-precision numerical residual harness.
"""

from .series import (
    BadConstantTerm,
    BadParity,
    InsufficientOrder,
    Series,
    SeriesError,
    ValuationViolation,
    double_factorial,
    newton_solve_tree,
    rational_str,
)
from .multipoly import ExponentOverflow, MPoly, MissingWeight, Monomial, gaussian_hadamard, monomial
from .counts import (
    CountConflict,
    LimitExceeded,
    NonIntegerResult,
    OffsetMismatch,
    ParseError,
    count_brute,
    count_two_regular,
    egf_reciprocal_coeffs,
    load_bfile,
    moment_counts,
    resolve,
    structural,
)
from .regular import (
    DegreeOverflow,
    Envelope,
    FormalKPolynomial,
    IrrationalPrefactor,
    RouteMismatch,
    formal_k_interpolate,
    sg_expansion,
    u_pq,
)
from .connected import GapMismatch, csg_tilde, shifted_expansion, stirling_series, valuation_gap

__version__ = "0.1.0"
