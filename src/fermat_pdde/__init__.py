"""Symbolic-numeric toolkit for Fermat-type partial differential-difference
equations on C^n: closed-form solution families, exact symbolic
differentiation, and randomized residual verification."""

from .backends import default_backend, eval_batch
from .construct import (
    T1Params,
    T2Params,
    construct_cor1,
    construct_cor1_m3_control,
    construct_cor2,
    construct_fermat_pair,
    construct_legacy_xw,
    construct_t1,
    construct_t2,
)
from .elliptic import EllipticContext, default_context, half_periods
from .errors import (
    ConstructionError,
    DimensionError,
    EstimationError,
    EvalError,
    MissingEllipticContextError,
    ParseError,
    PDDEError,
    PoleHitError,
    ProblemFileError,
    ProblemSpecError,
)
from .expr import (
    Expr,
    Const,
    Var,
    directional_derivative,
    partial,
    shift,
    to_string,
    variables,
)
from .operators import (
    LinearPDOperator,
    PDDEProblem,
    apply_linear_operator,
    difference,
    residual,
    scale_terms,
)
from .parser import parse
from .periodic import (
    PeriodicSpec,
    make_periodic,
    make_polynomial_quasi_periodic,
    make_quasi_periodic,
)
from .problemfile import LoadedProblem, load_problem
from .verify import (
    GrowthEstimate,
    SamplingPolicy,
    VerificationReport,
    check_residual,
    estimate_order,
    sample_points,
    verify_problem,
)

__version__ = "0.1.0"
