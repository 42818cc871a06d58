"""Symbolic-numeric toolkit for Fermat-type partial differential-difference
equations on C^n: closed-form solution families, exact symbolic
differentiation, and randomized residual verification.

Importing the package loads the expression nodes and the evaluator
(`expr`, `tape`, `backends`) and binds `default_backend`.  Every other
exported name is looked up in its module on first access (PEP 562),
which imports the module if nothing has yet, so a process loads only the
modules it uses: `verify` and `order` on a wp-free candidate never load
the constructors, `periodic` or `elliptic`.
"""

from importlib import import_module

from .backends import default_backend  # loads numpy, `expr` and `tape` too

#: module -> the names it exports here, each imported on first access
_EXPORTS = {
    "backends": ("default_backend", "eval_batch"),
    "construct": (
        "T1Params",
        "T2Params",
        "construct_cor1",
        "construct_cor1_m3_control",
        "construct_cor2",
        "construct_fermat_pair",
        "construct_legacy_xw",
        "construct_t1",
        "construct_t2",
    ),
    "elliptic": ("default_context",),
    "errors": (
        "ConstructionError",
        "DimensionError",
        "EstimationError",
        "EvalError",
        "ParseError",
        "PDDEError",
        "PoleHitError",
        "ProblemFileError",
        "ProblemSpecError",
    ),
    "expr": (
        "Expr",
        "Const",
        "Var",
        "directional_derivative",
        "partial",
        "shift",
        "to_string",
        "variables",
    ),
    "operators": (
        "LinearPDOperator",
        "PDDEProblem",
        "apply_linear_operator",
        "difference",
        "residual",
        "scale_terms",
    ),
    "parser": ("parse",),
    "periodic": (
        "PeriodicSpec",
        "make_periodic",
        "make_polynomial_quasi_periodic",
        "make_quasi_periodic",
    ),
    "problemfile": ("LoadedProblem", "load_problem"),
    "verify": (
        "GrowthEstimate",
        "SamplingPolicy",
        "VerificationReport",
        "check_residual",
        "estimate_order",
        "sample_points",
        "verify_problem",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules too: `from fermat_pdde import *` bound them while the
# package imported every module at start
__all__ = [*_HOME, *_EXPORTS, "tape"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
