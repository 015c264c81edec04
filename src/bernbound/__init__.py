"""Guaranteed range bounds, positivity certificates, and global minimization
for polynomials and rational functions over simplices, via the simplicial
Bernstein form with exact rational arithmetic.

Importing the package loads none of its modules.  Each exported name, and
each submodule, is imported on first use (PEP 562), so a command-line run
loads only the modules its command needs."""

__version__ = "0.1.0"

# Each exported name, listed under the module that defines it.
_EXPORTS = {
    "errors": (
        "BadEdge",
        "BernboundError",
        "BudgetExhausted",
        "DegenerateSimplex",
        "DegreeMismatch",
        "DegreeTooLow",
        "DenominatorNotPositive",
        "DimensionMismatch",
        "InvalidArgument",
        "NonPositiveClaim",
        "NonPositiveEpsilon",
        "SimplexMismatch",
    ),
    "rationals": ("Interval", "parse_rational", "format_rational"),
    "indexing": ("enumerate_indices",),
    "powerpoly": ("PowerPoly",),
    "geometry": (
        "Simplex",
        "affine_pullback",
        "barycentric",
        "bisect_edge",
        "diameter_sq",
        "longest_edge",
        "round_length",
        "standard_simplex",
    ),
    "polypatch": (
        "BernsteinPatch",
        "SecondDifferences",
        "to_bernstein",
        "to_bernstein_standard",
    ),
    "ratpatch": (
        "ClaimedMinimum",
        "ConvergenceConstants",
        "RationalPatch",
        "Sharpness",
        "apriori_degree_omega",
        "apriori_degree_pr",
        "apriori_depth",
        "apriori_steps",
        "convergence_constants",
        "rational_patch",
    ),
    "certify": (
        "AprioriInfo",
        "CertificateReport",
        "Mode",
        "Verdict",
        "Witness",
        "cert_predicate",
        "certify_global",
        "certify_local",
        "certify_negative",
        "certify_sharpness",
    ),
    "optimize": ("MinimizationResult", "local_bounds", "minimize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """An exported name, or a submodule, imported on first use."""
    from importlib import import_module

    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # ``cli`` exports nothing; it is listed once imported, as a global.
    return sorted({*globals(), *__all__, *_EXPORTS})
