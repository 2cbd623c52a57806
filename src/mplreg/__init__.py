"""Multiple polylogarithms at roots of unity.

Exact root-of-unity arithmetic and convergence-domain classification,
twisted Euler-Maclaurin/Euler-Boole summation engines over the
(log t)^l t^-m scale, an asymptotic-expansion algebra with character
coefficients, and regularised evaluation of nested character sums
(multiple Stieltjes constants) at integer points.
"""

from .asymptotics import (
    AsymptoticExpansion,
    DepthSpec,
    depth_expansion,
    order_lower_bound,
    partial_sum,
)
from .errors import (
    DomainError,
    MplregError,
    NonConvergenceError,
    PrecisionError,
)
from .eulerpoly import (
    RationalPolynomial,
    bernoulli_number,
    bernoulli_polynomial,
    gen_euler_polynomial,
    inner_product,
)
from .polylog import (
    EvalReport,
    TranslationReport,
    brute_partial_sum,
    eval_convergent,
    eval_integer_point,
    pochhammer,
    stieltjes_constant,
    verify_translation,
)
from .rootsofunity import (
    ComplexPoint,
    Hyperplane,
    RotationNumber,
    ZVector,
    contains,
    first_nontrivial_prefix,
    index_set_and_count,
    rotation_product,
    singular_hyperplanes,
)
from .scalefun import ScaleFunction
from .summation import (
    SummationBreakdown,
    euler_maclaurin,
    gen_euler_boole,
    term_sum_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticExpansion", "ComplexPoint", "DepthSpec", "DomainError",
    "EvalReport", "Hyperplane", "MplregError", "NonConvergenceError",
    "PrecisionError", "RationalPolynomial", "RotationNumber", "ScaleFunction",
    "SummationBreakdown", "TranslationReport", "ZVector", "bernoulli_number",
    "bernoulli_polynomial", "brute_partial_sum", "contains", "depth_expansion", "euler_maclaurin",
    "eval_convergent", "eval_integer_point", "first_nontrivial_prefix",
    "gen_euler_boole", "gen_euler_polynomial", "index_set_and_count",
    "inner_product", "order_lower_bound", "partial_sum", "pochhammer",
    "rotation_product", "singular_hyperplanes", "stieltjes_constant",
    "term_sum_expansion", "verify_translation",
]
