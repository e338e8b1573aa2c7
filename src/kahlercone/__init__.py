"""Exact Kahler geometry of the complexified index cone of a real cubic form.

The package parses a homogeneous cubic f, decides index-cone membership in
exact rational arithmetic, builds the Hessian metric of the tube domain over
the cone, and machine-verifies - bit-exactly at rational points - the
curvature identity relating the metric side to the third-derivative side,
together with the supporting identities (affine curvature formula, fibre
cone-metric inverse and connection formulas, and the norm-function identity
N = 8 f(Im t)).
"""

from .cubic import (CubicForm, Membership, NormIdentityResult, cone_contains,
                    cone_sample, norm_identity_check, parse_text)
from .errors import (DimensionMismatch, KahlerConeError, NotHomogeneousCubic,
                     NotInCone, ParseError, SamplingExhausted, SingularHessian,
                     ZeroLambda, ZeroVector)
from .geometry import (CurvatureReport, MetricJet, PointResult,
                       VerificationSummary, christoffels, curvature_lhs,
                       curvature_report, curvature_rhs, kahler_metric,
                       norm_function, sectional, verify_identity)
from .linalg import CurvTensor, Sym3Tensor, SymMatrix, contract, inertia
from .scalars import Complex
from .special import (AffineCheckResult, TildeChristoffelResult,
                      TildeInverseResult, TildeMetric, affine_curvature_check,
                      affine_metric, build_tilde_metric,
                      tilde_christoffel_check, tilde_inverse_check)

__version__ = "0.1.0"

__all__ = [
    "CubicForm", "Membership", "NormIdentityResult",
    "parse_text", "cone_contains", "cone_sample", "norm_identity_check",
    "MetricJet", "CurvatureReport", "kahler_metric", "curvature_lhs",
    "curvature_rhs", "curvature_report", "christoffels", "sectional",
    "verify_identity", "norm_function",
    "SymMatrix", "Sym3Tensor", "CurvTensor", "inertia", "contract", "Complex",
    "AffineCheckResult", "TildeMetric", "TildeInverseResult",
    "TildeChristoffelResult", "affine_curvature_check", "affine_metric",
    "build_tilde_metric", "tilde_inverse_check", "tilde_christoffel_check",
    "PointResult", "VerificationSummary",
    "KahlerConeError", "ParseError", "NotHomogeneousCubic",
    "DimensionMismatch", "SingularHessian", "NotInCone", "SamplingExhausted",
    "ZeroLambda", "ZeroVector",
]
