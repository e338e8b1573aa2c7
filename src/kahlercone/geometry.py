"""Kahler geometry of the complexified index cone and the curvature identity.

The tube domain over the index cone carries the Hessian metric

    g[i,j](y) = -1/4 * d^2(log f)/dy_i dy_j,

the Kahler metric of the potential -log N with norm function N = 8 f(y).
Because the potential does not depend on the real parts, every holomorphic
derivative d/dt_k reduces to -(i/2) d/dy_k, so metric, Christoffel symbols
and curvature are computed entirely over the reals - exactly, when the point
is rational.

Curvature sign convention (normative here, documented because the two
conventions in circulation differ by an overall sign):

    R[i,j,k,l] = d_{t_k} d_{tbar_l} g[i,j]
                 - sum_{p,q} ginv[p,q] (d_{t_k} g[i,q]) (d_{tbar_l} g[p,j])

which reduces to R = 1/4 (d2g - ginv-contraction of dg with dg). With this
choice the verified identity reads, with no extra signs,

    R[i,j,k,l] = g[i,j] g[k,l] + g[i,l] g[k,j]
                 - 1/(64 f^2) sum_{p,q} ginv[p,q] f3[i,k,p] f3[j,l,q]

(n = 1, f = y^3 gives +3/8 on both sides). The opposite convention is
available by passing convention="negated", which negates the left side.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cubic import CubicForm, Membership, _classify
from .errors import (DimensionMismatch, KahlerConeError, NotInCone,
                     SingularMatrix, SingularMetric, ZeroVector)
from .linalg import (CurvTensor, Sym3Tensor, SymMatrix, contract, invert,
                     raise_index)
from .report import PointResult, VerificationSummary
from .scalars import Complex, format_point

__all__ = [
    "MetricJet",
    "CurvatureReport",
    "kahler_metric",
    "curvature_lhs",
    "curvature_rhs",
    "curvature_report",
    "christoffels",
    "sectional",
    "verify_identity",
    "norm_function",
    "convert_point",
]

QUARTER = Fraction(1, 4)
CONVENTIONS = ("standard", "negated")
MODES = ("exact", "float")
FLOAT_REL_TOL = 1e-9             # verify_identity's float-mode residual bound
_TINY = sys.float_info.min       # the smallest normal float


def convert_point(y, mode: str) -> tuple:
    """y in the scalars of `mode`: exact Fractions, or binary64 floats.

    Raises KahlerConeError when a coordinate is beyond the float range.
    """
    if mode == "exact":
        return tuple(Fraction(v) for v in y)
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    try:
        return tuple(float(v) for v in y)
    except OverflowError as exc:
        raise KahlerConeError(f"a coordinate exceeds the largest float "
                              f"({sys.float_info.max:.3g})") from exc


@dataclass(frozen=True)
class MetricJet:
    """Metric with its first and second y-derivatives and inverse at a point.

    `kahler_metric` decides membership and builds the jet once per point;
    both curvature sides, the Christoffel symbols and the fibre-metric
    checks read everything they need from it.
    """
    g: SymMatrix
    dg: Sym3Tensor        # dg[i,j,k] = d g[i,j] / d y_k, fully symmetric
    d2g: CurvTensor       # d2g[i,j,k,l] = d^2 g[i,j] / d y_k d y_l, fully
                          # symmetric; packed with the pair symmetries
    ginv: SymMatrix
    f: object             # f(y)
    grad: list            # grad f(y)
    hess: SymMatrix       # Hess f(y)

    def christoffels(self):
        """Christoffel symbols: purely imaginary, symmetric in the lower
        pair; gamma[i][j][k] = -(i/2) sum_l ginv[i,l] dg[l,k,j]."""
        half = Fraction(1, 2)
        return [[[Complex(v - v, -half * v) for v in row] for row in u.rows()]
                for u in raise_index(self.dg, self.ginv)]


def norm_function(form: CubicForm, y):
    """The norm function N = 8 f(y), the argument of the Kahler potential."""
    return 8 * form.evaluate(y)


def _rounded(y, fval, grad, hess):
    """Exact f, grad f and Hess f at the float point y, rounded once to
    floats. Raises KahlerConeError if one is beyond the float range, or
    unless f^4 and 1/f^4, the extreme powers of f in the jet, are normal."""
    try:
        fval, grad = float(fval), [float(v) for v in grad]
        hess = SymMatrix.build(hess.n, lambda i, j: float(hess[i, j]))
    except OverflowError as exc:
        raise KahlerConeError(f"f, grad f or Hess f at {format_point(y)} "
                              f"exceeds the largest float") from exc
    f4 = fval * fval * fval * fval
    if not (f4 > _TINY and 1 / f4 > _TINY):
        raise KahlerConeError(f"f{format_point(y)} = {fval}: its 4th power or "
                              f"inverse 4th power is outside the float range")
    return fval, grad, hess


def kahler_metric(form: CubicForm, y) -> MetricJet:
    """Metric jet of the cone metric at an interior point.

    All derivatives are closed-form rational expressions in f, grad f,
    Hess f and the constant third-derivative tensor; derivatives of f above
    order three vanish, so the jet is exact at rational points. f, grad f
    and Hess f come from the exact evaluation that decides membership; at a
    point with a float coordinate they are rounded once, and the jet is float.
    """
    verdict, fval, _, grad, hess = _classify(form, [Fraction(v) for v in y])
    if verdict is not Membership.INTERIOR:
        raise NotInCone(f"point {format_point(y)} is not interior")
    if any(isinstance(v, float) for v in y):
        fval, grad, hess = _rounded(y, fval, grad, hess)
    n, f3 = form.n, form.third_tensor
    p1 = 1 / fval
    p2 = p1 * p1
    p3, p4 = p2 * p1, p2 * p2
    g = SymMatrix.build(
        n, lambda i, j: -QUARTER * (hess[i, j] * p1 - grad[i] * grad[j] * p2))

    def dg_entry(i, j, k):
        return -QUARTER * (
            f3[i, j, k] * p1
            - (hess[i, j] * grad[k] + hess[i, k] * grad[j]
               + hess[j, k] * grad[i]) * p2
            + 2 * grad[i] * grad[j] * grad[k] * p3)

    dg = Sym3Tensor.build(n, dg_entry)

    def d2g_entry(i, j, k, l):
        return -QUARTER * (
            -(f3[i, j, k] * grad[l] + f3[i, j, l] * grad[k]
              + f3[i, k, l] * grad[j] + f3[j, k, l] * grad[i]) * p2
            - (hess[i, j] * hess[k, l] + hess[i, k] * hess[j, l]
               + hess[i, l] * hess[j, k]) * p2
            + 2 * (hess[i, j] * grad[k] * grad[l]
                   + hess[i, k] * grad[j] * grad[l]
                   + hess[i, l] * grad[j] * grad[k]
                   + hess[j, k] * grad[i] * grad[l]
                   + hess[j, l] * grad[i] * grad[k]
                   + hess[k, l] * grad[i] * grad[j]) * p3
            - 6 * grad[i] * grad[j] * grad[k] * grad[l] * p4)

    # d2g is fully symmetric: one evaluation per index multiset
    by_multiset = {idx: d2g_entry(*idx) for idx in
                   itertools.combinations_with_replacement(range(n), 4)}
    d2g = CurvTensor.build(n, lambda *idx: by_multiset[tuple(sorted(idx))])

    try:
        ginv = invert(g)
    except SingularMatrix as exc:
        raise SingularMetric(str(exc)) from exc
    if isinstance(fval, float):
        triples = itertools.combinations_with_replacement(range(n), 3)
        values = itertools.chain(*g.rows(), (dg[t] for t in triples),
                                 d2g.entries(), *ginv.rows())
        if not all(map(math.isfinite, values)):
            raise KahlerConeError(f"the float jet at {format_point(y)} "
                                  f"overflows")
    return MetricJet(g=g, dg=dg, d2g=d2g, ginv=ginv, f=fval, grad=grad,
                     hess=hess)


def _lhs(jet: MetricJet) -> CurvTensor:
    return (jet.d2g - contract(jet.dg, jet.ginv)).scale(QUARTER)


def _rhs(form: CubicForm, jet: MetricJet) -> CurvTensor:
    scale = 1 / (64 * jet.f * jet.f)
    g = jet.g
    yukawa_part = contract(form.third_tensor, jet.ginv)
    return CurvTensor.build(form.n, lambda i, j, k, l: (
        g[i, j] * g[k, l] + g[i, l] * g[k, j]
        - scale * yukawa_part[i, j, k, l]))


def _sides(form: CubicForm, jet: MetricJet, convention: str):
    """Both sides of the identity from one jet, under the given convention."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    lhs = _lhs(jet)
    if convention == "negated":
        lhs = lhs.scale(-1)
    return lhs, _rhs(form, jet)


def curvature_lhs(form: CubicForm, y) -> CurvTensor:
    """Curvature tensor from the metric side of the identity."""
    return _lhs(kahler_metric(form, y))


def curvature_rhs(form: CubicForm, y) -> CurvTensor:
    """Curvature tensor from the metric products and the third-derivative side."""
    return _rhs(form, kahler_metric(form, y))


def christoffels(form: CubicForm, y):
    """Christoffel symbols of the cone metric (see MetricJet.christoffels)."""
    return kahler_metric(form, y).christoffels()


def sectional(form: CubicForm, y, v):
    """Holomorphic sectional curvature 2 R(v, vbar, v, vbar) / g(v, vbar)^2."""
    vv = [Complex.of(x) for x in v]
    if len(vv) != form.n:
        raise DimensionMismatch("direction length does not match the form")
    if all(z.is_zero() for z in vv):
        raise ZeroVector("sectional curvature needs a nonzero direction")
    jet = kahler_metric(form, y)
    r = _lhs(jet)
    n = form.n
    num = Complex(Fraction(0))
    den = Complex(Fraction(0))
    for i in range(n):
        for j in range(n):
            den = den + jet.g[i, j] * vv[i] * vv[j].conj()
            for k in range(n):
                for l in range(n):
                    num = num + (r[i, j, k, l]
                                 * vv[i] * vv[j].conj() * vv[k] * vv[l].conj())
    # real tensor with the pair symmetries: the imaginary parts cancel
    return 2 * num.re / (den.re * den.re)


@dataclass(frozen=True)
class CurvatureReport:
    """Everything the identity involves at one point, plus the residual."""
    y: tuple
    potential_arg: object              # N = 8 f(y)
    yukawa: Sym3Tensor                 # (1/2) f3, the special-geometry cubic
    christoffel: list
    lhs: CurvTensor
    rhs: CurvTensor
    residual: CurvTensor
    max_abs_residual: object
    convention: str = "standard"


def curvature_report(form: CubicForm, y,
                     convention: str = "standard") -> CurvatureReport:
    jet = kahler_metric(form, y)
    lhs, rhs = _sides(form, jet, convention)
    residual = lhs - rhs
    return CurvatureReport(
        y=tuple(y),
        potential_arg=8 * jet.f,
        yukawa=form.third_tensor.scale(Fraction(1, 2)),
        christoffel=jet.christoffels(),
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        max_abs_residual=residual.max_abs(),
        convention=convention,
    )


def verify_identity(form: CubicForm, points: Sequence, mode: str = "exact",
                    convention: str = "standard",
                    seed: Optional[int] = None) -> VerificationSummary:
    """Check the curvature identity at each point and summarize.

    Exact mode demands a bit-exact zero residual; float mode demands a
    maximum entrywise residual below FLOAT_REL_TOL relative to the larger
    of the two sides. An empty point list is an error, never a vacuous pass.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not points:
        raise KahlerConeError("no points to verify")
    start = time.perf_counter()
    results = []
    for y in points:
        yy = convert_point(y, mode)
        lhs, rhs = _sides(form, kahler_metric(form, yy), convention)
        max_abs = (lhs - rhs).max_abs()
        if mode == "exact":
            ok = max_abs == 0
            rel = None
        else:
            scale = max(lhs.max_abs(), rhs.max_abs(), 1e-300)
            rel = max_abs / scale
            ok = rel < FLOAT_REL_TOL
        results.append(PointResult(y=yy, verdict="PASS" if ok else "FAIL",
                                   max_abs_residual=max_abs,
                                   max_rel_residual=rel))

    elapsed_ms = int((time.perf_counter() - start) * 1000)
    overall = "PASS" if all(r.verdict == "PASS" for r in results) else "FAIL"
    return VerificationSummary(
        form_text=form.to_text(), n=form.n, mode=mode, convention=convention,
        seed=seed, points=results, overall=overall, timing_ms=elapsed_ms)
