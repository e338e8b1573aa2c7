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

At an exact point the identity is cleared of denominators once and decided
on Python ints. `cubic._classify` gives z = l*y (l the lcm of the
denominators of y) and the integer cubic s*f, s = 6c with c the lcm of its
coefficient denominators; at z, let t be its third-derivative tensor,
H = t.z its Hessian, a = H z / 2 its gradient and F = a.z / 3 its value.
With sym summing over the distinct placements of the indices, set

    M = a a^T - F H,    Delta = det M,    A = adj M,
    Dg = -(F^2 t - F sym(H a) + 2 a a a),
    E = F^2 (sym(t a) + sym(H H)) - 2 F sym(H a a) + 6 a a a a

(E once per index multiset). Then, one division per entry,

    g = l^2 M / (4 F^2),     dg = l^3 Dg / (4 F^3),
    d2g = l^4 E / (4 F^4),   ginv = 4 F^2 A / (l^2 Delta),

and each side of the identity is l^4 side / (16 F^4 Delta), with

    lhs = Delta E[i,j,k,l] - sum_{p,q} A[p,q] Dg[i,k,p] Dg[j,l,q],
    rhs = Delta (M[i,j] M[k,l] + M[i,l] M[k,j])
          - F^4 sum_{p,q} A[p,q] t[i,k,p] t[j,l,q].

M is 4 F^2 g at z, positive definite at interior points, so Delta > 0 and
exact `verify_identity` decides from the integer residual +-lhs - rhs; the
only Fraction it builds is the reported maximum |residual|. At a point with
a float coordinate, f, grad f and Hess f are rounded once to binary64 and
the jet and sides follow the closed forms in floats.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .cubic import Cleared, CubicForm, Membership, _classify
from .errors import (DimensionMismatch, KahlerConeError, NotInCone,
                     SingularMatrix, SingularMetric, ZeroVector)
from .linalg import (CurvTensor, Sym3Tensor, SymMatrix, contract,
                     det_adjugate, invert, raise_index)
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
    the Christoffel symbols and the fibre-metric checks read everything
    they need from it.
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


def _check_convention(convention):
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")


def _interior(form: CubicForm, y) -> Cleared:
    """The integers of an interior point y; NotInCone elsewhere."""
    verdict, _, point = _classify(form, y)
    if verdict is not Membership.INTERIOR:
        raise NotInCone(f"point {format_point(y)} is not interior")
    return point


def _gradient(point: Cleared) -> list:
    """a = H z / 2, the gradient of s*f at z."""
    return [sum(map(mul, row, point.z)) // 2 for row in point.H.rows()]


def _derivatives(point: Cleared, a):
    """f(y), grad f(y) and Hess f(y) from the integers of y."""
    s, l = point.s, point.l
    return (point.f, [Fraction(v, s * l * l) for v in a],
            point.H.scale(Fraction(1, s * l)))


class _IntegerJet(NamedTuple):
    """The metric jet at an exact interior point, cleared of denominators:
    the integers of the module docstring."""
    point: Cleared
    t: Sym3Tensor
    a: list
    M: SymMatrix
    delta: int
    adj: SymMatrix
    Dg: Sym3Tensor
    E: CurvTensor

    def jet(self) -> MetricJet:
        """The Fraction jet at y, one division per entry."""
        l, F = self.point.l, self.point.F
        fval, grad, hess = _derivatives(self.point, self.a)
        return MetricJet(
            g=self.M.scale(Fraction(l * l, 4 * F * F)),
            dg=self.Dg.scale(Fraction(l**3, 4 * F**3)),
            d2g=self.E.scale(Fraction(l**4, 4 * F**4)),
            ginv=self.adj.scale(Fraction(4 * F * F, l * l * self.delta)),
            f=fval, grad=grad, hess=hess)

    def sides(self, convention: str):
        """The integer sides (+-lhs, rhs): each side of the identity is
        `side_scale` times one of them."""
        _check_convention(convention)
        lhs = self.E.scale(self.delta) - contract(self.Dg, self.adj)
        if convention == "negated":
            lhs = lhs.scale(-1)
        m = self.M
        products = CurvTensor.build(m.n, lambda i, j, k, l: (
            m[i, j] * m[k, l] + m[i, l] * m[k, j]))
        rhs = (products.scale(self.delta)
               - contract(self.t, self.adj).scale(self.point.F**4))
        return lhs, rhs

    @property
    def side_scale(self) -> Fraction:
        """l^4 / (16 F^4 Delta)."""
        return Fraction(self.point.l**4, 16 * self.point.F**4 * self.delta)


def _integer_jet(form: CubicForm, y) -> _IntegerJet:
    """The integer jet at an exact interior point y (module docstring)."""
    point = _interior(form, y)
    n, F = form.n, point.F
    t = form._integer_third()[1]
    a = _gradient(point)
    h = point.H.rows()
    m = SymMatrix.build(n, lambda i, j: a[i] * a[j] - F * h[i][j])
    try:
        delta, adj = det_adjugate(m.rows())
    except SingularMatrix as exc:
        raise SingularMetric(str(exc)) from exc
    f2 = F * F
    dg = Sym3Tensor.build(n, lambda i, j, k: (
        F * (h[i][j] * a[k] + h[i][k] * a[j] + h[j][k] * a[i])
        - f2 * t[i, j, k] - 2 * a[i] * a[j] * a[k]))
    t3 = [[[t[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]

    def e_entry(i, j, k, l):
        return (f2 * (t3[i][j][k] * a[l] + t3[i][j][l] * a[k]
                      + t3[i][k][l] * a[j] + t3[j][k][l] * a[i]
                      + h[i][j] * h[k][l] + h[i][k] * h[j][l]
                      + h[i][l] * h[j][k])
                - 2 * F * (h[i][j] * a[k] * a[l] + h[i][k] * a[j] * a[l]
                           + h[i][l] * a[j] * a[k] + h[j][k] * a[i] * a[l]
                           + h[j][l] * a[i] * a[k] + h[k][l] * a[i] * a[j])
                + 6 * a[i] * a[j] * a[k] * a[l])

    # E is fully symmetric: one evaluation per index multiset
    by_multiset = {idx: e_entry(*idx) for idx in
                   itertools.combinations_with_replacement(range(n), 4)}
    e = CurvTensor.build(n, lambda *idx: by_multiset[tuple(sorted(idx))])
    return _IntegerJet(point=point, t=t, a=a, M=m, delta=delta,
                       adj=SymMatrix.from_rows(adj), Dg=dg, E=e)


def _has_float(y) -> bool:
    return any(isinstance(v, float) for v in y)


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


def _float_jet(form: CubicForm, y) -> MetricJet:
    """The jet at a point with a float coordinate: the exact f, grad f and
    Hess f rounded once, and the closed forms evaluated in floats."""
    point = _interior(form, y)
    fval, grad, hess = _rounded(y, *_derivatives(point, _gradient(point)))
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

    by_multiset = {idx: d2g_entry(*idx) for idx in
                   itertools.combinations_with_replacement(range(n), 4)}
    d2g = CurvTensor.build(n, lambda *idx: by_multiset[tuple(sorted(idx))])

    try:
        ginv = invert(g)
    except SingularMatrix as exc:
        raise SingularMetric(str(exc)) from exc
    triples = itertools.combinations_with_replacement(range(n), 3)
    values = itertools.chain(*g.rows(), (dg[t] for t in triples),
                             d2g.entries(), *ginv.rows())
    if not all(map(math.isfinite, values)):
        raise KahlerConeError(f"the float jet at {format_point(y)} overflows")
    return MetricJet(g=g, dg=dg, d2g=d2g, ginv=ginv, f=fval, grad=grad,
                     hess=hess)


def kahler_metric(form: CubicForm, y) -> MetricJet:
    """Metric jet of the cone metric at an interior point.

    All derivatives are closed-form rational expressions in f, grad f,
    Hess f and the constant third-derivative tensor; derivatives of f above
    order three vanish, so the jet is exact at rational points, where it is
    built from the integer jet (module docstring). At a point with a float
    coordinate, f, grad f and Hess f are rounded once and the jet is float.
    """
    if _has_float(y):
        return _float_jet(form, y)
    return _integer_jet(form, y).jet()


def _float_sides(form: CubicForm, jet: MetricJet, convention: str):
    """Both sides of the identity from a float jet, under `convention`."""
    _check_convention(convention)
    lhs = (jet.d2g - contract(jet.dg, jet.ginv)).scale(QUARTER)
    if convention == "negated":
        lhs = lhs.scale(-1)
    scale = 1 / (64 * jet.f * jet.f)
    g = jet.g
    yukawa_part = contract(form.third_tensor, jet.ginv)
    rhs = CurvTensor.build(form.n, lambda i, j, k, l: (
        g[i, j] * g[k, l] + g[i, l] * g[k, j]
        - scale * yukawa_part[i, j, k, l]))
    return lhs, rhs


def _evaluate(form: CubicForm, y, convention: str):
    """(jet, lhs, rhs, residual) at y under `convention`."""
    if _has_float(y):
        jet = _float_jet(form, y)
        lhs, rhs = _float_sides(form, jet, convention)
        return jet, lhs, rhs, lhs - rhs
    ij = _integer_jet(form, y)
    lhs, rhs = ij.sides(convention)
    c = ij.side_scale
    return ij.jet(), lhs.scale(c), rhs.scale(c), (lhs - rhs).scale(c)


def curvature_lhs(form: CubicForm, y) -> CurvTensor:
    """Curvature tensor from the metric side of the identity."""
    return _evaluate(form, y, "standard")[1]


def curvature_rhs(form: CubicForm, y) -> CurvTensor:
    """Curvature tensor from the metric products and the third-derivative side."""
    return _evaluate(form, y, "standard")[2]


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
    jet, r, _, _ = _evaluate(form, y, "standard")
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
    jet, lhs, rhs, residual = _evaluate(form, y, convention)
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

    Exact mode demands a zero integer residual (module docstring); float
    mode demands a maximum entrywise residual below FLOAT_REL_TOL relative
    to the larger of the two sides. An empty point list is an error, never
    a vacuous pass.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not points:
        raise KahlerConeError("no points to verify")
    start = time.perf_counter()
    results = []
    for y in points:
        yy = convert_point(y, mode)
        if mode == "exact":
            ij = _integer_jet(form, yy)
            lhs, rhs = ij.sides(convention)
            worst = (lhs - rhs).max_abs()
            ok = worst == 0
            max_abs = worst * ij.side_scale
            rel = None
        else:
            lhs, rhs = _float_sides(form, _float_jet(form, yy), convention)
            max_abs = (lhs - rhs).max_abs()
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
