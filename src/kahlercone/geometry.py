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
on Python ints. `cubic._clear` gives z = l*y (l the lcm of the
denominators of y) and the integer cubic s*f, s = 6c with c the lcm of its
coefficient denominators; at z, let t be its third-derivative tensor,
F its value, H = t.z its Hessian and a = H z / 2 its gradient (so
F = a.z / 3). With sym summing over the distinct placements of the
indices, set

    M = a a^T - F H,    Delta = det M,    A = adj M,
    Dg = -(F^2 t - F sym(H a) + 2 a a a),
    E = F^2 (sym(t a) + sym(H H)) - 2 F sym(H a a) + 6 a a a a

(E once per index multiset; with W = M + a a^T = 2 a a^T - F H the last
three terms are sym(W W) - 6 a a a a, which takes a third of the
products). Then, one division per entry,

    g = l^2 M / (4 F^2),     dg = l^3 Dg / (4 F^3),
    d2g = l^4 E / (4 F^4),   ginv = 4 F^2 A / (l^2 Delta),

the Christoffel symbols are -(i/2) ginv.dg = -(i/2) l (A Dg) / (F Delta),
and each side of the identity is l^4 side / (16 F^4 Delta), with

    lhs = Delta E[i,j,k,l] - sum_{p,q} A[p,q] Dg[i,k,p] Dg[j,l,q],
    rhs = Delta (M[i,j] M[k,l] + M[i,l] M[k,j])
          - F^4 sum_{p,q} A[p,q] t[i,k,p] t[j,l,q].

`_jet` builds these integers at any integer z, Delta and A by one total
`linalg.det_adjugate` of M. M is 4 F^2 g / l^2, and the interior of the cone
is exactly where F > 0 and M is positive definite; `_integer_jet` makes that
test (`cubic._classify`) first, so Delta > 0 and `verify_identity` decides
from the integer residual +-lhs - rhs in either mode; the only Fraction it
builds is the reported maximum |residual|. No public function does float
arithmetic: each reads a float as the exact rational it stores, and float
mode only rounds the reported values once to binary64.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .cubic import Cleared, CubicForm, Membership, _classify
from .errors import DimensionMismatch, KahlerConeError, NotInCone, ZeroVector
from .linalg import (CurvTensor, Sym3Tensor, SymMatrix, _layout, contract,
                     det_adjugate, raise_index)
from .scalars import Complex, _exact, format_point, to_float

__all__ = [
    "MetricJet",
    "CurvatureReport",
    "PointResult",
    "VerificationSummary",
    "kahler_metric",
    "curvature_lhs",
    "curvature_rhs",
    "curvature_report",
    "christoffels",
    "sectional",
    "verify_identity",
    "norm_function",
]

CONVENTIONS = ("standard", "negated")
MODES = ("exact", "float")


class MetricJet(NamedTuple):
    """Metric with its first and second y-derivatives and inverse at a point:
    the `Fraction` rendering of the integer jet, one division per entry.

    `kahler_metric` is its one builder; every check reads the integers of
    `_IntegerJet` instead.
    """
    g: SymMatrix
    dg: Sym3Tensor        # dg[i,j,k] = d g[i,j] / d y_k, fully symmetric
    d2g: CurvTensor       # d2g[i,j,k,l] = d^2 g[i,j] / d y_k d y_l, fully
                          # symmetric; packed with the pair symmetries
    ginv: SymMatrix


def norm_function(form: CubicForm, y):
    """The norm function N = 8 f(y), the argument of the Kahler potential."""
    return 8 * form.evaluate(y)


def _check_convention(convention):
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")


class _IntegerJet(NamedTuple):
    """The metric jet cleared of denominators at an integer point z: the
    integers of the module docstring, with F, a, H and M those of `point`;
    the rational views divide by F and Delta, positive at interior points."""
    point: Cleared
    t: Sym3Tensor
    delta: int
    adj: SymMatrix
    Dg: Sym3Tensor
    E: CurvTensor

    @property
    def g(self) -> SymMatrix:
        """g = l^2 M / (4 F^2)."""
        l, F = self.point.l, self.point.F
        return self.point.M.scale(Fraction(l * l, 4 * F * F))

    @property
    def ginv(self) -> SymMatrix:
        """ginv = 4 F^2 A / (l^2 Delta)."""
        l, F = self.point.l, self.point.F
        return self.adj.scale(Fraction(4 * F * F, l * l * self.delta))

    def jet(self) -> MetricJet:
        """The Fraction jet at y, one division per entry."""
        l, F = self.point.l, self.point.F
        return MetricJet(g=self.g, dg=self.Dg.scale(Fraction(l**3, 4 * F**3)),
                         d2g=self.E.scale(Fraction(l**4, 4 * F**4)),
                         ginv=self.ginv)

    def christoffels(self) -> list:
        """Gamma[i][j,k] = -(i/2) sum_l ginv[i,l] dg[l,j,k], purely imaginary,
        as n packed `SymMatrix`, one per i (module docstring)."""
        l, den = self.point.l, 2 * self.point.F * self.delta
        return [SymMatrix(u.n, [Complex(Fraction(0), Fraction(-l * v, den))
                                for v in u._data])
                for u in raise_index(self.Dg, self.adj)]

    def lhs(self, convention: str) -> CurvTensor:
        """The integer metric side +-(Delta E - Dg.A.Dg)."""
        _check_convention(convention)
        delta = self.delta
        lhs = [delta * e - c for e, c in
               zip(self.E._data, contract(self.Dg, self.adj)._data)]
        if convention == "negated":
            lhs = [-v for v in lhs]
        return CurvTensor(self.t.n, lhs)

    def rhs(self) -> CurvTensor:
        """The integer third-derivative side Delta (MM + MM) - F^4 t.A.t."""
        n, delta, m = self.t.n, self.delta, self.point.M._data
        f4 = self.point.F**4
        return CurvTensor(n, [
            delta * (m[ij] * m[kl] + m[il] * m[kj]) - f4 * c
            for (_, ij, kl, il, kj), c in
            zip(_layout(n).orbits, contract(self.t, self.adj)._data)])

    @property
    def side_scale(self) -> Fraction:
        """l^4 / (16 F^4 Delta)."""
        return Fraction(self.point.l**4, 16 * self.point.F**4 * self.delta)


def _integer_jet(form: CubicForm, y) -> _IntegerJet:
    """The integer jet at an exact interior point y; NotInCone elsewhere."""
    verdict, _, point = _classify(form, y)
    if verdict is not Membership.INTERIOR:
        raise NotInCone(f"point {format_point(point.y)} is not interior")
    return _jet(form, point)


def _jet(form: CubicForm, point: Cleared) -> _IntegerJet:
    """The integer jet at any complete `Cleared`, F <= 0 and Delta = 0 too."""
    n, F = form.n, point.F
    lay = _layout(n)
    _, t, t_rows, _ = form._integer_third()
    h, a, m_rows = point.H.rows(), point.a, point.M.rows()
    delta, adj = det_adjugate(point.M)
    f2 = F * F
    dg = Sym3Tensor(n, [
        F * (h[i][j] * a[k] + h[i][k] * a[j] + h[j][k] * a[i])
        - f2 * v - 2 * a[i] * a[j] * a[k]
        for (i, j, k), v in zip(lay.triples, t._data)])
    t3 = [[t_rows[s] for s in row] for row in lay.slot]
    w = [[a_i * a_j + v for a_j, v in zip(a, row)]           # W = M + a a^T
         for a_i, row in zip(a, m_rows)]
    # E is fully symmetric: one entry per index multiset, then one per orbit
    e = [f2 * (t3[i][j][k] * a[l] + t3[i][j][l] * a[k]
               + t3[i][k][l] * a[j] + t3[j][k][l] * a[i])
         + w[i][j] * w[k][l] + w[i][k] * w[j][l] + w[i][l] * w[j][k]
         - 6 * a[i] * a[j] * a[k] * a[l]
         for i, j, k, l in lay.quads]
    return _IntegerJet(
        point=point, t=t, delta=delta, adj=adj, Dg=dg,
        E=CurvTensor(n, [e[orbit[0]] for orbit in lay.orbits]))


def kahler_metric(form: CubicForm, y) -> MetricJet:
    """Metric jet of the cone metric at an interior point.

    All derivatives are closed-form rational expressions in f, grad f,
    Hess f and the constant third-derivative tensor; derivatives of f above
    order three vanish, so the jet is exact, at a float coordinate too: it
    is built from the integer jet (module docstring).
    """
    return _integer_jet(form, y).jet()


def curvature_lhs(form: CubicForm, y) -> CurvTensor:
    """Curvature tensor from the metric side of the identity."""
    ij = _integer_jet(form, y)
    return ij.lhs("standard").scale(ij.side_scale)


def curvature_rhs(form: CubicForm, y) -> CurvTensor:
    """Curvature tensor from the metric products and the third-derivative side."""
    ij = _integer_jet(form, y)
    return ij.rhs().scale(ij.side_scale)


def christoffels(form: CubicForm, y) -> list:
    """Christoffel symbols gamma[i][j][k] (`_IntegerJet.christoffels`)."""
    return [m.rows() for m in _integer_jet(form, y).christoffels()]


def _quadratic(packed, x):
    """x^T Q x, Q symmetric with its upper triangle packed as a SymMatrix's."""
    pairs = ((a, b) for b in range(len(x)) for a in range(b + 1))
    return sum((2 - (a == b)) * v * x[a] * x[b]
               for (a, b), v in zip(pairs, packed))


def sectional(form: CubicForm, y, v):
    """Holomorphic sectional curvature 2 R(v, vbar, v, vbar) / g(v, vbar)^2.

    In real arithmetic on the integer jet: with v scaled to integer parts
    p + iq, w_P = (2 - [i=k]) v_i v_k over the pairs P = (i, k) and L the
    integer lhs as a matrix on the pairs, it is
    2 (L(Re w) + L(Im w)) / (Delta (M(p) + M(q))^2).
    """
    parts = [x for z in map(_exact, v) for x in (z.re, z.im)]
    if len(parts) != 2 * form.n:
        raise DimensionMismatch("direction length does not match the form")
    if not any(parts):
        raise ZeroVector("sectional curvature needs a nonzero direction")
    ij = _integer_jet(form, y)
    den = math.lcm(*[x.denominator for x in parts])
    p, q = ([int(x * den) for x in parts[k::2]] for k in (0, 1))
    pairs = _layout(form.n).pairs
    re_w = [(2 - (i == k)) * (p[i] * p[k] - q[i] * q[k]) for i, k in pairs]
    im_w = [(2 - (i == k)) * (p[i] * q[k] + q[i] * p[k]) for i, k in pairs]
    lhs, m = ij.lhs("standard")._data, ij.point.M._data
    g = _quadratic(m, p) + _quadratic(m, q)
    return Fraction(2 * (_quadratic(lhs, re_w) + _quadratic(lhs, im_w)),
                    ij.delta * g * g)


class CurvatureReport(NamedTuple):
    """Everything the identity involves at one point, plus the residual."""
    y: tuple
    potential_arg: object              # N = 8 f(y)
    yukawa: Sym3Tensor                 # (1/2) f3, the special-geometry cubic
    christoffel: list                  # n SymMatrix, Gamma[i][j,k]
    lhs: CurvTensor
    rhs: CurvTensor
    residual: CurvTensor
    max_abs_residual: object


def curvature_report(form: CubicForm, y,
                     convention: str = "standard") -> CurvatureReport:
    ij, (s, t, _, _) = _integer_jet(form, y), form._integer_third()
    lhs, rhs, c = ij.lhs(convention), ij.rhs(), ij.side_scale
    residual = lhs - rhs
    worst, lhs = residual.max_abs(), lhs.scale(c)
    # at a PASS point one scaling serves both sides and the residual is 0
    rhs, residual = ((rhs.scale(c), residual.scale(c)) if worst else
                     (CurvTensor(form.n, lhs._data), CurvTensor(form.n)))
    return CurvatureReport(
        y=ij.point.y, potential_arg=8 * ij.point.f,
        yukawa=t.scale(Fraction(1, 2 * s)),
        christoffel=ij.christoffels(), lhs=lhs, rhs=rhs, residual=residual,
        max_abs_residual=c * worst)


class PointResult(NamedTuple):
    """The identity at one point: the point, "PASS" when the residual is
    exactly zero and "FAIL" otherwise, the maximum |residual| and, in float
    mode only, that maximum relative to the larger of the two sides."""
    y: tuple
    verdict: str
    max_abs_residual: object
    max_rel_residual: Optional[float] = None


class VerificationSummary(NamedTuple):
    """`verify_identity`'s result: a `PointResult` per point, in order, and
    "PASS" when every point passes, else "FAIL"."""
    points: Sequence[PointResult]
    overall: str


def verify_identity(form: CubicForm, points: Iterable, mode: str = "exact",
                    convention: str = "standard") -> VerificationSummary:
    """Check the curvature identity at each point and summarize.

    Both modes decide from the integer residual (module docstring): a point
    passes when it is exactly zero. Exact mode reports the maximum
    |residual| as a Fraction. Float mode reports the point, that maximum and
    the maximum relative to the larger of the two sides, each rounded once
    to binary64 by `to_float`. The points and each point are read once, so
    iterators serve; no points at all is an error, never a vacuous pass.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    results = []
    for y in points:
        ij = _integer_jet(form, y)
        y, lhs, rhs = ij.point.y, ij.lhs(convention), ij.rhs()
        worst = (lhs - rhs).max_abs()
        max_abs, rel = worst * ij.side_scale, None
        if mode == "float":
            # the side scale cancels; R(y, y, y, y) = 3/8 at every interior
            # y, so rhs is never zero
            bound = max(lhs.max_abs(), rhs.max_abs())
            y, max_abs = tuple(map(to_float, y)), to_float(max_abs)
            rel = to_float(Fraction(worst, bound))
        verdict = "PASS" if worst == 0 else "FAIL"
        results.append(PointResult(y=y, verdict=verdict,
                                   max_abs_residual=max_abs,
                                   max_rel_residual=rel))
    if not results:
        raise KahlerConeError("no points to verify")
    overall = "PASS" if all(r.verdict == "PASS" for r in results) else "FAIL"
    return VerificationSummary(points=results, overall=overall)
