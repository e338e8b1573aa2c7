"""Cone metric, curvature sides, and their invariants."""

import itertools
import random
from fractions import Fraction as F

import pytest
import sympy

import kahlercone.cubic
import kahlercone.geometry
from kahlercone import (Complex, CubicForm, KahlerConeError, Membership,
                        NotInCone, ZeroVector, christoffels, cone_contains,
                        cone_sample, curvature_lhs, curvature_report,
                        curvature_rhs, inertia, kahler_metric, norm_function,
                        parse_text, sectional, verify_identity)
from kahlercone.geometry import _integer_jet
from kahlercone.linalg import _layout
from _reference import (dense_sides, fd_curvature_lhs, float_oracle_errors,
                        poly_derivatives, reference_sectional)
from _util import (counting, mat_vec, random_cubic_with_cone,
                   random_fraction, random_invertible)


# ----------------------------------------------------------------------------
# metric

def test_metric_univariate():
    f = parse_text("y1^3", 1)
    jet = kahler_metric(f, [F(1)])
    assert jet.g.rows() == [[F(3, 4)]]
    assert jet.ginv.rows() == [[F(4, 3)]]
    # g = 3/(4 y^2)
    assert kahler_metric(f, [F(2)]).g[0, 0] == F(3, 16)


def test_metric_splits_for_product_forms():
    f = parse_text("y1*y2^2", 2)
    jet = kahler_metric(f, [F(1), F(1)])
    assert jet.g.rows() == [[F(1, 4), F(0)], [F(0), F(1, 2)]]
    f3 = parse_text("y1*y2*y3", 3)
    jet3 = kahler_metric(f3, [F(1)] * 3)
    assert jet3.g.rows() == [[F(1, 4) if i == j else F(0) for j in range(3)]
                             for i in range(3)]


def test_metric_requires_interior():
    f = parse_text("y1^3", 1)
    with pytest.raises(NotInCone):
        kahler_metric(f, [F(-1)])
    with pytest.raises(NotInCone):
        kahler_metric(f, [F(0)])


def test_metric_jet_symmetries():
    rng = random.Random(41)
    form, pts = random_cubic_with_cone(rng, 3, points_needed=3)
    for y in pts:
        jet = kahler_metric(form, y)
        n = form.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert jet.d2g[i, j, k, l] == jet.d2g[j, i, k, l]
                        assert jet.d2g[i, j, k, l] == jet.d2g[i, j, l, k]


def test_jet_derivatives_match_polynomial_oracle():
    rng = random.Random(43)
    cases = [(parse_text("1/6*y1^3", 1), [(F(1, 3),), (F(5, 7),)])]
    cases += [random_cubic_with_cone(rng, n, points_needed=3)
              for n in (1, 2, 3, 4, 4)]
    for form, pts in cases:
        for y in pts:
            # the conversions of `cubic.Cleared`: f = F / (s l^3),
            # grad f = a / (s l^2) and Hess f = H / (s l)
            ij = _integer_jet(form, y)
            s, l = ij.point.s, ij.point.l
            assert poly_derivatives(form, y) == (
                F(ij.point.F, s * l**3),
                [F(v, s * l * l) for v in ij.point.a],
                [[F(v, s * l) for v in row] for row in ij.point.H.rows()])


def test_jet_evaluates_the_cubic_once_per_point(monkeypatch):
    form = parse_text("y1*y2*y3 + y4^3", 4)
    exact = cone_sample(form, 3, seed=5, hint=(F(2), F(2), F(2), F(-1)))
    calls = dict.fromkeys(["_classify", "evaluate", "hessian"], 0)
    classify = counting(calls, "_classify", kahlercone.cubic._classify)
    monkeypatch.setattr(kahlercone.cubic, "_classify", classify)
    monkeypatch.setattr(kahlercone.geometry, "_classify", classify,
                        raising=False)
    for name in ("evaluate", "hessian"):
        monkeypatch.setattr(CubicForm, name,
                            counting(calls, name, getattr(CubicForm, name)))
    for mode, points in (("exact", exact),
                         ("float", [tuple(map(float, y)) for y in exact])):
        calls.update(dict.fromkeys(calls, 0))
        assert verify_identity(form, points, mode=mode).overall == "PASS"
        assert calls == {"_classify": len(points), "evaluate": 0,
                         "hessian": 0}, mode


def test_float_coordinates_give_the_exact_jet():
    # a float coordinate is read as the exact rational it stores
    form = parse_text("1/3*y1*y2*y3", 3)
    for y in ((1.0, 1.1, 0.9), (1, F(11, 10), 0.9)):
        exact = kahler_metric(form, [F(v) for v in y])
        jet = kahler_metric(form, y)
        assert jet == exact
        assert all(type(v) is F for m in (jet.g, jet.ginv)
                   for row in m.rows() for v in row)


def test_norm_function():
    f = parse_text("y1^3", 1)
    assert norm_function(f, [F(2)]) == 64


# ----------------------------------------------------------------------------
# curvature closed forms

def test_curvature_univariate_closed_form():
    f = parse_text("y1^3", 1)
    # R = 3/(8 y^4) on both sides
    for y in (F(1), F(2), F(1, 3)):
        want = F(3, 8) / y**4
        assert curvature_lhs(f, [y])[0, 0, 0, 0] == want
        assert curvature_rhs(f, [y])[0, 0, 0, 0] == want


def test_curvature_mixed_form_entries():
    f = parse_text("y1*y2^2", 2)
    y = [F(1), F(1)]
    lhs = curvature_lhs(f, y)
    rhs = curvature_rhs(f, y)
    assert lhs[0, 0, 1, 1] == 0 and rhs[0, 0, 1, 1] == 0
    assert lhs[0, 0, 0, 0] == F(1, 8) and rhs[0, 0, 0, 0] == F(1, 8)


def test_rhs_terms_split():
    # 2 g^2 - (1/64) ginv f3^2 at f = y^3, y = 1: 9/8 - 3/4 = 3/8
    f = parse_text("y1^3", 1)
    assert curvature_rhs(f, [F(1)])[0, 0, 0, 0] == F(9, 8) - F(3, 4)


def _sympy_sides(form, y):
    """Both sides of the identity in the geometry module docstring at the
    rational point y, from sympy derivatives of g = -1/4 d^2 log f, with
    d/dt_k = -(i/2) d/dy_k and d/dtbar_l = (i/2) d/dy_l."""
    n = form.n
    ys = sympy.symbols(f"y1:{n + 1}")
    f = sum(sympy.Rational(c.numerator, c.denominator)
            * sympy.prod([v**e for v, e in zip(ys, exp)])
            for exp, c in form.monomials.items())
    at = {v: sympy.Rational(c.numerator, c.denominator)
          for v, c in zip(ys, y)}
    g = [[-sympy.log(f).diff(a, b) / 4 for b in ys] for a in ys]
    gv = sympy.Matrix(n, n, lambda i, j: g[i][j].subs(at))
    ginv = gv.inv()
    dt = [[[(-sympy.I / 2 * g[i][j].diff(ys[k])).subs(at) for k in range(n)]
           for j in range(n)] for i in range(n)]
    dtbar = [[[(sympy.I / 2 * g[i][j].diff(ys[k])).subs(at)
               for k in range(n)] for j in range(n)] for i in range(n)]
    f3 = [[[f.diff(a, b, c) for c in ys] for b in ys] for a in ys]
    fv = f.subs(at)
    lhs, rhs = {}, {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        lhs[i, j, k, l] = sympy.expand(
            (-sympy.I / 2 * sympy.I / 2
             * g[i][j].diff(ys[k], ys[l])).subs(at)
            - sum(ginv[p, q] * dt[i][q][k] * dtbar[p][j][l]
                  for p in range(n) for q in range(n)))
        rhs[i, j, k, l] = sympy.expand(
            gv[i, j] * gv[k, l] + gv[i, l] * gv[k, j]
            - sum(ginv[p, q] * f3[i][k][p] * f3[j][l][q]
                  for p in range(n) for q in range(n)) / (64 * fv**2))
    return lhs, rhs


def test_curvature_sides_match_sympy():
    rng = random.Random(61)
    random_form, random_points = random_cubic_with_cone(rng, 2,
                                                        points_needed=2)
    cases = [(parse_text("y1^3", 1), [(F(1, 3),), (F(5, 2),)]),
             (parse_text("y1*y2^2", 2), [(F(1), F(1)), (F(2, 3), F(-3, 2))]),
             (random_form, random_points)]
    assert any(c.denominator > 1 for c in random_form.monomials.values())
    for form, points in cases:
        for y in points:
            lhs, rhs = _sympy_sides(form, y)
            got_lhs, got_rhs = curvature_lhs(form, y), curvature_rhs(form, y)
            for idx in lhs:
                assert lhs[idx].is_Rational and rhs[idx].is_Rational
                assert lhs[idx] == sympy.Rational(got_lhs[idx].numerator,
                                                  got_lhs[idx].denominator)
                assert rhs[idx] == sympy.Rational(got_rhs[idx].numerator,
                                                  got_rhs[idx].denominator)


def test_exact_identity_on_suite_points():
    rng = random.Random(43)
    for n in (2, 3):
        form, pts = random_cubic_with_cone(rng, n, points_needed=5)
        for y in pts:
            res = curvature_lhs(form, y) - curvature_rhs(form, y)
            assert res.max_abs() == 0


def test_pair_symmetries_of_both_sides():
    # the packed sides agree at every index with sums that assume no symmetry
    rng = random.Random(47)
    form, pts = random_cubic_with_cone(rng, 3, points_needed=4)
    for y in pts:
        lhs, rhs = curvature_lhs(form, y), curvature_rhs(form, y)
        want_lhs, want_rhs = dense_sides(form, y)
        for idx in itertools.product(range(3), repeat=4):
            assert lhs[idx] == want_lhs[idx]
            assert rhs[idx] == want_rhs[idx]


def test_homogeneity_scalings():
    rng = random.Random(53)
    form, pts = random_cubic_with_cone(rng, 2, points_needed=4)
    for y in pts:
        c = F(rng.randint(1, 7), rng.randint(1, 5))
        cy = [c * v for v in y]
        g = kahler_metric(form, y).g
        gc = kahler_metric(form, cy).g
        n = form.n
        assert all(gc[i, j] * c**2 == g[i, j]
                   for i in range(n) for j in range(n))
        lhs, lhs_c = curvature_lhs(form, y), curvature_lhs(form, cy)
        rhs, rhs_c = curvature_rhs(form, y), curvature_rhs(form, cy)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert lhs_c[i, j, k, l] * c**4 == lhs[i, j, k, l]
                        assert rhs_c[i, j, k, l] * c**4 == rhs[i, j, k, l]


def test_positive_definite_at_interior_points():
    rng = random.Random(59)
    for n in (1, 2, 3):
        form, pts = random_cubic_with_cone(rng, n, points_needed=5)
        for y in pts:
            assert inertia(kahler_metric(form, y).g) == (n, 0, 0)


def test_gl_covariance_of_residual():
    rng = random.Random(61)
    form, pts = random_cubic_with_cone(rng, 2, points_needed=3)
    n = form.n
    for y in pts:
        a = random_invertible(rng, n)
        pulled = form.pullback(a)
        ay = mat_vec(a, y)
        if cone_contains(pulled, y) is not Membership.INTERIOR:
            continue
        res = curvature_lhs(form, ay) - curvature_rhs(form, ay)
        res_p = curvature_lhs(pulled, y) - curvature_rhs(pulled, y)
        assert res.max_abs() == 0 and res_p.max_abs() == 0
        # and the pullback relation holds entrywise for each side
        lhs = curvature_lhs(form, ay)
        lhs_p = curvature_lhs(pulled, y)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        want = sum(lhs[p, q, r, s]
                                   * a[p][i] * a[q][j] * a[r][k] * a[s][l]
                                   for p in range(n) for q in range(n)
                                   for r in range(n) for s in range(n))
                        assert lhs_p[i, j, k, l] == want


# ----------------------------------------------------------------------------
# finite-difference oracle and float mode

def test_fd_oracle_matches_closed_form():
    for text, y in [("y1^3", (1.0,)),
                    ("y1*y2^2", (0.9, 0.8)),
                    ("y1*y2*y3", (1.0, 1.1, 0.9))]:
        form = parse_text(text, len(y))
        closed = curvature_lhs(form, [F(v).limit_denominator(100) for v in y])
        fd = fd_curvature_lhs(form, y, 1e-4)
        n = form.n
        scale = max(abs(float(v)) for v in closed.entries()) or 1.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        err = abs(fd[i, j, k, l] - float(closed[i, j, k, l]))
                        assert err / scale < 1e-6


def test_float_mode_residual_is_tiny():
    form = parse_text("y1*y2*y3", 3)
    points = [(1.0, 1.1, 0.9), (0.8, 1.2, 1.0)]
    # the float oracle's residual, and its distance from the exact sides
    # rounded to floats, relative to the larger side
    for y in points:
        residual, distance = float_oracle_errors(form, y)
        assert residual < 1e-9 and distance < 1e-9, y
    # float mode decides on the exact residual and rounds it: exactly 0
    summary = verify_identity(form, points, mode="float")
    assert summary.overall == "PASS"
    assert all(p.max_rel_residual == 0.0 for p in summary.points)
    assert [p.y for p in summary.points] == points


# ----------------------------------------------------------------------------
# christoffels and sectional curvature

def test_christoffel_univariate():
    f = parse_text("y1^3", 1)
    gamma = christoffels(f, [F(1)])
    assert gamma[0][0][0].re == 0 and gamma[0][0][0].im == 1
    # homogeneity degree -1: Gamma(c y) = Gamma(y) / c
    c = F(3, 2)
    gamma_c = christoffels(f, [c])
    assert gamma_c[0][0][0].im == F(1) / c


def test_christoffel_product_form_vanishing_mixed():
    f = parse_text("y1*y2^2", 2)
    gamma = christoffels(f, [F(1), F(1)])
    assert gamma[0][0][1].is_zero()
    # purely imaginary, symmetric in the lower pair
    rng = random.Random(67)
    form, pts = random_cubic_with_cone(rng, 2, points_needed=3)
    for y in pts:
        g = christoffels(form, y)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert g[i][j][k].re == 0
                    assert g[i][j][k] == g[i][k][j]
    # the defining single sum over the raised index, at an n = 4 point
    form, y = parse_text("y1*y2*y3 + y4^3", 4), [F(2), F(2), F(2), F(-1)]
    jet = kahler_metric(form, y)
    minus_half_i = Complex(F(0), F(-1, 2))
    assert _integer_jet(form, y).christoffels() == [[[
        minus_half_i * sum(jet.ginv[i, l] * jet.dg[l, k, j] for l in range(4))
        for k in range(4)] for j in range(4)] for i in range(4)]


def test_sectional_values_and_scale_invariance():
    f = parse_text("y1^3", 1)
    assert sectional(f, [F(1)], [F(1)]) == F(4, 3)
    assert sectional(f, [F(1)], [F(5, 7)]) == F(4, 3)
    f2 = parse_text("y1*y2^2", 2)
    assert sectional(f2, [F(1), F(1)], [F(1), F(0)]) == 4
    with pytest.raises(ZeroVector):
        sectional(f, [F(1)], [F(0)])


def test_sectional_builds_only_the_layout_of_its_dimension():
    # its quadratic forms over the n(n+1)/2 pairs enumerate their own order:
    # at n = 8 no `_layout(36)`, of some 2 * 10^5 quartets, is built
    form = parse_text("y1^3 - " + " - ".join(f"y1*y{j}^2" for j in range(2, 9)),
                      8)
    y = [F(1)] + [F(j, 27) for j in range(1, 8)]
    _layout.cache_clear()
    assert sectional(form, y, [F(j) for j in range(1, 9)]) <= 4
    assert _layout.cache_info().currsize == 1
    misses = _layout.cache_info().misses
    _layout(8)
    assert _layout.cache_info().misses == misses


def test_sectional_matches_complex_sum_and_is_at_most_4():
    # H(v) = 4 - |f3(v, v, .)|^2_ginv / (32 f^2 g(v, vbar)^2) <= 4
    rng = random.Random(97)
    for n in range(1, 6):
        form, pts = random_cubic_with_cone(rng, n, points_needed=2)
        for y in pts:
            v = [Complex(random_fraction(rng, nonzero=not i),
                         random_fraction(rng)) for i in range(n)]
            h = sectional(form, y, v)
            assert h == reference_sectional(form, y, v), (form, y, v)
            assert h <= 4


# ----------------------------------------------------------------------------
# verify summary plumbing

def test_verify_exact_summary():
    f = parse_text("y1^3", 1)
    s = verify_identity(f, [(F(1),), (F(2),), (F(1, 3),)], mode="exact")
    assert s.overall == "PASS"
    assert all(p.max_abs_residual == 0 for p in s.points)


def test_verify_empty_is_rejected():
    f = parse_text("y1^3", 1)
    with pytest.raises(KahlerConeError):
        verify_identity(f, [], mode="exact")


def test_verify_negated_convention_fails():
    f = parse_text("y1^3", 1)
    s = verify_identity(f, [(F(1),)], convention="negated")
    assert s.overall == "FAIL"
    assert s.points[0].max_abs_residual == F(3, 4)  # |-3/8 - 3/8|


def test_verify_propagates_not_in_cone():
    f = parse_text("y1^3", 1)
    with pytest.raises(NotInCone):
        verify_identity(f, [(F(-1),)])


def test_identity_scales_past_the_suite_range():
    # n = 5 exercises the dense tensors and contractions beyond the usual
    # n <= 4 suite; one exact point keeps it cheap
    form = parse_text("y1*y2*y3 + y4^3 + y5^3", 5)
    y = [F(2), F(2), F(2), F(-1), F(-1)]
    assert cone_contains(form, y) is Membership.INTERIOR
    assert (curvature_lhs(form, y) - curvature_rhs(form, y)).max_abs() == 0
    assert inertia(kahler_metric(form, y).g) == (5, 0, 0)


def test_curvature_report_fields():
    f = parse_text("y1^3", 1)
    rep = curvature_report(f, [F(1)])
    assert rep.potential_arg == 8
    assert rep.yukawa[0, 0, 0] == 3  # (1/2) * 6
    assert rep.max_abs_residual == 0
    assert rep.residual[0, 0, 0, 0] == rep.lhs[0, 0, 0, 0] - rep.rhs[0, 0, 0, 0]
