"""Affine curvature identity and the fibre-extended metric checks."""

import random
import types
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

import kahlercone.cubic
import kahlercone.special
from kahlercone import (Complex, CubicForm, CurvTensor, DimensionMismatch,
                        NotInCone, SingularHessian, ZeroLambda,
                        affine_curvature_check, affine_metric,
                        build_tilde_metric, cone_sample, contract, inertia,
                        parse_text, tilde_christoffel_check,
                        tilde_inverse_check)
from kahlercone.cli import main
from kahlercone.geometry import _IntegerJet

from _reference import (complex_direct_gammas, complex_gamma_printed,
                        hermitian_inertia, invert, invert_rows,
                        reference_hessian)
from _util import (counting, random_cubic_with_cone, random_fraction,
                   suite_forms)

I = Complex(F(0), F(1))


# ----------------------------------------------------------------------------
# affine identity

def test_affine_univariate_worked_values():
    f = parse_text("y1^3", 1)
    res = affine_curvature_check(f, [F(1)])
    assert res.passed
    assert res.curvature[0, 0, 0, 0] == 6     # 6/y at y = 1
    assert res.expected[0, 0, 0, 0] == 6      # (1/(6y)) * 36
    assert res.kappa == -4


def test_affine_product_form():
    f = parse_text("y1*y2*y3", 3)
    res = affine_curvature_check(f, [F(1)] * 3)
    assert res.passed and res.max_abs_residual == 0 and res.kappa == -4


def test_affine_singular_hessian():
    f = parse_text("y1*y2^2", 2)
    with pytest.raises(SingularHessian):
        affine_curvature_check(f, [F(1), F(0)])


def test_affine_point_of_the_wrong_length():
    f = parse_text("y1*y2^2", 2)
    for y in ([F(1)], [F(1), F(2), F(3)]):
        with pytest.raises(DimensionMismatch):
            affine_curvature_check(f, y)


def test_affine_kappa_constant_across_suite():
    cleared = 0
    for form, hint in suite_forms():
        for y in cone_sample(form, 5, seed=11, hint=hint):
            res = affine_curvature_check(form, y)
            assert res.passed and res.kappa == -4 and res.kappa_constant
            assert res.residual == CurvTensor.zeros(form.n)
            assert res.max_abs_residual == 0
            # both sides read one (Hess f)^-1 = s l adj H / det H, so the
            # identity alone cannot see a wrong factor in it: compare with
            # the Gauss-Jordan inverse of Hess f, at points with l > 1 too
            want = contract(form.third_tensor,
                            invert(reference_hessian(form, y)))
            assert res.curvature == res.expected == want
            cleared += any(v.denominator > 1 for v in y)
    assert cleared > 5


def test_affine_metric_is_minus_four_times_the_hessian():
    # -Im tau of the period map tau(t) = 4 Hess F(t), whose imaginary part
    # at t = x + iy is 4 Hess f(y)
    f = parse_text("y1*y2^2", 2)
    y = [F(1), F(3)]
    h = reference_hessian(f, y)
    for i in range(2):
        for j in range(2):
            assert affine_metric(f, y)[i, j] == -4 * h[i, j]


def test_affine_metric_inertia_and_linearity():
    # aff = -4 Hess f: inertia (n-1, 1, 0) on the cone; second differences
    # vanish exactly since the entries are linear in y
    rng = random.Random(79)
    for n in (2, 3):
        form, pts = random_cubic_with_cone(rng, n, points_needed=4)
        for y in pts:
            aff = form.hessian(y).scale(F(-4))
            assert inertia(aff) == (n - 1, 1, 0)
            a = [random_fraction(rng) for _ in range(n)]
            b = [random_fraction(rng) for _ in range(n)]
            h = form.hessian
            ypa = [v + w for v, w in zip(y, a)]
            ypb = [v + w for v, w in zip(y, b)]
            ypab = [v + w + u for v, w, u in zip(y, a, b)]
            for i in range(n):
                for j in range(n):
                    assert (h(ypab)[i, j] - h(ypa)[i, j] - h(ypb)[i, j]
                            + h(y)[i, j]) == 0


# ----------------------------------------------------------------------------
# fibre-extended metric: worked values and inverse

def test_tilde_worked_values_univariate():
    f = parse_text("y1^3", 1)
    tm = build_tilde_metric(f, [I], F(1))
    assert tm.norm_value == 8
    # k = -l a / (2F), K_1 = i k_1 = -(i/2) d/dy log y^3 = -3i/2 at y = 1
    point = tm.ij.point
    assert F(-point.l * point.a[0], 2 * point.F) == F(-3, 2)
    assert tm.gtilde[0][0] == 8
    assert tm.gtilde[0][1] == Complex(F(0), F(-12))
    assert tm.gtilde[1][0] == Complex(F(0), F(12))
    assert tm.gtilde[1][1] == 12
    inv = tm.gtilde_inv_stated
    assert inv[0][0] == F(-1, 4)
    assert inv[1][1] == F(-1, 6)
    assert inv[1][0] == Complex(F(0), F(1, 4))
    assert inv[0][1] == Complex(F(0), F(-1, 4))
    assert tilde_inverse_check(tm).passed
    assert hermitian_inertia(tm.gtilde) == (1, 1, 0)


def test_tilde_inverse_mixed_form():
    f = parse_text("y1*y2^2", 2)
    tm = build_tilde_metric(f, [I, I], F(1))
    assert tilde_inverse_check(tm).passed


def test_tilde_inverse_random_points_and_lambdas():
    # oracle: exact matrix inversion of gtilde
    rng = random.Random(83)
    for form, hint in suite_forms():
        for y in cone_sample(form, 3, seed=17, hint=hint):
            lam = random_fraction(rng, nonzero=True)
            x = [random_fraction(rng) for _ in range(form.n)]
            t = [Complex(a, b) for a, b in zip(x, y)]
            tm = build_tilde_metric(form, t, lam)
            assert tilde_inverse_check(tm).passed
            true_inv = invert_rows(tm.gtilde)
            for r in range(form.n + 1):
                for c in range(form.n + 1):
                    assert tm.gtilde_inv_stated[r][c] == true_inv[r][c]


def test_tilde_inverse_breaks_for_non_real_lambda():
    # the published mixed inverse entry carries a conjugated fibre power;
    # for non-real lambda no hermitian placement reproduces the inverse
    f = parse_text("y1^3", 1)
    tm = build_tilde_metric(f, [I], Complex(F(3, 5), F(4, 5)))
    assert not tilde_inverse_check(tm).passed


def test_tilde_lambda_equivariance():
    f = parse_text("y1*y2^2", 2)
    lam = F(2)
    c = F(3, 7)
    a = build_tilde_metric(f, [I, I], lam).gtilde
    b = build_tilde_metric(f, [I, I], c * lam).gtilde
    n = f.n
    assert b[0][0] == a[0][0] / (c * c)
    for j in range(1, n + 1):
        assert b[0][j] == a[0][j] / c
        assert b[j][0] == a[j][0] / c
        for i in range(1, n + 1):
            assert b[i][j] == a[i][j]


def test_int_lambda_keeps_every_entry_exact():
    # an int lambda, or one with int parts, gives the entries of its
    # Fraction form, with no part turned into a float by int / int; a float
    # part of lambda or t, also inside a builtin complex or a Complex, is
    # read as the exact rational it stores, so no product of floats is
    # rounded (0.1 * 0.1 in |lambda|^2 broke the inverse check)
    cubic = ("y1*y2*y3 + y4^3", [Complex(F(1, 3), 2), Complex(0, 2),
                                 Complex(F(-1, 2), 2), Complex(0, -1)])
    cases = [
        (("y1*y2^2", [Complex(0, 1), Complex(F(1, 2), 2)]),
         [(2, F(2)), (Complex(1, 2), Complex(F(1), F(2)))]),
        (cubic, [(0.1, F(0.1)), (0.1 + 0j, F(0.1)),
                 (Complex(0.1, 0.0), F(0.1)),
                 (0.3 - 0.7j, Complex(F(0.3), F(-0.7)))]),
        (("y1*y2^2", [1j, 0.1 + 2.2j]),
         [(1.5, F(3, 2)), (0.2 + 1j, Complex(F(0.2), F(1)))]),
    ]
    for (text, t), lams in cases:
        form = parse_text(text)
        t_exact = [Complex(F(z.re), F(z.im)) for z in map(Complex.of, t)]
        for lam, same in lams:
            tm = build_tilde_metric(form, t, lam)
            want = build_tilde_metric(form, t_exact, same)
            inv, want_inv = map(tilde_inverse_check, (tm, want))
            arrays = [tm.gtilde, tm.gtilde_inv_stated, inv.product,
                      *complex_direct_gammas(tm).values(),
                      [tm.lam, *tm.t, *tm.y]]
            assert arrays[:3] == [want.gtilde, want.gtilde_inv_stated,
                                  want_inv.product]
            assert (tm.lam, tm.t, tm.y) == (want.lam, want.t, want.y)
            assert inv.passed == want_inv.passed == (want.lam.im == 0)
            assert (tilde_christoffel_check(tm)
                    == tilde_christoffel_check(want))
            assert not any(isinstance(v, float) for v in _parts(arrays))


def _parts(rows):
    """Every real and imaginary part in nested lists of entries, each read
    through `Complex.of`."""
    for r in rows:
        if isinstance(r, list):
            yield from _parts(r)
        else:
            yield from (Complex.of(r).re, Complex.of(r).im)


def test_tilde_inertia_pattern():
    # one positive, n negative directions; float eigenvalue cross-check.
    # (at n = 1 this is the (1,1,0) of the worked example; the pattern
    # (1, n, 0) is forced by the published entries, e.g. det > 0 at n = 2)
    for text, t in [("y1^3", [I]), ("y1*y2^2", [I, I]),
                    ("y1*y2*y3", [I, I, I])]:
        form = parse_text(text, len(t))
        tm = build_tilde_metric(form, t, F(1))
        sig = hermitian_inertia(tm.gtilde)
        assert sig == (1, form.n, 0)
        rows = np.array([[complex(float(z.re), float(z.im))
                          for z in map(Complex.of, row)] for row in tm.gtilde])
        eigs = np.linalg.eigvalsh(rows)
        assert sum(e > 1e-9 for e in eigs) == sig[0]
        assert sum(e < -1e-9 for e in eigs) == sig[1]


def test_tilde_guards():
    f = parse_text("y1^3", 1)
    with pytest.raises(ZeroLambda):
        build_tilde_metric(f, [I], F(0))
    with pytest.raises(NotInCone):
        build_tilde_metric(f, [Complex(F(0), F(-1))], F(1))


# ----------------------------------------------------------------------------
# connection-coefficient comparisons

def test_christoffel_check_passes_and_pins_match_table():
    f = parse_text("y1*y2^2", 2)
    tm = build_tilde_metric(f, [I, I], F(1))
    res = tilde_christoffel_check(tm)
    assert res.passed
    # each published formula group is reproduced by a documented scaling
    assert res.matches["printed"] == {"base": True, "mixed": False,
                                      "fibre-upper": True, "zeros": False}
    assert res.matches["potential"] == {"base": True, "mixed": True,
                                        "fibre-upper": False, "zeros": True}
    assert res.lower_symmetric == {"printed": False, "potential": True}
    assert res.mismatches == [("printed", "mixed"), ("printed", "zeros"),
                              ("potential", "fibre-upper")]


def test_christoffel_mixed_formula_under_potential_scaling():
    # Gamma~^i_{j 0} = lambda^{-1} delta^i_j, exactly
    rng = random.Random(89)
    for text, t in [("y1^3", [I]), ("y1*y2^2", [I, I])]:
        form = parse_text(text, len(t))
        lam = random_fraction(rng, nonzero=True)
        tm = build_tilde_metric(form, t, lam)
        direct = complex_direct_gammas(tm)["potential"]
        n = form.n
        for i in range(n):
            for j in range(n):
                want = Complex(F(1)) / Complex(lam) if i == j \
                    else Complex(F(0))
                assert direct[i + 1][j + 1][0] == want
        # vanishing entries, exactly
        assert direct[0][0][0] == 0
        for i in range(n):
            assert direct[0][i + 1][0] == 0
            assert direct[i + 1][0][0] == 0


def test_christoffel_base_formula_matches_both_scalings():
    f = parse_text("y1*y2*y3", 3)
    tm = build_tilde_metric(f, [I, I, I], F(2))
    res = tilde_christoffel_check(tm)
    assert res.matches["printed"]["base"]
    assert res.matches["potential"]["base"]


def test_recovery_relation_readings():
    # on the differentiated potential array the corrected index reading
    # holds wherever the base and mixed formulas do; the literal one also
    # needs every K_i equal (always at n = 1)
    both = {"corrected": True, "as-printed": True}
    corrected = {"corrected": True, "as-printed": False}
    for text, t, lam, want in (
            ("y1^3", [I], F(1), both),
            ("y1*y2^2", [I, I], F(3), corrected),
            ("y1*y2*y3", [I, I, I], F(3, 2), both),
            ("y1*y2*y3", [I, 2 * I, 3 * I], F(3, 2), corrected)):
        tm = build_tilde_metric(parse_text(text), t, lam)
        assert tilde_christoffel_check(tm).recovery_relation == want, text


def test_christoffel_check_on_random_suite():
    rng = random.Random(97)
    for form, hint in suite_forms():
        y = cone_sample(form, 1, seed=23, hint=hint)[0]
        lam = random_fraction(rng, nonzero=True)
        t = [Complex(F(0), v) for v in y]
        tm = build_tilde_metric(form, t, lam)
        assert tilde_christoffel_check(tm).passed


def _sympy_tables(text, y, lam):
    """The published entries of both scalings of the fibre metric written in
    sympy, with lam and lambar independent symbols: K = 8f,
    K_i = -(i/2) d_i log f, g = -1/4 d^2 log f. Returns a namespace with
    the symbols, K, K_i, g, the tables `printed` and `potential`, and
    `value`, which evaluates an expression at (y, lam) into QQ_I."""
    n, i_ = len(y), sympy.I
    ys = sympy.symbols(f"y1:{n + 1}")
    lam_s, lambar_s = sympy.symbols("lam lambar")
    f = sympy.sympify(text.replace("^", "**"),
                      locals={str(v): v for v in ys})
    log_f = sympy.log(f)
    k = 8 * f
    k_log = [-(i_ / 2) * sympy.diff(log_f, v) for v in ys]
    k_log_bar = [(i_ / 2) * sympy.diff(log_f, v) for v in ys]
    g = [[-sympy.diff(log_f, a, b) / 4 for b in ys] for a in ys]
    size = n + 1
    printed = [[None] * size for _ in range(size)]
    potential = [[None] * size for _ in range(size)]
    printed[0][0], potential[0][0] = k / (lam_s * lambar_s), k
    for i in range(n):
        printed[0][i + 1] = k * k_log[i] / lam_s
        printed[i + 1][0] = k * k_log_bar[i] / lambar_s
        potential[0][i + 1] = k * k_log_bar[i] * lambar_s
        potential[i + 1][0] = k * k_log[i] * lam_s
        for j in range(n):
            base = k * (-g[i][j] + k_log[i] * k_log_bar[j])
            printed[i + 1][j + 1] = base
            potential[i + 1][j + 1] = base * lam_s * lambar_s
    lam_value = sympy.Rational(lam.re) + i_ * sympy.Rational(lam.im)
    at = {lam_s: lam_value, lambar_s: sympy.conjugate(lam_value),
          **{v: sympy.Rational(c) for v, c in zip(ys, y)}}

    def value(expr):
        return QQ_I.from_sympy(sympy.expand_complex(sympy.sympify(expr)
                                                    .subs(at)))

    return types.SimpleNamespace(
        n=n, ys=ys, lam=lam_s, lambar=lambar_s, f=f, k=k, k_log=k_log,
        k_log_bar=k_log_bar, g=g, printed=printed, potential=potential,
        value=value)


def _sympy_direct(text, y, lam):
    """Gamma[a][b][c] = sum_d conj(h^-1)[a][d] D_b h[c][d] for both scalings
    of `_sympy_tables`, with D_0 = d/dlam and D_{k+1} = -(i/2) d/dy_k.
    Entries are returned as (re, im) pairs of Fractions."""
    sp = _sympy_tables(text, y, lam)
    size, value = sp.n + 1, sp.value
    derivs = [lambda e: sympy.diff(e, sp.lam)] + [
        lambda e, v=v: -(sympy.I / 2) * sympy.diff(e, v) for v in sp.ys]
    out = {}
    for scaling, h in (("printed", sp.printed), ("potential", sp.potential)):
        h_inv = DomainMatrix([[value(e) for e in row] for row in h],
                             (size, size), QQ_I).inv().to_list()
        h_inv_bar = [[QQ_I(z.x, -z.y) for z in row] for row in h_inv]
        dh = [[[value(d(h[c][e])) for e in range(size)] for c in range(size)]
              for d in derivs]
        out[scaling] = [[[_pair(sum((h_inv_bar[a][e] * dh[b][c][e]
                                     for e in range(size)), QQ_I.zero))
                          for c in range(size)] for b in range(size)]
                        for a in range(size)]
    return out


def _sympy_printed_side(text, y, lam):
    """(gtilde, stated inverse, printed connection) of the published
    formulas, transcribed in sympy from the printed table of
    `_sympy_tables` and evaluated at (y, lam) as (re, im) Fraction pairs.
    The inverse is placed as calibrated (module docstring of `special`);
    the base symbols are -(i/2) sum_l ginv[i,l] d_j g[k,l] and the second
    mixed derivative of K is -2 Hess f."""
    sp = _sympy_tables(text, y, lam)
    n, i_, lam_s, lambar_s = sp.n, sympy.I, sp.lam, sp.lambar
    k, kl, klb = sp.k, sp.k_log, sp.k_log_bar
    ginv = sympy.Matrix(sp.g).inv()
    size = n + 1
    inv = [[None] * size for _ in range(size)]
    inv[0][0] = lam_s * lambar_s / k * (1 - sum(
        kl[a] * klb[b] * ginv[b, a] for a in range(n) for b in range(n)))
    for a in range(n):
        stated = lambar_s / k * sum(ginv[c, a] * klb[c] for c in range(n))
        inv[a + 1][0] = stated
        inv[0][a + 1] = lam_s / k * sum(ginv[c, a] * kl[c] for c in range(n))
        for b in range(n):
            inv[a + 1][b + 1] = -ginv[a, b] / k
    base = [[[-(i_ / 2) * sum(ginv[a, m] * sympy.diff(sp.g[c][m], sp.ys[b])
                              for m in range(n))
              for c in range(n)] for b in range(n)] for a in range(n)]
    gamma = [[[0] * size for _ in range(size)] for _ in range(size)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                gamma[a + 1][b + 1][c + 1] = (base[a][b][c]
                                              + int(a == c) * kl[b]
                                              + int(a == b) * kl[c])
        gamma[a + 1][a + 1][0] = gamma[a + 1][0][a + 1] = 1 / lam_s
    for a in range(n):
        for b in range(n):
            ddk = -2 * sympy.diff(sp.f, sp.ys[a], sp.ys[b])
            gamma[0][a + 1][b + 1] = (
                lam_s * sum(base[c][a][b] * kl[c] for c in range(n))
                + 2 * lam_s * kl[a] * kl[b] - lam_s * ddk / k)

    def values(rows):
        return [values(r) if isinstance(r, list) else _pair(sp.value(r))
                for r in rows]

    return values(sp.printed), values(inv), values(gamma)


def _pair(z):
    return (F(int(z.x.numerator), int(z.x.denominator)),
            F(int(z.y.numerator), int(z.y.denominator)))


def test_direct_christoffels_match_sympy_oracle():
    # guards the coefficient gradients and the potential transposition,
    # which the match table only reports as booleans; the non-integer
    # points (l > 1) guard each power of l in W (`special` module docstring)
    for text, y in (("y1^3", [1]), ("y1^3", [F(2, 3)]),
                    ("y1*y2^2", [1, 1]), ("y1*y2^2", [F(1, 2), F(3, 4)]),
                    ("y1*y2*y3", [1, 2, 3]),
                    ("y1*y2*y3", [F(1, 3), F(2, 5), F(3, 7)])):
        form = parse_text(text, len(y))
        for lam in (Complex(F(3, 2)), Complex(F(3, 5), F(4, 5))):
            tm = build_tilde_metric(form, [Complex(F(0), F(v)) for v in y],
                                    lam)
            direct = complex_direct_gammas(tm)
            want = _sympy_direct(text, y, lam)
            for scaling, gamma in direct.items():
                assert _pairs(gamma) == want[scaling], (text, lam, scaling)


def test_printed_side_matches_sympy_oracle():
    # the published gtilde, stated inverse and connection, exactly, at real
    # and non-real lambda: the printed phases lam^-1, lambar^-1 and |lam|^-2,
    # the calibrated inverse placement and the published connection of the
    # `Complex` oracle are pinned entry by entry
    for text, y in (("y1^3", [1]), ("y1^3", [F(2, 3)]),
                    ("y1*y2^2", [1, 1]), ("y1*y2^2", [F(1, 2), F(3, 4)]),
                    ("y1*y2*y3", [1, 2, 3]),
                    ("y1*y2*y3", [F(1, 3), F(2, 5), F(3, 7)])):
        form = parse_text(text, len(y))
        for lam in (Complex(F(3, 2)), Complex(F(3, 5), F(4, 5))):
            tm = build_tilde_metric(form, [Complex(F(0), F(v)) for v in y],
                                    lam)
            printed = complex_gamma_printed(
                tm, [m.rows() for m in tm.ij.christoffels()])
            want = _sympy_printed_side(text, y, lam)
            for got, expected in zip((tm.gtilde, tm.gtilde_inv_stated,
                                      printed), want):
                assert _pairs(got) == expected, (text, lam)


def _pairs(rows):
    """Nested lists of entries as (re, im) pairs of Fractions, each entry
    read through `Complex.of`."""
    return [_pairs(r) if isinstance(r, list)
            else (F(Complex.of(r).re), F(Complex.of(r).im)) for r in rows]


def test_special_checks_compute_each_quantity_once_per_point(monkeypatch,
                                                            capsys):
    calls = dict.fromkeys(["hessian", "_cleared", "det_adjugate", "invert",
                           "contract", "_integer_jet", "christoffels"], 0)
    monkeypatch.setattr(CubicForm, "hessian",
                        counting(calls, "hessian", CubicForm.hessian))
    monkeypatch.setattr(_IntegerJet, "christoffels", counting(
        calls, "christoffels", _IntegerJet.christoffels))
    # the linalg and geometry functions, as bound where `special` calls
    # them, and the one clearing, where `cubic._point` makes it
    for name in ("det_adjugate", "contract", "_integer_jet"):
        monkeypatch.setattr(kahlercone.special, name, counting(
            calls, name, getattr(kahlercone.special, name)))
    monkeypatch.setattr(kahlercone.cubic, "_cleared", counting(
        calls, "_cleared", kahlercone.cubic._cleared))
    # special imports no invert; the patch would count one it gained
    monkeypatch.setattr(kahlercone.special, "invert",
                        counting(calls, "invert", invert), raising=False)
    assert affine_curvature_check(parse_text("y1*y2*y3", 3),
                                  [F(1), F(2), F(3)]).passed
    # one contraction serves both sides of the algebraic identity
    assert calls == {"hessian": 0, "_cleared": 1, "det_adjugate": 1,
                     "invert": 0, "contract": 1, "_integer_jet": 0,
                     "christoffels": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert main(["cone-metric", "--form", "y1*y2^2", "--points", "1,1",
                 "--lam", "1/2"]) == 0
    capsys.readouterr()
    assert (calls["_integer_jet"], calls["christoffels"],
            calls["invert"]) == (1, 0, 0)
