"""Cubic forms: parser, calculus, cone membership, sampling, norm identity."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy

from kahlercone import (CubicForm, DimensionMismatch, Membership,
                        NotHomogeneousCubic, NotInCone, ParseError,
                        SamplingExhausted, cone_contains, cone_sample,
                        norm_identity_check, parse_text)
from kahlercone.poly import Poly
from _reference import gradient, poly_third
from _util import (SUITE_HINTS, mat_vec, random_cubic, random_fraction,
                   random_invertible)


# ----------------------------------------------------------------------------
# parsing and printing

def test_parse_single_monomial():
    f = parse_text("y1^3", 1)
    assert f.monomials == {(3,): F(1)}


def test_parse_two_terms():
    f = parse_text("y1*y2^2 + 2*y2^3", 2)
    assert f.monomials == {(1, 2): F(1), (0, 3): F(2)}


def test_parse_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneousCubic):
        parse_text("y1^2 + y1^3", 1)
    with pytest.raises(NotHomogeneousCubic):
        parse_text("5", 1)


def test_parse_rational_coefficients_and_signs():
    f = parse_text("-1/2*y1^3 + 3/4*y1*y2^2", 2)
    assert f.monomials == {(3, 0): F(-1, 2), (1, 2): F(3, 4)}


def test_parse_accumulates_and_cancels():
    assert parse_text("y1^3 - y1^3 + 2*y1^3", 1).monomials == {(3,): F(2)}
    assert parse_text("y1^3 - y1^3", 1).monomials == {}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_text("y1^3 + @", 1)
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse_text("2y1^3", 1)  # implicit multiplication is not in the grammar
    with pytest.raises(ParseError):
        parse_text("y5^3", 2)  # variable out of range
    with pytest.raises(ParseError):
        parse_text("", 1)
    with pytest.raises(ParseError):
        parse_text("y1^3 + ", 1)
    with pytest.raises(ParseError):
        parse_text("1/0*y1^3", 1)  # zero denominator
    with pytest.raises(ParseError):
        parse_text("y1^-3", 1)  # negative exponents are not in the grammar


@pytest.mark.parametrize("src, n, position, message", [
    ("y1^3 + @", 1, 7, "unexpected character '@'"),
    ("y1 y2 y3", 3, 3, "expected '+' or '-', got 'y2'"),
    ("y1^3 + ", 1, 7, "expected a coefficient or variable, got end of input"),
    ("y1^3 - *y1^3", 1, 7, "expected a coefficient or variable, got '*'"),
    ("2*3*y1^2", 1, 2, "expected a variable, got '3'"),
    ("y5^3", 2, 0, "variable y5 out of range 1..2"),
    ("1/0*y1^3", 1, 2, "expected a positive integer denominator"),
    ("y1^y1", 1, 3, "expected an integer exponent"),
])
def test_parse_error_kinds(src, n, position, message):
    """One case per kind of ParseError; each names the token as written."""
    with pytest.raises(ParseError) as err:
        parse_text(src, n)
    assert type(err.value) is ParseError
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_parse_text_infers_the_dimension():
    """Without n, parse_text reads the highest variable index, at least 1,
    before it reads any token, so these errors keep their order."""
    for text, hint in SUITE_HINTS.items():
        assert parse_text(text) == parse_text(text, len(hint))
    for src, error, message in (
            ("3", ParseError, "no variables found; pass --n explicitly "
             "(at position 0)"),
            ("@y40^3", DimensionMismatch, "40 variables; 1 to 32 are "
             "supported"),
            ("y33^3", DimensionMismatch, "33 variables; 1 to 32 are "
             "supported"),
            ("y0^3", ParseError, "variable y0 out of range 1..1 "
             "(at position 0)")):
        with pytest.raises(error) as err:
            parse_text(src)
        assert type(err.value) is error and str(err.value) == message, src
    # the out-of-range variable is named as written
    with pytest.raises(ParseError) as err:
        parse_text("y007^3", 2)
    assert str(err.value) == "variable y007 out of range 1..2 (at position 0)"


def test_constructor_messages_write_integers_of_any_length():
    """An exponent or a dimension past Python's int-string limit (4300
    digits) is a DimensionMismatch that names it in full, not the
    ValueError of its repr; short ones read as Python writes them."""
    big, digits = 10**4300, "1" + "0" * 4300
    for n, monomials, message in (
            (2, {(-big, 3): 1}, f"bad exponent vector (-{digits}, 3)"),
            (2, {(1,): 1}, "bad exponent vector (1,)"),
            (1, {(1, -2): 1}, "bad exponent vector (1, -2)"),
            (big, {}, f"{digits} variables; 1 to 32 are supported")):
        with pytest.raises(DimensionMismatch) as err:
            CubicForm(n, monomials)
        assert str(err.value) == message


def test_text_roundtrip_random_forms():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        form = random_cubic(rng, n)
        assert parse_text(form.to_text(), n) == form


def test_json_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        form = random_cubic(rng, rng.randint(1, 4))
        assert CubicForm.from_json_dict(form.to_json_dict()) == form


# ----------------------------------------------------------------------------
# calculus

def test_eval_gradient_hessian_univariate():
    f = parse_text("y1^3", 1)
    assert f.evaluate([F(2)]) == 8
    assert gradient(f, [F(2)]) == [F(12)]
    assert f.hessian([F(2)]).rows() == [[F(12)]]


def test_product_form_at_ones():
    f = parse_text("y1*y2*y3", 3)
    y = [F(1)] * 3
    assert f.evaluate(y) == 1
    h = f.hessian(y)
    assert all(h[i, j] == (0 if i == j else 1)
               for i in range(3) for j in range(3))


def test_mixed_form_hessian():
    f = parse_text("y1*y2^2", 2)
    assert f.evaluate([F(1), F(1)]) == 1
    assert f.hessian([F(1), F(1)]).rows() == [[F(0), F(2)], [F(2), F(2)]]


def test_third_tensor_against_sympy():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 3)
        form = random_cubic(rng, n)
        ys = sympy.symbols(f"v0:{n}")
        expr = sum(sympy.Rational(c) * sympy.prod(
            [ys[i]**e for i, e in enumerate(exp)])
            for exp, c in form.monomials.items())
        f3 = form.third_tensor
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want = sympy.diff(expr, ys[i], ys[j], ys[k])
                    assert F(str(want)) == f3[i, j, k]


def test_integer_third_is_s_times_third_tensor():
    # built on ints from the monomials, it is s times the third partials of
    # the `Poly` oracle at every ordered index
    rng = random.Random(29)
    forms = [parse_text(text, len(hint)) for text, hint in SUITE_HINTS.items()]
    forms += [random_cubic(rng, n, num_bound=9, den_bound=12)
              for n in (1, 2, 3, 4, 5, 6) for _ in range(4)]
    forms.append(parse_text("-7/12*y1^3 + 5/8*y1*y2*y3 - 3/20*y2^2*y3", 3))
    for form in forms:
        s, t, rows, terms = form._integer_third()
        assert all(type(v) is int for v in t._data)
        assert s == 6 * math.lcm(*[q.denominator
                                   for q in form.monomials.values()])
        assert all(t[idx] == s * v for idx, v in poly_third(form).items())
        assert [w for w, _, _ in terms] == [s * q for q in
                                             form.monomials.values()]


def test_form_is_sixth_of_tensor_contraction():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 4)
        form = random_cubic(rng, n)
        y = [random_fraction(rng) for _ in range(n)]
        f3 = form.third_tensor
        total = sum(f3[i, j, k] * y[i] * y[j] * y[k]
                    for i in range(n) for j in range(n) for k in range(n))
        assert form.evaluate(y) == F(1, 6) * total


def test_homogeneity_and_euler_relations():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        form = random_cubic(rng, n)
        y = [random_fraction(rng) for _ in range(n)]
        c = random_fraction(rng, nonzero=True)
        assert form.evaluate([c * v for v in y]) == c**3 * form.evaluate(y)
        grad = gradient(form, y)
        assert sum(g * v for g, v in zip(grad, y)) == 3 * form.evaluate(y)
        h = form.hessian(y)
        for i in range(n):
            assert sum(h[i, k] * y[k] for k in range(n)) == 2 * grad[i]


def test_pullback_of_the_zero_form():
    zero = parse_text("0*y1^3")
    assert zero.pullback([[F(2)]]) == CubicForm(1, {})


def test_gl_covariance_of_hessian_and_membership():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 3)
        form = random_cubic(rng, n)
        a = random_invertible(rng, n)
        pulled = form.pullback(a)
        y = [random_fraction(rng) for _ in range(n)]
        ay = mat_vec(a, y)
        assert pulled.evaluate(y) == form.evaluate(ay)
        # Hess(f o A)(y) = A^T Hess f(Ay) A
        h_pull = pulled.hessian(y).rows()
        h = form.hessian(ay).rows()
        want = [[sum(a[p][i] * h[p][q] * a[q][j] for p in range(n)
                     for q in range(n)) for j in range(n)] for i in range(n)]
        assert h_pull == want
        assert cone_contains(pulled, y) is cone_contains(form, ay)


# ----------------------------------------------------------------------------
# membership

def test_membership_univariate():
    f = parse_text("y1^3", 1)
    assert cone_contains(f, [F(1)]) is Membership.INTERIOR
    assert cone_contains(f, [F(0)]) is Membership.BOUNDARY
    assert cone_contains(f, [F(-1)]) is Membership.OUTSIDE


def test_membership_sum_of_cubes():
    f = parse_text("y1^3+y2^3", 2)
    # definite Hessian, wrong index
    assert cone_contains(f, [F(1), F(1)]) is Membership.OUTSIDE
    # mixed-sign octant: f = 7 > 0, Hessian diag(12, -6)
    assert cone_contains(f, [F(2), F(-1)]) is Membership.INTERIOR


def test_membership_rejects_floats():
    f = parse_text("y1^3", 1)
    with pytest.raises(TypeError):
        cone_contains(f, [0.5])
    # strings and ints coerce exactly
    assert cone_contains(f, ["1/2"]) is Membership.INTERIOR
    assert cone_contains(f, [2]) is Membership.INTERIOR


def test_membership_mixed_form_boundary():
    f = parse_text("y1*y2^2", 2)
    assert cone_contains(f, [F(1), F(1)]) is Membership.INTERIOR
    assert cone_contains(f, [F(1), F(-1)]) is Membership.INTERIOR
    assert cone_contains(f, [F(1), F(0)]) is Membership.BOUNDARY
    assert cone_contains(f, [F(-1), F(1)]) is Membership.OUTSIDE


# ----------------------------------------------------------------------------
# sampling

def test_sample_univariate_positive():
    f = parse_text("y1^3", 1)
    pts = cone_sample(f, 3, seed=5)
    assert len(pts) == 3 and all(p[0] > 0 for p in pts)


def test_sample_is_deterministic_and_distinct():
    f = parse_text("y1*y2^2", 2)
    a = cone_sample(f, 10, seed=99)
    b = cone_sample(f, 10, seed=99)
    assert a == b
    assert len(set(a)) == 10


def test_sample_sum_of_cubes_has_points():
    # grid oracle: the index cone of y1^3 + y2^3 is nonempty (mixed-sign
    # points like (2, -1) are interior), so unassisted sampling succeeds
    f = parse_text("y1^3+y2^3", 2)
    oracle = [(a, b) for a in range(-4, 5) for b in range(-4, 5)
              if cone_contains(f, (F(a), F(b))) is Membership.INTERIOR]
    assert (2, -1) in [(int(a), int(b)) for a, b in oracle]
    pts = cone_sample(f, 10, seed=1)
    assert len(pts) == 10


def test_sample_exhausts_on_empty_cone():
    # y1^3 viewed in two variables: Hessian has a zero row everywhere, so
    # no interior points exist anywhere (grid oracle below confirms)
    f = parse_text("y1^3", 2)
    grid = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    assert all(cone_contains(f, (F(a), F(b))) is not Membership.INTERIOR
               for a, b in grid)
    with pytest.raises(SamplingExhausted):
        cone_sample(f, 1, seed=0, budget=3000)


def test_sampler_counts_the_hint_candidates_exactly():
    # y1^3 with hint 1: the nonzero grid values and the values c * m, c a
    # positive grid value and m a jitter factor, as one set of rationals
    grid = {F(p, q) for p in range(-16, 17) for q in range(1, 9)} - {0}
    jitters = {F(s + r, s) for r in (-1, 0, 1) for s in range(4, 9)}
    distinct = grid | {c * m for c in grid if c > 0 for m in jitters}
    assert len(distinct) == 552
    with pytest.raises(SamplingExhausted) as err:
        cone_sample(parse_text("y1^3", 1), 2000, seed=0, hint=(F(1),))
    message = str(err.value)
    assert (" among 552 distinct candidates in 100000 attempts; that is "
            "all the grid and the hint can give, drawn within ") in message
    assert int(message.rsplit(" ", 2)[-2]) < 100_000 // 2


def test_sample_with_hint():
    f = parse_text("y1*y2*y3", 3)
    pts = cone_sample(f, 5, seed=2, hint=(F(1), F(1), F(1)))
    assert len(pts) == 5
    assert all(cone_contains(f, p) is Membership.INTERIOR for p in pts)


def test_sample_rejects_bad_hint():
    f = parse_text("y1^3", 1)
    with pytest.raises(NotInCone):
        cone_sample(f, 1, seed=0, hint=(F(-1),))


# ----------------------------------------------------------------------------
# norm-function identity

def test_norm_identity_simple_forms():
    for text, n in [("y1^3", 1), ("y1*y2^2", 2), ("5*y1^3", 1)]:
        assert norm_identity_check(parse_text(text, n)).holds


def test_norm_identity_against_sympy():
    # independent symbolic oracle for a couple of forms
    for text, n in [("y1^3", 1), ("y1*y2^2 - 2*y2^3", 2)]:
        form = parse_text(text, n)
        xs = sympy.symbols(f"x0:{n}", real=True)
        ys = sympy.symbols(f"y0:{n}", real=True)
        vs = sympy.symbols(f"v0:{n}")
        ts = [xs[j] + sympy.I * ys[j] for j in range(n)]
        f_expr = sum(sympy.Rational(c) * sympy.prod(
            [vs[i]**e for i, e in enumerate(exp)])
            for exp, c in form.monomials.items())
        f_t = f_expr.subs(zip(vs, ts), simultaneous=True)
        total = 2 * sympy.conjugate(f_t) - 2 * f_t
        for j in range(n):
            dj = sympy.diff(f_expr, vs[j]).subs(zip(vs, ts), simultaneous=True)
            total += (ts[j] - sympy.conjugate(ts[j])) * (dj + sympy.conjugate(dj))
        lhs = sympy.expand(sympy.I * total)
        rhs = 8 * f_expr.subs(zip(vs, ys), simultaneous=True)
        assert sympy.expand(lhs - rhs) == 0
        assert norm_identity_check(form).holds


def test_norm_identity_random_cubics():
    rng = random.Random(37)
    for _ in range(25):
        form = random_cubic(rng, rng.randint(1, 3))
        assert norm_identity_check(form).holds


def test_norm_identity_names_a_counterexample(monkeypatch):
    # a broken N: with conj the identity, N is 0 and 8 f(Im t) is not
    monkeypatch.setattr(Poly, "conj", lambda self: self)
    for text, n in [("y1^3", 1), ("y1*y2^2 - 2*y2^3", 2),
                    ("y1*y2*y3 + 1/2*y3^3", 3)]:
        res = norm_identity_check(parse_text(text, n))
        assert res.holds is False
        exp, got, expected = res.counterexample
        assert len(exp) == 2 * n and sum(exp) == 3
        assert got != expected
