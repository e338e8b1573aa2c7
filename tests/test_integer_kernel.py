"""The integer membership kernel against its oracles: `inertia` against the
Fraction elimination of `_reference` and a numpy eigenvalue sign count, and
`cone_contains` and the `cone check` values against the Fraction decision on
the dense n = 5 pullback of y1*y2*y3 + y4^3 + y5^3, and the f, grad f and
Hess f the metric jet reads from that decision against the polynomial.
The interior test (F > 0 and M positive definite) against f > 0 and the
Fraction inertia of Hess f on dense cubics, near interior hints and at
boundary points, and `positive_definite` against sympy's leading minors.
`cone_sample`, which draws and decides its candidates on integer pairs,
against the Fraction sampler of `_reference`, and its diagonal pre-check
against `_classify`. The integer jet's two sides
agree at every nonzero integer point of small dense cubics, interior or
not."""

import itertools
import random
from fractions import Fraction as F
from operator import mul

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kahlercone.cubic
from kahlercone import (CubicForm, Membership, SymMatrix, cone_contains,
                        cone_sample, inertia, parse_text)
from kahlercone.cubic import (_classify, _clear, _cleared,
                              _diagonal_positive, _is_interior)
from kahlercone.geometry import _integer_jet, _jet
from kahlercone.linalg import positive_definite
from _reference import (gradient, invert_rows, poly_derivatives,
                        reference_cone_sample, reference_evaluate,
                        reference_hessian, reference_inertia,
                        reference_membership)
from _util import mat_vec, suite_forms

KERNEL_SETTINGS = settings(max_examples=150)

# a unimodular A: y -> f(A y) has all 35 cubic monomials of n = 5
DENSE_A = [[2, 2, 1, 1, 0],
           [-2, 1, -3, 1, 2],
           [1, -1, 1, -1, -1],
           [0, -2, 0, -2, -1],
           [0, -2, 2, -1, -1]]
DENSE_A_INV = invert_rows([[F(v) for v in row] for row in DENSE_A])
SPARSE = parse_text("y1*y2*y3 + y4^3 + y5^3", 5)
DENSE = SPARSE.pullback(DENSE_A)

small_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
large_denominators = st.builds(F, st.integers(-10**15, 10**15),
                               st.integers(1, 10**15))


@st.composite
def symmetric_rows(draw, entries, max_n=6):
    """Rows of a symmetric matrix: general, singular (its last row repeats
    the first) or with a zero diagonal (the 2x2 pivot path)."""
    n = draw(st.integers(1, max_n))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    kind = draw(st.sampled_from(["general", "singular", "zero-diagonal"]))
    if kind == "singular" and n > 1:
        for j in range(n):
            rows[n - 1][j] = rows[j][n - 1] = rows[0][j]
        rows[n - 1][n - 1] = rows[0][0]
    elif kind == "zero-diagonal":
        for i in range(n):
            rows[i][i] = F(0)
    return rows


@KERNEL_SETTINGS
@given(symmetric_rows(st.one_of(small_rationals, large_denominators)))
def test_inertia_matches_fraction_reference(rows):
    assert inertia(SymMatrix.from_rows(rows)) == reference_inertia(rows)


@KERNEL_SETTINGS
@given(symmetric_rows(small_rationals))
def test_inertia_matches_numpy_sign_count(rows):
    eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    # well conditioned: every eigenvalue is clearly zero or clearly not
    assume(all(abs(v) < 1e-9 * scale or abs(v) > 1e-6 * scale for v in eigs))
    plus = sum(v > 1e-6 * scale for v in eigs)
    minus = sum(v < -1e-6 * scale for v in eigs)
    assert inertia(SymMatrix.from_rows(rows)) == (plus, minus,
                                                  len(rows) - plus - minus)


def _grid_point(rng):
    """A candidate as the sampler draws it."""
    return [F(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(5)]


def _boundary_point(rng):
    """A boundary point of the pullback: A^-1 y for y = (p, q, r, s, 0) with
    p, q, r > 0 > s and pqr = -s^3, so f = 0 and Hess f has inertia
    (1, 3, 1)."""
    p, q = (F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(2))
    s = -F(rng.randint(1, 9), rng.randint(1, 5))
    return mat_vec(DENSE_A_INV, [p, q, -s**3 / (p * q), s, F(0)])


def _assert_agrees(z):
    verdict, sig, point = _classify(DENSE, z)
    assert cone_contains(DENSE, z) is verdict
    assert verdict is reference_membership(DENSE, z)
    assert point.f == reference_evaluate(DENSE, z)
    assert sig == reference_inertia(reference_hessian(DENSE, z).rows())
    return verdict


@KERNEL_SETTINGS
@given(st.integers(0, 10**9), st.booleans())
def test_cone_contains_matches_fraction_decision(seed, boundary):
    rng = random.Random(seed)
    _assert_agrees(_boundary_point(rng) if boundary else _grid_point(rng))


def test_dense_pullback_verdicts_cover_all_three():
    rng = random.Random(2024)
    points = [_grid_point(rng) for _ in range(300)]
    points += [_boundary_point(rng) for _ in range(10)]
    seen = {_assert_agrees(z) for z in points}
    assert seen == set(Membership)


# ----------------------------------------------------------------------------
# the interior test F > 0 and M positive definite, against F > 0 and the
# oracle inertia of Hess f

EXPONENTS = {n: [e for e in itertools.product(range(4), repeat=n)
                 if sum(e) == 3] for n in range(1, 6)}


@st.composite
def dense_cubics(draw):
    """An integer cubic in n = 1..5 variables with every monomial drawn."""
    n = draw(st.integers(1, 5))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=len(EXPONENTS[n]),
                           max_size=len(EXPONENTS[n])))
    assume(any(coeffs))
    return CubicForm(n, dict(zip(EXPONENTS[n], coeffs)))


def _unimodular(pick, n):
    """(A, A^-1) as int rows, a product of elementary steps row_i += c row_j
    (on A^-1, column_j -= c column_i); pick(lo, hi) draws an int."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(pick(0, 2 * n) if n > 1 else 0):
        i = pick(0, n - 1)
        j, c = (i + pick(1, n - 1)) % n, pick(-2, 2)
        a[i] = [u + c * v for u, v in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
    return a, inv


def _pulled_back(pick, text, x):
    """f(A y) for the form `text` and a unimodular A, at y = A^-1 x: the
    same value and, up to congruence, the same Hessian as f at x."""
    n = len(x)
    a, inv = _unimodular(pick, n)
    return parse_text(text, n).pullback(a), mat_vec(inv, x)


NEAR = {form.n: (form.to_text(), hint) for form, hint in suite_forms()[1:]}
NEAR[5] = (SPARSE.to_text(), (2, 2, 2, -1, -1))


def _near_hint(pick, n):
    """A suite form in n variables, made dense by a pullback, near its
    interior hint h: at h_i (s_i + r_i) / s_i, r_i in [-3, 3], s_i in
    [1, 3], interior or not, with f > 0 at most such points."""
    text, hint = NEAR[n]
    x = []
    for h in hint:
        s = pick(1, 3)
        x.append(F(h) * (s + pick(-3, 3)) / s)
    return _pulled_back(pick, text, x)


def _boundary(pick):
    """A point with f = 0 or Hess f singular: y1*y2*y3 + y4^3 + ... with a
    zero among the first three coordinates (Hess f singular; f = 0 at
    n = 3), or y1^3 + ... + yn^3 with a zero coordinate (Hess f singular,
    f of either sign); made dense by a pullback."""
    product = pick(0, 1)
    n = pick(3 if product else 1, 5)
    terms = ["y1*y2*y3"] * product + [
        f"y{k}^3" for k in range(1 + 3 * product, n + 1)]
    x = [F(pick(-9, 9), pick(1, 6)) for _ in range(n)]
    x[pick(0, 2 if product else n - 1)] = F(0)
    return _pulled_back(pick, " + ".join(terms), x)


def _picker(data):
    return lambda lo, hi: data.draw(st.integers(lo, hi))


def _assert_interior_test_agrees(form, y):
    """The interior test on the complete cleared ints against f(y) > 0 and
    the Fraction inertia of Hess f(y); Euler's relations H z = 2a and
    z^T H z = 6F at every point, whatever the sign of F. Returns the
    verdict."""
    y = [F(v) for v in y]
    n = form.n
    cleared = _clear(form, [(v.numerator, v.denominator) for v in y])
    point = _cleared(form, *cleared)
    want = (reference_evaluate(form, y) > 0 and reference_inertia(
        reference_hessian(form, y).rows()) == (1, n - 1, 0))
    assert _is_interior(point) is want
    assert (point.l, point.z, point.F) == cleared[:3]
    hz = mat_vec(point.H.rows(), point.z)
    assert hz == [2 * v for v in point.a]
    assert sum(map(mul, hz, point.z)) == 6 * point.F
    return want


@KERNEL_SETTINGS
@given(dense_cubics(), st.data())
def test_interior_test_matches_oracle_inertia(form, data):
    y = data.draw(st.lists(small_rationals, min_size=form.n,
                           max_size=form.n))
    _assert_interior_test_agrees(form, y)


@KERNEL_SETTINGS
@given(st.integers(1, 5), st.data())
def test_interior_test_matches_oracle_near_interior_hints(n, data):
    _assert_interior_test_agrees(*_near_hint(_picker(data), n))


@KERNEL_SETTINGS
@given(st.data())
def test_interior_test_rejects_boundary_points(data):
    assert not _assert_interior_test_agrees(*_boundary(_picker(data)))


def test_interior_test_sees_both_verdicts_where_f_is_positive():
    rng = random.Random(18)
    seen = set()
    for n in range(1, 6):
        for _ in range(40):
            dense = CubicForm(n, {e: rng.randint(-6, 6) for e in EXPONENTS[n]})
            y = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            for form, y in ((dense, y), _near_hint(rng.randint, n)):
                if reference_evaluate(form, y) > 0:
                    seen.add((n, _assert_interior_test_agrees(form, y)))
    # at n = 1, f > 0 is the whole interior test
    assert seen == {(n, v) for n in range(1, 6) for v in (True, False)} - {
        (1, False)}


@st.composite
def int_symmetric(draw):
    """Rows of a symmetric int matrix: general, B B^T with B n x r (positive
    semidefinite, singular when r < n), or B B^T + I (positive definite)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["general", "gram", "gram+1"]))
    if kind == "general":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(st.integers(-9, 9))
        return rows
    r = draw(st.integers(0, n))
    b = [[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(n)]
    return [[sum(map(mul, b[i], b[j])) + (kind == "gram+1") * (i == j)
             for j in range(n)] for i in range(n)]


@KERNEL_SETTINGS
@given(int_symmetric())
def test_positive_definite_matches_sympy_leading_minors(rows):
    m = sympy.Matrix(rows)
    want = all(m[:k, :k].det() > 0 for k in range(1, len(rows) + 1))
    assert positive_definite(SymMatrix.from_rows(rows)) is want


def test_positive_definite_rejects_non_int_entries():
    for v in (F(1, 2), 0.5, True):
        with pytest.raises(TypeError):
            positive_definite(SymMatrix.from_rows([[v]]))


def test_dense_jet_derivatives_match_polynomial_oracle():
    # f = F / (s l^3), grad f = a / (s l^2) and Hess f = H / (s l)
    for z in cone_sample(DENSE, 4, seed=31):
        ij = _integer_jet(DENSE, z)
        s, l = ij.point.s, ij.point.l
        assert poly_derivatives(DENSE, z) == (
            F(ij.point.F, s * l**3), [F(v, s * l * l) for v in ij.point.a],
            [[F(v, s * l) for v in row] for row in ij.point.H.rows()])


# the forms the sampler is checked on, each with an interior hint: the
# suite, the dense pullback (hint A^-1 (2, 2, 2, -1, -1)) and a dense
# n = 3 cubic whose only fractional coefficient is 1/6
FORM_SIXTH = parse_text("1/6*y1^3 + 3*y1^2*y2 - y1^2*y3 + 2*y1*y2^2"
                        " + 7*y1*y2*y3 - 2*y1*y3^2 + y2^3 + 5*y2^2*y3"
                        " - 3*y2*y3^2 + 4*y3^3", 3)
SAMPLED = suite_forms() + [
    (DENSE, tuple(mat_vec(DENSE_A_INV, [F(2), F(2), F(2), F(-1), F(-1)]))),
    (FORM_SIXTH, (F(1, 4), F(-5, 2), F(9, 5)))]


@settings(max_examples=8)
@given(st.integers(0, 10**9), st.booleans())
def test_cone_sample_matches_fraction_sampler(seed, with_hint):
    for form, hint in SAMPLED:
        hint = hint if with_hint else None
        # at n = 1, 60 of the 83 positive grid values: draws repeat often
        count = 60 if form.n == 1 else 3
        points = cone_sample(form, count, seed=seed, hint=hint)
        assert points == reference_cone_sample(form, count, seed, hint=hint)
        assert all(type(v) is F for y in points for v in y)


def _recording(log, fn, arg=False):
    """fn, with each result (or, if arg, each first argument) in log."""
    def wrapper(*args):
        result = fn(*args)
        log.append(args[0] if arg else result)
        return result
    return wrapper


def test_sampler_eliminates_only_where_f_is_positive(monkeypatch):
    cubic = kahlercone.cubic
    values, diagonal, complete, eliminated = [], [], [], []
    for name, log, arg in (("_clear", values, False),
                           ("_diagonal_positive", diagonal, False),
                           ("_cleared", complete, False),
                           ("positive_definite", eliminated, True)):
        monkeypatch.setattr(cubic, name,
                            _recording(log, getattr(cubic, name), arg=arg))
    cone_sample(DENSE, 4, seed=31)
    # F once per candidate: each distinct nonzero draw of the sampler's
    # stream, randint(-16, 16) / randint(1, 8) per coordinate, in order
    rng, candidates = random.Random(31), {}
    while len(candidates) < len(values):
        y = tuple(F(rng.randint(-16, 16), rng.randint(1, 8))
                  for _ in range(5))
        if any(y):
            candidates[y] = None
    ys = [tuple(F(v, l) for v in z) for l, z, _, _ in values]
    assert ys == list(candidates)
    # M's diagonal exactly where F > 0, with the verdict of the Fraction
    # oracle: as a = s l^2 grad f, F = s l^3 f and H = s l Hess f, the
    # entry a_i^2 - F H_ii has the sign of (d_i f)^2 - f d_ii f
    def diagonal_positive(y):
        f, h = reference_evaluate(DENSE, y), reference_hessian(DENSE, y)
        return f > 0 and all(g * g > f * h[i, i]
                             for i, g in enumerate(gradient(DENSE, y)))
    passed = list(map(diagonal_positive, ys))
    assert diagonal == [ok for ok, v in zip(passed, values) if v[2] > 0]
    # the complete H, a, M and its minors exactly where F > 0 and every
    # diagonal entry of M is positive, and M alone decides there
    assert [(p.l, p.z, p.F) for p in complete] == [
        v[:3] for v, ok in zip(values, passed) if ok]
    assert eliminated == [p.M for p in complete]
    # about half the candidates have f < 0 and are rejected by its sign,
    # and the diagonal rejects more than the minors do
    assert sum(v[2] < 0 for v in values) > len(values) // 4
    assert len(diagonal) - len(complete) > len(complete) - 4


# the suite (y1*y2^2 among it), the dense pullback, and y1^3 + y2^3, which
# like y1*y2^2 has many boundary points on the grid
PRECHECKED = [form for form, _ in suite_forms()] + [
    DENSE, parse_text("y1^3 + y2^3", 2)]


@settings(max_examples=60)
@given(st.sampled_from(PRECHECKED), st.integers(0, 10**9))
def test_diagonal_precheck_rejects_no_interior_point(form, seed):
    """`_diagonal_positive` reads M's diagonal, and a grid candidate with
    F > 0 that it rejects is not interior."""
    rng = random.Random(seed)
    for _ in range(40):
        y = [F(rng.randint(-16, 16), rng.randint(1, 8))
             for _ in range(form.n)]
        l, z, f, zz = _clear(form, [(v.numerator, v.denominator) for v in y])
        if f <= 0:
            continue
        point = _cleared(form, l, z, f, zz)
        ok = _diagonal_positive(form, z, f, zz)
        assert ok is all(point.M[i, i] > 0 for i in range(form.n))
        if not ok:
            assert _classify(form, y)[0] is not Membership.INTERIOR


def test_jet_identity_holds_at_every_integer_point():
    """The cleared sides at any nonzero integer z, interior or not, of dense
    integer cubics: the residual is a polynomial in z that vanishes on the
    open cone, so it vanishes everywhere, F <= 0 and Delta = 0 included."""
    rng = random.Random(21)
    seen = {"F < 0": 0, "F = 0": 0, "Delta = 0, F != 0": 0}
    for n in range(1, 5):
        for _ in range(6):
            form = CubicForm(n, {e: rng.randint(-2, 2) for e in EXPONENTS[n]})
            for z in itertools.product(range(-1, 2), repeat=n):
                if not any(z):
                    continue
                point = _cleared(form, *_clear(form, [(v, 1) for v in z]))
                ij = _jet(form, point)
                assert ij.lhs("standard") == ij.rhs(), (form, z)
                seen["F < 0"] += point.F < 0
                seen["F = 0"] += point.F == 0
                seen["Delta = 0, F != 0"] += ij.delta == 0 and point.F != 0
    assert all(seen.values()), seen
