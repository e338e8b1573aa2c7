"""The integer membership kernel against its oracles: `inertia` against the
Fraction elimination of `_reference` and a numpy eigenvalue sign count, and
`cone_contains` and the `cone check` values against the Fraction decision on
the dense n = 5 pullback of y1*y2*y3 + y4^3 + y5^3, and the f, grad f and
Hess f the metric jet reads from that decision against the polynomial.
`cone_sample`, which draws and decides its candidates on integer pairs,
against the Fraction sampler of `_reference`."""

import random
from fractions import Fraction as F

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kahlercone.cubic
from kahlercone import (Membership, SymMatrix, cone_contains, cone_sample,
                        inertia, parse_text)
from kahlercone.cubic import _classify
from kahlercone.geometry import _integer_jet
from _reference import (invert_rows, poly_derivatives, reference_cone_sample,
                        reference_inertia, reference_membership)
from _util import mat_vec, suite_forms

KERNEL_SETTINGS = settings(max_examples=150, deadline=None)

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
    assert point.f == DENSE.evaluate(z)
    assert sig == reference_inertia(DENSE.hessian(z).rows())
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


def test_dense_jet_derivatives_match_polynomial_oracle():
    # f = F / (s l^3), grad f = a / (s l^2) and Hess f = H / (s l)
    for z in cone_sample(DENSE, 4, seed=31):
        ij = _integer_jet(DENSE, z)
        s, l = ij.point.s, ij.point.l
        assert poly_derivatives(DENSE, z) == (
            F(ij.point.F, s * l**3), [F(v, s * l * l) for v in ij.a],
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


@settings(max_examples=8, deadline=None)
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
    cleared, eliminated = [], []
    monkeypatch.setattr(kahlercone.cubic, "_cleared",
                        _recording(cleared, kahlercone.cubic._cleared))
    monkeypatch.setattr(kahlercone.cubic, "inertia",
                        _recording(eliminated, inertia, arg=True))
    cone_sample(DENSE, 4, seed=31)
    assert eliminated == [p.H for p in cleared if p.F > 0]
    # about half the candidates have f < 0 and are rejected by its sign
    assert sum(p.F < 0 for p in cleared) > len(cleared) // 4
