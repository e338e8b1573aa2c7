"""The fibre-metric checks and the base Christoffel symbols on the integer
jet: the `Complex` direct arrays of `_reference.complex_direct_gammas`
against the oracle `_reference.reference_direct_gammas`, the integer
connection check against its `Complex` form
`_reference.reference_christoffel_check`, on well-formed input and with one
entry of B or Dg corrupted, the symmetry of W by which base is read over
j <= c, the identity R_up = -sum_m a_m R_base[m] by which fibre-upper is
read off base, a singular B, the stated inverse against the reality of
lambda, the inertia of the bordered Hessian B against that of gtilde, the
work the checks do, the integer Christoffel symbols against `raise_index`
on the `Fraction` jet, the commands that read the integer jet without its
`Fraction` rendering, and the sampler's stop once the grid runs out. The
inverse check, decided as B C = 4 F Delta I on the cleared integers and
the reality of lambda, is compared with the `Complex` product
`_reference.reference_inverse_check`; both checks are shown to read every
published term of C, and C is tied to B by the identities of the `special`
module docstring; C's fibre row is the published one of the jet."""

import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kahlercone.cubic
import kahlercone.geometry
import kahlercone.linalg
import kahlercone.special
from kahlercone import (Complex, SamplingExhausted, SymMatrix,
                        build_tilde_metric, christoffels, cone_sample,
                        curvature_lhs, curvature_report, curvature_rhs,
                        inertia, parse_text, sectional,
                        tilde_christoffel_check, tilde_inverse_check)
from kahlercone.cli import main
from kahlercone.geometry import _integer_jet
from kahlercone.linalg import det_adjugate, raise_index
from kahlercone.special import _fibre_checks

from _reference import (complex_direct_gammas, hermitian_inertia,
                        reference_christoffel_check, reference_cone_sample,
                        reference_direct_gammas, reference_inverse_check)
from _util import counting, random_cubic, random_fraction, suite_forms

SETTINGS = settings(max_examples=25)


def _interior_point(seed, n):
    """(form, y) for a random cubic in n variables, or None when its cone
    yields no sample within a small budget."""
    rng = random.Random(seed)
    form = random_cubic(rng, n, num_bound=5, den_bound=6)
    try:
        (y,) = cone_sample(form, 1, seed=seed, budget=500)
    except SamplingExhausted:
        return None
    return form, y


def _tilde_metric(seed, n):
    """(form, its fibre metric at a non-real lambda and a nonzero Re t)."""
    found = _interior_point(seed, n)
    assume(found is not None)
    form, y = found
    rng = random.Random(seed + 1)
    lam = Complex(random_fraction(rng, nonzero=True),
                  random_fraction(rng, nonzero=True))
    x = [random_fraction(rng, nonzero=True) for _ in y]
    return form, build_tilde_metric(
        form, [Complex(a, b) for a, b in zip(x, y)], lam)


@SETTINGS
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_direct_christoffels_match_complex_oracle(seed, n):
    form, tm = _tilde_metric(seed, n)
    assert complex_direct_gammas(tm) == reference_direct_gammas(form, tm)


_RATIONAL = st.builds(F, st.integers(1, 9), st.integers(1, 6))
_REAL_LAMBDA = st.one_of(_RATIONAL, _RATIONAL.map(lambda v: -v),
                         st.integers(-9, 9).filter(bool))
# real, negative, integer, purely imaginary and non-real fibre coordinates
_LAMBDA = st.one_of(
    _REAL_LAMBDA,
    st.builds(lambda v, s: Complex(0, s * v), _RATIONAL,
              st.sampled_from((-1, 1))),
    st.builds(Complex, _RATIONAL, _RATIONAL.map(lambda v: -v)),
    st.builds(Complex, st.integers(-5, 5), st.integers(1, 5)))


def _suite_or_random_metric(seed, which, lam):
    """The fibre metric at lam of a suite form (which < 5) or of a dense
    random cubic with n = which - 4, at a point with every Re t_i
    nonzero."""
    if which < 5:
        form, hint = suite_forms()[which]
        (y,) = cone_sample(form, 1, seed=seed, hint=hint)
    else:
        found = _interior_point(seed, which - 4)
        assume(found is not None)
        form, y = found
    rng = random.Random(seed)
    t = [Complex(random_fraction(rng, nonzero=True), v) for v in y]
    return build_tilde_metric(form, t, lam)


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 8), _LAMBDA)
def test_christoffel_check_matches_complex_reference(seed, which, lam):
    """The integer check against its `Complex` form."""
    tm = _suite_or_random_metric(seed, which, lam)
    # record equality: passed, matches, lower_symmetric,
    # recovery_relation and mismatches
    assert tilde_christoffel_check(tm) == reference_christoffel_check(tm)


def _corrupted(tm, in_bordered, slot, offset):
    """tm with one stored entry of B (in_bordered) or of Dg moved by offset;
    offset 0 leaves it well formed."""
    m = tm.bordered if in_bordered else tm.ij.Dg
    data = list(m._data)
    data[slot % len(data)] += offset
    m = type(m)(m.n, data)
    return (tm._replace(bordered=m) if in_bordered
            else tm._replace(ij=tm.ij._replace(Dg=m)))


def test_christoffel_check_matches_the_reference_on_corrupted_input():
    """With one entry of B or of Dg moved, the verdicts the check decides -
    base under both scalings, and passed - are the `Complex` reference's,
    the draws reach both values of each, and every moved entry fails base,
    the check and both recovery readings. The other verdicts are read off
    base or fixed by how `build_tilde_metric` makes B (`special` module
    docstring): fibre-upper is base's verdict as printed and false under
    the potential scaling. They are compared with the reference on built
    input only, by `test_christoffel_check_matches_complex_reference`.
    The check reads base over the pairs j <= c only: W, built here over
    every (j, c), is symmetric in them, and base is the verdict of the
    comparison over every index triple."""
    seen = {"base": set(), "passed": set()}

    @settings(max_examples=150)
    @given(st.integers(0, 10**6), st.integers(1, 4), _LAMBDA, st.booleans(),
           st.integers(0, 10**3), st.integers(-2, 2))
    def draw(seed, n, lam, in_bordered, slot, offset):
        tm = _corrupted(_suite_or_random_metric(seed, n + 4, lam),
                        in_bordered, slot, offset)
        assume(det_adjugate(tm.bordered)[0] != 0)
        got = tilde_christoffel_check(tm)
        want = reference_christoffel_check(tm)
        assert got.passed == want.passed == (offset == 0)
        # the report's one B C decision gives both checks' results
        assert _fibre_checks(tm) == (tilde_inverse_check(tm), got)
        if offset:          # base fails, and so both recovery readings
            assert not got.matches["potential"]["base"]
            assert not any(got.recovery_relation.values())
        for scaling in ("printed", "potential"):
            base = got.matches[scaling]["base"]
            assert base == want.matches[scaling]["base"], scaling
        assert got.matches["printed"]["fibre-upper"] == base
        assert got.matches["potential"]["fibre-upper"] is False
        _, w, _, r_base = _base_residual(tm)
        assert all(w[j][x][c + 1] == w[c][x][j + 1] for x in range(n + 1)
                   for j in range(n) for c in range(n))
        assert base == (not any(v for plane in r_base for r in plane
                                for v in r))
        seen["base"].add(base)
        seen["passed"].add(got.passed)

    draw()
    assert seen == {"base": {True, False}, "passed": {True, False}}


def _base_residual(tm):
    """(d, W, U, R_base) of the `special` module docstring, built here over
    every index triple from det_adjugate(B), the jet's H, t, a, F and
    Delta, and its Dg: d = det B, W_q = adj B . dB_q with dB_q = dB/dz_q,
    every row and column, U = A . Dg and R_base the left side minus the
    right side of the base identity."""
    n, ij, idx = tm.n, tm.ij, range(tm.n)
    big_f, a, h, delta = ij.point.F, ij.point.a, ij.point.H.rows(), ij.delta
    det, adj = det_adjugate(tm.bordered)
    adj = adj.rows()
    w = []
    for q in idx:
        d_b = [[4 * a[q]] + [2 * h[q][c] for c in idx]] + [
            [2 * h[r][q]] + [ij.t[r, c, q] for c in idx] for r in idx]
        w.append([[sum(adj[x][e] * d_b[e][c] for e in range(n + 1))
                   for c in range(n + 1)] for x in range(n + 1)])
    u = [m.rows() for m in raise_index(ij.Dg, ij.adj)]
    r_base = [[[big_f * delta * w[j][i + 1][c + 1] - det * (
        u[i][j][c] + delta * ((i == c) * a[j] + (i == j) * a[c]))
        for c in idx] for j in idx] for i in idx]
    return det, w, u, r_base


def _fibre_upper_follows_from_base(tm):
    """(R_base, R_up) of the `special` module docstring (`_base_residual`),
    each R the left side minus the right side of the printed identity
    (sigma = +1), after asserting what B's fibre row (4F, 2a) gives for
    every Dg: R_up = -sum_m a_m R_base[m], and W's row 0 is
    2 (-1)^(n+1) Delta H / F^n, never zero."""
    n, ij, idx = tm.n, tm.ij, range(tm.n)
    big_f, a, h, delta = ij.point.F, ij.point.a, ij.point.H.rows(), ij.delta
    det, w, u, r_base = _base_residual(tm)
    r_up = [[2 * big_f**2 * delta * w[i][0][j + 1] - det * (
        big_f * delta * h[i][j] - 2 * delta * a[i] * a[j]
        - sum(a[c] * u[c][i][j] for c in idx)) for j in idx] for i in idx]
    assert r_up == [[-sum(a[m] * r_base[m][i][j] for m in idx) for j in idx]
                    for i in idx]
    assert [[big_f**n * w[i][0][j + 1] for j in idx] for i in idx] == [
        [2 * (-1) ** (n + 1) * delta * v for v in r] for r in h]
    return r_base, r_up


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 8), st.integers(0, 10**3),
       st.integers(-2, 2))
def test_fibre_upper_residual_is_minus_a_times_the_base_residual(
        seed, which, slot, offset):
    """The identity the check's constants rest on, on built input and with
    one entry of Dg moved; the check's base verdict is that of the residual
    built here, and holds on built input."""
    tm = _corrupted(_suite_or_random_metric(seed, which, F(1)), False, slot,
                    offset)
    r_base, _ = _fibre_upper_follows_from_base(tm)
    base = not any(v for plane in r_base for r in plane for v in r)
    got = tilde_christoffel_check(tm)
    assert got.matches["printed"]["base"] == got.passed == base
    if not offset:
        assert base


def test_fibre_upper_can_hold_where_base_fails():
    """Where a coordinate of a = H z / 2 is zero, a wrong Dg can break base
    yet keep sum_m a_m R_base[m] = 0, so fibre-upper as printed holds alone;
    the check still fails, since it passes exactly when base holds."""
    form = parse_text("y1*y2^2 - y1*y3^2", 3)
    tm = build_tilde_metric(form, [Complex(0, v) for v in (-4, 0, F(15, 8))],
                            F(1))
    assert 0 in tm.ij.point.a
    dg = tm.ij.Dg
    moved = type(dg)(dg.n, dg._data)
    moved[1, 1, 1] += 1
    tm = tm._replace(ij=tm.ij._replace(Dg=moved))
    r_base, r_up = _fibre_upper_follows_from_base(tm)
    assert any(v for plane in r_base for r in plane for v in r)
    assert not any(v for r in r_up for v in r)
    got = tilde_christoffel_check(tm)
    assert not got.passed and not got.matches["printed"]["fibre-upper"]
    assert not reference_christoffel_check(tm).passed


def test_fibre_checks_fail_on_a_singular_bordered_hessian():
    """A singular B breaks B C = 4 F Delta I, which both checks read, so each
    reports a failure and neither raises. `build_tilde_metric` makes no
    singular B: F^(n-1) det B = 4 (-1)^n Delta
    (`test_stated_inverse_is_the_scaled_adjugate_of_the_bordered_hessian`)."""
    tm = build_tilde_metric(parse_text("y1*y2^2", 2),
                            [Complex(F(0), F(1))] * 2, F(1))
    # B with its last row and column zeroed
    rows = tm.bordered.rows()
    singular = SymMatrix.from_rows([r[:-1] + [0] for r in rows[:-1]]
                                   + [[0] * len(rows)])
    assert det_adjugate(singular)[0] == 0
    tm = tm._replace(bordered=singular)
    assert not tilde_christoffel_check(tm).passed
    assert not tilde_inverse_check(tm).passed


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 8), _LAMBDA)
def test_stated_inverse_holds_exactly_for_real_lambda(seed, which, lam):
    """With X the stated inverse, (gtilde X)[0][0] is
    1 - k.w + (lambar / lam) k.w, k.w = k^T ginv k > 0, so the product is
    the identity exactly when lambda is real: a purely imaginary lambda
    (lambar / lam = -1) fails too."""
    tm = _suite_or_random_metric(seed, which, lam)
    assert tilde_inverse_check(tm).passed == (tm.lam.im == 0)


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 8), _LAMBDA)
def test_inverse_check_matches_complex_reference(seed, which, lam):
    """B C = 4 F Delta I on ints and the reality of lambda against the
    `Complex` product of the printed rows: that product is the identity
    exactly when the check passes."""
    tm = _suite_or_random_metric(seed, which, lam)
    assert tilde_inverse_check(tm).passed == reference_inverse_check(tm)


def _broken_stated(tm):
    """C with one published term broken at a time: a^T A a dropped from the
    fibre entry, the 2F A a row (and column) halved, -4F^2 A negated."""
    rows, delta = tm.stated.rows(), tm.ij.delta
    dropped = [[delta if x == y == 0 else v for y, v in enumerate(r)]
               for x, r in enumerate(rows)]
    halved = [[v // 2 if (x == 0) != (y == 0) else v for y, v in enumerate(r)]
              for x, r in enumerate(rows)]
    flipped = [[-v if x and y else v for y, v in enumerate(r)]
               for x, r in enumerate(rows)]
    return [SymMatrix.from_rows(m) for m in (dropped, halved, flipped)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=10)
@given(seed=st.integers(0, 10**6), lam=_REAL_LAMBDA)
def test_inverse_check_reads_every_term_of_the_stated_inverse(n, seed, lam):
    # at real lambda the intact C passes both checks, so a check that
    # ignored C would pass each broken one too; the connection check reads
    # base through C, decided together with B C = 4 F Delta I
    tm = _suite_or_random_metric(seed, n + 4, lam)
    assert tilde_inverse_check(tm).passed
    assert tilde_christoffel_check(tm).passed
    for stated in _broken_stated(tm):
        assert stated != tm.stated
        broken = tm._replace(stated=stated)
        assert not tilde_inverse_check(broken).passed
        assert not tilde_christoffel_check(broken).passed


@SETTINGS
@given(st.integers(0, 10**6), st.integers(0, 8))
def test_stated_inverse_is_the_scaled_adjugate_of_the_bordered_hessian(
        seed, which):
    """B C = 4 F Delta I, C = (-1)^n F^n adj B and
    F^(n-1) det B = 4 (-1)^n Delta: the published inverse and the matrix
    the connection check inverts are one."""
    tm = _suite_or_random_metric(seed, which, F(1))
    n, big_f, delta = tm.n, tm.ij.point.F, tm.ij.delta
    b, c = tm.bordered.rows(), tm.stated.rows()
    assert [[sum(map(mul, r, col)) for col in c] for r in b] == [
        [4 * big_f * delta * (x == y) for y in range(n + 1)]
        for x in range(n + 1)]
    det_b, adj_b = det_adjugate(tm.bordered)
    assert tm.stated == adj_b.scale((-big_f) ** n)
    assert big_f ** (n - 1) * det_b == 4 * (-1) ** n * delta
    # C's fibre row, which the builder writes as (-2 Delta, 2 Delta z), is
    # the published (Delta - a^T A a, 2F A a) of the jet
    a, adj = tm.ij.point.a, tm.ij.adj.rows()
    adj_a = [sum(map(mul, r, a)) for r in adj]
    assert c[0] == [delta - sum(map(mul, a, adj_a))] + [
        2 * big_f * v for v in adj_a]


@SETTINGS
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_bordered_hessian_has_the_inertia_of_gtilde(seed, n):
    _, tm = _tilde_metric(seed, n)
    assert inertia(tm.bordered) == hermitian_inertia(tm.gtilde) == (1, n, 0)


def test_fibre_checks_make_no_inverse(monkeypatch):
    tm = build_tilde_metric(parse_text("y1*y2*y3 + y4^3", 4),
                            [Complex(F(1), F(2)), Complex(F(0), F(2)),
                             Complex(F(-1, 2), F(2)), Complex(F(0), F(-1))],
                            Complex(F(2), F(1, 3)))
    # det_adjugate is the package's one inverse: both checks read C, the
    # stated inverse, instead of making one
    adjugated = []

    def det_adjugate(m):
        adjugated.append(m)
        return kahlercone.linalg.det_adjugate(m)

    monkeypatch.setattr(kahlercone.special, "det_adjugate", det_adjugate)
    assert tilde_christoffel_check(tm).passed
    assert not tilde_inverse_check(tm).passed
    assert adjugated == []


def test_christoffel_check_makes_few_complex_products(monkeypatch):
    # the check decides on integers: no comparison multiplies a Complex
    n = 4
    tm = build_tilde_metric(parse_text("y1*y2*y3 + y4^3", n),
                            [Complex(F(1), F(2)), Complex(F(-1, 2), F(2)),
                             Complex(F(2), F(2)), Complex(F(1, 3), F(-1))],
                            Complex(F(3, 2), F(1, 3)))
    calls = {"mul": 0}
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Complex, name,
                            counting(calls, "mul", getattr(Complex, name)))
    tilde_christoffel_check(tm)
    assert calls["mul"] == 0


@SETTINGS
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_integer_christoffels_match_fraction_raise_index(seed, n):
    found = _interior_point(seed, n)
    assume(found is not None)
    form, y = found
    ij = _integer_jet(form, y)
    jet = ij.jet()
    want = [[[Complex(F(0), -v / 2) for v in row] for row in u.rows()]
            for u in raise_index(jet.dg, jet.ginv)]
    packed = ij.christoffels()
    assert all(type(m) is SymMatrix for m in packed)
    assert [m.rows() for m in packed] == want
    assert christoffels(form, y) == want
    assert curvature_report(form, y).christoffel == packed


def test_each_curvature_side_builds_only_itself(monkeypatch, capsys):
    calls = dict.fromkeys(["contract", "jet"], 0)
    monkeypatch.setattr(kahlercone.geometry, "contract", counting(
        calls, "contract", kahlercone.geometry.contract))
    monkeypatch.setattr(kahlercone.geometry._IntegerJet, "jet", counting(
        calls, "jet", kahlercone.geometry._IntegerJet.jet))
    form = parse_text("y1*y2*y3 + y4^3", 4)
    y = [F(2), F(2), F(2), F(-1)]
    rep = curvature_report(form, y)
    assert calls == {"contract": 2, "jet": 0}
    for side, want in ((curvature_lhs, rep.lhs), (curvature_rhs, rep.rhs)):
        calls.update(dict.fromkeys(calls, 0))
        assert side(form, y) == want
        assert calls == {"contract": 1, "jet": 0}
    # the other readers of the integer jet build no Fraction jet either
    calls.update(dict.fromkeys(calls, 0))
    point = "2,2,2,-1"
    for argv in (["metric", "--points", point],
                 ["metric", "--points", point, "--mode", "float"],
                 ["affine-verify", "--points", point],
                 ["cone-metric", "--points", point, "--lam", "3/2"]):
        assert main(argv + ["--form", "y1*y2*y3 + y4^3"]) == 0
    capsys.readouterr()
    sectional(form, y, [F(1), F(0), F(-1, 2), F(3)])
    assert calls["jet"] == 0


def test_sampler_stops_when_the_grid_runs_out(monkeypatch):
    # y1^3 has 166 distinct nonzero grid values, 83 of them positive; an
    # attempt at n = 1 draws one coordinate, a row of the grid table and a
    # pair in it
    calls = {"draws": 0}
    monkeypatch.setattr(random.Random, "choice", counting(
        calls, "draws", random.Random.choice))
    form = parse_text("y1^3", 1)
    with pytest.raises(SamplingExhausted, match="among 166 distinct "
                       "candidates in 100000 attempts; that is all the grid"
                       ) as info:
        cone_sample(form, 200, seed=3)
    assert 166 < calls["draws"] // 2 < 100_000 // 20
    assert str(info.value).endswith(f"within {calls['draws'] // 2} attempts")
    # the draws before the stop are unchanged: all 83 interior values, in
    # the order of the Fraction oracle's draws
    points = cone_sample(form, 83, seed=3)
    assert points == reference_cone_sample(form, 83, seed=3)
    assert sorted(y for (y,) in points) == sorted(
        F(p, q) for p in range(1, 17) for q in range(1, 9)
        if F(p, q).denominator == q)
