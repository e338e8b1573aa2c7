"""The integer jet against its oracles: `kahler_metric` and both curvature
sides of `curvature_report` entry by entry against `_reference.reference_jet`
and `dense_sides`, which share no code with the integer kernel; the work
one exact verify point does."""

import itertools
import random
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kahlercone.cubic
import kahlercone.geometry
import kahlercone.linalg
from kahlercone import (SamplingExhausted, cone_sample, curvature_report,
                        kahler_metric, parse_text, verify_identity)
from kahlercone.geometry import _integer_jet

from _reference import dense_sides, reference_jet
from _util import counting, random_cubic


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 4),
       st.sampled_from(["standard", "negated"]))
def test_exact_jet_and_sides_match_fraction_oracles(seed, n, convention):
    rng = random.Random(seed)
    form = random_cubic(rng, n, num_bound=5, den_bound=6)
    try:
        (y,) = cone_sample(form, 1, seed=seed, budget=500)
    except SamplingExhausted:
        assume(False)
    fval, g, dg, d2g, ginv = reference_jet(form, y)
    jet = kahler_metric(form, y)
    assert _integer_jet(form, y).point.f == fval
    for idx in itertools.product(range(n), repeat=2):
        assert (jet.g[idx], jet.ginv[idx]) == (g[idx], ginv[idx])
    for idx in itertools.product(range(n), repeat=3):
        assert jet.dg[idx] == dg[idx]
    lhs, rhs = dense_sides(form, y)
    sign = -1 if convention == "negated" else 1
    rep = curvature_report(form, y, convention=convention)
    for idx in itertools.product(range(n), repeat=4):
        assert jet.d2g[idx] == d2g[idx]
        assert rep.lhs[idx] == sign * lhs[idx]
        assert rep.rhs[idx] == rhs[idx]
        assert rep.residual[idx] == sign * lhs[idx] - rhs[idx]
    assert rep.max_abs_residual == max(abs(sign * lhs[idx] - rhs[idx])
                                       for idx in lhs)


def test_exact_verify_point_work(monkeypatch):
    """One exact point: one evaluation of the cubic, one adjugate (of M)
    and the two integer contractions Dg.A.Dg and t.A.t."""
    calls = dict.fromkeys(["_classify", "det_adjugate", "contract"], 0)
    classify = counting(calls, "_classify", kahlercone.cubic._classify)
    monkeypatch.setattr(kahlercone.cubic, "_classify", classify)
    monkeypatch.setattr(kahlercone.geometry, "_classify", classify)
    for name in ("det_adjugate", "contract"):
        wrapped = counting(calls, name, getattr(kahlercone.linalg, name))
        monkeypatch.setattr(kahlercone.linalg, name, wrapped)
        monkeypatch.setattr(kahlercone.geometry, name, wrapped)
    form = parse_text("y1*y2*y3 + y4^3 + y5^3", 5)
    points = cone_sample(form, 3, seed=11,
                         hint=(F(2), F(2), F(2), F(-1), F(-1)))
    for y in points:
        calls.update(dict.fromkeys(calls, 0))
        assert verify_identity(form, [y]).overall == "PASS"
        assert calls == {"_classify": 1, "det_adjugate": 1, "contract": 2}
