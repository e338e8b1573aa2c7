"""Property tests of the metric jet under scaling and GL(n, Z) changes of
variables, at sampled interior points of y1*y2*y3 + y4^3, and of the text
and JSON round trips of random cubic forms."""

import itertools
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercone import (CubicForm, cone_sample, kahler_metric, parse_text,
                        verify_identity)

from _util import mat_vec

FORM = parse_text("y1*y2*y3 + y4^3", 4)
HINT = (F(2), F(2), F(2), F(-1))
N = FORM.n

PROPERTY_SETTINGS = settings(max_examples=8)

interior_points = st.integers(0, 10**6).map(
    lambda seed: cone_sample(FORM, 1, seed=seed, hint=HINT)[0])
positive_rationals = st.builds(F, st.integers(1, 30), st.integers(1, 30))
# a row operation "add k times row j to row i", i != j
row_operations = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1),
                           st.integers(-3, 3)).filter(lambda op: op[0] != op[1])
nonzero_rationals = st.builds(F, st.integers(-30, 30).filter(bool),
                              st.integers(1, 30))


def _cubic_forms(n):
    exponents = [e for e in itertools.product(range(4), repeat=n)
                 if sum(e) == 3]
    return st.dictionaries(st.sampled_from(exponents), nonzero_rationals,
                           min_size=1).map(lambda monos: CubicForm(n, monos))


cubic_forms = st.integers(1, 4).flatmap(_cubic_forms)


def _unimodular(ops):
    """A = E_1 ... E_m of elementary matrices and its inverse, both integer."""
    a = [[F(int(r == c)) for c in range(N)] for r in range(N)]
    a_inv = [row[:] for row in a]
    for i, j, k in ops:
        for r in range(N):            # A <- A E, with E = I + k e_i e_j^T
            a[r][j] += k * a[r][i]
        a_inv[i] = [x - k * y for x, y in zip(a_inv[i], a_inv[j])]
    return a, a_inv


@PROPERTY_SETTINGS
@given(interior_points, positive_rationals)
def test_metric_has_degree_minus_two(y, c):
    g = kahler_metric(FORM, y).g
    gc = kahler_metric(FORM, [c * v for v in y]).g
    assert gc == g.scale(1 / (c * c))


@PROPERTY_SETTINGS
@given(interior_points, st.lists(row_operations, max_size=6))
def test_metric_is_covariant_under_unimodular_pullback(y, ops):
    a, a_inv = _unimodular(ops)
    z = mat_vec(a_inv, y)
    assert mat_vec(a, z) == list(y)
    g = kahler_metric(FORM, y).g.rows()
    pulled = kahler_metric(FORM.pullback(a), z).g.rows()
    want = [[sum(a[p][i] * g[p][q] * a[q][j]
                 for p in range(N) for q in range(N)) for j in range(N)]
            for i in range(N)]
    assert pulled == want


@PROPERTY_SETTINGS
@given(interior_points, positive_rationals)
def test_identity_holds_on_scaled_points(y, c):
    summary = verify_identity(FORM, [[c * v for v in y]])
    assert summary.overall == "PASS"
    assert summary.points[0].max_abs_residual == 0


@PROPERTY_SETTINGS
@given(cubic_forms)
def test_text_and_json_round_trips(form):
    assert parse_text(form.to_text(), form.n) == form
    assert CubicForm.from_json_dict(form.to_json_dict()) == form
