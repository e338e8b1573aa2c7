"""Property tests of the metric jet under scaling and GL(n, Z) changes of
variables, at sampled interior points of y1*y2*y3 + y4^3, of the text
and JSON round trips of random cubic forms, and of the parser against the
cursor-class oracle `_reference.reference_parse_text`."""

import itertools
import re
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercone import (CubicForm, KahlerConeError, cone_sample,
                        kahler_metric, parse_text, verify_identity)

from _reference import reference_parse_text
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


# form text of three kinds: the grammar's tokens (written with leading
# zeros or a non-ASCII digit, out of range and as y0 too), whitespace and
# characters outside the grammar in any order, at any n; text the grammar
# derives, mostly of degree 3, at n = 3; and that text with one piece
# inserted
_PIECES = ["y0", "y1", "y2", "y3", "y4", "y12", "y01", "0", "1", "2", "3",
           "10", "07", "\u0663", "/", "*", "^", "+", "-", " ", "  ",
           "\t\u00a0", "@", "x", "."]
_terms = st.builds(
    lambda coeff, product: "*".join(coeff + [product]),
    st.sampled_from([[], [], [], ["2"], ["1/2"], ["5/3"], ["0"], ["4/0"]]),
    st.sampled_from(["y1^3", "y1*y2*y3", "y2^2*y3", "y1*y1 * y2", "y3^03",
                     "y2 * y3^2", "y1^2", "y1*y2*y3*y1"]))
_grammar_texts = st.builds(
    lambda lead, first, rest: lead + first + "".join(s + t for s, t in rest),
    st.sampled_from(["", "-", "+ "]), _terms,
    st.lists(st.tuples(st.sampled_from([" + ", "-", " - "]), _terms),
             max_size=2))
_mutated_texts = st.builds(lambda text, i, piece: text[:i] + piece + text[i:],
                           _grammar_texts, st.integers(0, 30),
                           st.sampled_from(_PIECES))
parser_inputs = st.one_of(
    st.tuples(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
              st.integers(1, 4)),
    st.tuples(st.one_of(_grammar_texts, _mutated_texts), st.just(3)))


def _parse_outcome(parse, src, n):
    """The monomials of src, or the error's type, position and message with
    the name of the offending token, or variable, left out."""
    try:
        return parse(src, n).monomials
    except KahlerConeError as exc:
        message = re.sub(r", got .* \(at position", ", got _ (at position",
                         str(exc))
        message = re.sub(r"^variable \S+ out", "variable _ out", message)
        return type(exc), getattr(exc, "position", None), message


@settings(max_examples=400)
@given(parser_inputs)
def test_parser_matches_cursor_class_oracle(text_and_n):
    src, n = text_and_n
    assert _parse_outcome(parse_text, src, n) == \
        _parse_outcome(reference_parse_text, src, n)
