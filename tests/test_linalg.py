"""Exact kernel: inertia, the adjugate, contraction, and their invariants;
the contract the three packed containers share; and the inversion oracles
of `_reference` (`invert`, `invert_rows`, `hermitian_inertia`) that the
kernel is checked against."""

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from kahlercone import (Complex, CubicForm, CurvTensor, DimensionMismatch,
                        Sym3Tensor, SymMatrix, contract, inertia, parse_text)
from kahlercone.linalg import _charpoly, _layout, det_adjugate

from _reference import (SingularMatrix, hermitian_inertia, identity_rows,
                        invert, invert_rows, mat_mul)
from _util import random_invertible, random_symmetric


def test_inertia_positive_scalar():
    assert inertia(SymMatrix.from_rows([[F(6)]])) == (1, 0, 0)


def test_inertia_zero_matrix():
    assert inertia(SymMatrix.zeros(3)) == (0, 0, 3)


def test_inertia_product_hessian():
    # Hess(y1 y2 y3) at (1,1,1); eigenvalues are 2, -1, -1
    m = SymMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert inertia(m) == (1, 2, 0)
    eigs = sympy.Matrix(m.rows()).eigenvals()
    assert eigs == {sympy.Integer(2): 1, sympy.Integer(-1): 2}


def test_inertia_rejects_floats():
    m = SymMatrix.from_rows([[1.0]])
    with pytest.raises(TypeError):
        inertia(m)


def test_inertia_matches_sturm_count_on_random_matrices():
    # oracle: exact real-root counting (Sturm) on the characteristic polynomial
    lam = sympy.Symbol("lam")
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = random_symmetric(rng, n)
        got = inertia(SymMatrix.from_rows(rows))
        poly = sympy.Poly(sympy.Matrix(rows).charpoly(lam).as_expr(), lam)
        zero = poly.monoms()[-1][0]  # multiplicity of the root at 0
        reduced = sympy.Poly(sympy.cancel(poly.as_expr() / lam**zero), lam)
        plus = reduced.count_roots(0, sympy.oo)
        minus = reduced.count_roots(-sympy.oo, 0)
        assert got == (plus, minus, zero)


def congruence(p_rows, m: SymMatrix) -> SymMatrix:
    """P M P^T for a square P given as rows."""
    pm = mat_mul(p_rows, m.rows())
    pt = [[p_rows[j][i] for j in range(len(p_rows))] for i in range(len(p_rows))]
    return SymMatrix.from_rows(mat_mul(pm, pt))


def test_sylvester_invariance_under_congruence():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = SymMatrix.from_rows(random_symmetric(rng, n))
        p = random_invertible(rng, n)
        assert inertia(congruence(p, m)) == inertia(m)


def test_invert_identity():
    m = SymMatrix.from_rows(identity_rows(3))
    assert invert(m) == m


def test_invert_diagonal():
    m = SymMatrix.from_rows([[F(1, 4), 0], [0, F(1, 2)]])
    assert invert(m).rows() == [[F(4), F(0)], [F(0), F(2)]]


def test_invert_hand_adjugate():
    m = SymMatrix.from_rows([[F(0), F(2)], [F(2), F(2)]])
    assert invert(m).rows() == [[F(-1, 2), F(1, 2)], [F(1, 2), F(0)]]
    # int entries are exact: the inverse is in Fractions, not floats
    want = [[F(1, 2), F(-1, 2)], [F(-1, 2), F(3, 2)]]
    for inv in (invert_rows([[3, 1], [1, 1]]),
                invert(SymMatrix(2, [3, 1, 1])).rows()):
        assert inv == want
        assert all(type(v) is F for row in inv for v in row)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(SymMatrix.from_rows([[1, 2], [2, 4]]))


def test_invert_roundtrip_is_identity():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = random_invertible(rng, n)
        inv = invert_rows(rows)
        assert mat_mul(rows, inv) == [[F(int(i == j)) for j in range(n)]
                                      for i in range(n)]
        assert invert_rows(inv) == [list(map(F, r)) for r in rows]


def test_invert_complex_rows():
    i = Complex(F(0), F(1))
    rows = [[Complex(F(2)), i], [-i, Complex(F(1))]]
    inv = invert_rows(rows)
    prod = mat_mul(rows, inv)
    for r in range(2):
        for c in range(2):
            assert prod[r][c] == (1 if r == c else 0)
    # the same matrix with int parts: the inverse is exact
    int_rows = [[Complex(2), Complex(0, 1)], [Complex(0, -1), Complex(1)]]
    inv = invert_rows(int_rows)
    assert inv == [[Complex(F(1)), -i], [i, Complex(F(2))]]
    assert all(type(z.re) is F and type(z.im) is F for row in inv for z in row)


def _random_int_symmetric(rng, n, bound=9):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


def _random_int_symmetric_of_rank(rng, n, rank):
    """P^T D P for a random int P and a diagonal D of `rank` nonzero entries:
    symmetric of rank at most `rank`, exactly `rank` when P is invertible."""
    p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    d = [rng.choice((-2, -1, 1, 2)) if i < rank else 0 for i in range(n)]
    return [[sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_charpoly_matches_sympy():
    lam = sympy.Symbol("lam")
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 8)
        rows = _random_int_symmetric(rng, n)
        want = sympy.Matrix(rows).charpoly(lam).all_coeffs()[::-1]
        assert _charpoly(SymMatrix.from_rows(rows))[0] == want


def test_det_adjugate_matches_inverse_and_numpy_det():
    rng = random.Random(71)
    signs = set()
    for trial in range(160):
        n = rng.randint(1, 8)
        rows = _random_int_symmetric(rng, n)
        if trial % 2:
            rows[0][0] = 0      # where an elimination would have to pivot
        try:
            want_inv = invert_rows(rows)
        except SingularMatrix:
            continue
        delta, adj = det_adjugate(SymMatrix.from_rows(rows))
        assert type(delta) is int and all(type(v) is int
                                          for row in adj.rows() for v in row)
        assert [[F(v, delta) for v in row] for row in adj.rows()] == want_inv
        assert abs(delta - np.linalg.det(np.array(rows, dtype=float))) \
            <= 1e-9 * max(1, abs(delta))
        signs.add(delta > 0)
    assert signs == {True, False}


def test_det_adjugate_matches_sympy_at_every_rank():
    # full rank, rank n-1 (det 0, adj of rank 1) and rank <= n-2 (adj 0)
    rng = random.Random(83)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 8)
        rank = rng.choice((n, n - 1, rng.randint(0, max(0, n - 2))))
        rows = _random_int_symmetric_of_rank(rng, n, rank)
        want = sympy.Matrix(rows)
        delta, adj = det_adjugate(SymMatrix.from_rows(rows))
        assert delta == want.det()
        assert adj.rows() == want.adjugate().tolist()
        real_rank = want.rank()
        assert (delta == 0) == (real_rank < n)
        assert any(map(any, adj.rows())) == (real_rank >= n - 1)
        seen.add(min(n - real_rank, 2))
    assert seen == {0, 1, 2}


def test_det_adjugate_swap_gives_negative_det():
    # the transposition [[0, 1], [1, 0]]: det = -1, adj = [[0, -1], [-1, 0]]
    assert det_adjugate(SymMatrix(2, [0, 1, 0])) == \
        (-1, SymMatrix.from_rows([[0, -1], [-1, 0]]))
    rows = [[0, 2, 1], [2, 1, 4], [1, 4, 9]]
    delta, adj = det_adjugate(SymMatrix.from_rows(rows))
    assert delta == sympy.Matrix(rows).det() == -21
    assert adj.rows() == sympy.Matrix(rows).adjugate().tolist()


def test_det_adjugate_singular_gives_det_zero_and_bad_input_raises():
    # rank 1 of 2, and rank 2 of 3: det 0 and the nonzero adjugate
    assert det_adjugate(SymMatrix.from_rows([[1, 2], [2, 4]])) == \
        (0, SymMatrix.from_rows([[4, -2], [-2, 1]]))
    rows = [[0, 0, 1], [0, 0, 2], [1, 2, 3]]
    assert det_adjugate(SymMatrix.from_rows(rows)) == \
        (0, SymMatrix.from_rows([[-4, 2, 0], [2, -1, 0], [0, 0, 0]]))
    assert det_adjugate(SymMatrix(3, [0] * 6)) == (0, SymMatrix(3, [0] * 6))
    with pytest.raises(TypeError):
        det_adjugate(SymMatrix(1, [F(1, 2)]))


def test_contract_scalar_case():
    t = Sym3Tensor(1, [F(6)])
    minv = SymMatrix(1, [F(4, 3)])
    out = contract(t, minv)
    assert out[0, 0, 0, 0] == 48


def test_contract_zero():
    t = Sym3Tensor.zeros(2)
    out = contract(t, SymMatrix.from_rows(identity_rows(2)))
    assert all(v == 0 for v in out.entries())


def test_contract_mixed_entry():
    # f = y1 y2^2: nonzero third partials f[0,1,1] = 2
    t = Sym3Tensor.zeros(2)
    t[0, 1, 1] = F(2)
    minv = SymMatrix.from_rows([[F(4), 0], [0, F(2)]])
    out = contract(t, minv)
    assert out[0, 0, 1, 1] == 8


def test_contract_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        contract(Sym3Tensor.zeros(3), SymMatrix.zeros(2))


def test_contract_output_has_pair_symmetries():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        t = Sym3Tensor.build(n, lambda i, j, k: F(rng.randint(-4, 4),
                                                  rng.randint(1, 3)))
        m = SymMatrix.from_rows(random_symmetric(rng, n))
        r = contract(t, m)
        # the defining double sum, entry by entry
        for i, j, k, l in itertools.product(range(n), repeat=4):
            assert r[i, j, k, l] == sum(m[p, q] * t[i, k, p] * t[j, l, q]
                                        for p in range(n) for q in range(n))


def test_symmetric_containers_sort_indices():
    m = SymMatrix.zeros(3)
    m[2, 0] = F(5)
    assert m[0, 2] == 5
    t = Sym3Tensor.zeros(3)
    t[2, 0, 1] = F(7)
    assert t[0, 1, 2] == 7 and t[1, 2, 0] == 7
    # one slot per orbit of the curvature pair symmetries
    r = CurvTensor(3)
    assert len(r.entries()) == 21      # P(P+1)/2, P = 6 index pairs
    r[2, 0, 1, 2] = F(9)
    images = {(2, 0, 1, 2), (1, 0, 2, 2), (2, 2, 1, 0), (1, 2, 2, 0),
              (0, 2, 2, 1), (2, 2, 0, 1), (0, 1, 2, 2), (2, 1, 0, 2)}
    assert all(r[idx] == 9 for idx in images)
    others = set(itertools.product(range(3), repeat=4)) - images
    assert all(r[idx] == 0 for idx in others)


def _permuted(idx):
    return set(itertools.permutations(idx))


def _curvature_orbit(idx):
    """The images of (i, j, k, l) under the pair symmetries."""
    orbit, todo = set(), [idx]
    while todo:
        i, j, k, l = todo.pop()
        if (i, j, k, l) not in orbit:
            orbit.add((i, j, k, l))
            todo += [(k, j, i, l), (i, l, k, j), (j, i, l, k)]
    return orbit


# (class, rank, the `_layout` field of its orbits, the orbit of an index)
CONTAINERS = [(SymMatrix, 2, "pairs", _permuted),
              (Sym3Tensor, 3, "triples", _permuted),
              (CurvTensor, 4, "quartets", _curvature_orbit)]


@pytest.mark.parametrize("cls, rank, field, orbit_of", CONTAINERS,
                         ids=[c[0].__name__ for c in CONTAINERS])
def test_container_contract(cls, rank, field, orbit_of):
    for n in range(1, 5):
        orbits = {frozenset(orbit_of(idx))
                  for idx in itertools.product(range(n), repeat=rank)}
        size = len(orbits)
        for bad in (size - 1, size + 1):
            with pytest.raises(DimensionMismatch):
                cls(n, [0] * bad)
        zero = cls.zeros(n)
        assert len(zero._data) == size and not any(zero._data)
        calls = []

        def fn(*idx):
            calls.append(idx)
            return F(len(calls), 7)

        x = cls.build(n, fn)
        assert calls == list(getattr(_layout(n), field))
        stored = {frozenset(orbit_of(idx)): F(pos + 1, 7)
                  for pos, idx in enumerate(calls)}
        assert set(stored) == orbits and len(calls) == size
        for idx in itertools.product(range(n), repeat=rank):
            assert x[idx] == stored[frozenset(orbit_of(idx))]
        doubled = x.scale(2)
        assert type(doubled) is cls
        assert doubled == cls(n, [2 * v for v in x._data]) != x
        assert x == cls(n, x._data)
    # sizing is closed-form: no container constructor builds a `_layout`
    _layout.cache_clear()
    cls(32, [0] * len(cls.zeros(32)._data))
    assert _layout.cache_info().currsize == 0


def test_containers_of_different_kinds_differ():
    kinds = [SymMatrix(1, [F(5)]), Sym3Tensor(1, [F(5)]),
             CurvTensor(1, [F(5)])]
    for a, b in itertools.combinations(kinds, 2):
        assert a != b and b != a


def test_hermitian_inertia_basics():
    i = Complex(F(0), F(1))
    rows = [[Complex(F(2)), i], [-i, Complex(F(-3))]]
    # eigenvalues of [[2, i], [-i, -3]]: det = -6 - 1 < 0, one of each sign
    assert hermitian_inertia(rows) == (1, 1, 0)
    with pytest.raises(ValueError):
        hermitian_inertia([[Complex(F(0)), i], [i, Complex(F(0))]])


def test_curvtensor_subtraction_and_max_abs():
    a = CurvTensor(2)
    a[0, 0, 0, 0] = F(3, 4)
    b = CurvTensor(2)
    b[0, 0, 0, 0] = F(1, 4)
    d = a - b
    assert d[0, 0, 0, 0] == F(1, 2)
    assert d.max_abs() == F(1, 2)


@pytest.mark.parametrize("call, expected", [
    (lambda: SymMatrix.from_rows([[1, 2], [2]]),
     (DimensionMismatch, "ragged rows")),
    (lambda: SymMatrix.from_rows([[1, 2], [3, 4]]),
     (ValueError, r"entries \(0,1\) and \(1,0\) differ")),
    (lambda: CurvTensor(2) - CurvTensor(3),
     (DimensionMismatch, "tensor dimensions differ")),
    (lambda: parse_text("y1*y2^2", 2).pullback([[1, 0], [0, 1], [1, 1]]),
     (DimensionMismatch, "matrix shape does not match the form")),
    (lambda: parse_text("y1*y2^2", 2).pullback([[1, 0], [0, 1, 1]]),
     (DimensionMismatch, "matrix shape does not match the form")),
    (lambda: CubicForm(2, {}).to_text(), "0"),
    (lambda: repr(CubicForm(2, {(1, 2): 0})), "CubicForm(2, '0')"),
    (lambda: Complex.of("x"), (TypeError, "cannot build Complex from str")),
], ids=["ragged-rows", "asymmetric-rows", "curvtensor-dimensions",
        "pullback-non-square", "pullback-ragged", "zero-form-text",
        "zero-form-repr", "complex-of-str"])
def test_rarely_reached_guards(call, expected):
    # malformed containers, forms and scalars are refused with a message,
    # and the zero form prints as "0"
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error, match=message):
            call()
    else:
        assert call() == expected
