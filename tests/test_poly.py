"""Sparse polynomial ring operations."""

import random
from fractions import Fraction as F

import pytest

from kahlercone import Complex, DimensionMismatch
from kahlercone.poly import Poly


def test_arith_and_pruning():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()


def test_diff():
    x = Poly.variable(1, 0)
    cube = x * x * x
    assert cube.diff(0) == 3 * (x * x)
    assert cube.diff(0).diff(0).diff(0) == Poly.const(1, F(6))
    assert cube.diff(0).diff(0).diff(0).diff(0).is_zero()


def test_compose_linear_substitution():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x * y
    # substitute x -> 2u, y -> u + v
    u = Poly.variable(2, 0)
    v = Poly.variable(2, 1)
    q = p.compose([2 * u, u + v])
    assert q == 4 * (u * u * u) + 4 * (u * u * v)


def test_conj_conjugates_complex_coefficients():
    i = Complex(F(0), F(1))
    p = i * Poly.variable(1, 0)
    assert p.conj() == -i * Poly.variable(1, 0)


def test_evaluate_matches_expansion():
    rng = random.Random(5)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = 3 * x * x * y - F(1, 2) * y * y * y + x
    for _ in range(20):
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        b = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert p.evaluate([a, b]) == 3 * a * a * b - F(1, 2) * b**3 + a


def test_dimension_guards():
    with pytest.raises(DimensionMismatch):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(DimensionMismatch):
        Poly.variable(2, 0).evaluate([F(1)])


def test_compose_agrees_with_evaluate_on_complex_coefficients():
    """p(r_1, ..., r_n) evaluated at v is p evaluated at the values r_i(v),
    for replacements r_i with Gaussian-rational coefficients."""
    rng = random.Random(8)

    def rand():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = 3 * x * x * y - F(1, 2) * y * y * y + x + 2
    for _ in range(10):
        reps = [Complex(rand(), rand()) * x + Complex(rand(), rand()) * y
                + rand() for _ in range(2)]
        v = [Complex(rand(), rand()), rand()]
        assert p.compose(reps).evaluate(v) == \
            p.evaluate([r.evaluate(v) for r in reps])
    assert Poly.zero(2).compose([x, y]) == Poly.zero(2)
