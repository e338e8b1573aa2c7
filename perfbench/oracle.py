"""Independent exact oracles the benchmark checks the program's answers with.

Nothing here imports kahlercone. Forms are plain monomial maps
{exponent tuple: rational coefficient}; matrices are lists of rows of
rationals (of integers for `charpoly`).
"""

from __future__ import annotations

import math
from fractions import Fraction


def evaluate(monomials, y):
    """f(y) for a polynomial given as {exponents: coefficient}."""
    total = Fraction(0)
    for exp, coeff in monomials.items():
        term = Fraction(coeff)
        for v, e in zip(y, exp):
            term *= Fraction(v) ** e
        total += term
    return total


def hessian(monomials, y):
    """Matrix of second partials of the polynomial at y."""
    n = len(y)
    y = [Fraction(v) for v in y]
    h = [[Fraction(0)] * n for _ in range(n)]
    for exp, coeff in monomials.items():
        for i in range(n):
            for j in range(i, n):
                e = list(exp)
                factor = e[i]
                e[i] -= 1
                factor *= e[j]
                e[j] -= 1
                if factor == 0:
                    continue
                term = Fraction(coeff) * factor
                for v, k in zip(y, e):
                    term *= v ** k
                h[i][j] += term
                if i != j:
                    h[j][i] += term
    return h


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def solve(a, b):
    """x with a x = b for an invertible rational matrix a (Gauss-Jordan)."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(b[i])]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                q = m[r][c] / m[c][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def charpoly(m):
    """Coefficients c[0..n] of det(x I - m) = sum c[k] x^k, for an integer m.

    Faddeev-LeVerrier recursion: M_1 = m, c[n-1] = -tr(M_1),
    M_k = m (M_{k-1} + c[n-k+1] I), c[n-k] = -tr(M_k) / k. For an integer
    matrix every M_k is integer and each division by k is exact.
    """
    n = len(m)
    c = [0] * (n + 1)
    c[n] = 1
    acc = [row[:] for row in m]
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[acc[i][j] + (c[n - k + 1] if i == j else 0)
                        for j in range(n)] for i in range(n)]
            acc = mat_mul(m, shifted)
        trace, rem = divmod(-sum(acc[i][i] for i in range(n)), k)
        if rem:
            raise ValueError("charpoly needs an integer matrix")
        c[n - k] = trace
    return c


def _sign_changes(coeffs):
    signs = [x > 0 for x in coeffs if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def inertia(m):
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix.

    All roots of the characteristic polynomial of a real symmetric matrix
    are real, so Descartes' rule of signs counts the positive roots exactly,
    and the same rule on p(-x) counts the negative ones. The multiplicity of
    the root 0 is the number of vanishing low-order coefficients. The
    matrix is first scaled by a positive integer to clear denominators,
    which leaves the inertia unchanged.
    """
    den = math.lcm(*(Fraction(v).denominator for row in m for v in row))
    c = charpoly([[int(Fraction(v) * den) for v in row] for row in m])
    zero = next(k for k, v in enumerate(c) if v != 0)
    plus = _sign_changes(c)
    minus = _sign_changes([v if k % 2 == 0 else -v for k, v in enumerate(c)])
    return plus, minus, zero


def classify(monomials, y):
    """Index-cone verdict of an exact point, as the README defines it.

    Interior: f > 0 and Hess f has one positive and n-1 negative
    eigenvalues. Boundary: f = 0 or Hess f singular, with nothing that
    contradicts the interior pattern. Outside: everything else.
    """
    n = len(y)
    fval = evaluate(monomials, y)
    plus, minus, zero = inertia(hessian(monomials, y))
    if fval > 0 and (plus, minus, zero) == (1, n - 1, 0):
        return "Interior"
    if (fval == 0 or zero > 0) and fval >= 0 and plus <= 1 and minus <= n - 1:
        return "Boundary"
    return "Outside"
