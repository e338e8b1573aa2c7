"""Reference oracles for the integer membership kernel, over `Fraction`.

`reference_inertia` is symmetric Gaussian elimination over the rationals
with the same 1x1/2x2 pivot rule as `linalg.inertia`: each step replaces
the trailing block by its Schur complement, a congruence, so the signs of
the pivot blocks give the inertia. `reference_membership` decides index-cone
membership from the `Fraction` value of f and the inertia of Hess f.
"""

from fractions import Fraction

from kahlercone import Membership


def reference_inertia(rows):
    """(n_plus, n_minus, n_zero) of a rational symmetric matrix, as rows."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    plus = minus = zero = 0
    k = 0
    while k < n:
        piv, best = -1, Fraction(0)
        for i in range(k, n):
            if abs(a[i][i]) > best:
                piv, best = i, abs(a[i][i])
        if piv >= 0:
            _sym_swap(a, k, piv)
            d = a[k][k]
            plus, minus = (plus + 1, minus) if d > 0 else (plus, minus + 1)
            col = [a[r][k] for r in range(n)]
            for r in range(k + 1, n):
                for s in range(r, n):
                    a[r][s] -= col[r] * col[s] / d
                    a[s][r] = a[r][s]
            k += 1
            continue
        off = None
        for i in range(k, n):
            for j in range(i + 1, n):
                if a[i][j] != 0:
                    off = (i, j)
                    break
            if off:
                break
        if off is None:
            zero += n - k
            break
        _sym_swap(a, k, off[0])
        _sym_swap(a, k + 1, off[1])
        b = a[k][k + 1]
        plus += 1
        minus += 1
        u = [a[r][k] for r in range(n)]
        v = [a[r][k + 1] for r in range(n)]
        for r in range(k + 2, n):
            for s in range(r, n):
                a[r][s] -= (v[r] * u[s] + u[r] * v[s]) / b
                a[s][r] = a[r][s]
        k += 2
    return plus, minus, zero


def _sym_swap(a, i, j):
    if i == j:
        return
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def reference_membership(form, y):
    """The verdict of `cone_contains`, from Fraction f(y) and Hess f(y)."""
    y = [Fraction(v) for v in y]
    fval = form.evaluate(y)
    plus, minus, zero = reference_inertia(form.hessian(y).rows())
    n = form.n
    if fval > 0 and (plus, minus, zero) == (1, n - 1, 0):
        return Membership.INTERIOR
    degenerate = fval == 0 or zero > 0
    compatible = fval >= 0 and plus <= 1 and minus <= n - 1
    if degenerate and compatible:
        return Membership.BOUNDARY
    return Membership.OUTSIDE
