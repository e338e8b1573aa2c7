"""Reference oracles for the exact kernels.

`reference_inertia` is symmetric Gaussian elimination over the rationals
with 1x1/2x2 pivot blocks: each step replaces the trailing block by its
Schur complement, a congruence, so the signs of the pivot blocks give the
inertia; `linalg.inertia` reads it from the characteristic polynomial
instead, so the two share no method. `hermitian_inertia` reads the inertia of
a `Complex` hermitian matrix from its real symmetric embedding.
`invert_rows` is Gauss-Jordan elimination over any field (`Fraction`,
float or `Complex` entries), and `invert` its symmetric form: the
package's one inverse is the fraction-free `linalg.det_adjugate`, and these
are its independent oracles. `reference_evaluate` and `reference_hessian`
are f(y) and Hess f(y) = f3 . y as `CubicForm.evaluate` and `hessian`
computed them before both read the cleared integers: over the monomials as
a `Poly` and over the third-derivative tensor, in the arithmetic of y's
coordinates (binary64 for floats), the length check aside. They are the
oracle of F, H and everything read from them. `reference_membership`
decides index-cone membership from the `Fraction` value of f and the
inertia of Hess f.
`reference_cone_sample` draws the sampler's candidates as `Fraction`s and
keeps those `reference_membership` calls interior.
`gradient` is grad f = 1/2 Hess f(y) y by Euler's relation; the package
itself takes grad f from membership. `poly_derivatives` evaluates f and its
first and second partials from the polynomial and its `Poly.diff`s, with
neither the third-derivative tensor nor the integer kernel.

`reference_jet` evaluates the metric jet at every ordered index from the
closed forms in f, grad f, Hess f and f3 over `Fraction`, with all four
taken from `poly_derivatives` and `poly_third` and g inverted by
`invert_rows`: no part of the integer kernel. `dense_sides` evaluates both
curvature sides at every one of the n^4 indices from their defining sums
over that jet, with no symmetry assumed.
`reference_sectional` is the holomorphic sectional curvature as the n^4
`Complex` sum 2 R(v, vbar, v, vbar) / g(v, vbar)^2 over `curvature_lhs`
and the `kahler_metric` g, every index ordered.
`fd_curvature_lhs` rebuilds the metric side from central differences of the
metric over floats, an oracle for the closed-form derivative expressions.
`float_jet` and `float_sides` evaluate the jet's closed forms and both
curvature sides in binary64 from f, grad f and Hess f rounded once, a
numeric oracle that shares no arithmetic with the exact kernel;
`float_oracle_errors` measures its residual and its distance from the exact
sides.

`reference_inverse_check` is the fibre inverse check as it was before
the package decided it on the cleared integers: the `Complex` product
`mat_mul` of the printed rows of gtilde and of its stated inverse against
`identity_rows`. Both helpers moved here from
`linalg`, which no longer has a general matrix product; `invert_rows` and
the linalg tests read them from here too.

`reference_direct_gammas` differentiates both scalings of the fibre
metric the way the package did before it read them from the integer
bordered Hessian: the y-gradients of the `Complex` coefficient table, the
lambda-power tables, a `Complex` `invert_rows` of each scaled matrix and the
(n+1)^4 sum, all over `Fraction`s. It reads f, grad f, g and dg from
`poly_derivatives` and `reference_jet` at Im t, never from the package's
integer jet; only lambda and Im t come from the `TildeMetric`.

`reference_christoffel_check` is the fibre connection check as it was
before the package decided it as integer identities in adj B . dB and the
jet: the published and direct arrays built in `Complex`, each phase written
inline or in a per-class table, and the match table, the lower-symmetry
test and both readings of the recovery relation, the latter on the
potential scaling's direct array, compared in `Complex` arithmetic.
`complex_gamma_printed` and `complex_direct_gammas` return its published
and direct arrays; the package itself builds no connection array.

`reference_doc` is the CLI's JSON value of a scalar, point or container as
the CLI once built it: one recursion per index, every entry read through the
container's `__getitem__`, so each stored orbit is formatted once per index
that reaches it.

`reference_parse_text` is `cubic.parse_text` as a cursor class over the
tokens, with one method per production; its messages name a variable token
by its index and the end of input as None.
"""

import itertools
import random
import re
from fractions import Fraction
from itertools import product
from operator import mul

from kahlercone import (Complex, CubicForm, CurvTensor, DimensionMismatch,
                        Membership, ParseError, SamplingExhausted,
                        Sym3Tensor, SymMatrix, cone_contains, contract,
                        curvature_lhs, curvature_rhs, inertia, kahler_metric)
from kahlercone.cubic import GRID_DEN, GRID_NUM, _check_dimension
from kahlercone.linalg import _layout, det_adjugate
from kahlercone.poly import Poly
from kahlercone.scalars import format_scalar, to_float
from kahlercone.special import TildeChristoffelResult


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


def hermitian_inertia(rows):
    """Inertia of an exact hermitian matrix via its real symmetric embedding.

    H = A + iB embeds as [[A, -B], [B, A]], which doubles each eigenvalue;
    the doubled counts are halved back.
    """
    n = len(rows)
    emb = SymMatrix.zeros(2 * n)
    for i in range(n):
        for j in range(n):
            z = Complex.of(rows[i][j])
            zt = Complex.of(rows[j][i])
            if z.re != zt.re or z.im != -zt.im:
                raise ValueError("matrix is not hermitian")
            if j >= i:
                emb[i, j] = z.re
                emb[n + i, n + j] = z.re
            emb[i, n + j] = -z.im
    p, m, z = inertia(emb)
    if p % 2 or m % 2 or z % 2:
        raise ValueError("embedding produced odd multiplicities")
    return p // 2, m // 2, z // 2


class SingularMatrix(Exception):
    """`invert_rows` met a zero pivot column: the matrix has no inverse."""


def _pivot_size(x):
    if isinstance(x, Complex):
        return x.abs2()
    return abs(x)


def _lift_int(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Complex):
        return Complex(_lift_int(x.re), _lift_int(x.im))
    return x


def identity_rows(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m = len(a), len(b[0])
    inner = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(m)]
            for i in range(n)]


def invert_rows(rows):
    """Inverse of a square matrix given as rows; Gauss-Jordan with pivoting.

    Works over any field scalar (Fraction, float, Complex). Exact inputs give
    the exact inverse: int entries, and int parts of Complex entries, are
    lifted to Fraction first. Each row of the inverse, begun as the Fraction
    identity, is divided by a pivot once and so takes the pivot's scalar
    type. Raises SingularMatrix on a zero pivot column.
    """
    n = len(rows)
    a = [[_lift_int(v) for v in r] for r in rows]
    for r in a:
        if len(r) != n:
            raise DimensionMismatch("matrix is not square")
    inv = identity_rows(n)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: _pivot_size(a[r][col]))
        if _pivot_size(a[piv][col]) == 0:
            raise SingularMatrix(f"zero pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        inv[col] = [v / d for v in inv[col]]
        for r in range(n):
            if r != col and _pivot_size(a[r][col]) != 0:
                c = a[r][col]
                a[r] = [v - c * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - c * w for v, w in zip(inv[r], inv[col])]
    return inv


def invert(m):
    """Inverse of a symmetric matrix, returned symmetric."""
    inv = invert_rows(m.rows())
    return SymMatrix(m.n, [inv[i][j] for i, j in _layout(m.n).pairs])


def reference_evaluate(form, y):
    """f(y) over the monomials as a `Poly`, in the arithmetic of y."""
    return Poly(form.n, form.monomials).evaluate(y)


def reference_hessian(form, y):
    """Hess f(y) = f3 . y as a `SymMatrix`, in the arithmetic of y."""
    f3 = form.third_tensor
    n = form.n
    return SymMatrix.build(
        n, lambda i, j: sum(f3[i, j, k] * y[k] for k in range(n)))


def reference_membership(form, y):
    """The verdict of `cone_contains`, from Fraction f(y) and Hess f(y)."""
    y = [Fraction(v) for v in y]
    fval = reference_evaluate(form, y)
    plus, minus, zero = reference_inertia(reference_hessian(form, y).rows())
    n = form.n
    if fval > 0 and (plus, minus, zero) == (1, n - 1, 0):
        return Membership.INTERIOR
    degenerate = fval == 0 or zero > 0
    compatible = fval >= 0 and plus <= 1 and minus <= n - 1
    if degenerate and compatible:
        return Membership.BOUNDARY
    return Membership.OUTSIDE


def reference_cone_sample(form, count, seed, hint=None, budget=100_000):
    """`cone_sample` over `Fraction`s: the same draws from random.Random(seed),
    each candidate a tuple of Fractions, deduplicated by Fraction equality and
    kept when `reference_membership` calls it interior. Raises
    SamplingExhausted after `budget` attempts."""
    if hint is not None:
        hint = tuple(Fraction(v) for v in hint)
        assert reference_membership(form, hint) is Membership.INTERIOR
    rng = random.Random(seed)
    found = []
    seen = set()
    for attempt in range(budget):
        if hint is not None and attempt % 2 == 1:
            c = Fraction(rng.randint(1, GRID_NUM), rng.randint(1, GRID_DEN))
            cand = tuple(c * h * (1 + Fraction(rng.randint(-1, 1),
                                               rng.randint(4, 8)))
                         for h in hint)
        else:
            cand = tuple(Fraction(rng.randint(-GRID_NUM, GRID_NUM),
                                  rng.randint(1, GRID_DEN))
                         for _ in range(form.n))
        if all(v == 0 for v in cand) or cand in seen:
            continue
        seen.add(cand)
        if reference_membership(form, cand) is Membership.INTERIOR:
            found.append(cand)
            if len(found) == count:
                return found
    raise SamplingExhausted(f"found {len(found)}/{count} interior points")


def gradient(form, y):
    """grad f(y) = 1/2 Hess f(y) y, by Euler's relation."""
    half = Fraction(1, 2)
    return [half * sum(h * v for h, v in zip(row, y))
            for row in reference_hessian(form, y).rows()]


def poly_derivatives(form, y):
    """(f(y), grad f(y), Hess f(y) as rows) from the form's monomials as a
    `Poly` and its `Poly.diff`s, evaluated at y."""
    p = Poly(form.n, form.monomials)
    first = [p.diff(i) for i in range(form.n)]
    return (p.evaluate(y), [d.evaluate(y) for d in first],
            [[d.diff(j).evaluate(y) for j in range(form.n)] for d in first])


def poly_third(form):
    """{(i, j, k): d^3 f / dy_i dy_j dy_k} over every ordered index, from
    three `Poly.diff`s of the form (constants, read at the origin)."""
    p = Poly(form.n, form.monomials)
    origin = [Fraction(0)] * form.n
    return {idx: p.diff(idx[0]).diff(idx[1]).diff(idx[2]).evaluate(origin)
            for idx in itertools.product(range(form.n), repeat=3)}


def reference_jet(form, y):
    """(f, g, dg, d2g, ginv) at a rational interior point: f(y), and dicts
    over every ordered index of g = -1/4 d^2 log f, its first and second
    y-derivatives and its inverse, from the closed forms in f, grad f,
    Hess f and f3."""
    y = [Fraction(v) for v in y]
    f, a, h = poly_derivatives(form, y)
    f3 = poly_third(form)
    n = form.n
    idx2 = list(itertools.product(range(n), repeat=2))
    g = {(i, j): -(h[i][j] / f - a[i] * a[j] / f**2) / 4 for i, j in idx2}
    dg = {(i, j, k): -(f3[i, j, k] / f
                       - (h[i][j] * a[k] + h[i][k] * a[j] + h[j][k] * a[i])
                       / f**2
                       + 2 * a[i] * a[j] * a[k] / f**3) / 4
          for i, j, k in itertools.product(range(n), repeat=3)}

    def d2g(i, j, k, l):
        # f is cubic: d^4 log f has no f4 term
        third = (f3[i, j, k] * a[l] + f3[i, j, l] * a[k]
                 + f3[i, k, l] * a[j] + f3[j, k, l] * a[i])
        hh = h[i][j] * h[k][l] + h[i][k] * h[j][l] + h[i][l] * h[j][k]
        haa = (h[i][j] * a[k] * a[l] + h[i][k] * a[j] * a[l]
               + h[i][l] * a[j] * a[k] + h[j][k] * a[i] * a[l]
               + h[j][l] * a[i] * a[k] + h[k][l] * a[i] * a[j])
        d4 = (-(third + hh) / f**2 + 2 * haa / f**3
              - 6 * a[i] * a[j] * a[k] * a[l] / f**4)
        return -d4 / 4

    inv = invert_rows([[g[i, j] for j in range(n)] for i in range(n)])
    return (f, g, dg,
            {idx: d2g(*idx) for idx in itertools.product(range(n), repeat=4)},
            {(i, j): inv[i][j] for i, j in idx2})


def dense_sides(form, y):
    """({(i,j,k,l): LHS}, {(i,j,k,l): RHS}) at a rational interior point:
    LHS = 1/4 (d2g - sum_{p,q} ginv[p,q] dg[i,k,p] dg[j,l,q]) and
    RHS = g[i,j] g[k,l] + g[i,l] g[k,j]
          - 1/(64 f^2) sum_{p,q} ginv[p,q] f3[i,k,p] f3[j,l,q],
    from `reference_jet`."""
    f, g, dg, d2g, ginv = reference_jet(form, y)
    f3 = poly_third(form)
    n = form.n

    def double_sum(t, i, j, k, l):
        return sum(ginv[p, q] * t[i, k, p] * t[j, l, q]
                   for p in range(n) for q in range(n))

    lhs, rhs = {}, {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        lhs[i, j, k, l] = (d2g[i, j, k, l] - double_sum(dg, i, j, k, l)) / 4
        rhs[i, j, k, l] = (g[i, j] * g[k, l] + g[i, l] * g[k, j]
                           - double_sum(f3, i, j, k, l) / (64 * f**2))
    return lhs, rhs


def reference_sectional(form, y, v):
    """2 R(v, vbar, v, vbar) / g(v, vbar)^2 as the defining sums."""
    w = [(z, z.conj()) for z in map(Complex.of, v)]
    r, g = curvature_lhs(form, y), kahler_metric(form, y).g
    pairs = list(itertools.product(range(form.n), repeat=2))
    zero = Complex(Fraction(0))
    den = sum((g[i, j] * w[i][0] * w[j][1] for i, j in pairs), zero)
    num = sum((r[i, j, k, l] * w[i][0] * w[j][1] * w[k][0] * w[l][1]
               for i, j in pairs for k, l in pairs), zero)
    # real tensor with the pair symmetries: the imaginary parts cancel
    return 2 * num.re / (den.re * den.re)


def _float_metric(form, y):
    """g = -1/4 (Hess f / f - grad f grad f^T / f^2) at a float point."""
    fval, grad = reference_evaluate(form, y), gradient(form, y)
    hess = reference_hessian(form, y)
    return SymMatrix.build(form.n, lambda i, j: -0.25 * (
        hess[i, j] / fval - grad[i] * grad[j] / fval**2))


def fd_curvature_lhs(form, y, h):
    """The metric side 1/4 (d2g - contract(dg, ginv)) at an interior point,
    with dg and d2g from fourth-order central differences of g, step h."""
    # first derivative (-1, 8, 0, -8, 1)/12h at shifts (2, 1, 0, -1, -2);
    # pure second (-1, 16, -30, 16, -1)/12h^2; mixed second = tensor
    # product of two first-derivative stencils
    exact = [Fraction(v) for v in y]
    if cone_contains(form, exact) is not Membership.INTERIOR:
        raise ValueError(f"{y} is not an interior point")
    y = [float(v) for v in y]
    n = form.n
    cache = {}

    def g_at(shift):
        key = tuple(shift)
        if key not in cache:
            cache[key] = _float_metric(
                form, [a + s * h for a, s in zip(y, shift)])
        return cache[key]

    first = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0))
    second = ((2, -1.0), (1, 16.0), (0, -30.0), (-1, 16.0), (-2, -1.0))

    def shifted(k, s, base=(0,) * n):
        out = list(base)
        out[k] += s
        return out

    def dg_entry(i, j, k):
        return sum(w * g_at(shifted(k, s))[i, j] for s, w in first) / (12 * h)

    def d2g_entry(i, j, k, l):
        if k == l:
            return (sum(w * g_at(shifted(k, s))[i, j] for s, w in second)
                    / (12 * h * h))
        return sum(w1 * w2 * g_at(shifted(l, s2, shifted(k, s1)))[i, j]
                   for s1, w1 in first for s2, w2 in first) / (144 * h * h)

    dg = Sym3Tensor.build(n, dg_entry)
    d2g = CurvTensor.build(n, d2g_entry)
    ginv = invert(g_at((0,) * n))
    return (d2g - contract(dg, ginv)).scale(0.25)


def float_jet(form, y):
    """(f, g, dg, d2g, ginv) at an interior point y over floats: the exact
    f, grad f and Hess f from `poly_derivatives` rounded once to binary64,
    and the closed forms evaluated in floats."""
    exact = [Fraction(v) for v in y]
    if cone_contains(form, exact) is not Membership.INTERIOR:
        raise ValueError(f"{y} is not an interior point")
    fval, grad, hess = poly_derivatives(form, exact)
    fval, grad = float(fval), [float(v) for v in grad]
    hess = SymMatrix.build(form.n, lambda i, j: float(hess[i][j]))
    n, f3 = form.n, form.third_tensor
    quarter = Fraction(1, 4)
    p1 = 1 / fval
    p2 = p1 * p1
    p3, p4 = p2 * p1, p2 * p2
    g = SymMatrix.build(
        n, lambda i, j: -quarter * (hess[i, j] * p1 - grad[i] * grad[j] * p2))

    def dg_entry(i, j, k):
        return -quarter * (
            f3[i, j, k] * p1
            - (hess[i, j] * grad[k] + hess[i, k] * grad[j]
               + hess[j, k] * grad[i]) * p2
            + 2 * grad[i] * grad[j] * grad[k] * p3)

    dg = Sym3Tensor.build(n, dg_entry)

    def d2g_entry(i, j, k, l):
        return -quarter * (
            -(f3[i, j, k] * grad[l] + f3[i, j, l] * grad[k]
              + f3[i, k, l] * grad[j] + f3[j, k, l] * grad[i]) * p2
            - (hess[i, j] * hess[k, l] + hess[i, k] * hess[j, l]
               + hess[i, l] * hess[j, k]) * p2
            + 2 * (hess[i, j] * grad[k] * grad[l]
                   + hess[i, k] * grad[j] * grad[l]
                   + hess[i, l] * grad[j] * grad[k]
                   + hess[j, k] * grad[i] * grad[l]
                   + hess[j, l] * grad[i] * grad[k]
                   + hess[k, l] * grad[i] * grad[j]) * p3
            - 6 * grad[i] * grad[j] * grad[k] * grad[l] * p4)

    by_multiset = {idx: d2g_entry(*idx) for idx in
                   itertools.combinations_with_replacement(range(n), 4)}
    d2g = CurvTensor.build(n, lambda *idx: by_multiset[tuple(sorted(idx))])
    return fval, g, dg, d2g, invert(g)


def float_sides(form, jet):
    """Both sides of the identity (standard convention) from a `float_jet`:
    1/4 (d2g - contract(dg, ginv)) and
    g[i,j] g[k,l] + g[i,l] g[k,j] - contract(f3, ginv) / (64 f^2)."""
    fval, g, dg, d2g, ginv = jet
    lhs = (d2g - contract(dg, ginv)).scale(Fraction(1, 4))
    scale = 1 / (64 * fval * fval)
    yukawa_part = contract(form.third_tensor, ginv)
    rhs = CurvTensor.build(form.n, lambda i, j, k, l: (
        g[i, j] * g[k, l] + g[i, l] * g[k, j]
        - scale * yukawa_part[i, j, k, l]))
    return lhs, rhs


def float_oracle_errors(form, y):
    """(residual, distance) of the float oracle at an interior point y, both
    relative to the larger float side: max |lhs - rhs| of `float_sides`,
    and the largest distance of a float side's entry from the exact side's
    entry rounded to a float."""
    exact = [Fraction(v) for v in y]
    lhs, rhs = float_sides(form, float_jet(form, exact))
    scale = max(lhs.max_abs(), rhs.max_abs())
    distance = max(abs(a - float(b))
                   for side, exact_side in ((lhs, curvature_lhs(form, exact)),
                                            (rhs, curvature_rhs(form, exact)))
                   for a, b in zip(side.entries(), exact_side.entries()))
    return (lhs - rhs).max_abs() / scale, distance / scale


def reference_inverse_check(tm):
    """`special.tilde_inverse_check` as the package once decided it: whether
    the `Complex` product of the printed rows is the identity."""
    return mat_mul(tm.gtilde, tm.gtilde_inv_stated) == identity_rows(tm.n + 1)


def _lam_factors(lam):
    """{(a, b): lam^a lambar^b} for a, b in -1, 0, 1."""
    one = Complex(Fraction(1))
    power = {-1: one / lam, 0: one, 1: lam}
    return {(a, b): power[a] * power[b].conj() for a in power for b in power}


def _lam_powers(size, shift):
    """The printed lambda-power table (a, b) raised by (shift, shift)."""
    return [[(shift - (r == 0), shift - (c == 0)) for c in range(size)]
            for r in range(size)]


def _entry_coefficients(kval, u, g):
    """The coefficient table coef[r][c] = K (conj(u_r) u_c - g[r,c]) with
    u = (1, K_1, ..., K_n): gtilde without its lambda powers."""
    size = len(u)
    return [[kval * (u[r].conj() * u[c] - (g[r - 1, c - 1] if r and c else 0))
             for c in range(size)] for r in range(size)]


def _coefficient_gradients(kval, u, grad, g, dg, coef):
    """The y-gradients of coef, one n-tuple per entry: with
    dK/dy_k = 8 df/dy_k and dK_i/dy_k = 2i g[i,k],
    d coef[r][c] / dy_k = (dK/dy_k / K) coef[r][c]
                          + K d(conj(u_r) u_c - g[r,c]) / dy_k."""
    n = len(grad)
    zero = Complex(Fraction(0))
    du = [(zero,) * n] + [tuple(Complex(Fraction(0), 2 * g[i, k])
                                for k in range(n)) for i in range(n)]
    dlog_k = [8 * v / kval for v in grad]
    return [[tuple(
        dlog_k[k] * coef[r][c]
        + kval * (du[r][k].conj() * u[c] + u[r].conj() * du[c][k]
                  - (dg[r - 1, c - 1, k] if r and c else 0))
        for k in range(n)) for c in range(n + 1)] for r in range(n + 1)]


def _direct_gamma(tm, coef, grad, shift, factors):
    """Gamma[a][b][c] = sum_d conj(h^{-1})[a][d] * D_b h[c][d] for one scaling
    h of the fibre metric: shift 0 is the printed one, shift 1 the potential
    one (the transposed table with every lambda power raised by (1, 1)).
    D_0 = d/dlam gives (a/lam) h for an entry of power lam^a;
    D_{k+1} = d/dt_k = -(i/2) d/dy_k acts on the coefficient."""
    n = tm.n
    size = n + 1
    if shift:
        coef, grad = list(zip(*coef)), list(zip(*grad))
    powers = _lam_powers(size, shift)
    lam_inv = factors[-1, 0]
    minus_half_i = Complex(Fraction(0), Fraction(-1, 2))
    h = [[coef[r][c] * factors[p] for c, p in enumerate(row)]
         for r, row in enumerate(powers)]
    dh = [[[None] * size for _ in range(size)] for _ in range(size)]
    for c in range(size):
        for d in range(size):
            a = powers[c][d][0]
            dh[0][c][d] = a * lam_inv * h[c][d]
            dt = minus_half_i * factors[powers[c][d]]
            for k in range(n):
                dh[k + 1][c][d] = grad[c][d][k] * dt
    hbar = [[z.conj() for z in row] for row in invert_rows(h)]
    zero = Complex(Fraction(0))
    return [[[sum((hbar[a][d] * dh[b][c][d] for d in range(size)), start=zero)
              for c in range(size)] for b in range(size)]
            for a in range(size)]


def reference_direct_gammas(form, tm):
    """{scaling: (n+1)^3 array} of the direct Christoffel symbols of both
    scalings of the fibre metric `tm` of `form`, over `Complex` `Fraction`s:
    K = 8 f, K_i = -(i/2) grad f_i / f, g and dg at y = Im t from
    `poly_derivatives` and `reference_jet`."""
    f, grad, _ = poly_derivatives(form, tm.y)
    _, g, dg, _, _ = reference_jet(form, tm.y)
    kval = 8 * f
    u = (Complex(Fraction(1)),) + tuple(Complex(Fraction(0), -v / (2 * f))
                                        for v in grad)
    coef = _entry_coefficients(kval, u, g)
    grads = _coefficient_gradients(kval, u, grad, g, dg, coef)
    factors = _lam_factors(tm.lam)
    return {scaling: _direct_gamma(tm, coef, grads, shift, factors)
            for scaling, shift in (("printed", 0), ("potential", 1))}


def k_log(tm):
    """K_i = d/dt_i log K = i k_i, k = -l a / (2F) of the cleared point."""
    point = tm.ij.point
    return [Complex(Fraction(0), Fraction(-point.l * v, 2 * point.F))
            for v in point.a]


def complex_gamma_printed(tm, base):
    """The published connection formulas assembled as an (n+1)^3 array,
    from the base Christoffel symbols `base` = i beta (nested lists) and
    K_i = i k_i (`k_log`), each entry a real times i on the base block, lam
    on the fibre row and 1/lam at the mixed entries.

    Index 0 is the fibre direction; entries are symmetric in the lower pair.
    The second mixed derivative of K reduces to -2 Hess f = -2 H / (s l).
    """
    n, lam, point = tm.n, tm.lam, tm.ij.point
    k = [v.im for v in k_log(tm)]
    beta = [[[v.im for v in r] for r in plane] for plane in base]
    hess = Fraction(2, point.s * point.l) / tm.norm_value
    zero, lam_inv = Complex(Fraction(0)), 1 / lam
    gamma = [[[zero] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            for c in range(n):
                v = beta[i][j][c]
                if i == c:
                    v += k[j]
                if i == j:
                    v += k[c]
                gamma[i + 1][j + 1][c + 1] = Complex(Fraction(0), v)
            v = hess * point.H[i, j] - 2 * k[i] * k[j] - sum(
                beta[c][i][j] * k[c] for c in range(n))
            gamma[0][i + 1][j + 1] = lam * v
        gamma[i + 1][i + 1][0] = gamma[i + 1][0][i + 1] = lam_inv
    return gamma


def complex_direct_gammas(tm):
    """{scaling: (n+1)^3 array}: the direct symbols of both scalings of the
    fibre metric in `Complex`, from the integers W[q] = adj B . dB_q
    (`special` module docstring): Gamma[x][q+1][c] is
    -(i/2) l^(1 - [x>0] + [c>0]) D_x^-1 D_c W[q][x][c] / det B, times
    J_x J_c under E."""
    n, lam, ij = tm.n, tm.lam, tm.ij
    l, a, h, t = ij.point.l, ij.point.a, ij.point.H.rows(), ij.t._data
    lay = _layout(n)
    delta, adj = det_adjugate(tm.bordered)
    zero, lam_inv, minus_i = Complex(Fraction(0)), 1 / lam, Complex(0, -1)
    # at [x>0][c>0]: l^(1 - [x>0] + [c>0]), and the factors -i D_x^-1 D_c
    # of the real l^(...) W / (2 det B) under the (printed, potential)
    # scalings, D and E
    lpow = ((l, l * l), (1, l))
    phase = (((minus_i, minus_i), (lam, -lam)),
             ((-lam_inv, lam_inv), (minus_i, minus_i)))
    printed, potential = ([[[zero] * (n + 1) for _ in range(n + 1)]
                           for _ in range(n + 1)] for _ in range(2))
    printed[0][0][0] = -lam_inv
    for x in range(1, n + 1):
        potential[x][0][x] = lam_inv
    for q in range(n):
        d_b = [[4 * a[q]] + [2 * v for v in h[q]]] + [      # symmetric
            [2 * h[d][q]] + [t[lay.pair_triples[s][q]] for s in lay.slot[d]]
            for d in range(n)]
        for x, adj_row in enumerate(adj.rows()):
            pr, po = printed[x][q + 1], potential[x][q + 1]
            for c, col in enumerate(d_b):
                r = Fraction(lpow[x > 0][c > 0] * sum(map(mul, adj_row, col)),
                             2 * delta)
                f_pr, f_po = phase[x > 0][c > 0]
                pr[c], po[c] = f_pr * r, f_po * r
    return {"printed": printed, "potential": potential}


_REF_GROUPS = ("base", "mixed", "fibre-upper", "zeros")
# the formula group of each index class ([x>0], [b>0], [c>0]) of
# Gamma[x][b][c]; "zeros" holds the classes where the printed array is 0
_REF_GROUP_OF = {(1, 1, 1): "base", (1, 1, 0): "mixed",
                 (0, 1, 1): "fibre-upper", (0, 0, 0): "zeros",
                 (0, 1, 0): "zeros", (1, 0, 0): "zeros"}


def reference_christoffel_check(tm):
    """`special.tilde_christoffel_check` in `Complex` arithmetic (module
    docstring)."""
    n, base = tm.n, [m.rows() for m in tm.ij.christoffels()]
    printed = complex_gamma_printed(tm, base)
    direct = complex_direct_gammas(tm)
    matches, symmetric = {}, {}
    indices = range(n + 1)
    for scaling, gamma in direct.items():
        ok = dict.fromkeys(_REF_GROUPS, True)
        for x, b, c in product(indices, repeat=3):
            group = _REF_GROUP_OF.get((x > 0, b > 0, c > 0))
            if group and ok[group] and gamma[x][b][c] != printed[x][b][c]:
                ok[group] = False
        matches[scaling] = ok
        symmetric[scaling] = all(gamma[x][b][c] == gamma[x][c][b]
                                 for x, b, c in product(indices, repeat=3))

    lam, log_k, potential = tm.lam, k_log(tm), direct["potential"]
    relation = {"corrected": True, "as-printed": True}
    # lam times the potential scaling's mixed symbols, in both lower-index
    # orders
    mixed = [[lam * v[0] for v in plane[1:]] for plane in potential[1:]]
    fibre = [[lam * v for v in plane[0][1:]] for plane in potential[1:]]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lead = potential[i + 1][j + 1][k + 1] - mixed[i][j] * log_k[k]
                corrected = lead - fibre[i][k] * log_k[j]
                literal = lead - fibre[i][k] * log_k[i]
                if corrected != base[i][j][k]:
                    relation["corrected"] = False
                if literal != base[i][j][k]:
                    relation["as-printed"] = False

    mismatches = [(scaling, group) for scaling in matches
                  for group in _REF_GROUPS if not matches[scaling][group]]
    covered = all(any(matches[s][g] for s in matches) for g in _REF_GROUPS)
    passed = (covered and matches["potential"]["zeros"]
              and matches["potential"]["mixed"])
    return TildeChristoffelResult(
        passed=passed, matches=matches, lower_symmetric=symmetric,
        recovery_relation=relation, mismatches=mismatches)


_RANK = {SymMatrix: 2, Sym3Tensor: 3, CurvTensor: 4}


def reference_doc(x, mode="exact", index=()):
    """JSON value of a scalar (None stays None), or nested lists of them, by
    one recursion per index; in float mode each scalar is first rounded by
    `to_float`."""
    rank = _RANK.get(type(x))
    if rank is not None:
        if len(index) < rank:
            return [reference_doc(x, mode, index + (i,)) for i in range(x.n)]
        x = x[index]
    elif isinstance(x, (list, tuple)):
        return [reference_doc(v, mode) for v in x]
    if x is None:
        return None
    return format_scalar(to_float(x) if mode == "float" else x)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>y\d+)|(?P<op>[+\-*/^]))")


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            rest = src[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {src[bad]!r}", bad)
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("var"):
            tokens.append(("var", int(m.group("var")[1:]), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.n = n
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
        monomials = {}
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        self._term(monomials, sign)
        while True:
            kind, val, pos = self.peek()
            if kind == "end":
                break
            if kind == "op" and val in "+-":
                self.take()
                self._term(monomials, -1 if val == "-" else 1)
            else:
                raise ParseError(f"expected '+' or '-', got {val!r}", pos)
        return monomials

    def _term(self, monomials, sign):
        coeff = Fraction(sign)
        exp = [0] * self.n
        kind, val, pos = self.peek()
        if kind == "int":
            self.take()
            coeff *= val
            nk, nv, npos = self.peek()
            if nk == "op" and nv == "/":
                self.take()
                dk, dv, dpos = self.take()
                if dk != "int" or dv == 0:
                    raise ParseError("expected a positive integer denominator",
                                     dpos)
                coeff /= dv
        elif kind == "var":
            self._factor(exp)
        else:
            raise ParseError(f"expected a coefficient or variable, got {val!r}",
                             pos)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                self._factor(exp)
            else:
                break
        key = tuple(exp)
        monomials[key] = monomials.get(key, Fraction(0)) + coeff

    def _factor(self, exp):
        kind, val, pos = self.take()
        if kind != "var":
            raise ParseError(f"expected a variable, got {val!r}", pos)
        if not (1 <= val <= self.n):
            raise ParseError(f"variable y{val} out of range 1..{self.n}", pos)
        power = 1
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.take()
            pk, pv, ppos = self.take()
            if pk != "int":
                raise ParseError("expected an integer exponent", ppos)
            power = pv
        exp[val - 1] += power


def reference_parse_text(src: str, n: int) -> CubicForm:
    """Parse polynomial source text into an exact CubicForm.

    Raises ParseError for malformed input, NotHomogeneousCubic when a
    surviving monomial has degree other than 3, DimensionMismatch on n.
    """
    _check_dimension(n)
    parser = _Parser(_tokenize(src), n)
    monomials = parser.expr()
    return CubicForm(n, monomials)
