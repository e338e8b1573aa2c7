"""Auxiliary special-geometry checks: the affine curvature identity and the
fibre-extended cone metric.

Affine side. The flat prepotential metric is a(y) = -4 Hess f(y), linear in
y, so its second derivatives vanish identically and the same real-reduction
curvature formula as in `geometry` collapses to a single contraction. The
normative identity checked here is convention-free:

    R_aff[i,j,k,l] = sum_{p,q} (Hess f)^{-1}[p,q] f3[i,k,p] f3[j,l,q].

The literature normalization (metric -4 Hess f contracted instead) differs
from this by the constant kappa = -4, which the check recomputes per entry
and asserts globally constant. Hess f = H / (s l) is read from the cleared
point (`cubic.Cleared`) and inverted once, by `det_adjugate` of the integer
H: (Hess f)^{-1} = s l adj H / det H, so the right side is l / (s det H)
contract(t, adj H), t = s f3. The inverse of -4 Hess f is that times -1/4.

Fibre extension. `build_tilde_metric` assembles the (n+1) x (n+1) hermitian
matrix from the published closed-form entries with K = 8 f(Im t) and
K_i = d/dt_i log K, together with the published inverse entries. Index 0 is
the fibre direction. With u = (1, K_1, ..., K_n) and g padded by a zero
fibre row and column, the printed entry is

    gtilde[r][c] = K (conj(u_r) u_c - g[r,c]) lam^a lambar^b,

(a, b) = (-1,-1) at the fibre entry, (-1,0) on the fibre row, (0,-1) on the
fibre column and (0,0) on the base block. Two calibrations, fixed at n = 1
and documented here because the published formulas leave them open:

  * hermitian placement of the mixed inverse entry: the printed value for
    index pair (0, i-bar) equals entry (row i, column 0) of the true
    inverse, so it is placed there (the conjugate goes to (0, i));
  * the printed lambda-bar power in that entry matches the true inverse
    only for real lambda; the exact product check is therefore expected to
    pass on nonzero rational lambda (tests sample exactly that) and the
    product matrix is returned for diagnosis otherwise.

Christoffel check. The published connection-coefficient formulas are not
consistent with any single reading of the published metric entries: direct
differentiation of the entries as printed validates the all-base and
fibre-upper formulas, while the mixed formula (lambda^{-1} delta) and the
vanishing of the pure-fibre symbol require the potential-consistent scaling
lambda lambda-bar K of the same entries, under which the matrix is
genuinely Kahler: the transposed entries (K_i being imaginary, this flips
the sign of the fibre row) with every power above raised by (1, 1).

Both scalings are differentiated on the integers of the cleared point
(`geometry`: z = l y, t, H, a = H z / 2, F). With K_i = i k_i,
k = -grad f / (2 f) = -l a / (2F), and a a^T - M = F H, the printed metric is
K D S D* and the potential one K E S E*, where

    D = diag(1/lam, i, ..., i),    E = diag(1, -i lam, ..., -i lam),
    S = [[1, -k^T], [-k, k k^T - g]] = P B P / (4F),
    P = diag(1, l, ..., l),        B = [[4F, 2a^T], [2a, H]],

B the integer bordered Hessian of the cleared cubic, and K / (4F) constant
in y. In Gamma[x][b][c] = sum_d conj(h^{-1})[x][d] D_b h[c][d], with
D_0 = d/dlam (lambda-bar fixed) and D_{q+1} = d/dt_q = -(i/2) l d/dz_q, the
diagonal factors cancel on d, so both scalings read one real array

    Q[x][q][c] = l^(1 - [x>0] + [c>0]) (adj B . dB_q)[x][c] / det B,
    dB_q = d B / d z_q = [[4 a_q, 2 H[q,.]], [2 H[.,q], t[.,.,q]]],

as Gamma[x][q+1][c] = -(i/2) D_x^{-1} D_c Q[x][q][c], E in place of D under
the potential scaling. D_0 h = (a / lam) h for an entry of power lam^a, so
Gamma[x][0][c] is -1/lam at x = c = 0 under the printed scaling, 1/lam at
x = c > 0 under the potential one, and 0 elsewhere. One `det_adjugate` of B
serves both, and inertia(gtilde) = inertia(B) (K > 0; D, P invertible).

The published formulas stay an independent side, assembled from the printed
entries and the base Christoffel symbols, never from B. Every quantity they
read comes from the same integer jet (`geometry._IntegerJet`), one division
per entry: K = 8 F / (s l^3), K_i = -i l a_i / (2F), Hess f = H / (s l),
g and ginv. The check compares each formula group under each scaling and
passes when every group is reproduced by at least one, reporting the full
match table. The ambiguous recovery relation for the base symbols is
evaluated under both of its index readings and the verdicts reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .cubic import CubicForm, _clear, _cleared
from .errors import SingularHessian, ZeroLambda
from .geometry import _IntegerJet, _integer_jet
from .linalg import (CurvTensor, SymMatrix, _layout, contract, det_adjugate,
                     identity_rows, mat_mul)
from .scalars import Complex, format_point

__all__ = [
    "AffineCheckResult",
    "TildeMetric",
    "TildeInverseResult",
    "TildeChristoffelResult",
    "affine_curvature_check",
    "affine_metric",
    "affine_tau",
    "build_tilde_metric",
    "tilde_inverse_check",
    "tilde_christoffel_check",
]

LITERATURE_KAPPA = Fraction(-4)


def affine_tau(form: CubicForm, t):
    """The period map tau(t) = 4 * Hess F(t) of the holomorphic extension.

    For a cubic the Hessian is linear, so at t = x + iy it splits exactly
    into 4 Hess f(x) + 4i Hess f(y); rows of Complex entries.
    """
    t = tuple(map(Complex.of, t))
    hx = form.hessian([v.re for v in t])
    hy = form.hessian([v.im for v in t])
    return [[Complex(4 * hx[i, j], 4 * hy[i, j]) for j in range(form.n)]
            for i in range(form.n)]


def affine_metric(form: CubicForm, y) -> SymMatrix:
    """The flat-prepotential metric -Im tau = -4 Hess f(y), linear in y."""
    return form.hessian(y).scale(Fraction(-4))


@dataclass(frozen=True)
class AffineCheckResult:
    passed: bool
    kappa: Optional[Fraction]
    kappa_constant: bool
    curvature: CurvTensor
    expected: CurvTensor
    residual: CurvTensor
    max_abs_residual: object


def affine_curvature_check(form: CubicForm, y) -> AffineCheckResult:
    """Verify the affine curvature identity at a point with invertible Hessian.

    The identity is algebraic: the curvature -1/4 contract(-4 f3, -hinv/4)
    of the metric -4 Hess f is (-1/4) (-4)^2 (-1/4) = 1 times
    contract(f3, hinv) for any symmetric hinv, and kappa = -4 likewise, so
    one contraction gives both sides. Only a wrong hinv can be caught, by
    the oracle inverse in `test_affine_kappa_constant_across_suite`.
    """
    y = tuple(map(Fraction, y))
    point = _cleared(form, *_clear(
        form, [(v.numerator, v.denominator) for v in y]))
    det, adj = det_adjugate(point.H)
    if det == 0:
        raise SingularHessian(f"Hess f is singular at {format_point(y)}")
    expected = contract(form._integer_third()[1], adj).scale(
        Fraction(point.l, point.s * det))
    curvature = expected.scale(Fraction(-1, 4) * (-4)**2 * Fraction(-1, 4))
    residual = curvature - expected
    # the literature-normalized right side contract(f3, -hinv/4), for the
    # constant-ratio check
    literature_side = expected.scale(Fraction(-1, 4))
    ratios = {c / lit for c, lit in zip(curvature.entries(),
                                        literature_side.entries())
              if lit != 0}
    kappa = ratios.pop() if len(ratios) == 1 else None
    return AffineCheckResult(
        passed=residual.max_abs() == 0 and kappa == LITERATURE_KAPPA,
        kappa=kappa,
        kappa_constant=kappa is not None,
        curvature=curvature,
        expected=expected,
        residual=residual,
        max_abs_residual=residual.max_abs(),
    )


# ----------------------------------------------------------------------------
# fibre-extended metric

@dataclass(frozen=True)
class TildeMetric:
    n: int
    t: tuple                 # complex coordinates, Im t interior
    lam: Complex
    y: tuple                 # Im t
    norm_value: object       # K = 8 f(y)
    k_log: tuple             # K_i = d/dt_i log K, purely imaginary
    gtilde: list             # the printed entries (module docstring)
    gtilde_inv_stated: list  # published inverse entries, placement calibrated
    ij: _IntegerJet          # the integer jet every entry is read from
    bordered: SymMatrix      # B = [[4F, 2a^T], [2a, H]], on ints


def build_tilde_metric(form: CubicForm, t, lam) -> TildeMetric:
    """Assemble the fibre-extended metric and its published inverse at (t, lam)."""
    t = tuple(map(Complex.of, t))
    lam = Complex.of(lam)
    if lam.is_zero():
        raise ZeroLambda("fibre coordinate must be nonzero")
    y = tuple(v.im for v in t)
    ij = _integer_jet(form, y)        # NotInCone unless Im t is interior
    n, l, F, a = form.n, ij.point.l, ij.point.F, ij.point.a
    kval = 8 * ij.point.f
    k_log = tuple(Complex(Fraction(0), Fraction(-l * v, 2 * F)) for v in a)
    # the printed entries: lam^-1 on the fibre row, lambar^-1 on the column
    u = (Complex(Fraction(1)),) + k_log
    g0 = [[0] * (n + 1)] + [[0] + row for row in ij.g.rows()]
    lam_inv = u[0] / lam
    power = {(False, False): lam_inv * lam_inv.conj(), (True, True): u[0],
             (False, True): lam_inv, (True, False): lam_inv.conj()}
    gt = [[kval * (u[r].conj() * u[c] - g0[r][c]) * power[r > 0, c > 0]
           for c in range(n + 1)] for r in range(n + 1)]
    b = [[4 * F] + [2 * v for v in a]] + [
        [2 * v] + row for v, row in zip(a, ij.point.H.rows())]

    ginv = ij.ginv
    lam_bar = lam.conj()
    inv = [[None] * (n + 1) for _ in range(n + 1)]
    cross = sum((k_log[i] * k_log[j].conj() * ginv[j, i]
                 for i in range(n) for j in range(n)),
                start=Complex(Fraction(0)))
    inv[0][0] = (lam * lam_bar / kval) * (Complex(Fraction(1)) - cross)
    for i in range(n):
        for j in range(n):
            inv[i + 1][j + 1] = Complex(-ginv[i, j] / kval)
        stated = (lam_bar / kval) * sum(
            (Complex(ginv[k, i]) * k_log[k].conj() for k in range(n)),
            start=Complex(Fraction(0)))
        # calibrated placement: printed (0, i-bar) value sits at (row i, col 0)
        inv[i + 1][0] = stated
        inv[0][i + 1] = stated.conj()

    return TildeMetric(
        n=n, t=t, lam=lam, y=y, norm_value=kval, k_log=k_log, gtilde=gt,
        gtilde_inv_stated=inv, ij=ij,
        bordered=SymMatrix.from_rows(b))


@dataclass(frozen=True)
class TildeInverseResult:
    passed: bool
    product: list


def tilde_inverse_check(tm: TildeMetric) -> TildeInverseResult:
    """Exact product gtilde * stated inverse against the identity matrix."""
    product = mat_mul(tm.gtilde, tm.gtilde_inv_stated)
    return TildeInverseResult(passed=product == identity_rows(tm.n + 1),
                              product=product)


# --- connection coefficients -------------------------------------------------

def _gamma_printed(tm: TildeMetric, base):
    """The published connection formulas assembled as an (n+1)^3 array,
    from the base Christoffel symbols `base`.

    Index 0 is the fibre direction; entries are symmetric in the lower pair.
    The second mixed derivative of K reduces to -2 Hess f = -2 H / (s l).
    """
    n, lam, k_log, point = tm.n, tm.lam, tm.k_log, tm.ij.point
    zero = Complex(Fraction(0))
    kval = tm.norm_value
    lam_inv = Complex(Fraction(1)) / lam
    gamma = [[[zero] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = base[i][j][k]
                if i == k:
                    v = v + k_log[j]
                if i == j:
                    v = v + k_log[k]
                gamma[i + 1][j + 1][k + 1] = v
        gamma[i + 1][i + 1][0] = lam_inv
        gamma[i + 1][0][i + 1] = lam_inv
    for i in range(n):
        for j in range(n):
            acc = sum((base[k][i][j] * k_log[k] for k in range(n)),
                      start=zero)
            ddk = Fraction(-2 * point.H[i, j], point.s * point.l)
            v = lam * acc + 2 * lam * k_log[i] * k_log[j] \
                - lam * Complex(ddk) / kval
            gamma[0][i + 1][j + 1] = v
    return gamma


def _direct_gammas(tm: TildeMetric):
    """(printed, potential): the direct symbols of both scalings of the
    fibre metric, from the one real array Q (module docstring), R = Q / 2."""
    n, lam, ij = tm.n, tm.lam, tm.ij
    l, a, h, t = ij.point.l, ij.point.a, ij.point.H.rows(), ij.t._data
    lay = _layout(n)
    delta, adj = det_adjugate(tm.bordered)
    zero, lam_inv = Complex(Fraction(0)), Complex(Fraction(1)) / lam
    lpow = ((l, l * l), (1, l))     # l^(1 - [x>0] + [c>0]), at [x>0][c>0]
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
                if (x > 0) == (c > 0):              # -(i/2) Q in both
                    pr[c] = po[c] = Complex(Fraction(0), -r)
                elif x == 0:                        # +-(lam/2) Q
                    pr[c] = Complex(lam.re * r, lam.im * r)
                    po[c] = -pr[c]
                else:                               # -+(1/(2 lam)) Q
                    po[c] = Complex(lam_inv.re * r, lam_inv.im * r)
                    pr[c] = -po[c]
    return printed, potential


_GROUPS = ("base", "mixed", "fibre-upper", "zeros")


@dataclass(frozen=True)
class TildeChristoffelResult:
    passed: bool
    matches: dict            # scaling -> {group -> bool}
    lower_symmetric: dict    # scaling -> bool
    recovery_relation: dict  # {"corrected": bool, "as-printed": bool}
    mismatches: list         # (scaling, group) pairs that fail
    direct: dict             # scaling -> full (n+1)^3 array


def tilde_christoffel_check(tm: TildeMetric) -> TildeChristoffelResult:
    """Compare the published connection formulas against direct differentiation.

    Both entry scalings are differentiated exactly, on the integer bordered
    Hessian B (see module docstring); the check passes when every published
    formula group is reproduced bit-exactly by at least one scaling and the
    potential scaling confirms the published vanishing entries and the
    mixed lambda^{-1} delta formula.
    """
    n = tm.n
    base = tm.ij.christoffels()
    printed = _gamma_printed(tm, base)
    direct = dict(zip(("printed", "potential"), _direct_gammas(tm)))
    matches = {}
    symmetric = {}
    for scaling, gamma in direct.items():
        ok = {
            "base": all(gamma[i + 1][j + 1][k + 1]
                        == printed[i + 1][j + 1][k + 1]
                        for i in range(n) for j in range(n) for k in range(n)),
            "mixed": all(gamma[i + 1][j + 1][0] == printed[i + 1][j + 1][0]
                         for i in range(n) for j in range(n)),
            "fibre-upper": all(gamma[0][i + 1][j + 1]
                               == printed[0][i + 1][j + 1]
                               for i in range(n) for j in range(n)),
            "zeros": (gamma[0][0][0].is_zero()
                      and all(gamma[0][i + 1][0].is_zero()
                              and gamma[i + 1][0][0].is_zero()
                              for i in range(n))),
        }
        matches[scaling] = ok
        symmetric[scaling] = all(
            gamma[a][b][c] == gamma[a][c][b]
            for a in range(n + 1) for b in range(n + 1) for c in range(n + 1))

    lam, k_log = tm.lam, tm.k_log
    relation = {"corrected": True, "as-printed": True}
    # lam times the printed mixed symbols, in both lower-index orders
    mixed = [[lam * v[0] for v in plane[1:]] for plane in printed[1:]]
    fibre = [[lam * v for v in plane[0][1:]] for plane in printed[1:]]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lead = printed[i + 1][j + 1][k + 1] - mixed[i][j] * k_log[k]
                corrected = lead - fibre[i][k] * k_log[j]
                literal = lead - fibre[i][k] * k_log[i]
                if corrected != base[i][j][k]:
                    relation["corrected"] = False
                if literal != base[i][j][k]:
                    relation["as-printed"] = False

    mismatches = [(scaling, group) for scaling in matches
                  for group in _GROUPS if not matches[scaling][group]]
    covered = all(any(matches[s][g] for s in matches) for g in _GROUPS)
    passed = (covered and matches["potential"]["zeros"]
              and matches["potential"]["mixed"])
    return TildeChristoffelResult(
        passed=passed, matches=matches, lower_symmetric=symmetric,
        recovery_relation=relation, mismatches=mismatches, direct=direct)
