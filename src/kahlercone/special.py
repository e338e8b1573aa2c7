"""Auxiliary special-geometry checks: the affine curvature identity and the
fibre-extended cone metric.

Affine side. The flat prepotential metric is a(y) = -4 Hess f(y), linear in
y, so its second derivatives vanish identically and the same real-reduction
curvature formula as in `geometry` collapses to a single contraction. It is
-Im tau, tau(x + iy) = 4 Hess f(x) + 4i Hess f(y) the period map, which is
not built: no check reads its real part. The normative identity checked
here is convention-free:

    R_aff[i,j,k,l] = sum_{p,q} (Hess f)^{-1}[p,q] f3[i,k,p] f3[j,l,q].

The literature normalization (metric -4 Hess f contracted instead) differs
from this by the constant kappa = -4. Both hold by algebra wherever Hess f
is invertible (`affine_curvature_check`), so the check makes one
contraction and reports it as both sides. Hess f = H / (s l) is read from
the cleared point (`cubic.Cleared`) and inverted once, by `det_adjugate` of
the integer H: (Hess f)^{-1} = s l adj H / det H, so the right side is
l / (s det H) contract(t, adj H), t = s f3. The inverse of -4 Hess f is
that times -1/4.

Fibre extension. `build_tilde_metric` states the (n+1) x (n+1) hermitian
matrix of the published closed-form entries, with K = 8 f(Im t) and
K_i = d/dt_i log K = i k_i, k real, and the published inverse entries.
Index 0 is the fibre direction. A printed entry carries lam^a lambar^b,
(a, b) = (-1,-1) at the fibre entry, (-1,0) on the fibre row, (0,-1) on
the fibre column and (0,0) on the base block:

    gtilde = K [[1/|lam|^2, i k^T / lam], [-i k / lambar, k k^T - g]],
    stated inverse = (1/K) [[|lam|^2 (1 - k.ginv.k), i lam (ginv k)^T],
                            [-i lambar ginv k, -ginv]].

With the integers of the cleared point (`geometry`: z = l y, t, H,
a = H z / 2, F, M = a a^T - F H, A = adj M, Delta = det M), k = -l a / (2F)
and ginv = 4F^2 A / (l^2 Delta), each is a diagonal rescaling of one
integer matrix, which `TildeMetric` stores and renders with its phases:

    gtilde = K D S D*,   S = [[1, -k^T], [-k, k k^T - g]] = P B P / (4F),
    stated = conj(D')^-1 P^-1 C P^-1 D'^-1 / (K Delta),
    D = diag(1/lam, i, ..., i),   D' = diag(1/lambar, i, ..., i),
    P = diag(1, l, ..., l),       B = [[4F, 2a^T], [2a, H]],
    C = [[-2 Delta, 2 Delta z^T], [2 Delta z, -4F^2 A]],
    B C = 4 F Delta I,  C = (-1)^n F^n adj B,  F^(n-1) det B = 4 (-1)^n Delta.

C's fibre row is the published (Delta - a^T A a, 2F (A a)^T): M z = F a
gives A a = Delta z / F and a^T A a = 3 Delta, so 1 - k.ginv.k = -2.

Two calibrations, fixed at n = 1 because the published formulas leave them
open: the printed value for index pair (0, i-bar) equals entry (row i,
column 0) of the true inverse, so it is placed there (the conjugate goes to
(0, i)); and the printed lambda-bar power in that entry matches the true
inverse only for real lambda. With Phi = D^-1 D' = diag(lam / lambar, 1,
..., 1), gtilde . stated = D P (B Phi C) P^-1 D'^-1 / (4 F Delta). Given
B C = 4 F Delta I, B Phi C - 4 F Delta Phi = (lam / lambar - 1) (B e_0
C[0,.] - 4 F Delta e_0 e_0^T), whose fibre entry is -12 F Delta != 0. So
the check decides the lambda-free B C = 4 F Delta I on the integers
(`_inverts`), and passes exactly when it holds and lambda is real.

Christoffel check. Direct differentiation of the printed entries
K D S D* validates the published all-base and fibre-upper connection
formulas; the mixed formula (lambda^{-1} delta) and the vanishing
pure-fibre symbol need the potential-consistent scaling lambda lambda-bar K
of the transposed entries, K E S E* with E = -lam D J and
J = diag(-1, 1, ..., 1), under which the matrix is genuinely Kahler. In
Gamma[x][b][c] = sum_e conj(h^{-1})[x][e] D_b h[c][e], with D_0 = d/dlam
(lambda-bar fixed) and D_{q+1} = d/dt_q = -(i/2) l d/dz_q, the diagonal
factors cancel on e and K / (4F) is constant in y, so with d = det B,

    W[q][x][c] = (adj B . dB_q)[x][c],
    dB_q = d B / d z_q = [[4 a_q, 2 H[q,.]], [2 H[.,q], t[.,.,q]]],

Gamma[x][q+1][c] = -(i/2) l^(1 - [x>0] + [c>0]) D_x^{-1} D_c W[q][x][c] / d,
times J_x J_c under E. D_0 h = (a / lam) h for an entry of power lam^a
gives Gamma[x][0][c]: -1/lam at x = c = 0 as printed, 1/lam at x = c > 0
under E, 0 elsewhere. The published side reads the jet: the base symbols
i beta = -(i l / (2 F Delta)) U, U[p][j][c] = (A . Dg)[p][j,c], and
K_i = i k_i, k = -l a / (2F), Hess f = H / (s l). With sigma = +1 for the
printed and -1 for the potential scaling, each comparison clears to an
identity on ints, in which lambda does not appear:

    base         F Delta W[j][i+1][c+1]
                     = d (U[i][j][c] + Delta (delta_ic a_j + delta_ij a_c)),
    fibre-upper  2 F^2 Delta sigma W[i][0][j+1]
                     = d (F Delta H[i,j] - 2 Delta a_i a_j
                          - sum_c a_c U[c][i][j]),
    mixed        sigma W[j][i+1][0] = -2 d delta_ij,
    zeros        never as printed; under E, W[q][0][0] = 0 for every q.

Only base, which compares differentiation with the jet's Dg, is decided.
Given B C = 4 F Delta I, adj B = d C / (4 F Delta) (a built B is never
singular: F^(n-1) d = 4 (-1)^n Delta), so base reads through rows 1..n
of C, and the check makes no inverse of B. It passes exactly when
B C = 4 F Delta I (`_inverts`) and

    (C . dB_j)[i+1][c+1] = 4 (U[i][j][c] + Delta (delta_ic a_j + delta_ij a_c))

hold. Both sides are symmetric in (j, c): U as Dg is, the delta term,
and C . dB_j, as dB_j e_(c+1) = (2 H[j,c], t[.,j,c]) = dB_c e_(j+1) for
every B. So base is decided over j <= c, n^2 (n+1) / 2 identities, one
column of dB per `SymMatrix` slot.
The rest is fixed by how B is built, and W is never formed. B's fibre
row is (4F, 2a), so row 0 of B W_i = d dB_i gives, with each R the left
side minus the right side of its identity above,
R_up[i][j] = -sum_m a_m R_base[m][i][j] for every Dg: fibre-upper holds as
printed where base does. Both scalings' fibre-upper would need
W[i][0][j+1] = 0, but by Aa = Delta z / F that row is
2 (-1)^(n+1) Delta H / F^n != 0, so under E it is reported false. Mixed
and zeros hold under E and fail as printed: B and dB_c are read from the
same a and H, so dB_c e_0 = 2 B e_(c+1) and W[c][x][0] = 2 d delta_(x,c+1).
So does the lower symmetry Gamma[x][b][c] = Gamma[x][c][b]: to the mixed
and zero entries it adds the symmetry of dB above. The recovery relation,
Gamma[i][j][c] - lam (Gamma[i][j][0] K_c + Gamma[i][0][c] K_m) =
i beta_ijc on the potential array, read as m = j (corrected) or m = i (as
printed), is

    2 F Delta W[j][i+1][c+1] - Delta a_c W[j][i+1][0]
        - 2 d Delta delta_ic a_m = 2 d U[i][j][c],

whose sides differ by twice the base residual plus 2 d Delta delta_ic
(a_j - a_m), by the potential mixed identity: the corrected reading is
base's verdict, and the as-printed one is base's when all a_i (so all
K_i) are equal and false otherwise. inertia(gtilde) = inertia(B) (K > 0;
D, P invertible).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional

from .cubic import CubicForm, _point
from .errors import SingularHessian, ZeroLambda
from .geometry import _IntegerJet, _integer_jet
from .linalg import (CurvTensor, SymMatrix, _layout, contract, det_adjugate,
                     raise_index)
from .scalars import Complex, _exact, format_point

__all__ = [
    "AffineCheckResult",
    "TildeMetric",
    "TildeInverseResult",
    "TildeChristoffelResult",
    "affine_curvature_check",
    "affine_metric",
    "build_tilde_metric",
    "tilde_inverse_check",
    "tilde_christoffel_check",
]

LITERATURE_KAPPA = Fraction(-4)


def affine_metric(form: CubicForm, y) -> SymMatrix:
    """The flat-prepotential metric -Im tau = -4 Hess f(y), linear in y."""
    return form.hessian(y).scale(Fraction(-4))


class AffineCheckResult(NamedTuple):
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
    contract(f3, hinv) for any symmetric hinv, and its ratio to the
    literature side contract(f3, -hinv/4) is kappa = -4 at every entry
    where that side is nonzero, of which an invertible Hess f has some. So
    one contraction is both sides, the residual is zero and kappa is
    `LITERATURE_KAPPA`. Only a wrong hinv can be caught, by the oracle
    inverse in `test_affine_kappa_constant_across_suite`.
    """
    point = _point(form, y)
    det, adj = det_adjugate(point.H)
    if det == 0:
        raise SingularHessian(f"Hess f is singular at {format_point(point.y)}")
    expected = contract(form._integer_third()[1], adj).scale(
        Fraction(point.l, point.s * det))
    return AffineCheckResult(
        passed=True, kappa=LITERATURE_KAPPA, kappa_constant=True,
        curvature=expected, expected=expected,
        residual=CurvTensor.zeros(form.n), max_abs_residual=Fraction(0))


# ----------------------------------------------------------------------------
# fibre-extended metric

class TildeMetric(NamedTuple):
    n: int
    t: tuple                 # complex coordinates, Im t interior
    lam: Complex
    y: tuple                 # Im t
    norm_value: object       # K = 8 f(y)
    ij: _IntegerJet          # every entry, and k = -l a / (2F), read from it
    bordered: SymMatrix      # B = [[4F, 2a^T], [2a, H]], on ints
    stated: SymMatrix        # C, the cleared stated inverse, on ints

    @property
    def gtilde(self) -> list:
        """The printed entries K (D P) B (D P)* / (4F)."""
        s, l = self.norm_value / (4 * self.ij.point.F), self.ij.point.l
        return _hermitian(self.bordered.rows(), s / self.lam.abs2(),
                          s * l * Complex(0, -1) / self.lam, s * l * l)

    @property
    def gtilde_inv_stated(self) -> list:
        """The published inverse entries conj(D')^-1 P^-1 C P^-1 D'^-1
        / (K Delta), placement calibrated."""
        s, l = 1 / (self.norm_value * self.ij.delta), self.ij.point.l
        return _hermitian(self.stated.rows(), s * self.lam.abs2(),
                          s / l * Complex(0, -1) * self.lam, s / (l * l))


def _hermitian(rows, corner, edge, base) -> list:
    """The `Complex` rows of the real symmetric matrix `rows`, each entry
    times the factor of its index class: the real `corner` at the fibre
    entry, `edge` on the fibre row, its conjugate on the fibre column and the
    real `base` on the base block."""
    (head, *top), *rest = rows
    top = [edge * v for v in top]
    return [[Complex(corner * head)] + top] + [
        [z.conj()] + [Complex(base * v) for v in r[1:]]
        for z, r in zip(top, rest)]


def _bordered(corner, edge, block) -> SymMatrix:
    """[[corner, edge^T], [edge, block]], the block given as rows."""
    return SymMatrix.from_rows(
        [[corner, *edge]] + [[v, *r] for v, r in zip(edge, block)])


def build_tilde_metric(form: CubicForm, t, lam) -> TildeMetric:
    """The fibre-extended metric and its published inverse at (t, lam), as
    the integer matrices B and C (module docstring)."""
    t, lam = tuple(map(_exact, t)), _exact(lam)
    if lam == 0:
        raise ZeroLambda("fibre coordinate must be nonzero")
    y = tuple(v.im for v in t)
    ij = _integer_jet(form, y)        # NotInCone unless Im t is interior
    F, a, delta = ij.point.F, ij.point.a, ij.delta
    return TildeMetric(
        n=form.n, t=t, lam=lam, y=y, norm_value=8 * ij.point.f, ij=ij,
        bordered=_bordered(4 * F, [2 * v for v in a], ij.point.H.rows()),
        stated=_bordered(-2 * delta, [2 * delta * v for v in ij.point.z],
                         [[-4 * F * F * v for v in r] for r in ij.adj.rows()]))


class TildeInverseResult(NamedTuple):
    passed: bool


def _inverts(tm: TildeMetric) -> bool:
    """B C = 4 F Delta I on ints, which both fibre checks read (module
    docstring); C is symmetric, so its rows are its columns."""
    s, c = 4 * tm.ij.point.F * tm.ij.delta, tm.stated.rows()
    return all(sum(map(mul, b_x, c_y)) == (s if x == y else 0)
               for x, b_x in enumerate(tm.bordered.rows())
               for y, c_y in enumerate(c))


def tilde_inverse_check(tm: TildeMetric) -> TildeInverseResult:
    """gtilde * stated inverse against the identity: it holds exactly when
    B C = 4 F Delta I and lambda is real (module docstring)."""
    return TildeInverseResult(passed=tm.lam.im == 0 and _inverts(tm))


# --- connection coefficients -------------------------------------------------

class TildeChristoffelResult(NamedTuple):
    passed: bool
    matches: dict            # scaling -> {group -> bool}
    lower_symmetric: dict    # scaling -> bool
    recovery_relation: dict  # {"corrected": bool, "as-printed": bool}
    mismatches: list         # (scaling, group) pairs that fail


def tilde_christoffel_check(tm: TildeMetric) -> TildeChristoffelResult:
    """Decide the base connection formula through rows 1..n of C, with U,
    the jet and B C = 4 F Delta I, one column of dB per index pair j <= c,
    and read every other verdict off it (module docstring)."""
    return _fibre_checks(tm)[1]


def _fibre_checks(tm: TildeMetric):
    """Both fibre checks' records, from one B C decision (`_inverts`)."""
    ij, lay, t, inverts = tm.ij, _layout(tm.n), tm.ij.t._data, _inverts(tm)
    a, delta = ij.point.a, ij.delta
    # dB_j e_(c+1) = (2 H[j,c], t[.,j,c]), one column per SymMatrix slot
    cols = [[2 * h, *(t[q] for q in triples)]
            for h, triples in zip(ij.point.H._data, lay.pair_triples)]
    u = raise_index(ij.Dg, ij.adj)                  # U[i] = (A . Dg)[i]
    base = inverts and all(sum(map(mul, r, col)) == 4 * (
        u_i._data[s] + delta * ((i == c) * a[j] + (i == j) * a[c]))
        for s, ((j, c), col) in enumerate(zip(lay.pairs, cols))
        for i, (r, u_i) in enumerate(zip(tm.stated.rows()[1:], u)))
    # fibre-upper, mixed, zeros and lower symmetry: fixed by how B is built
    matches = {"printed": {"base": base, "mixed": False,
                           "fibre-upper": base, "zeros": False},
               "potential": {"base": base, "mixed": True,
                             "fibre-upper": False, "zeros": True}}
    mismatches = [(scaling, group) for scaling, row in matches.items()
                  for group, ok in row.items() if not ok]
    chris = TildeChristoffelResult(
        passed=base, matches=matches,
        lower_symmetric={"printed": False, "potential": True},
        recovery_relation={"corrected": base,
                           "as-printed": base and len(set(a)) == 1},
        mismatches=mismatches)
    return TildeInverseResult(passed=tm.lam.im == 0 and inverts), chris
