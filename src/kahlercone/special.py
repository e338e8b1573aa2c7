"""Auxiliary special-geometry checks: the affine curvature identity and the
fibre-extended cone metric.

Affine side. The flat prepotential metric is a(y) = -4 Hess f(y), linear in
y, so its second derivatives vanish identically and the same real-reduction
curvature formula as in `geometry` collapses to a single contraction. The
normative identity checked here is convention-free:

    R_aff[i,j,k,l] = sum_{p,q} (Hess f)^{-1}[p,q] f3[i,k,p] f3[j,l,q].

The literature normalization (metric -4 Hess f contracted instead) differs
from this by the constant kappa = -4, which the check recomputes per entry
and asserts globally constant. Hess f is evaluated and inverted once; the
inverse of -4 Hess f is that inverse times -1/4.

Fibre extension. `build_tilde_metric` assembles the (n+1) x (n+1) hermitian
matrix from the published closed-form entries with K = 8 f(Im t) and
K_i = d/dt_i log K, together with the published inverse entries. Index 0 is
the fibre direction. Every entry is a coefficient in y times a power of the
fibre coordinate: with u = (1, K_1, ..., K_n) and g padded by a zero fibre
row and column, the coefficient table is

    coef[r][c] = K (conj(u_r) u_c - g[r,c]),

whose y-gradients (dK/dy_k = 8 df/dy_k, dK_i/dy_k = 2i g[i,k]) only the
Christoffel check forms. The printed metric is coef[r][c] lam^a lambar^b,
with the lambda-power table (a, b) = (-1,-1) at the fibre entry, (-1,0) on
the fibre row, (0,-1) on the fibre column and (0,0) on the base block. Two
calibrations, fixed at n = 1 and documented here because the published
formulas leave them open:

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
genuinely Kahler. That scaling is the transposed coefficient table (which
flips the sign of the fibre row, K_i being imaginary) with every power of
the table above raised by (1, 1). The check differentiates both scalings
exactly, compares each published formula group under each, and passes when
every group is reproduced by at least one derivation, reporting the full
match table. The ambiguous recovery relation for the base symbols is
evaluated under both of its index readings and the verdicts reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cubic import CubicForm
from .errors import SingularHessian, SingularMatrix, ZeroLambda
from .geometry import MetricJet, kahler_metric
from .linalg import (CurvTensor, SymMatrix, contract, identity_rows,
                     invert, invert_rows, mat_mul)
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
    t = _as_complex_point(t)
    x = [v.re for v in t]
    y = [v.im for v in t]
    hx = form.hessian(x)
    hy = form.hessian(y)
    n = form.n
    return [[Complex(4 * hx[i, j], 4 * hy[i, j]) for j in range(n)]
            for i in range(n)]


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
    """Verify the affine curvature identity at a point with invertible Hessian."""
    y = tuple(Fraction(v) for v in y)
    try:
        hinv = invert(form.hessian(y))
    except SingularMatrix as exc:
        raise SingularHessian(f"Hess f is singular at {format_point(y)}") \
            from exc
    f3 = form.third_tensor
    ainv = hinv.scale(Fraction(-1, 4))      # inverse of -4 Hess f, exactly
    # second derivatives of the linear metric vanish: lhs = -1/4 * contraction
    curvature = contract(f3.scale(Fraction(-4)), ainv).scale(Fraction(-1, 4))
    expected = contract(f3, hinv)
    residual = curvature - expected
    # the literature-normalized right side contract(f3, ainv), for the
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
    coef: list               # (n+1) x (n+1) entry coefficients, fibre index 0
    gtilde: list             # coef times the printed lambda powers
    gtilde_inv_stated: list  # published inverse entries, placement calibrated
    jet: MetricJet


def _as_complex_point(t):
    return tuple(Complex.of(v) for v in t)


def _lam_factors(lam):
    """{(a, b): lam^a lambar^b} for a, b in -1, 0, 1."""
    one = Complex(Fraction(1))
    power = {-1: one / lam, 0: one, 1: lam}
    return {(a, b): power[a] * power[b].conj() for a in power for b in power}


def _lam_powers(size, shift):
    """The printed lambda-power table (a, b) raised by (shift, shift)."""
    return [[(shift - (r == 0), shift - (c == 0)) for c in range(size)]
            for r in range(size)]


def _scaled(coef, powers, factors):
    """The entries coef[r][c] * lam^a * lambar^b, (a, b) = powers[r][c]."""
    return [[coef[r][c] * factors[p] for c, p in enumerate(row)]
            for r, row in enumerate(powers)]


def _entry_coefficients(jet: MetricJet, kval, k_log):
    """The coefficient table coef[r][c] = K (conj(u_r) u_c - g[r,c]) with
    u = (1, K_1, ..., K_n) (module docstring)."""
    n = len(k_log)
    u = (Complex(Fraction(1)),) + k_log
    return [[kval * (u[r].conj() * u[c]
                     - (jet.g[r - 1, c - 1] if r and c else 0))
             for c in range(n + 1)] for r in range(n + 1)]


def _coefficient_gradients(tm: TildeMetric):
    """The y-gradients of tm.coef, one n-tuple per entry: with
    dK/dy_k = 8 df/dy_k and dK_i/dy_k = 2i g[i,k],
    d coef[r][c] / dy_k = (dK/dy_k / K) coef[r][c]
                          + K d(conj(u_r) u_c - g[r,c]) / dy_k."""
    n, jet, kval = tm.n, tm.jet, tm.norm_value
    zero = Complex(Fraction(0))
    u = (Complex(Fraction(1)),) + tm.k_log
    du = [(zero,) * n] + [tuple(Complex(Fraction(0), 2 * jet.g[i, k])
                                for k in range(n)) for i in range(n)]
    dlog_k = [8 * v / kval for v in jet.grad]
    return [[tuple(
        dlog_k[k] * tm.coef[r][c]
        + kval * (du[r][k].conj() * u[c] + u[r].conj() * du[c][k]
                  - (jet.dg[r - 1, c - 1, k] if r and c else 0))
        for k in range(n)) for c in range(n + 1)] for r in range(n + 1)]


def build_tilde_metric(form: CubicForm, t, lam) -> TildeMetric:
    """Assemble the fibre-extended metric and its published inverse at (t, lam)."""
    t = _as_complex_point(t)
    lam = Complex.of(lam)
    if lam.is_zero():
        raise ZeroLambda("fibre coordinate must be nonzero")
    y = tuple(v.im for v in t)
    jet = kahler_metric(form, y)      # NotInCone unless Im t is interior
    n = form.n
    kval = 8 * jet.f
    half = Fraction(1, 2)
    k_log = tuple(Complex(Fraction(0), -half * jet.grad[i] / jet.f)
                  for i in range(n))
    coef = _entry_coefficients(jet, kval, k_log)
    gt = _scaled(coef, _lam_powers(n + 1, 0), _lam_factors(lam))

    ginv = jet.ginv
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

    return TildeMetric(n=n, t=t, lam=lam, y=y, norm_value=kval, k_log=k_log,
                       coef=coef, gtilde=gt,
                       gtilde_inv_stated=inv, jet=jet)


@dataclass(frozen=True)
class TildeInverseResult:
    passed: bool
    product: list


def tilde_inverse_check(tm: TildeMetric) -> TildeInverseResult:
    """Exact product gtilde * stated inverse against the identity matrix."""
    product = mat_mul(tm.gtilde, tm.gtilde_inv_stated)
    ident = identity_rows(tm.n + 1)
    passed = all(product[i][j] == ident[i][j]
                 for i in range(tm.n + 1) for j in range(tm.n + 1))
    return TildeInverseResult(passed=passed, product=product)


# --- connection coefficients -------------------------------------------------

def _gamma_printed(tm: TildeMetric, base):
    """The published connection formulas assembled as an (n+1)^3 array,
    from the base Christoffel symbols `base`.

    Index 0 is the fibre direction; entries are symmetric in the lower pair.
    The second mixed derivative of K reduces to -2 Hess f.
    """
    n, lam, k_log, jet = tm.n, tm.lam, tm.k_log, tm.jet
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
            ddk = Fraction(-2) * jet.hess[i, j]
            v = lam * acc + 2 * lam * k_log[i] * k_log[j] \
                - lam * Complex(ddk) / kval
            gamma[0][i + 1][j + 1] = v
    return gamma


def _direct_gamma(tm: TildeMetric, grad, shift, factors):
    """Gamma[a][b][c] = sum_d conj(h^{-1})[a][d] * D_b h[c][d] for one scaling
    h of the fibre metric: shift 0 is the printed one, shift 1 the potential
    one (module docstring), with `grad` the y-gradients of tm.coef.
    D_0 = d/dlam gives (a/lam) h for an entry of power lam^a;
    D_{k+1} = d/dt_k = -(i/2) d/dy_k acts on the coefficient."""
    n = tm.n
    size = n + 1
    coef = tm.coef
    if shift:
        coef, grad = list(zip(*coef)), list(zip(*grad))
    powers = _lam_powers(size, shift)
    lam_inv = factors[-1, 0]
    minus_half_i = Complex(Fraction(0), Fraction(-1, 2))
    h = _scaled(coef, powers, factors)
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

    Both entry scalings are differentiated exactly (see module docstring);
    the check passes when every published formula group is reproduced
    bit-exactly by at least one scaling and the potential scaling confirms
    the published vanishing entries and the mixed lambda^{-1} delta formula.
    """
    n = tm.n
    base = tm.jet.christoffels()
    printed = _gamma_printed(tm, base)
    factors = _lam_factors(tm.lam)
    grad = _coefficient_gradients(tm)
    matches = {}
    symmetric = {}
    direct = {}
    for scaling, shift in (("printed", 0), ("potential", 1)):
        gamma = _direct_gamma(tm, grad, shift, factors)
        direct[scaling] = gamma
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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lead = printed[i + 1][j + 1][k + 1] \
                    - lam * printed[i + 1][j + 1][0] * k_log[k]
                corrected = lead - lam * printed[i + 1][0][k + 1] * k_log[j]
                literal = lead - lam * printed[i + 1][0][k + 1] * k_log[i]
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
