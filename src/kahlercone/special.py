"""Auxiliary special-geometry checks: the affine curvature identity and the
fibre-extended cone metric.

Affine side. The flat prepotential metric is a(y) = -4 Hess f(y), linear in
y, so its second derivatives vanish identically and the same real-reduction
curvature formula as in `geometry` collapses to a single contraction. The
normative identity checked here is convention-free:

    R_aff[i,j,k,l] = sum_{p,q} (Hess f)^{-1}[p,q] f3[i,k,p] f3[j,l,q].

The literature normalization (metric -4 Hess f contracted instead) differs
from this by the constant kappa = -4, which the check recomputes per entry
and asserts globally constant.

Fibre extension. `build_tilde_metric` assembles the (n+1) x (n+1) hermitian
matrix from the six published closed-form entries with K = 8 f(Im t) and
K_i = d/dt_i log K, together with the published inverse entries. Two
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
lambda lambda-bar K of the same entries (with the fibre row sign flipped),
under which the matrix is genuinely Kahler. The check computes both
derivations exactly, compares each published formula group under each, and
passes when every group is reproduced by at least one derivation, reporting
the full match table. The ambiguous recovery relation for the base symbols
is evaluated under both of its index readings and the verdicts reported.
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
    hess = form.hessian(y)
    try:
        hinv = invert(hess)
    except SingularMatrix as exc:
        raise SingularHessian(f"Hess f is singular at {format_point(y)}") \
            from exc
    f3 = form.third_tensor
    aff = affine_metric(form, y)
    da = f3.scale(Fraction(-4))
    ainv = invert(aff)
    # second derivatives of the linear metric vanish: lhs = -1/4 * contraction
    curvature = contract(da, ainv).scale(Fraction(-1, 4))
    expected = contract(f3, hinv)
    residual = curvature - expected
    # the literature-normalized right side, for the constant-ratio check
    literature_side = contract(f3, ainv)
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
    gtilde: list             # (n+1) x (n+1) hermitian rows, fibre index 0
    gtilde_inv_stated: list  # published inverse entries, placement calibrated
    gamma_printed: list      # published connection formulas, (n+1)^3
    jet: MetricJet


def _as_complex_point(t):
    return tuple(Complex.of(v) for v in t)


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
    g, ginv = jet.g, jet.ginv
    lam_bar = lam.conj()

    gt = [[None] * (n + 1) for _ in range(n + 1)]
    gt[0][0] = Complex(kval) / (lam * lam_bar)
    for i in range(n):
        gt[0][i + 1] = kval * k_log[i] / lam
        gt[i + 1][0] = gt[0][i + 1].conj()
        for j in range(n):
            gt[i + 1][j + 1] = kval * (Complex(-g[i, j])
                                       + k_log[i] * k_log[j].conj())

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

    gamma = _gamma_printed(form, lam, k_log, jet)
    return TildeMetric(n=n, t=t, lam=lam, y=y, norm_value=kval, k_log=k_log,
                       gtilde=gt, gtilde_inv_stated=inv, gamma_printed=gamma,
                       jet=jet)


def _gamma_printed(form, lam, k_log, jet):
    """The published connection formulas assembled as an (n+1)^3 array.

    Index 0 is the fibre direction; entries are symmetric in the lower pair.
    The second mixed derivative of K reduces to -2 Hess f.
    """
    n = form.n
    zero = Complex(Fraction(0))
    base = jet.christoffels()
    kval = 8 * jet.f
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


# --- direct differentiation of the two entry scalings ------------------------

@dataclass(frozen=True)
class _Entry:
    """Metric entry coef(y) * lam^a * lambar^b with the coefficient's y-gradient."""
    coef: Complex
    grad: tuple
    a: int
    b: int

    def value(self, lam):
        return self.coef * _ipow(lam, self.a) * _ipow(lam.conj(), self.b)

    def d_lam(self, lam):
        if self.a == 0:
            return Complex(Fraction(0))
        return self.a * self.coef * _ipow(lam, self.a - 1) \
            * _ipow(lam.conj(), self.b)

    def d_t(self, lam, k):
        # d/dt_k = -(i/2) d/dy_k on x-independent coefficients
        return Complex(Fraction(0), Fraction(-1, 2)) * self.grad[k] \
            * _ipow(lam, self.a) * _ipow(lam.conj(), self.b)


def _ipow(z: Complex, e: int) -> Complex:
    out = Complex(Fraction(1))
    for _ in range(abs(e)):
        out = out * z
    if e < 0:
        return Complex(Fraction(1)) / out
    return out


def _entry_tables(form: CubicForm, tm: TildeMetric, scaling: str):
    """Entry functions for the chosen scaling of the fibre metric.

    "printed": entries exactly as published. "potential": entries of the
    potential lam lambar K, the scaling under which the matrix is Kahler.
    """
    n = form.n
    kval = tm.norm_value
    k_log = tm.k_log
    g, dg, grad = tm.jet.g, tm.jet.dg, tm.jet.grad
    two_i = Complex(Fraction(0), Fraction(2))

    def dk(k):                      # d/dy_k of K
        return Complex(8 * grad[k])

    def dklog(i, k):                # d/dy_k of K_i = 2i g[i,k]
        return two_i * Complex(g[i, k])

    def coef_base(i, j):
        return kval * (Complex(-g[i, j]) + k_log[i] * k_log[j].conj())

    def coef_base_grad(i, j):
        out = []
        for k in range(n):
            out.append(dk(k) * (Complex(-g[i, j]) + k_log[i] * k_log[j].conj())
                       + kval * (Complex(-dg[i, j, k])
                                 + dklog(i, k) * k_log[j].conj()
                                 + k_log[i] * dklog(j, k).conj()))
        return tuple(out)

    def coef_kki(i):
        return kval * k_log[i]

    def coef_kki_grad(i):
        return tuple(dk(k) * k_log[i] + kval * dklog(i, k) for k in range(n))

    def coef_kki_bar(i):
        return kval * k_log[i].conj()

    def coef_kki_bar_grad(i):
        return tuple(dk(k) * k_log[i].conj() + kval * dklog(i, k).conj()
                     for k in range(n))

    k_grad = tuple(dk(k) for k in range(n))
    e = [[None] * (n + 1) for _ in range(n + 1)]
    if scaling == "printed":
        e[0][0] = _Entry(Complex(kval), k_grad, -1, -1)
        for i in range(n):
            e[0][i + 1] = _Entry(coef_kki(i), coef_kki_grad(i), -1, 0)
            e[i + 1][0] = _Entry(coef_kki_bar(i), coef_kki_bar_grad(i), 0, -1)
            for j in range(n):
                e[i + 1][j + 1] = _Entry(coef_base(i, j),
                                         coef_base_grad(i, j), 0, 0)
    elif scaling == "potential":
        e[0][0] = _Entry(Complex(kval), k_grad, 0, 0)
        for i in range(n):
            e[0][i + 1] = _Entry(coef_kki_bar(i), coef_kki_bar_grad(i), 0, 1)
            e[i + 1][0] = _Entry(coef_kki(i), coef_kki_grad(i), 1, 0)
            for j in range(n):
                e[i + 1][j + 1] = _Entry(coef_base(i, j),
                                         coef_base_grad(i, j), 1, 1)
    else:
        raise ValueError(f"unknown scaling {scaling!r}")
    return e


def _direct_gamma(entries, lam, n):
    """Gamma[a][b][c] = sum_d conj(inverse)[a][d] * D_b entries[c][d]."""
    size = n + 1
    values = [[entries[r][c].value(lam) for c in range(size)]
              for r in range(size)]
    hbar = [[z.conj() for z in row] for row in invert_rows(values)]

    def deriv(b, r, c):
        if b == 0:
            return entries[r][c].d_lam(lam)
        return entries[r][c].d_t(lam, b - 1)

    gamma = [[[None] * size for _ in range(size)] for _ in range(size)]
    for a in range(size):
        for b in range(size):
            for c in range(size):
                gamma[a][b][c] = sum(
                    (hbar[a][d] * deriv(b, c, d) for d in range(size)),
                    start=Complex(Fraction(0)))
    return gamma


_GROUPS = ("base", "mixed", "fibre-upper", "zeros")


@dataclass(frozen=True)
class TildeChristoffelResult:
    passed: bool
    matches: dict            # scaling -> {group -> bool}
    lower_symmetric: dict    # scaling -> bool
    recovery_relation: dict  # {"corrected": bool, "as-printed": bool}
    mismatches: list         # (scaling, group) pairs that fail
    direct: dict             # scaling -> full (n+1)^3 array


def tilde_christoffel_check(tm: TildeMetric,
                            form: CubicForm) -> TildeChristoffelResult:
    """Compare the published connection formulas against direct differentiation.

    Both entry scalings are differentiated exactly (see module docstring);
    the check passes when every published formula group is reproduced
    bit-exactly by at least one scaling and the potential scaling confirms
    the published vanishing entries and the mixed lambda^{-1} delta formula.
    """
    n = tm.n
    printed = tm.gamma_printed
    matches = {}
    symmetric = {}
    direct = {}
    for scaling in ("printed", "potential"):
        entries = _entry_tables(form, tm, scaling)
        gamma = _direct_gamma(entries, tm.lam, n)
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

    base = tm.jet.christoffels()
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
