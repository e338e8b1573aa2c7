"""Homogeneous cubic forms: parsing, calculus, and index-cone membership.

A form is stored once, as a map from exponent vectors (summing to 3) to
exact rational coefficients; its constant tensor of third partials and an
integer multiple of it are built on first use. A rational point is cleared
to Python ints in two steps: `_clear` gives the value F, and `_cleared`
the Hessian, gradient and cleared metric M at any sign of F, which decide
index-cone membership and are the integers the exact metric jet is built
from; the sampler builds them only where F > 0. Only homogeneous cubics are
accepted: the norm-function identity and the cone structure both rest on
Euler's relation, which fails for inhomogeneous input.

Text grammar (whitespace insignificant)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := coeff ("*" factor)* | factor ("*" factor)*
    factor := var ("^" digit)?
    var    := "y" index            # 1-based, y1 ... yn
    coeff  := integer ("/" positive-integer)?
"""

from __future__ import annotations

import enum
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul
from typing import NamedTuple, Optional

from .errors import (DimensionMismatch, NotHomogeneousCubic, NotInCone,
                     ParseError, SamplingExhausted)
from .linalg import (Sym3Tensor, SymMatrix, _layout, inertia,
                     positive_definite)
from .poly import Poly
from .scalars import Complex, format_point

__all__ = [
    "CubicForm",
    "ConePoint",
    "Membership",
    "NormIdentityResult",
    "parse_text",
    "cone_contains",
    "cone_sample",
    "norm_identity_check",
]

DEGREE = 3
MAX_VARIABLES = 32           # `_layout(32)` takes about 0.3 s and 58 MiB
GRID_NUM, GRID_DEN = 16, 8    # cone_sample's largest |numerator|, denominator
JITTER_R, JITTER_S = (-1, 1), (4, 8)  # bounds of r, s in a jitter (s + r)/s
# the distinct positive grid values p/q
GRID_POSITIVE = sum(math.gcd(p, q) == 1 for p in range(1, GRID_NUM + 1)
                    for q in range(1, GRID_DEN + 1))


def _check_dimension(n):
    if not 1 <= n <= MAX_VARIABLES:
        raise DimensionMismatch(f"{n} variables; 1 to {MAX_VARIABLES} are "
                                f"supported")


class Membership(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class ConePoint:
    """A real point of the index cone, optionally complexified as x + iy."""
    y: tuple
    x: Optional[tuple] = None

    def complexified(self):
        x = self.x if self.x is not None else (Fraction(0),) * len(self.y)
        return tuple(Complex(a, b) for a, b in zip(x, self.y))


class CubicForm:
    """A homogeneous cubic f in n variables with exact rational coefficients."""

    __slots__ = ("n", "monomials", "_f3", "_int_f3", "_text")

    def __init__(self, n, monomials):
        _check_dimension(n)
        self.n = n
        clean = {}
        for exp, coeff in monomials.items():
            exp = tuple(map(index, exp))
            if len(exp) != n or any(e < 0 for e in exp):
                raise DimensionMismatch(f"bad exponent vector {exp}")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if sum(exp) != DEGREE:
                raise NotHomogeneousCubic(
                    f"monomial {exp} has degree {sum(exp)}, expected {DEGREE}")
            clean[exp] = clean.get(exp, Fraction(0)) + coeff
        self.monomials = {e: c for e, c in sorted(clean.items(), reverse=True)
                          if c != 0}
        self._f3 = None
        self._int_f3 = None
        self._text = None

    @property
    def third_tensor(self) -> Sym3Tensor:
        """Constant tensor of third partials; f = (1/6) sum f3[i,j,k] yi yj yk.
        A monomial q*y^e has one nonzero third partial, q * prod(e_i!), at
        the index multiset that e counts."""
        if self._f3 is None:
            self._f3 = Sym3Tensor.zeros(self.n)
            for exp, coeff in self.monomials.items():
                idx = tuple(i for i, e in enumerate(exp) for _ in range(e))
                self._f3[idx] = coeff * math.prod(map(math.factorial, exp))
        return self._f3

    def _integer_third(self):
        """(s, t, rows, terms): s = 6c, c > 0 the lcm of the coefficient
        denominators; t the integer Sym3Tensor s * f3, the third-derivative
        tensor of the integer cubic s*f; for each SymMatrix slot (i, j), in
        packed order, the row t[i, j, 0..n-1], so that the Hessian of s*f at
        an integer z is the integer SymMatrix of rows . z; and per monomial
        w z_i z_j z_k (i <= j <= k) of s*f, (w, SymMatrix slot of (i, j), k):
        t[i, j, k] with its multinomial weight baked in."""
        if self._int_f3 is None:
            s = 6 * math.lcm(*[v.denominator for v in self.monomials.values()])
            data = [int(s * v) for v in self.third_tensor._data]
            lay = _layout(self.n)
            rows = [[data[q] for q in slots] for slots in lay.pair_triples]
            terms = []
            for exp, coeff in self.monomials.items():
                i, j, k = (i for i, e in enumerate(exp) for _ in range(e))
                terms.append((int(s * coeff), lay.slot[i][j], k))
            self._int_f3 = (s, Sym3Tensor(self.n, data), rows, terms)
        return self._int_f3

    def evaluate(self, y):
        self._check_len(y)
        return Poly(self.n, self.monomials).evaluate(y)

    def hessian(self, y) -> SymMatrix:
        self._check_len(y)
        f3 = self.third_tensor
        n = self.n
        return SymMatrix.build(
            n, lambda i, j: sum(f3[i, j, k] * y[k] for k in range(n)))

    def pullback(self, a_rows) -> "CubicForm":
        """The form y -> f(A y) for a square rational matrix A (given as rows)."""
        n = self.n
        if len(a_rows) != n or any(len(r) != n for r in a_rows):
            raise DimensionMismatch("matrix shape does not match the form")
        images = [Poly(n, {tuple(int(c == j) for c in range(n)): Fraction(a_rows[i][j])
                           for j in range(n) if a_rows[i][j] != 0})
                  for i in range(n)]
        composed = Poly(n, self.monomials).compose(images)
        return CubicForm(n, composed.terms)

    def _check_len(self, y):
        if len(y) != self.n:
            raise DimensionMismatch(
                f"point has {len(y)} coordinates, form has {self.n}")

    def to_text(self) -> str:
        """The form as parse_text reads it; built on first use."""
        if self._text is None:
            self._text = self._render_text()
        return self._text

    def _render_text(self):
        if not self.monomials:
            return "0"
        parts = []
        for idx, (exp, coeff) in enumerate(self.monomials.items()):
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"y{i + 1}")
                elif e > 1:
                    factors.append(f"y{i + 1}^{e}")
            mag = abs(coeff)
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
            if idx == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "monomials": [{"exp": list(e), "coeff": str(c)}
                          for e, c in self.monomials.items()],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "CubicForm":
        monos = {}
        for m in doc["monomials"]:
            exp = tuple(m["exp"])
            try:
                monos[exp] = Fraction(m["coeff"])
            except ZeroDivisionError:
                raise ValueError(f"monomial with exponents {list(exp)} has a "
                                 f"zero denominator in its coefficient "
                                 f"{m['coeff']!r}") from None
        if any(type(v) is bool for exp in [(doc["n"],), *monos] for v in exp):
            raise TypeError("n and every exponent must be JSON integers")
        return cls(index(doc["n"]), monos)

    def __eq__(self, other):
        return (isinstance(other, CubicForm) and self.n == other.n
                and self.monomials == other.monomials)

    def __repr__(self):
        return f"CubicForm({self.n}, {self.to_text()!r})"


# ----------------------------------------------------------------------------
# parsing

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


def parse_text(src: str, n: int) -> CubicForm:
    """Parse polynomial source text into an exact CubicForm.

    Raises ParseError for malformed input, NotHomogeneousCubic when a
    surviving monomial has degree other than 3, DimensionMismatch on n.
    """
    _check_dimension(n)
    parser = _Parser(_tokenize(src), n)
    monomials = parser.expr()
    return CubicForm(n, monomials)


# ----------------------------------------------------------------------------
# index-cone membership and sampling

class Cleared(NamedTuple):
    """The cubic at a rational point y on Python ints, at any sign of f:
    z = l*y, with l the lcm of y's denominators, and with s = 6c from
    `_integer_third`, F = (s*f)(z), H the Hessian of s*f at z, a = H z / 2
    its gradient and M = a a^T - F H. Then f(y) = F / (s l^3),
    grad f(y) = a / (s l^2), Hess f(y) = H / (s l) and, where F > 0, the
    metric g(y) = l^2 M / (4 F^2)."""
    l: int
    s: int
    z: list
    F: int
    H: SymMatrix
    a: list
    M: SymMatrix

    @property
    def f(self) -> Fraction:
        return Fraction(self.F, self.s * self.l**3)


def _clear(form: CubicForm, pairs):
    """(l, z, F) of `Cleared`, with no Hessian, at the rational point y given
    as one pair (p, q), q > 0, per coordinate p/q in lowest terms."""
    form._check_len(pairs)
    l = math.lcm(*[q for _, q in pairs])
    z = [p * (l // q) for p, q in pairs]
    terms = form._integer_third()[3]
    zz = [z[i] * z[j] for i, j in _layout(form.n).pairs]
    return l, z, sum(w * zz[ij] * z[k] for w, ij, k in terms)


def _cleared(form: CubicForm, l, z, F) -> Cleared:
    """The complete `Cleared` of `_clear`'s (l, z, F), at any integer z."""
    s, _, rows, _ = form._integer_third()
    lay = _layout(form.n)
    h = [sum(map(mul, row, z)) for row in rows]
    a = [sum(map(mul, [h[q] for q in row], z)) // 2 for row in lay.slot]
    M = SymMatrix(form.n, [a[i] * a[k] - F * v
                           for (i, k), v in zip(lay.pairs, h)])
    return Cleared(l=l, s=s, z=z, F=F, H=SymMatrix(form.n, h), a=a, M=M)


def _is_interior(point: Cleared) -> bool:
    """The index-cone interior test: F > 0 and M positive definite.

    Since z^T H z = 6F > 0 and H z = 2a, H has inertia (1, n-1, 0) exactly
    when it is negative definite on a^perp, and M z = F a, z^T M z = 3F^2
    and M = -F H on a^perp, so exactly when M is positive definite. The
    sign of F decides most points (`cone_sample` reads it from `_clear`);
    `positive_definite` reads the leading minors of M and stops early.

    Membership is unchanged by y -> l*y with l > 0 and by f -> s*f with
    s > 0, so the integers of `Cleared` decide it for y."""
    return point.F > 0 and positive_definite(point.M)


def _classify(form: CubicForm, y):
    """(verdict, inertia of Hess f(y), Cleared) of a rational point, from
    one exact evaluation on ints. A float coordinate is read as the exact
    rational it stores. The same integers are the input of the exact
    metric jet. An interior point has inertia (1, n-1, 0) by the interior
    test; only elsewhere is `inertia(H)` computed, to tell Boundary from
    Outside."""
    y = [Fraction(v) for v in y]
    point = _cleared(form, *_clear(
        form, [(v.numerator, v.denominator) for v in y]))
    if _is_interior(point):
        return Membership.INTERIOR, (1, form.n - 1, 0), point
    sig = plus, minus, zero = inertia(point.H)
    degenerate = point.F == 0 or zero > 0
    compatible = point.F >= 0 and plus <= 1 and minus <= form.n - 1
    verdict = (Membership.BOUNDARY if degenerate and compatible
               else Membership.OUTSIDE)
    return verdict, sig, point


def cone_contains(form: CubicForm, y) -> Membership:
    """Exact index-cone membership of a rational point.

    Interior: f(y) > 0 and the Hessian has exactly one positive and n-1
    negative eigenvalues. Boundary: f(y) = 0 or the Hessian is singular,
    while nothing already contradicts the interior sign pattern. Outside:
    everything else. Floats are never accepted here; membership is a
    boundary-sensitive decision and is only made exactly, on integers.
    """
    if any(isinstance(v, float) for v in y):
        raise TypeError("cone membership needs exact rational coordinates; "
                        "pass Fractions, ints, or 'p/q' strings")
    return _classify(form, y)[0]


def _reduced(pairs):
    """The rationals p/q (q > 0) as pairs in lowest terms: equal pairs for
    equal rationals."""
    out = []
    for p, q in pairs:
        g = math.gcd(p, q)
        out.append((p // g, q // g))
    return tuple(out)


def _off_grid(hint):
    """The number of distinct hint candidates c * h * m, c a positive grid
    value and each m_i a jitter factor, that are no grid vector; `hint` as
    (numerator, denominator) pairs."""
    values = {Fraction(p, q) for p in range(-GRID_NUM, GRID_NUM + 1)
              for q in range(1, GRID_DEN + 1)}
    jitters = {Fraction(s + r, s) for r in range(JITTER_R[0], JITTER_R[1] + 1)
               for s in range(JITTER_S[0], JITTER_S[1] + 1)}
    rays = [()]
    for hp, hq in hint:
        rays = [ray + (Fraction(hp, hq) * m,) for ray in rays for m in jitters]
    vectors = {tuple(c * v for v in ray) for c in values if c > 0
               for ray in rays}
    return sum(not values.issuperset(vec) for vec in vectors)


def cone_sample(form: CubicForm, count: int, seed: int,
                hint=None, budget: int = 100_000):
    """Sample `count` distinct exact interior points, deterministically.

    Strategy: random rational grid points with numerators in [-GRID_NUM,
    GRID_NUM] and denominators up to GRID_DEN; when a hint is given, also
    jittered positive scalings of it (rays from an interior point stay
    interior, the jitter is re-checked like any other candidate). Each
    candidate is kept as integer pairs (numerator, denominator) in lowest
    terms and decided by the same interior test as `cone_contains`: on its
    cleared integers, with no Hessian when f <= 0. Only accepted points
    become Fractions. Raises SamplingExhausted after `budget` attempts, or
    at the first repeat once every candidate the grid (and the hint) can
    give was seen: the nonzero grid vectors, and c * h * m for c a positive
    grid value and each m_i a jitter factor, counted exactly (`_off_grid`)
    once the grid's own count is reached.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if hint is not None:
        hint = tuple(Fraction(v) for v in hint)
        if cone_contains(form, hint) is not Membership.INTERIOR:
            raise NotInCone(f"hint point {format_point(hint)} is not interior")
        hint = [(h.numerator, h.denominator) for h in hint]
    randint = random.Random(seed).randint
    n = form.n
    found = []
    seen = set()
    grid = (2 * GRID_POSITIVE + 1)**n - 1       # the nonzero grid vectors
    bound = grid if hint is None else None
    for attempt in range(budget):
        if hint is not None and attempt % 2 == 1:
            # c * h * (1 + r/s) with c = cp/cq and h = hp/hq
            cp, cq = randint(1, GRID_NUM), randint(1, GRID_DEN)
            cand = []
            for hp, hq in hint:
                r, s = randint(*JITTER_R), randint(*JITTER_S)
                cand.append((cp * hp * (s + r), cq * hq * s))
        else:
            cand = [(randint(-GRID_NUM, GRID_NUM), randint(1, GRID_DEN))
                    for _ in range(n)]
        cand = _reduced(cand)
        if cand in seen or not any(p for p, _ in cand):
            if len(seen) < grid:
                continue
            if bound is None:
                bound = grid + _off_grid(hint)
            if len(seen) < bound:
                continue
            raise SamplingExhausted(
                f"found {len(found)}/{count} interior points among {bound} "
                f"distinct candidates in {budget} attempts; that is all "
                f"the grid{' and the hint' * bool(hint)} can give, drawn "
                f"within {attempt + 1} attempts")
        seen.add(cand)
        l, z, F = _clear(form, cand)
        if F > 0 and _is_interior(_cleared(form, l, z, F)):
            found.append(tuple(Fraction(p, q) for p, q in cand))
            if len(found) == count:
                return found
    raise SamplingExhausted(
        f"found {len(found)}/{count} interior points among {len(seen)} "
        f"distinct candidates in {budget} attempts; the index cone may be "
        "empty or thin, or the grid may hold too few distinct points - "
        "supply an interior hint")


# ----------------------------------------------------------------------------
# norm-function identity

@dataclass(frozen=True)
class NormIdentityResult:
    holds: bool
    counterexample: Optional[tuple] = None  # (exponents, got, expected)


def norm_identity_check(form: CubicForm) -> NormIdentityResult:
    """Verify symbolically that the tube-domain norm function equals 8 f(Im t).

    With t = x + iy the norm function is
        N(t) = i * ( sum_j (t_j - conj t_j) (d_j f(t) + conj d_j f(t))
                     + 2 conj f(t) - 2 f(t) ).
    Both sides are expanded as exact polynomials in the 2n real variables
    (x, y) and compared coefficient by coefficient.
    """
    n = form.n
    nv = 2 * n  # variables: x_0..x_{n-1}, y_0..y_{n-1}
    ii = Complex(Fraction(0), Fraction(1))
    t = [Poly.variable(nv, j) + ii * Poly.variable(nv, n + j) for j in range(n)]
    f_at_t = Poly(n, form.monomials).compose(t)
    acc = 2 * f_at_t.conj() - 2 * f_at_t
    for j in range(n):
        dj_at_t = f_at_t.diff(j)    # (d_j f)(t) = d f(t) / d x_j
        acc = acc + (t[j] - t[j].conj()) * (dj_at_t + dj_at_t.conj())
    lhs = ii * acc
    rhs = 8 * Poly(nv, {(0,) * n + e: c for e, c in form.monomials.items()})
    diff = lhs - rhs
    if diff.is_zero():
        return NormIdentityResult(True)
    exp = sorted(diff.terms)[0]
    got = lhs.terms.get(exp, Fraction(0))
    want = rhs.terms.get(exp, Fraction(0))
    return NormIdentityResult(False, (exp, got, want))
