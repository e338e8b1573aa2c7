"""Homogeneous cubic forms: parsing, calculus, and index-cone membership.

A form is stored once, as a map from exponent vectors (summing to 3) to
exact rational coefficients; on first use it builds its one integer tensor
t = s f3 (f3 the third partials, s = 6 lcm of the coefficient denominators),
and `third_tensor` is t / s. A point is cleared to Python ints in two steps:
`_clear` gives the value F and the products z_j z_k it is built from, and
`_cleared` the Hessian, gradient (from those products) and cleared metric M
at any sign of F, which decide index-cone membership and are the integers
the exact metric jet is built from. The sampler draws reduced pairs from
`GRID` and decides in the order F's sign, M's diagonal, M's minors, building
`_cleared` only where the first two pass. `_point` reads a float as the
exact rational it stores; `evaluate` and `hessian` divide its F and H once,
the one calculus of f (the tests' oracle evaluates the monomials).
Only homogeneous cubics are accepted: the norm-function identity and the
cone structure both rest on Euler's relation, which fails otherwise.

Text grammar (whitespace insignificant)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := coeff ("*" factor)* | factor ("*" factor)*
    factor := var ("^" integer)?
    var    := "y" index            # 1-based, y1 ... yn
    coeff  := integer ("/" positive-integer)?
"""

from __future__ import annotations

import enum
import math
import random
import re
from fractions import Fraction
from operator import index, mul
from typing import NamedTuple, Optional

from .errors import (DimensionMismatch, NotHomogeneousCubic, NotInCone,
                     ParseError, SamplingExhausted)
from .linalg import (Sym3Tensor, SymMatrix, _layout, inertia,
                     positive_definite)
from .poly import Poly
from .scalars import (Complex, format_point, format_scalar,
                      parse_rational)

__all__ = [
    "CubicForm",
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
# p/q reduced at GRID[p + GRID_NUM][q - 1]: choice(choice(GRID)) draws as
# randint(-GRID_NUM, GRID_NUM) and then randint(1, GRID_DEN) do
GRID = tuple(tuple((p // g, q // g) for q in range(1, GRID_DEN + 1)
                   for g in (math.gcd(p, q),))
             for p in range(-GRID_NUM, GRID_NUM + 1))
# the distinct positive grid values p/q
GRID_POSITIVE = len({pq for row in GRID[GRID_NUM + 1:] for pq in row})


def _check_dimension(n):
    if not 1 <= n <= MAX_VARIABLES:
        raise DimensionMismatch(f"{format_scalar(n)} variables; 1 to "
                                f"{MAX_VARIABLES} are supported")


def _exponent_text(exp):
    """repr(exp) of an exponent tuple, with integers of any length."""
    return f"({', '.join(map(format_scalar, exp))}{',' * (len(exp) == 1)})"


class Membership(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


class CubicForm:
    """A homogeneous cubic f in n variables with exact rational coefficients."""

    __slots__ = ("n", "monomials", "_int_f3", "_text")

    def __init__(self, n, monomials):
        _check_dimension(n)
        self.n = n
        clean = {}
        for exp, coeff in monomials.items():
            exp = tuple(map(index, exp))
            if len(exp) != n or any(e < 0 for e in exp):
                raise DimensionMismatch(
                    f"bad exponent vector {_exponent_text(exp)}")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if sum(exp) != DEGREE:
                raise NotHomogeneousCubic(
                    f"monomial {_exponent_text(exp)} has degree "
                    f"{format_scalar(sum(exp))}, expected {DEGREE}")
            clean[exp] = clean.get(exp, Fraction(0)) + coeff
        self.monomials = {e: c for e, c in sorted(clean.items(), reverse=True)
                          if c != 0}
        self._int_f3 = None
        self._text = None

    @property
    def third_tensor(self) -> Sym3Tensor:
        """Constant tensor of third partials, f = (1/6) sum f3[i,j,k] yi yj yk:
        t / s of `_integer_third`, built per read."""
        s, t = self._integer_third()[:2]
        return t.scale(Fraction(1, s))

    def _integer_third(self):
        """(s, t, rows, terms, grads): s = 6c, c > 0 the lcm of the
        coefficient denominators; t = s * f3, the integer third-derivative
        tensor of s*f, whose monomial q*y^e has q * prod(e_i!) at the
        multiset e counts; per SymMatrix slot (i, j), in packed order, the
        row t[i, j, 0..n-1], so the Hessian of s*f at an integer z is the
        integer SymMatrix of rows . z; per monomial w z_i z_j z_k
        (i <= j <= k) of s*f, (w, SymMatrix slot of (i, j), k): t[i, j, k],
        its weight baked in; per i, (g, t[i, i, .]), g over the SymMatrix
        pairs (j, k) t[i, j, k], halved at j = k (e_j >= 2 makes it even),
        so the gradient is a_i = g . (z_j z_k) and H_ii = t[i, i, .] . z."""
        if self._int_f3 is None:
            n, lay = self.n, _layout(self.n)
            s = 6 * math.lcm(*[v.denominator for v in self.monomials.values()])
            t, terms = Sym3Tensor(n, [0] * Sym3Tensor._size(n)), []
            for exp, q in self.monomials.items():
                i, j, k = (v for v, e in enumerate(exp) for _ in range(e))
                w = s // q.denominator * q.numerator
                t[i, j, k] = w * math.prod(map(math.factorial, exp))
                terms.append((w, lay.slot[i][j], k))
            rows = [[t._data[p] for p in slots] for slots in lay.pair_triples]
            grads = [([t._data[slots[i]] // (1 + (j == k)) for (j, k), slots
                       in zip(lay.pairs, lay.pair_triples)],
                      rows[lay.slot[i][i]]) for i in range(n)]
            self._int_f3 = (s, t, rows, terms, grads)
        return self._int_f3

    def evaluate(self, y) -> Fraction:
        """f(y) = F / (s l^3) of the cleared point (`_point`), exact."""
        return _point(self, y).f

    def hessian(self, y) -> SymMatrix:
        """Hess f(y) = H / (s l) of the cleared point (`_point`), exact."""
        point = _point(self, y)
        return point.H.scale(Fraction(1, point.s * point.l))

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
                body = f"{format_scalar(mag)}*{body}"
            if idx == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "monomials": [{"exp": list(e), "coeff": format_scalar(c)}
                          for e, c in self.monomials.items()],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "CubicForm":
        if type(doc["n"]) is bool:
            raise TypeError("n must be a JSON integer, not a boolean")
        monos = {}
        for m in doc["monomials"]:
            coeff = m["coeff"]
            if any(type(v) is bool for v in (coeff, *m["exp"])):
                raise TypeError(f"monomial {m} holds a boolean")
            exp = tuple(map(index, m["exp"]))
            try:    # repeated exponents add up, as in parse_text
                monos[exp] = monos.get(exp, 0) + (
                    parse_rational(coeff) if type(coeff) is str
                    else Fraction(coeff))
            except ValueError as exc:
                why = (f" has a zero denominator in its coefficient {coeff!r}"
                       if isinstance(exc.__cause__, ZeroDivisionError)
                       else f": {exc}")
                raise ValueError(f"monomial with exponents {list(exp)}{why}"
                                 ) from None
        return cls(index(doc["n"]), monos)

    def __eq__(self, other):
        return (isinstance(other, CubicForm) and self.n == other.n
                and self.monomials == other.monomials)

    def __repr__(self):
        return f"CubicForm({self.n}, {self.to_text()!r})"


# ----------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>y\d+)|(?P<op>[+\-*/^])"
                    r"|(?P<bad>\S))")


def _integer(m):
    """The integer of an "int" or "var" (its index) match of `_TOKEN`; a
    ParseError at the token if its digits exceed Python's int-string limit."""
    digits = m.group(m.lastgroup).removeprefix("y")
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits exceeds Python's "
                         f"int-string limit", m.start(m.lastgroup)) from None


def _tokenize(src):
    """The tokens of `src` as (kind, value, position, text): kind "int" with
    the integer, "var" with its 1-based index, or an operator itself with
    None, and last ("end", None, len(src), "")."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        if kind == "op":
            tokens.append((text, None, pos, text))
        else:
            tokens.append((kind, _integer(m), pos, text))
    tokens.append(("end", None, len(src), ""))
    return tokens


def _expected(what, token):
    """The ParseError of `token` where the grammar needs `what`."""
    _, _, pos, text = token
    return ParseError(f"expected {what}, got "
                      f"{repr(text) if text else 'end of input'}", pos)


def _factor(tokens, i, exp, what):
    """Read `var ("^" integer)?` from tokens[i] into the exponents `exp`;
    the index after it. `what` is what tokens[i] may be."""
    kind, var, pos, text = tokens[i]
    if kind != "var":
        raise _expected(what, tokens[i])
    if not 1 <= var <= len(exp):
        raise ParseError(f"variable {text} out of range 1..{len(exp)}", pos)
    power = 1
    if tokens[i + 1][0] == "^":
        i += 2
        kind, power, pos, _ = tokens[i]
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
    exp[var - 1] += power
    return i + 1


def parse_text(src: str, n: Optional[int] = None) -> CubicForm:
    """Parse polynomial source text into an exact CubicForm in n variables,
    by default the highest variable index written, at least 1.

    Raises ParseError for malformed input, NotHomogeneousCubic when a
    surviving monomial has degree other than 3, DimensionMismatch on n.
    """
    if n is None:   # scanned before tokenizing: "@y40^3" has n too large
        indices = [_integer(m) for m in _TOKEN.finditer(src)
                   if m.lastgroup == "var"]
        if not indices:
            raise ParseError("no variables found; pass --n explicitly", 0)
        n = max(1, *indices)        # at least 1, so the parser names y0
    _check_dimension(n)
    tokens = _tokenize(src)
    monomials = {}
    i = 0
    while True:             # one term per pass, at its sign if it has one
        sign = tokens[i][0]
        if sign in ("+", "-"):
            i += 1
        coeff = Fraction(-1 if sign == "-" else 1)
        exp = [0] * n
        kind, value, _, _ = tokens[i]
        if kind == "int":
            coeff *= value
            i += 1
            if tokens[i][0] == "/":
                kind, value, pos, _ = tokens[i + 1]
                if kind != "int" or value == 0:
                    raise ParseError("expected a positive integer denominator",
                                     pos)
                coeff /= value
                i += 2
        else:
            i = _factor(tokens, i, exp, "a coefficient or variable")
        while tokens[i][0] == "*":
            i = _factor(tokens, i + 1, exp, "a variable")
        key = tuple(exp)
        monomials[key] = monomials.get(key, Fraction(0)) + coeff
        if tokens[i][0] == "end":
            return CubicForm(n, monomials)
        if tokens[i][0] not in ("+", "-"):
            raise _expected("'+' or '-'", tokens[i])


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

    @property
    def y(self) -> tuple:
        """The point as `_point` read it, z / l."""
        return tuple(Fraction(v, self.l) for v in self.z)


def _clear(form: CubicForm, pairs):
    """(l, z, F) of `Cleared`, with no Hessian, and zz, z_j z_k per
    SymMatrix pair, at the rational point y given as one pair (p, q),
    q > 0, per coordinate p/q in lowest terms."""
    if len(pairs) != form.n:
        raise DimensionMismatch(
            f"point has {len(pairs)} coordinates, form has {form.n}")
    l = math.lcm(*[q for _, q in pairs])
    z = [p * (l // q) for p, q in pairs]
    terms = form._integer_third()[3]
    zz = [z[i] * z[j] for i, j in _layout(form.n).pairs]
    return l, z, sum(w * zz[ij] * z[k] for w, ij, k in terms), zz


def _cleared(form: CubicForm, l, z, F, zz) -> Cleared:
    """The complete `Cleared` of `_clear`'s (l, z, F, zz), at any z."""
    s, _, rows, _, grads = form._integer_third()
    h = [sum(map(mul, row, z)) for row in rows]
    a = [sum(map(mul, g, zz)) for g, _ in grads]
    M = SymMatrix(form.n, [a[i] * a[k] - F * v
                           for (i, k), v in zip(_layout(form.n).pairs, h)])
    return Cleared(l=l, s=s, z=z, F=F, H=SymMatrix(form.n, h), a=a, M=M)


def _diagonal_positive(form: CubicForm, z, F, zz) -> bool:
    """Whether every diagonal entry a_i^2 - F H_ii of M is positive, a as in
    `_cleared`, stopping at the first that is not: a necessary condition
    for M to be positive definite (`_is_interior`)."""
    for g, diagonal in form._integer_third()[4]:
        a = sum(map(mul, g, zz))
        if a * a <= F * sum(map(mul, diagonal, z)):
            return False
    return True


def _point(form: CubicForm, y) -> Cleared:
    """The complete `Cleared` of a real point y, each coordinate (a float
    too) read as the exact rational it stores: the one reader of a point."""
    return _cleared(form, *_clear(form, [
        (v.numerator, v.denominator) for v in map(Fraction, y)]))


def _is_interior(point: Cleared) -> bool:
    """The index-cone interior test: F > 0 and M positive definite.

    Since z^T H z = 6F > 0 and H z = 2a, H has inertia (1, n-1, 0) exactly
    when it is negative definite on a^perp, and M z = F a, z^T M z = 3F^2
    and M = -F H on a^perp, so exactly when M is positive definite. In
    order, the sign of F, M's diagonal and M's leading minors decide, each
    stopping early (`positive_definite`); `cone_sample` reads F from
    `_clear` and the diagonal by `_diagonal_positive` before building M.

    Membership is unchanged by y -> l*y with l > 0 and by f -> s*f with
    s > 0, so the integers of `Cleared` decide it for y."""
    return point.F > 0 and positive_definite(point.M)


def _classify(form: CubicForm, y):
    """(verdict, inertia of Hess f(y), Cleared) of a real point, from one
    exact evaluation on ints (`_point`). The same integers are the input of
    the exact metric jet. An interior point has inertia (1, n-1, 0) by the
    interior test; only elsewhere is `inertia(H)` computed, to tell
    Boundary from Outside."""
    point = _point(form, y)
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
    y = tuple(y)                # read once: y may be an iterator
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
    values = {Fraction(p, q) for row in GRID for p, q in row}
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
    GRID_NUM] and denominators up to GRID_DEN, drawn reduced from `GRID`;
    when a hint is given, also jittered positive scalings of it (rays from
    an interior point stay interior, the jitter is re-checked like any
    other candidate). Each candidate is kept as integer pairs (numerator,
    denominator) in lowest terms and decided by the same interior test as
    `cone_contains`, on its cleared integers: F's sign, then M's diagonal,
    and only where both pass the complete `_cleared` and M's minors. Only
    accepted points become Fractions. Raises SamplingExhausted after
    `budget` attempts, or at the first repeat once every candidate the grid
    (and the hint) can give was seen: the nonzero grid vectors, and
    c * h * m for c a positive grid value and each m_i a jitter factor,
    counted exactly (`_off_grid`) once the grid's own count is reached.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if hint is not None:
        hint = tuple(Fraction(v) for v in hint)
        if cone_contains(form, hint) is not Membership.INTERIOR:
            raise NotInCone(f"hint point {format_point(hint)} is not interior")
        hint = [(h.numerator, h.denominator) for h in hint]
    rng = random.Random(seed)
    randint, choice = rng.randint, rng.choice
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
            cand = _reduced(cand)
        else:
            cand = tuple([choice(choice(GRID)) for _ in range(n)])
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
        _, z, F, zz = cleared = _clear(form, cand)
        if (F > 0 and _diagonal_positive(form, z, F, zz)
                and _is_interior(_cleared(form, *cleared))):
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

class NormIdentityResult(NamedTuple):
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
