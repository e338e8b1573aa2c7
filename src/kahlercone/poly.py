"""Sparse multivariate polynomials with exact coefficients.

Terms map exponent tuples to coefficients, which may be Fractions or exact
`Complex` values; the constructor prunes zero coefficients, so equality of
term maps is equality of polynomials. Just enough ring operations for
expanding the norm-function identity and pulling forms back along linear maps.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch
from .scalars import Complex

__all__ = ["Poly"]


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != nvars:
                    raise DimensionMismatch("exponent length != nvars")
                if c != 0:
                    self.terms[tuple(exp)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Complex)):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DimensionMismatch("variable counts differ")
            return other
        return Poly.const(self.nvars, other)

    def diff(self, i):
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = c * exp[i]
        return Poly(self.nvars, out)

    def conj(self):
        """Conjugate the coefficients (variables are treated as real)."""
        return Poly(self.nvars, {
            e: c.conj() if isinstance(c, Complex) else c
            for e, c in self.terms.items()
        })

    def evaluate(self, values):
        if len(values) != self.nvars:
            raise DimensionMismatch("value vector length != nvars")
        total = 0
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def compose(self, replacements):
        """Substitute replacements[i] (a Poly) for variable i; the zero start
        keeps the pullback of the zero polynomial a Poly."""
        return Poly.zero(replacements[0].nvars) + self.evaluate(replacements)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __repr__(self):
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"Poly({self.nvars}, {{{items}}})"
