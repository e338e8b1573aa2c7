"""Scalars: exact rationals, Gaussian rationals, and their report formats.

All arithmetic is exact: `fractions.Fraction` (and Python ints inside the
integer kernels) for reals, and `Complex`, a thin pair type, for the
complexified-cone computations, where its components are Fractions. A
`Complex` takes a `Complex` or a real (`int`, `Fraction`, `float`) operand
as it is, so a real times a `Complex` is two products, and dividing by an
int multiplies by its exact reciprocal; a builtin `complex` is no operand,
though `Complex.of` builds from one and equality and hashing agree with it.
There is no float backend. Floats appear only in float-mode reports, where
`to_float` rounds each exact value once to binary64.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction

from .errors import KahlerConeError

__all__ = [
    "Complex",
    "format_point",
    "format_scalar",
    "is_exact_scalar",
    "parse_rational",
    "to_float",
]


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or a decimal such as "-1.5e-3" into the exact
    rational it writes; ValueError if q is 0, or if the exponent alone gives
    the value more digits than Python's int-string limit (4300 by default)."""
    if "e" in text or "E" in text:
        limit = sys.get_int_max_str_digits()
        try:
            exponent = abs(int(text.lower().partition("e")[2]))
        except ValueError:      # malformed: Fraction's message names the text
            exponent = 0
        if limit and exponent >= limit:
            raise ValueError(f"exponent of {text.strip()!r} is too large")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text.strip()!r}") from exc


def format_scalar(x) -> str | float:
    """Serialize a scalar for reports: rational string "p/q" or a float.

    The one writer of exact numbers: Fractions keep exactness as
    decimal-free strings of any length (past Python's int-string limit,
    where `str` raises, `decimal` writes the digits); floats pass through
    (json emits the shortest round-trip decimal).
    """
    if isinstance(x, Fraction):
        try:
            return str(x)
        except ValueError:
            p, q = (str(Decimal(v)) for v in x.as_integer_ratio())
            return p if q == "1" else f"{p}/{q}"
    if isinstance(x, int):
        return format_scalar(Fraction(x))
    if isinstance(x, Complex):
        return format_complex(x)
    return float(x)


def to_float(x):
    """The exact scalar x rounded once to binary64, each part of a Complex
    separately: the one rounding of float-mode reports. Raises
    KahlerConeError if x exceeds the largest float, or if x is nonzero and
    rounds to 0.0."""
    if isinstance(x, Complex):
        return Complex(to_float(x.re), to_float(x.im))
    try:
        r = float(x)
    except OverflowError as exc:
        raise KahlerConeError(f"a reported value exceeds the largest float "
                              f"({sys.float_info.max:.3g}); exact mode "
                              f"reports it") from exc
    if r == 0 and x != 0:
        raise KahlerConeError("a nonzero reported value rounds to 0.0 in "
                              "floats; exact mode reports it")
    return r


def _exact(z) -> "Complex":
    """z as a `Complex`, each part read as the exact rational it stores."""
    z = Complex.of(z)
    return Complex(Fraction(z.re), Fraction(z.im))


def format_point(y) -> str:
    """A point as "(1, -2/3)" for messages and text reports."""
    return "(" + ", ".join(str(format_scalar(v)) for v in y) + ")"


def format_complex(z: "Complex") -> str:
    re, im = format_scalar(z.re), format_scalar(z.im)
    return f"{re}{'+' if not str(im).startswith('-') else ''}{im}i"


class Complex:
    """Complex number with components of a real backend scalar type; the
    builtin `complex` is float-only, this type keeps Gaussian rationals
    exact. Its operands are in the module docstring."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    @staticmethod
    def of(value) -> "Complex":
        if isinstance(value, Complex):
            return value
        if isinstance(value, complex):
            return Complex(value.real, value.imag)
        if isinstance(value, _REAL):
            return Complex(value)
        raise TypeError(f"cannot build Complex from {type(value).__name__}")

    def conj(self) -> "Complex":
        return Complex(self.re, -self.im)

    def abs2(self):
        """Squared modulus, exact for exact components."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        if isinstance(other, Complex):
            return Complex(self.re + other.re, self.im + other.im)
        if isinstance(other, _REAL):
            return Complex(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Complex):
            return Complex(self.re - other.re, self.im - other.im)
        if isinstance(other, _REAL):
            return Complex(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Complex):
            return Complex(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)
        if isinstance(other, _REAL):
            return Complex(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Complex):
            return self * other.conj() / other.abs2()
        if isinstance(other, int):      # exact, also on an int part
            return self * Fraction(1, other)
        if isinstance(other, _REAL):
            return Complex(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        return other * self.conj() / self.abs2()

    def __neg__(self):
        return Complex(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, Complex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, complex):
            return self.re == other.real and self.im == other.imag
        if isinstance(other, _REAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        """The builtin complex hash: equal numbers of every type hash equal."""
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        m = 1 << (sys.hash_info.width - 1)
        h = (h & (m - 1)) - (h & m)
        return -2 if h == -1 else h

    def __repr__(self):
        return f"Complex({self.re!r}, {self.im!r})"


_REAL = (int, Fraction, float)
