"""`Complex`: arithmetic with real operands, and hashing that agrees with
equality against int, Fraction, float and builtin complex values."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kahlercone import Complex
from kahlercone.scalars import parse_rational

DYADIC = st.builds(lambda p, e: F(p, 2**e), st.integers(-2**40, 2**40),
                   st.integers(0, 20))


def test_equal_values_are_one_set_member_and_one_dict_key():
    assert 1 in {Complex(1)}
    assert Complex(1) in {1}
    assert {Complex(F(1, 2)): "half"}[0.5] == "half"
    assert {F(1, 2): "half"}[Complex(F(1, 2), 0)] == "half"
    assert {Complex(1), 1, F(1), 1.0, complex(1, 0)} == {1}
    assert {Complex(F(3, 4), F(-1, 2)), complex(0.75, -0.5)} == {
        complex(0.75, -0.5)}
    table = {complex(2, 3): "z", Complex(F(1, 3)): "third"}
    assert table[Complex(F(2), F(3))] == "z"
    assert table[F(1, 3)] == "third"
    assert Complex(F(1, 3)) not in {F(1, 3) + F(1, 2)}


@pytest.mark.parametrize("re, im", [
    (-1 - sys.hash_info.imag, 1),   # hash(re) + imag * hash(im) == -1
    (2**60, 2**60),             # the sum exceeds a machine word
    (-2**60, 3), (0, -1), (F(-7, 8), F(5, 16))])
def test_hash_is_the_builtin_complex_hash(re, im):
    want = hash(complex(float(re), float(im)))
    assert want != -1
    for z in (Complex(re, im), Complex(F(re), F(im)),
              Complex(float(re), float(im))):
        assert z == complex(float(re), float(im))
        assert hash(z) == want


@given(DYADIC, DYADIC)
def test_hash_agrees_with_equality(re, im):
    z = Complex(re, im)
    partners = [complex(float(re), float(im)), Complex(float(re), float(im))]
    if im == 0:
        partners += [re, float(re)]
        if re.denominator == 1:
            partners.append(int(re))
    for p in partners:
        assert z == p and hash(z) == hash(p)


def test_real_operands_are_used_as_they_are():
    z = Complex(F(1, 2), F(-1, 3))
    for x in (3, F(3, 5)):
        lifted = Complex(x)
        assert z * x == x * z == z * lifted
        assert (z * x).re == z.re * x and (z * x).im == z.im * x
        assert z + x == x + z == z + lifted
        assert z - x == z - lifted and x - z == lifted - z
        assert z / x == z / lifted and x / z == lifted / z
    assert Complex(F(1), F(2)) * F(1, 2) == Complex(F(1, 2), F(1))
    # an int part divided by an int stays exact
    for q in (Complex(F(1, 2)) / 2, Complex(1, 2) / Complex(3, 4)):
        assert all(isinstance(v, F) for v in (q.re, q.im))
    assert Complex(1, 2) / Complex(3, 4) == Complex(F(11, 25), F(2, 25))
    with pytest.raises(ZeroDivisionError):
        z / 0
    with pytest.raises(ZeroDivisionError):
        1 / Complex(0)


def test_builtin_complex_is_no_operand_but_builds_and_compares():
    z = Complex(F(1, 2), F(1))
    for op in (lambda: z + 1j, lambda: 1j * z, lambda: z - 1j,
               lambda: z / 1j, lambda: 1j / z):
        with pytest.raises(TypeError):
            op()
    assert Complex.of(0.5 + 1j) == z == 0.5 + 1j
    assert z != 0.5 - 1j


def test_parse_rational_reads_decimals_exactly_within_the_digit_limit():
    assert parse_rational(" 0.1 ") == F(1, 10)
    assert parse_rational("-2.5E-1") == F(-1, 4)
    assert parse_rational("1e400") == 10**400
    assert parse_rational("3/6") == F(1, 2)
    # an exponent that alone gives more digits than the int-string limit
    # is refused, as a digit run that long is, before any power is built
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10**(limit - 1)
    for text in ("1e5000", "1E-5000", f"1e{limit}", "2.5e999999999"):
        with pytest.raises(ValueError):
            parse_rational(text)
    for text in ("NaN", "Infinity", "-Infinity", "1/0", "0.1.2"):
        with pytest.raises(ValueError):
            parse_rational(text)
