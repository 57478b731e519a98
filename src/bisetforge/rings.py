"""The coefficient rings, one rule each, and coefficient text.

    Q      every rational number;
    Z      the rationals with denominator 1;
    Z2, Z3 the localizations Z_(2), Z_(3): rationals whose denominator is
           prime to p;
    F2, F3 the residue fields, read as the reduction Z_(p) -> F_p: a rational
           whose denominator is prime to p is accepted and kept as its
           residue 0..p-1.

A coefficient is a Fraction, a vector of them integer numerators over one
denominator.  normalize_ints() holds the only membership test of the package
(normalize() is its one-coefficient form) and is_unit() the only unit test:

    >>> normalize("F3", Fraction(1, 2))
    Fraction(2, 1)
    >>> normalize_ints("Z2", (3, 6), 9)
    ((1, 2), 3)
    >>> normalize_ints("Z2", (1,), 2)
    Traceback (most recent call last):
    ...
    ValueError: coefficient 1/2 has denominator divisible by 2

Coefficient text has one grammar, read the same on every Python version by
parse_ints(): a sign, digits with single underscores between them, then an
optional /denominator or .fraction, with no exponent and no spaces inside.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "RINGS",
    "prime",
    "rational",
    "normalize",
    "normalize_ints",
    "is_unit",
    "parse_ints",
    "parse_fraction",
    "format_fraction",
]

RINGS = ("Q", "Z", "Z2", "Z3", "F2", "F3")
_PRIME = {"Q": None, "Z": None, "Z2": 2, "Z3": 3, "F2": 2, "F3": 3}
_FIELDS = ("F2", "F3")
_NOT_FIELDS = ("Q", "Z", "Z2", "Z3")


def prime(ring):
    """p for Z_(p) and F_p, None for Q and Z; ValueError for an unknown ring."""
    try:
        return _PRIME[ring]
    except (KeyError, TypeError):
        raise ValueError("unknown ring %r" % (ring,)) from None


def rational(x):
    """x as a Fraction, from an int, a Fraction or coefficient text, read by
    parse_fraction().  A float raises TypeError: 0.1 is the binary fraction
    3602879701896397/36028797018963968, never the 1/10 that was meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("coefficient %r is a float; give an int, a Fraction or text" % (x,))
    return parse_fraction(x) if isinstance(x, str) else Fraction(x)


def normalize(ring, x):
    """The coefficient x of ring as a Fraction, reduced to its residue in F_p;
    ValueError if x is not in the ring, TypeError if it is a float."""
    x = rational(x)
    (n,), _ = normalize_ints(ring, (x.numerator,), x.denominator)
    return Fraction(n) if ring in _FIELDS else x


def normalize_ints(ring, nums, den=1):
    """The coefficients nums[i] / den of ring, for a tuple of ints nums and
    den > 0, as (nums, den) in lowest terms; in F_p den is 1 and nums are the
    residues 0..p-1.  Membership is decided once, on the reduced den; the
    ValueError names the first coefficient outside the ring.  Integers lie in
    every ring, and outside F_p they are returned as given."""
    if den == 1 and ring in _NOT_FIELDS:
        return nums, 1
    if den <= 0:
        raise ValueError("denominator must be positive")
    p = prime(ring)
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple([a // g for a in nums]), den // g
    if den == 1:
        return (tuple([a % p for a in nums]) if ring in _FIELDS else nums), 1
    if p is None:
        if ring == "Z":
            a = next(a for a in nums if a % den)
            raise ValueError("coefficient %s is not an integer" % Fraction(a, den))
        return nums, den
    if den % p == 0:
        a = next(a for a in nums if den // math.gcd(a, den) % p == 0)
        raise ValueError("coefficient %s has denominator divisible by %d" % (Fraction(a, den), p))
    if ring in _FIELDS:
        inv = pow(den, -1, p)
        return tuple([a * inv % p for a in nums]), 1
    return nums, den


def is_unit(ring, x):
    """Is the rational x a unit of ring?  A non-member is not; a float
    raises TypeError."""
    x = rational(x)
    p = prime(ring)
    if p is not None:
        return x.numerator % p != 0 and x.denominator % p != 0
    if ring == "Z":
        return x.denominator == 1 and abs(x.numerator) == 1
    return x != 0


_NUMBER = re.compile(r"([+-]?)(?=\.?\d)(%s)?(?:/(%s)|\.(%s)?)?" % ((r"\d+(?:_\d+)*",) * 3))


def parse_ints(text):
    """(n, d), d > 0, in lowest terms, from an int or from text "3", "-1/2",
    "1_000" or "0.25": Python 3.11's Fraction literal less its exponent, which
    Fraction itself reads otherwise on 3.10 (no underscores) and from 3.12
    (spaces by "/").  Exponent notation is refused: "1e999999999" is a
    billion-digit int; so is any other value, such as a float or a bool."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text, 1
    if not isinstance(text, str):
        raise ValueError("coefficient %r is not a string or an integer" % (text,))
    text = text.strip()
    m = _NUMBER.fullmatch(text)
    if m is None:
        if "e" in text.lower():
            raise ValueError("exponent notation is not accepted: %r" % (text,))
        raise ValueError("Invalid literal for Fraction: %r" % (text,))
    sign, num, den, frac = m.groups()
    n, d = int(num or 0), int(den or 1)
    if d == 0:
        raise ValueError("zero denominator in %r" % (text,))
    if frac:
        d = 10 ** len(frac.replace("_", ""))
        n = n * d + int(frac)
    g = math.gcd(n, d)
    return (-n if sign == "-" else n) // g, d // g


def parse_fraction(text):
    """A Fraction from 3, "3", "-1/2" or "0.25", read by parse_ints()."""
    return Fraction(*parse_ints(text))


def format_fraction(num, den=1):
    """The text of the rational num / den, den > 0, in lowest terms: "3" or
    "-1/2"."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return "%d/%d" % (num // g, den // g)
