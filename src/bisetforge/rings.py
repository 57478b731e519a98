"""The coefficient rings, one rule each, and coefficient text.

    Q      every rational number;
    Z      the rationals with denominator 1;
    Z2, Z3 the localizations Z_(2), Z_(3): rationals whose denominator is
           prime to p;
    F2, F3 the residue fields, read as the reduction Z_(p) -> F_p: a rational
           whose denominator is prime to p is accepted and kept as its
           residue 0..p-1.

Coefficients are Fractions.  normalize() is the only membership test and
is_unit() the only unit test of the package; normalize("F3", 1/2) is 2.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "RINGS",
    "prime",
    "normalize",
    "is_unit",
    "is_zero",
    "parse_fraction",
    "format_fraction",
]

RINGS = ("Q", "Z", "Z2", "Z3", "F2", "F3")
_PRIME = {"Q": None, "Z": None, "Z2": 2, "Z3": 3, "F2": 2, "F3": 3}
_FIELDS = ("F2", "F3")


def prime(ring):
    """p for Z_(p) and F_p, None for Q and Z; ValueError for an unknown ring."""
    try:
        return _PRIME[ring]
    except (KeyError, TypeError):
        raise ValueError("unknown ring %r" % (ring,)) from None


def normalize(ring, x):
    """The coefficient x of ring as a Fraction, reduced to its residue in F_p;
    ValueError if x is not in the ring."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    p = prime(ring)
    d = x.denominator
    if p is None:
        if d != 1 and ring == "Z":
            raise ValueError("coefficient %s is not an integer" % x)
        return x
    if d % p == 0:
        raise ValueError("coefficient %s has denominator divisible by %d" % (x, p))
    return Fraction(x.numerator * pow(d, -1, p) % p) if ring in _FIELDS else x


def is_unit(ring, x):
    """Is the rational x a unit of ring?  A non-member is not."""
    x = Fraction(x)
    p = prime(ring)
    if p is not None:
        return x.numerator % p != 0 and x.denominator % p != 0
    if ring == "Z":
        return x.denominator == 1 and abs(x.numerator) == 1
    return x != 0


def is_zero(ring, x):
    """Does the rational x vanish in ring?  In F_p that means x lies in pZ_(p)."""
    x = Fraction(x)
    p = prime(ring)
    return x.numerator % p == 0 if ring in _FIELDS else x == 0


def parse_fraction(text):
    """A Fraction from "3", "-1/2" or "0.25".  Exponent notation is refused
    before Fraction sees it: "1e999999999" would build a billion-digit int."""
    text = str(text).strip()
    if "e" in text.lower():
        raise ValueError("exponent notation is not accepted: %r" % (text,))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def format_fraction(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
