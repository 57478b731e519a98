from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bisetforge.bisets import parse_element
from bisetforge.rings import (
    RINGS,
    format_fraction,
    is_unit,
    normalize,
    normalize_ints,
    parse_fraction,
    parse_ints,
    prime,
)
from reference import outcome


def reference(ring, x):
    """(is x in ring, its normal form, is it a unit) read off the definitions:
    F_p by trying every residue r with r * den == num mod p."""
    if ring == "Q":
        return True, x, x != 0
    if ring == "Z":
        member = x.denominator == 1
        return member, x, x in (1, -1)
    p = int(ring[1])
    member = x.denominator % p != 0
    unit = member and x.numerator % p != 0
    if ring.startswith("Z"):
        return member, x, unit
    if not member:
        return False, None, False
    r = next(r for r in range(p) if (r * x.denominator - x.numerator) % p == 0)
    return True, Fraction(r), r != 0


def check(ring, x):
    member, value, unit = reference(ring, x)
    if member:
        assert normalize(ring, x) == value
        assert type(normalize(ring, x)) is Fraction
    else:
        with pytest.raises(ValueError):
            normalize(ring, x)
    assert is_unit(ring, x) == unit


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize(
    "x",
    [0, 1, -1, 2, 3, -6, 7, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3),
     Fraction(2, 3), Fraction(5, 6), Fraction(1, 5), Fraction(-4, 7), Fraction(6, 5)],
    ids=str,
)
def test_normalize_and_is_unit_match_the_reference(ring, x):
    check(ring, Fraction(x))


@given(
    st.sampled_from(RINGS),
    st.integers(-50, 50),
    st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 35]),
)
def test_normalize_and_is_unit_match_the_reference_on_random_fractions(ring, a, b):
    check(ring, Fraction(a, b))


def test_normalize_accepts_ints_and_keeps_the_reduction_rule():
    assert normalize("F3", 5) == 2
    assert normalize("F3", Fraction(1, 2)) == 2
    assert normalize("F2", Fraction(-5, 3)) == 1
    assert normalize("Z2", Fraction(1, 3)) == Fraction(1, 3)
    assert prime("Z3") == prime("F3") == 3
    assert prime("Q") is prime("Z") is None


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("fn", [normalize, is_unit])
def test_a_float_coefficient_is_refused(fn, ring):
    for x in (0.1, 0.5, 1.0):
        with pytest.raises(TypeError, match="is a float"):
            fn(ring, x)
    # ints, Fractions and coefficient text keep working
    assert fn(ring, 1) == fn(ring, Fraction(1)) == fn(ring, "1")
    assert fn(ring, "-6/3") == fn(ring, Fraction(-2))
    # text is read by parse_fraction, which refuses exponent notation
    with pytest.raises(ValueError, match="exponent notation"):
        fn(ring, "1e30")


def test_unknown_ring_is_refused():
    for fn in (prime, lambda r: normalize(r, 1), lambda r: is_unit(r, 1)):
        with pytest.raises(ValueError, match="unknown ring"):
            fn("F5")


@given(st.integers(-40, 40), st.integers(1, 12))
def test_fraction_round_trip(a, b):
    f = Fraction(a, b)
    text = format_fraction(a, b)
    assert text == str(f)
    assert parse_fraction(text) == f


def test_parse_fraction_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("one")


@given(
    st.sampled_from(RINGS + ("F5",)),
    st.lists(st.integers(-50, 50), max_size=22),
    st.integers(2, 12),
)
def test_normalize_ints_over_1_matches_the_general_path(ring, nums, k):
    fast = outcome(lambda: normalize_ints(ring, tuple(nums), 1))
    assert fast == outcome(lambda: normalize_ints(ring, tuple(k * a for a in nums), k))


def test_normalize_ints_over_1_reduces_negative_numerators_in_f_p():
    assert normalize_ints("F2", (-1, -2, -3), 1) == ((1, 0, 1), 1)
    assert normalize_ints("F3", (-1, -2, -3, -4), 1) == ((2, 1, 0, 2), 1)
    assert normalize_ints("Z3", (-1, -2), 1) == ((-1, -2), 1)
    with pytest.raises(ValueError, match="denominator must be positive"):
        normalize_ints("F3", (-1,), 0)


@given(st.integers(-10**30, 10**30), st.integers(0, 10**6), st.sampled_from(["", "+", " "]))
def test_parse_ints_reads_integers_and_quotients_as_fraction_does(a, b, prefix):
    sign = prefix if a >= 0 else ""
    for text in ("%s%d" % (sign, a), "%s%d/%d" % (sign, a, b)):
        try:
            want = Fraction(text.strip())
        except ZeroDivisionError:
            with pytest.raises(ValueError) as info:
                parse_ints(text)
            assert str(info.value) == "zero denominator in %r" % text.strip()
            continue
        n, d = parse_ints(text)
        assert d > 0 and Fraction(n, d) == want == parse_fraction(text)


def test_parse_ints_keeps_the_fraction_grammar_and_its_refusals():
    assert parse_ints(" 0.25 ") == (1, 4)
    assert parse_ints("1_000/2") == (500, 1)
    assert parse_ints(3) == (3, 1)
    # the one rule for a fixture's coefficient leaves: text or an int, nothing else
    for leaf in (-0.5, True, None):
        with pytest.raises(ValueError, match=r"^coefficient %s is not a string or an integer$" % leaf):
            parse_ints(leaf)
    with pytest.raises(ValueError, match="^exponent notation is not accepted: '1e3'$"):
        parse_ints("1e3")
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0_0'$"):
        parse_ints("1/0_0")
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: '1/-2'$"):
        parse_ints("1/-2")


# Each text with its (n, d) or its refusal.  Fraction reads "1_0/3" and
# "1.5_0" only from Python 3.11 and "1 / 2" only from 3.12; parse_ints reads
# every text the same on every version.
COEFFICIENT_GRAMMAR = [
    ("1_0/3", (10, 3)),
    ("1.5_0", (3, 2)),
    ("-.5", (-1, 2)),
    ("+5.", (5, 1)),
    ("1 / 2", "Invalid literal for Fraction: '1 / 2'"),
    ("1__0", "Invalid literal for Fraction: '1__0'"),
    ("_1", "Invalid literal for Fraction: '_1'"),
    ("1_", "Invalid literal for Fraction: '1_'"),
    ("1e3", "exponent notation is not accepted: '1e3'"),
    ("1/0", "zero denominator in '1/0'"),
    ("1/-2", "Invalid literal for Fraction: '1/-2'"),
    (".", "Invalid literal for Fraction: '.'"),
    ("-", "Invalid literal for Fraction: '-'"),
]


@pytest.mark.parametrize("text, want", COEFFICIENT_GRAMMAR)
def test_parse_ints_reads_one_grammar_on_every_version(text, want):
    got = outcome(lambda: parse_ints(text))
    assert got == ((want, None) if isinstance(want, tuple) else (None, want))


@pytest.mark.parametrize("text, want", COEFFICIENT_GRAMMAR)
def test_parse_element_reads_the_grammar_term_by_term(text, want):
    # the space after the colon keeps the text out of the one-scan reader
    got = outcome(lambda: parse_element("H_8: " + text))
    if isinstance(want, tuple):
        assert got == (parse_element("H_8:" + format_fraction(*want)), None)
    else:
        assert got == (None, want)
