import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisetforge.bisets import BASIS_LABELS, BurnsideElement
from bisetforge.rings import RINGS
from bisetforge.blocks import (
    COORD_NAMES,
    IDEMPOTENT_LABELS,
    PEIRCE_LABELS,
    BlockElement,
    PeirceBasis,
    slot_basis,
)


def E(**coords):
    return BlockElement.from_coords(coords)


# one product per composition rule of the eight coordinate groups
def test_slot_products():
    assert E(s12=1) * E(s23=1) == E(s13=1)
    assert E(s13=1) * E(s31=1) == E(s11=1)
    assert E(s11=1) * E(t1=1) == E(t1=1)
    assert E(t1=1) * E(z1=1) == E(t1=1)
    assert E(x1=1) * E(s11=1) == E(x1=1)
    assert E(z1=1) * E(x1=1) == E(x1=1)
    assert E(u=1) * E(v=1) == E(v=1)
    assert E(v=1) * E(z1=1) == E(v=1)
    assert E(y=1) * E(u=1) == E(y=1)
    assert E(z1=1) * E(y=1) == E(y=1)
    assert E(w=1) * E(w=1) == E(w=1)
    assert E(x1=1) * E(t1=1) == E(z2=1)
    assert E(y=1) * E(v=1) == E(z2=-12, z3=1)
    assert E(z1=1, z2=1) * E(z1=1, z2=1) == E(z1=1, z2=2)


def test_zero_composites():
    assert (E(t1=1) * E(x1=1)).is_zero()
    assert (E(v=1) * E(y=1)).is_zero()
    assert (E(t1=1) * E(t1=1)).is_zero()
    assert (E(x1=1) * E(x2=1)).is_zero()
    assert (E(s11=1) * E(u=1)).is_zero()
    assert (E(z2=1) * E(z2=1)).is_zero()
    assert (E(z2=1) * E(z3=1)).is_zero()


def test_identity_block():
    one = BlockElement.identity()
    for b in slot_basis():
        assert one * b == b
        assert b * one == b


coords22 = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    min_size=22,
    max_size=22,
)


@given(coords22, coords22, coords22)
@settings(max_examples=40)
def test_block_associativity(u, v, w):
    a = BlockElement.from_vector(u)
    b = BlockElement.from_vector(v)
    c = BlockElement.from_vector(w)
    assert (a * b) * c == a * (b * c)


@given(coords22, coords22, coords22)
@settings(max_examples=40)
def test_block_distributivity(u, v, w):
    a = BlockElement.from_vector(u)
    b = BlockElement.from_vector(v)
    c = BlockElement.from_vector(w)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_vector_round_trip():
    vec = [Fraction(i, 3) for i in range(22)]
    assert BlockElement.from_vector(vec).to_vector() == vec


def test_integrality_flags():
    assert E(s11=1, z2=24).is_integral()
    assert not E(s11=Fraction(1, 2)).is_integral()


def test_peirce_fixture_idempotents():
    pb = PeirceBasis.load()
    one = BurnsideElement.one("Q")
    total = BurnsideElement.zero("Q")
    for lab in IDEMPOTENT_LABELS:
        e = pb.element_by_label(lab, "Q")
        assert e * e == e
        total = total + e
    assert total == one


def test_peirce_known_vector():
    pb = PeirceBasis.load()
    e = {BASIS_LABELS[i]: c for i, c in enumerate(pb.element_by_label("e", "Q").coeffs) if c}
    assert e == {
        "H_{0,0}": Fraction(-1, 2),
        "H_{1,0}": Fraction(1),
        "H_{4,0}": Fraction(1, 2),
    }


@pytest.mark.parametrize("label", ["eps5", "H_8", "", " e"])
def test_an_unknown_peirce_label_raises_value_error(label):
    pb = PeirceBasis.load()
    with pytest.raises(ValueError, match="^unknown Peirce label %s$" % re.escape(repr(label))):
        pb.element_by_label(label, "Q")
    assert [pb.element_by_label(lab) for lab in PEIRCE_LABELS] == [
        pb.element(i) for i in range(22)
    ]


def _fresh_outcome(pb, i, ring):
    """PEIRCE_LABELS[i] over ring by a fresh from_ints, or the refusal text."""
    rows, d = pb.int_vectors
    try:
        return BurnsideElement.from_ints(ring, rows[i], d)
    except ValueError as exc:
        return str(exc)


def _kept_outcome(pb, label, ring):
    try:
        return pb.element_by_label(label, ring)
    except ValueError as exc:
        return str(exc)


def test_peirce_elements_are_built_once_and_equal_a_fresh_build():
    pb = PeirceBasis.load()
    refused = 0
    for ring in RINGS:
        for i, label in enumerate(PEIRCE_LABELS):
            want = _fresh_outcome(pb, i, ring)
            first = _kept_outcome(pb, label, ring)
            second = _kept_outcome(pb, label, ring)
            assert first == second == want, (label, ring)
            if isinstance(want, str):
                refused += 1
            else:
                assert second is first
    # Z, Z2 and Z3 each refuse some Peirce vectors
    assert refused > 0


def test_an_out_of_ring_peirce_vector_is_refused_every_time_and_never_kept():
    pb = PeirceBasis.load()
    rows, d = pb.int_vectors
    ring = "Z"
    bad = [i for i in range(22) if isinstance(_fresh_outcome(pb, i, ring), str)]
    assert bad and len(bad) < 22
    label = PEIRCE_LABELS[bad[0]]
    for _ in range(2):
        with pytest.raises(ValueError, match="is not an integer"):
            pb.element_by_label(label, ring)
    for i, other in enumerate(PEIRCE_LABELS):
        if i not in bad:
            assert pb.element_by_label(other, ring) == BurnsideElement.from_ints(ring, rows[i], d)
    with pytest.raises(ValueError, match="is not an integer"):
        pb.element_by_label(label, ring)
    assert pb.element_by_label(label, "Q") == BurnsideElement.from_ints("Q", rows[bad[0]], d)


def gamma(pb, b):
    """gamma of a BlockElement as a ring element, through PeirceBasis.gamma_ints."""
    return BurnsideElement.from_ints("Q", *pb.gamma_ints(b.nums, b.den))


def test_gamma_is_ring_map_on_samples():
    pb = PeirceBasis.load()
    a = E(s12=1, t1=2)
    b = E(s23=1, z1=1)
    assert gamma(pb, a * b) == gamma(pb, a) * gamma(pb, b)
    assert gamma(pb, BlockElement.identity()) == BurnsideElement.one("Q")


def test_gamma_inverse_round_trip():
    pb = PeirceBasis.load()
    b = E(s11=Fraction(1, 2), x2=3, z3=Fraction(-2, 5))
    image = gamma(pb, b)
    assert BlockElement.from_ints(*pb.slot_ints(image.nums, image.den)) == b


def test_coord_names_cover_the_block():
    assert len(COORD_NAMES) == 22
    assert len(PEIRCE_LABELS) == 22
    assert len(set(COORD_NAMES)) == 22


# Plain-Fraction reference of the slot rule in the module docstring: blocks
# as dicts of 3x3 s, 3-vectors t and x, scalars u v w y, and z = (z1, z2, z3).
def ref_from_vector(vec):
    c = dict(zip(COORD_NAMES, (Fraction(a) for a in vec)))
    return {
        "s": [[c["s%d%d" % (i + 1, j + 1)] for j in range(3)] for i in range(3)],
        "t": [c["t1"], c["t2"], c["t3"]],
        "x": [c["x1"], c["x2"], c["x3"]],
        "u": c["u"],
        "v": c["v"],
        "w": c["w"],
        "y": c["y"],
        "z": [c["z1"], c["z2"], c["z3"]],
    }


def ref_to_vector(r):
    c = {"s%d%d" % (i + 1, j + 1): r["s"][i][j] for i in range(3) for j in range(3)}
    c.update({"t%d" % (i + 1): r["t"][i] for i in range(3)})
    c.update({"x%d" % (i + 1): r["x"][i] for i in range(3)})
    c.update({"z%d" % (i + 1): r["z"][i] for i in range(3)})
    c.update(u=r["u"], v=r["v"], w=r["w"], y=r["y"])
    return [c[name] for name in COORD_NAMES]


def ref_mul(a, b):
    xt = sum(a["x"][k] * b["t"][k] for k in range(3))
    yv = a["y"] * b["v"]
    (a1, a2, a3), (b1, b2, b3) = a["z"], b["z"]
    return {
        "s": [
            [sum(a["s"][i][k] * b["s"][k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ],
        "t": [sum(a["s"][i][k] * b["t"][k] for k in range(3)) + a["t"][i] * b1 for i in range(3)],
        "x": [sum(a["x"][k] * b["s"][k][j] for k in range(3)) + a1 * b["x"][j] for j in range(3)],
        "u": a["u"] * b["u"],
        "v": a["u"] * b["v"] + a["v"] * b1,
        "w": a["w"] * b["w"],
        "y": a["y"] * b["u"] + a1 * b["y"],
        "z": [a1 * b1, a1 * b2 + a2 * b1 + xt - 12 * yv, a1 * b3 + a3 * b1 + yv],
    }


mixed_coords = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=22, max_size=22
)
scales = st.fractions(min_value=-9, max_value=9, max_denominator=8) | st.integers(-9, 9)


@given(mixed_coords, mixed_coords, scales)
@settings(max_examples=60)
def test_integer_core_matches_fraction_reference(u, v, r):
    a, b = BlockElement.from_vector(u), BlockElement.from_vector(v)
    assert (a * b).to_vector() == ref_to_vector(ref_mul(ref_from_vector(u), ref_from_vector(v)))
    assert (a + b).to_vector() == [p + q for p, q in zip(u, v)]
    assert (a - b).to_vector() == [p - q for p, q in zip(u, v)]
    assert a.scale(r).to_vector() == [Fraction(r) * p for p in u]
    assert (a == b) == (u == v)
    assert a == BlockElement.from_vector(ref_to_vector(ref_from_vector(u)))
    for x in (a, b, a * b, a.scale(r)):
        assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
        assert x.is_integral() == all(c.denominator == 1 for c in x.to_vector())
        assert x.is_zero() == (not any(x.to_vector()))


@given(st.lists(st.integers(-20, 20), min_size=22, max_size=22), st.integers(1, 12), st.integers(1, 6))
def test_unreduced_numerators_normalize(nums, den, k):
    # k*nums / k*den and nums / den are one element, e.g. 2/4 and 1/2
    a = BlockElement.from_ints([k * n for n in nums], k * den)
    b = BlockElement.from_ints(nums, den)
    assert a == b and hash(a) == hash(b)
    assert a.to_vector() == [Fraction(n, den) for n in nums]
    assert BlockElement.from_vector(a.to_vector()) == a


def test_half_equals_two_quarters():
    half = E(s11=Fraction(2, 4), z2=Fraction(-3, 6))
    assert half == E(s11=Fraction(1, 2), z2=Fraction(-1, 2))
    assert (half.nums[0], half.den) == (1, 2)
    assert half.scale(-2) == E(s11=-1, z2=1)
    assert half.scale(Fraction(-2, 3)).to_vector()[0] == Fraction(-1, 3)
    assert hash(half) == hash(E(s11=Fraction(1, 2), z2=Fraction(-1, 2)))


def test_integer_accessors():
    b = E(x1=4, z3=-2)
    assert b.den == 1 and b.nums[COORD_NAMES.index("z3")] == -2
    with pytest.raises(ValueError):
        BlockElement.from_ints([0] * 22, 0)
    with pytest.raises(ValueError):
        BlockElement.from_ints([0] * 21)


# Products are bilinear, so the 484 slot pairs decide the whole product; the
# rule derived from the block positions must give the reference on each.
def test_every_slot_pair_matches_the_fraction_reference():
    slots = slot_basis()
    units = [[int(k == i) for k in range(22)] for i in range(22)]
    for i, u in enumerate(units):
        for j, v in enumerate(units):
            want = ref_to_vector(ref_mul(ref_from_vector(u), ref_from_vector(v)))
            assert (slots[i] * slots[j]).to_vector() == want, (COORD_NAMES[i], COORD_NAMES[j])


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_mixing_rings_raises_a_ring_mismatch(op):
    a, b = BurnsideElement.one("Z2"), BurnsideElement.one("F2")
    with pytest.raises(ValueError, match="^ring mismatch: Z2 vs F2$"):
        getattr(a, "__%s__" % op)(b)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_block_and_ring_elements_do_not_combine(op):
    block, ring = BlockElement.identity(), BurnsideElement.one("Q")
    with pytest.raises(TypeError, match="^cannot combine BlockElement with BurnsideElement$"):
        getattr(block, "__%s__" % op)(ring)
    with pytest.raises(TypeError, match="^cannot combine BurnsideElement with BlockElement$"):
        getattr(ring, "__%s__" % op)(block)


def test_a_block_element_never_equals_a_ring_element():
    # the same numerators over the same denominator in Q, one of each class
    for k in range(22):
        nums = [int(i == k) for i in range(22)]
        block, ring = BlockElement.from_ints(nums), BurnsideElement.from_ints("Q", nums)
        assert (block.ring, block.nums, block.den) == (ring.ring, ring.nums, ring.den)
        assert block != ring and ring != block
    assert BlockElement.zero() != BurnsideElement.zero("Q")


@pytest.mark.parametrize("bad", [0.5, 2.0, Fraction(1, 2), Fraction(2, 1), "1", None])
def test_from_ints_refuses_a_non_integer_coordinate_or_denominator(bad):
    with pytest.raises(TypeError, match=r"^BlockElement\.from_ints takes integer"):
        BlockElement.from_ints([bad] + [0] * 21)
    with pytest.raises(TypeError, match=r"^BlockElement\.from_ints takes integer"):
        BlockElement.from_ints([1] + [0] * 21, bad)


def test_from_ints_stores_bools_as_ints():
    x = BlockElement.from_ints([True] + [False] * 21, True)
    assert x == E(s11=1) and x.to_vector()[0] == 1
    assert [type(a) for a in x.nums] == [int] * 22 and type(x.den) is int


def test_scale_refuses_a_float():
    with pytest.raises(TypeError, match="float"):
        E(s11=1).scale(0.5)
    with pytest.raises(TypeError, match="float"):
        BurnsideElement.one("Q").scale(0.1)
    assert BurnsideElement.one("Q").scale("1/10") == BurnsideElement.one("Q").scale(Fraction(1, 10))
    assert E(s11=1).scale(3) == E(s11=3)


def test_from_coords_and_from_vector_refuse_a_float():
    # 0.1 is a binary fraction over 2**55, never the 1/10 that was meant
    with pytest.raises(TypeError, match="^coefficient 0.1 is a float"):
        BlockElement.from_coords({"s11": 0.1})
    with pytest.raises(TypeError, match="^coefficient 0.5 is a float"):
        BlockElement.from_vector([0.5] + [0] * 21)
    assert BlockElement.from_coords({"s11": "1/10"}) == E(s11=Fraction(1, 10))
    assert BlockElement.from_vector(["-1/2", True] + [0] * 20) == E(s11=Fraction(-1, 2), s21=1)


def test_calling_the_class_raises_and_names_from_ints():
    with pytest.raises(TypeError, match=r"^BlockElement is built by BlockElement\.from_ints"):
        BlockElement()
    with pytest.raises(TypeError, match=r"BlockElement\.from_ints"):
        BlockElement(s11=1)
    assert E(s11=1) * E(s11=1) == E(s11=1)
