import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisetforge.bisets import BASIS_LABELS, BurnsideElement
from bisetforge.blocks import COORD_NAMES, BlockElement, PeirceBasis
from bisetforge import orders
from bisetforge.linalg import (
    common_denominator,
    elementary_divisors,
    hnf_rows,
    int_inverse,
    transpose,
)
from bisetforge.orders import (
    CONGRUENCES_2,
    CONGRUENCES_3,
    CORNER_BASIS_2,
    CORNER_BASIS_3,
    CORNER_BASIS_Q,
    CORNER_IDEMPOTENTS_Q,
    GAMMA_CORNER_BASIS_2,
    HT_LABELS,
    X1,
    X2,
    X3,
    congruence_solution_lattice,
    delta_images,
    lambda_membership,
    load_fixture_matrix,
    local_idempotents,
    localized_membership,
    mod24_conditions,
    representation_matrix,
)
from bisetforge.verify import swap_label
from reference import in_lambda, in_local, mat_inverse

S11_ROW = [0, 0, 15, -3, 0, 20, 8, 6, 0, 25, 7, 9, 8, -3, 1, 12, 10, 3, 15, 4, 3, 5]
HNF_DIAG = [1, 1, 1, 1, 1, 1, 1, 1, 1, 12, 12, 12, 1, 2, 1, 2, 2, 2, 2, 2, 24, 4]
DIVISORS = [1] * 11 + [2] * 6 + [4] + [12] * 3 + [24]
INDEX = 2 ** 17 * 3 ** 4


def linear_delta(nums, den, pb):
    """Reference: delta of the ring element nums / den, the linear extension
    of delta_images: the sum of nums[j] * delta(e_j), over den."""
    total = BlockElement.zero()
    for n, img in zip(nums, delta_images(pb)):
        total = total + img.scale(n)
    return total.scale(Fraction(1, den))


def conjugator():
    """Reference: the conjugator x = X1 X2 X3 and its inverse."""
    x = X1 * X2 * X3
    return x, x.inverse()


def conjugated_slots(pb, elem, x, xi):
    """Reference: x^-1 times the slot coordinates of elem times x."""
    return xi * BlockElement.from_ints(*pb.slot_ints(elem.nums, elem.den)) * x


def test_conjugator_is_integral_unit():
    x, y = conjugator()
    assert x.is_integral()
    assert x * y == BlockElement.identity()
    assert y * x == BlockElement.identity()


def test_delta_images_are_integral():
    pb = PeirceBasis.load()
    for img in delta_images(pb):
        assert img.is_integral()


def test_matrix_matches_recomputation():
    pb = PeirceBasis.load()
    assert representation_matrix(delta_images(pb)) == load_fixture_matrix()


def test_matrix_frozen_row():
    M = load_fixture_matrix()
    assert M[COORD_NAMES.index("s11")] == S11_ROW


def test_stated_column_listing_is_the_factor_swap():
    assert HT_LABELS != BASIS_LABELS
    assert tuple(swap_label(l) for l in HT_LABELS) == BASIS_LABELS
    assert tuple(swap_label(swap_label(l)) for l in BASIS_LABELS) == BASIS_LABELS


def mod24_rows():
    """The mod-24 conditions derived from the matrix fixture, as dense rows."""
    rows = []
    for terms, m in mod24_conditions(int_inverse(load_fixture_matrix())):
        assert m == 24
        rows.append([dict(terms).get(i, 0) for i in range(22)])
    return rows


def mod24_membership(vec, rows):
    """Reference: every one of the dense mod-24 rows annihilates vec mod 24."""
    return all(sum(c * x for c, x in zip(row, vec)) % 24 == 0 for row in rows)


def test_columns_satisfy_congruences():
    M = load_fixture_matrix()
    rows = mod24_rows()
    for j in range(22):
        col = [M[i][j] for i in range(22)]
        assert lambda_membership(col)
        assert mod24_membership(col, rows)


def test_congruence_lists_have_the_displayed_shape():
    # the chained row splits into three elementary conditions, so the
    # 13 displayed rows become 11 + 4 entries
    assert len(CONGRUENCES_2) == 11
    assert len(CONGRUENCES_3) == 4
    assert len(mod24_rows()) == 11


def test_24_inverse_is_integral():
    M = load_fixture_matrix()
    Minv = mat_inverse([[Fraction(x) for x in row] for row in M])
    assert all((24 * x).denominator == 1 for row in Minv for x in row)


def test_lattice_data_frozen():
    M = load_fixture_matrix()
    H = hnf_rows(transpose(M))
    assert [H[i][i] for i in range(22)] == HNF_DIAG
    assert H == congruence_solution_lattice()
    divs = [d for d in elementary_divisors([list(r) for r in M]) if d]
    assert divs == DIVISORS
    prod = 1
    for d in divs:
        prod *= d
    assert prod == INDEX


def test_derived_mod24_conditions_cut_out_the_column_lattice(monkeypatch):
    # their count and the columns they annihilate are tested above; here
    # their solution lattice, by the Smith route that solves the congruences
    M = load_fixture_matrix()
    derived = mod24_conditions(int_inverse(M))
    monkeypatch.setattr(orders, "LAMBDA_CONDITIONS", derived)
    assert congruence_solution_lattice() == hnf_rows(transpose(M))


def test_derived_mod24_conditions_need_an_integral_24_inverse():
    M = load_fixture_matrix()
    M[0] = [5 * x for x in M[0]]
    with pytest.raises(ValueError, match="24 times the inverse matrix is not integral"):
        mod24_conditions(int_inverse(M))


def test_corner_bases_hold_the_local_idempotents_themselves():
    for p, basis in ((2, CORNER_BASIS_2), (3, CORNER_BASIS_3)):
        es = local_idempotents(p)
        assert local_idempotents(p) is es
        opening = basis[: len(es) - 2]
        assert [name for name, _ in opening] == ["e%d" % k for k in range(3, len(es) + 1)]
        assert all(x is e for (_, x), e in zip(opening, es[2:])), p
    corner = dict(CORNER_BASIS_2)
    assert [name for name, _ in GAMMA_CORNER_BASIS_2] == ["b1", "b2", "b3", "b4"]
    for (name, b), source in zip(GAMMA_CORNER_BASIS_2, ("e5", "tau7", "tau5", "tau6")):
        assert b is corner[source], (name, source)
    rational = dict(CORNER_BASIS_Q)
    for name, k in zip(CORNER_IDEMPOTENTS_Q, (1, 4, 5, 6)):
        assert rational[name] is local_idempotents(3)[k - 1], (name, k)


def test_membership_witnesses():
    ok = BlockElement.from_coords({"x1": 12, "y": 2, "z3": 24})
    assert in_lambda(ok)
    assert not in_lambda(BlockElement.from_coords({"x1": 2}))
    assert not in_lambda(BlockElement.from_coords({"z2": 1}))
    two_only = BlockElement.from_coords({"z2": 4, "z3": 4, "w": 2})
    assert in_local(two_only, 2)
    assert not in_local(two_only, 3)
    three_only = BlockElement.from_coords({"z2": 3})
    assert in_local(three_only, 3)
    assert not in_local(three_only, 2)


def test_membership_rejects_denominators():
    half = BlockElement.from_coords({"s11": Fraction(1, 2)})
    assert not in_lambda(half)
    assert not in_local(half, 2)
    assert in_local(half, 3)


def _residuals(block, congs):
    """Reference: (residual / modulus) of each congruence, in Fractions."""
    x = dict(zip(COORD_NAMES, block.to_vector()))
    return [sum(c * x[n] for n, c in coeffs.items()) / m for coeffs, m in congs]


def ref_lambda_membership(block):
    """Reference: integral coordinates and every residual a multiple of its modulus."""
    vec = block.to_vector() + _residuals(block, CONGRUENCES_2 + CONGRUENCES_3)
    return all(x.denominator == 1 for x in vec)


def ref_localized_membership(block, p):
    """Reference: the same in Z_(p), whose members have denominators prime to p."""
    congs = CONGRUENCES_2 if p == 2 else CONGRUENCES_3
    return all(x.denominator % p for x in block.to_vector() + _residuals(block, congs))


# column lattice of the matrix fixture: the integral congruence order itself
_M = load_fixture_matrix()


@settings(max_examples=400, deadline=None)
@given(
    coeffs=st.lists(st.integers(-3, 3), min_size=22, max_size=22),
    nudge=st.one_of(st.none(), st.tuples(st.integers(0, 21), st.integers(-30, 30))),
    den=st.one_of(st.just(1), st.integers(1, 12)),
)
def test_compiled_membership_matches_the_congruence_dicts(coeffs, nudge, den):
    nums = [sum(c * x for c, x in zip(coeffs, row)) for row in _M]
    if nudge:
        nums[nudge[0]] += nudge[1]
    block = BlockElement.from_ints(nums, den)
    assert in_lambda(block) == ref_lambda_membership(block)
    for p in (2, 3):
        assert in_local(block, p) == ref_localized_membership(block, p)


@settings(max_examples=400, deadline=None)
@given(
    coeffs=st.lists(st.integers(-3, 3), min_size=22, max_size=22),
    nudge=st.one_of(st.none(), st.tuples(st.integers(0, 21), st.integers(-30, 30))),
    den=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 24, 36]),
    scale=st.sampled_from([1, 2, 3, 5, 6, 7, 12]),
)
# a residual that fails its modulus m but not m times the common factor
@example(coeffs=[0] * 22, nudge=(COORD_NAMES.index("y"), 1), den=1, scale=2)
@example(coeffs=[0] * 22, nudge=(COORD_NAMES.index("x1"), 2), den=3, scale=6)
def test_int_membership_matches_the_element_predicates(coeffs, nudge, den, scale):
    # nums / den over a common factor scale: an unreduced pair, whose reduced
    # form is the element's (nums, den)
    nums = [sum(c * x for c, x in zip(coeffs, row)) for row in _M]
    if nudge:
        nums[nudge[0]] += nudge[1]
    block = BlockElement.from_ints(nums, den)
    unreduced = [scale * a for a in nums], scale * den
    assert lambda_membership(*unreduced) == in_lambda(block)
    assert in_lambda(block) == ref_lambda_membership(block)
    for p in (2, 3):
        assert localized_membership(*unreduced, p) == in_local(block, p)
        assert in_local(block, p) == ref_localized_membership(block, p)


def test_membership_references_see_members_and_non_members():
    members = [BlockElement.from_ints([row[j] for row in _M]) for j in range(22)]
    assert all(map(in_lambda, members)) and all(map(ref_lambda_membership, members))
    for p in (2, 3):
        local = [b.scale(Fraction(1, 5 - p)) for b in members]
        assert all(in_local(b, p) and ref_localized_membership(b, p) for b in local)
        assert not any(map(in_lambda, local))
    with pytest.raises(ValueError):
        in_local(BlockElement.identity(), 5)
    with pytest.raises(ValueError):
        localized_membership([0] * 22, 1, 5)


def test_local_idempotents():
    for p in (2, 3):
        es = local_idempotents(p)
        total = BlockElement.zero()
        for e in es:
            assert e * e == e
            assert in_local(e, p)
            total = total + e
        assert total == BlockElement.identity()
    with pytest.raises(ValueError):
        local_idempotents(5)


def test_delta_respects_a_product():
    pb = PeirceBasis.load()
    a = BurnsideElement.basis(0, "Q")
    prod = linear_delta(a.nums, a.den, pb) * linear_delta(a.nums, a.den, pb)
    a2 = a * a
    assert prod == linear_delta(a2.nums, a2.den, pb)


def test_linear_delta_matches_the_conjugation_route():
    pb = PeirceBasis.load()
    x, xi = conjugator()
    rng = random.Random(20261018)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in BASIS_LABELS]
        e = BurnsideElement.from_ints("Q", *common_denominator(coeffs))
        assert linear_delta(e.nums, e.den, pb) == conjugated_slots(pb, e, x, xi)
    for i, img in enumerate(delta_images(pb)):
        assert img == conjugated_slots(pb, BurnsideElement.basis(i), x, xi)


def test_linear_delta_with_mixed_image_denominators():
    # rescaling the basis vectors gives images over denominators 2..36, which
    # the linear extension sums over one common denominator
    pb = PeirceBasis.load()
    scaled = PeirceBasis([[(i % 4 + 1) * c for c in v] for i, v in enumerate(pb.vectors)], pb.table)
    assert len({img.den for img in delta_images(scaled)}) > 1
    x, xi = conjugator()
    rng = random.Random(20261019)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in BASIS_LABELS]
        e = BurnsideElement.from_ints("Q", *common_denominator(coeffs))
        assert linear_delta(e.nums, e.den, scaled) == conjugated_slots(scaled, e, x, xi)


def test_delta_images_follow_the_fixture_instance():
    # the images are those of the basis passed in, so a different basis gets its own
    pb = PeirceBasis.load()
    doubled = PeirceBasis([[2 * c for c in v] for v in pb.vectors], pb.table)
    for a, b in zip(delta_images(pb), delta_images(doubled)):
        assert b == a.scale(Fraction(1, 2))
