from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisetforge.bisets import (
    BASIS_LABELS,
    IDENTITY_INDEX,
    RINGS,
    BurnsideElement,
    biset_sizes,
    format_element,
    k1,
    k2,
    left_mult_matrices,
    mackey_table,
    multiply_vectors,
    oracle_table,
    parse_element,
    structure_table,
    structure_tensor,
    subgroup_reps,
)


def test_basis_has_22_classes():
    assert len(BASIS_LABELS) == 22
    assert len(subgroup_reps()) == 22
    assert BASIS_LABELS[IDENTITY_INDEX] == "H^D_5"


def test_sizes():
    sizes = biset_sizes()
    assert sum(sizes) == 194
    assert sizes[BASIS_LABELS.index("H_{0,0}")] == 36
    assert sizes[BASIS_LABELS.index("H_{5,5}")] == 1
    assert sizes[IDENTITY_INDEX] == 6


def test_dual_route_tables_agree():
    assert oracle_table() == mackey_table()


def test_identity_class():
    c = structure_table()
    for j in range(22):
        unit = [int(k == j) for k in range(22)]
        assert list(c[IDENTITY_INDEX][j]) == unit
        assert list(c[j][IDENTITY_INDEX]) == unit


def test_frozen_products():
    # orbit counts checked by hand through the fixed-point formula
    c = structure_table()
    i0 = BASIS_LABELS.index("H_{0,0}")
    assert list(c[i0][i0]) == [6 * int(k == i0) for k in range(22)]
    itop = BASIS_LABELS.index("H_{5,5}")
    assert list(c[itop][itop]) == [int(k == itop) for k in range(22)]
    i10 = BASIS_LABELS.index("H_{1,0}")
    i01 = BASIS_LABELS.index("H_{0,1}")
    i11 = BASIS_LABELS.index("H_{1,1}")
    assert list(c[i10][i01]) == [6 * int(k == i11) for k in range(22)]


def test_kernels():
    reps = subgroup_reps()
    i10 = BASIS_LABELS.index("H_{1,0}")
    assert len(k1(reps[i10])) == 2
    assert len(k2(reps[i10])) == 1
    idiag = BASIS_LABELS.index("H^D_5")
    assert len(k1(reps[idiag])) == 1
    assert len(k2(reps[idiag])) == 1


def test_left_mult_matrices_are_columns():
    c = structure_table()
    L = left_mult_matrices()
    for i in (0, 7, IDENTITY_INDEX, 21):
        for j in (0, 3, 14, 21):
            assert [L[i][k][j] for k in range(22)] == list(c[i][j])


small_coeff = st.integers(min_value=-4, max_value=4)
sparse_elem = st.lists(
    st.tuples(st.integers(0, 21), small_coeff), min_size=1, max_size=3
).map(
    lambda terms: BurnsideElement(
        "Q",
        [
            sum(v for j, v in terms if j == k)
            for k in range(22)
        ],
    )
)


@given(sparse_elem, sparse_elem, sparse_elem)
@settings(max_examples=50)
def test_ring_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(sparse_elem, sparse_elem, sparse_elem)
@settings(max_examples=50)
def test_ring_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_noncommutative():
    c = structure_table()
    assert any(
        list(c[i][j]) != list(c[j][i]) for i in range(22) for j in range(22)
    )


def test_parse_format_round_trip():
    e = parse_element("H_{0,0}:-1/2,H_{1,0}:1,H^D_5:3")
    assert parse_element(format_element(e)) == e
    assert parse_element("0").is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("H_{0,0}")
    with pytest.raises(ValueError):
        parse_element("nope:1")


def test_ring_coefficient_validation():
    with pytest.raises(ValueError):
        BurnsideElement("Z", [Fraction(1, 2)] + [0] * 21)
    with pytest.raises(ValueError):
        BurnsideElement("Z2", [Fraction(1, 2)] + [0] * 21)
    ok = BurnsideElement("Z2", [Fraction(1, 3)] + [0] * 21)
    assert ok.coeffs[0] == Fraction(1, 3)
    red = BurnsideElement("F3", [5] + [0] * 21)
    assert red.coeffs[0] == 2


def test_multiply_vectors_matches_table():
    c = structure_table()
    xs = [0] * 22
    ys = [0] * 22
    xs[2] = 1
    ys[5] = 1
    assert list(multiply_vectors(xs, ys)) == list(c[2][5])


def test_structure_tensor_is_the_sparse_table():
    c = structure_table()
    T = structure_tensor()
    for i in range(22):
        for j in range(22):
            dense = [0] * 22
            for k, x in T[i][j]:
                assert x != 0
                dense[k] = x
            assert tuple(dense) == c[i][j]
    assert sum(len(cell) for row in T for cell in row) == 504


def _dense_product(xs, ys):
    """Reference: the dense table, every k of every pair of nonzero inputs."""
    c = structure_table()
    out = [Fraction(0)] * 22
    for i in range(22):
        for j in range(22):
            if xs[i] and ys[j]:
                for k in range(22):
                    out[k] += Fraction(xs[i]) * Fraction(ys[j]) * c[i][j][k]
    return out


# denominators that each ring admits; F2/F3 residues are reduced on entry
_RING_DENOMS = {
    "Q": (1, 2, 3, 4, 6, 9),
    "Z": (1,),
    "Z2": (1, 3, 5, 9),
    "Z3": (1, 2, 4, 5),
    "F2": (1,),
    "F3": (1,),
}


def _coeff_vectors(denoms):
    coeff = st.builds(Fraction, st.integers(-7, 7), st.sampled_from(denoms))
    sparse = st.lists(st.tuples(st.integers(0, 21), coeff), max_size=6).map(
        lambda terms: [sum((v for j, v in terms if j == k), Fraction(0)) for k in range(22)]
    )
    return st.one_of(st.just([0] * 22), sparse)


@given(_coeff_vectors(_RING_DENOMS["Q"]), _coeff_vectors(_RING_DENOMS["Q"]))
@settings(max_examples=60, deadline=None)
def test_multiply_vectors_matches_dense_reference(xs, ys):
    assert multiply_vectors(xs, ys) == _dense_product(xs, ys)
    ints = [int(x * 36) for x in xs]
    assert multiply_vectors(ints, ys) == _dense_product(ints, ys)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_element_product_matches_dense_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = BurnsideElement(ring, data.draw(_coeff_vectors(_RING_DENOMS[ring])))
    b = BurnsideElement(ring, data.draw(_coeff_vectors(_RING_DENOMS[ring])))
    assert a * b == BurnsideElement(ring, _dense_product(a.coeffs, b.coeffs))
    assert all(type(x) is Fraction for x in (a * b).coeffs)
