from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisetforge.linalg import (
    LocalLattice,
    SingularMatrixError,
    common_denominator,
    det_bareiss,
    det_fraction,
    elementary_divisors,
    hnf_rows,
    identity_matrix,
    in_local_span,
    int_inverse,
    is_p_integral,
    lattice_index,
    mat_inverse,
    mat_mul,
    mat_vec,
    p_valuation_at_least,
    parse_fraction,
    format_fraction,
    smith_normal_form,
    transpose,
)

small_int = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(
        st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
    )


@given(square(3))
def test_det_routes_agree(A):
    assert det_bareiss([r[:] for r in A]) == det_fraction(
        [[Fraction(x) for x in r] for r in A]
    )


@given(square(3))
def test_inverse_multiplies_to_identity(A):
    d = det_bareiss([r[:] for r in A])
    if d == 0:
        with pytest.raises(SingularMatrixError):
            mat_inverse([[Fraction(x) for x in r] for r in A])
        return
    Ainv = mat_inverse([[Fraction(x) for x in r] for r in A])
    assert mat_mul(A, Ainv) == identity_matrix(3)


@given(square(3))
def test_hnf_is_idempotent(A):
    H = hnf_rows([r[:] for r in A])
    assert hnf_rows([r[:] for r in H]) == H


@given(square(3))
@settings(max_examples=60)
def test_smith_form_diagonalizes(A):
    U, D, V = smith_normal_form([r[:] for r in A])
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(det_bareiss([r[:] for r in U])) == 1
    assert abs(det_bareiss([r[:] for r in V])) == 1
    divs = [D[i][i] for i in range(3)]
    for a, b in zip(divs, divs[1:]):
        if a and b:
            assert b % a == 0


def test_elementary_divisors_example():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert elementary_divisors(A) == [2, 2, 156]


def test_lattice_index():
    assert lattice_index([[2, 0], [0, 3]]) == 6


def test_hnf_detects_sublattice():
    H = hnf_rows([[2, 0], [0, 2], [1, 1]])
    assert H[0][0] * H[1][1] == 2


def test_in_local_span_ignores_odd_denominators():
    gens = [[2, 0], [0, 6]]
    assert in_local_span(gens, [2, 0], 2)
    # 1/3 of a generator is allowed at p = 2 but not at p = 3
    assert in_local_span(gens, [0, 2], 2)
    assert not in_local_span(gens, [0, 2], 3)
    assert not in_local_span(gens, [1, 0], 2)


def test_p_valuation():
    assert p_valuation_at_least(Fraction(4, 3), 2, 2)
    assert not p_valuation_at_least(Fraction(2, 3), 2, 2)
    assert is_p_integral(Fraction(1, 3), 2)
    assert not is_p_integral(Fraction(1, 2), 2)


@given(st.integers(-40, 40), st.integers(1, 12))
def test_fraction_round_trip(a, b):
    f = Fraction(a, b)
    assert parse_fraction(format_fraction(f)) == f


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [5, 6]) == [17, 39]


def test_parse_fraction_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("one")


def test_common_denominator():
    assert common_denominator([Fraction(1, 2), 3, Fraction(-2, 3)]) == ((3, 18, -4), 6)
    assert common_denominator(["1/4", 0]) == ((1, 0), 4)
    assert common_denominator([]) == ((), 1)


@given(square(4), st.integers(1, 6))
@settings(max_examples=80)
def test_int_inverse_matches_fraction_inverse(A, den):
    rational = [[Fraction(x, den) for x in row] for row in A]
    if det_bareiss([r[:] for r in A]) == 0:
        with pytest.raises(SingularMatrixError):
            int_inverse(A, den)
        return
    N, d = int_inverse(A, den)
    assert d > 0
    assert [[Fraction(x, d) for x in row] for row in N] == mat_inverse(rational)


def reference_in_local_span(gens, v, p):
    """The Fraction formulation that LocalLattice replaced, kept as the oracle."""
    if not gens:
        return all(Fraction(x) == 0 for x in v)
    U, D, V = smith_normal_form(gens)
    k, n = len(gens), len(gens[0])
    w = [sum(Fraction(v[i]) * V[i][j] for i in range(n)) for j in range(n)]
    for j in range(n):
        d = D[j][j] if j < k and j < n else 0
        if d == 0:
            if w[j] != 0:
                return False
        else:
            need = 0
            while d % p == 0:
                d //= p
                need += 1
            if need and not p_valuation_at_least(w[j], p, need):
                return False
            if not is_p_integral(w[j], p):
                return False
    return True


@st.composite
def span_problems(draw):
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n), max_size=5))
    vecs = draw(
        st.lists(
            st.lists(st.fractions(-12, 12, max_denominator=6), min_size=n, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
    # also probe integer combinations of the generators, which must pass
    combos = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    for coeffs in draw(st.lists(combos, max_size=2)):
        vecs.append([sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)])
    return gens, vecs


@given(span_problems(), st.sampled_from([2, 3, 5]))
@settings(max_examples=150)
def test_local_lattice_matches_fraction_reference(problem, p):
    gens, vecs = problem
    lattice = LocalLattice(gens, p)
    for v in vecs:
        want = reference_in_local_span(gens, v, p)
        assert lattice.contains(*common_denominator(v)) == want
        assert in_local_span(gens, v, p) == want
    if gens:
        assert lattice.divisors == elementary_divisors(gens)
