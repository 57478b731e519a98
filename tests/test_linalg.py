import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisetforge import linalg
from bisetforge.bisets import structure_cells
from bisetforge.blocks import slot_cells
from bisetforge.linalg import (
    LocalLattice,
    SingularMatrixError,
    apply_columns,
    common_denominator,
    det_bareiss,
    det_inverse,
    elementary_divisors,
    hnf_rows,
    identity_matrix,
    int_inverse,
    inverse_of,
    left_columns,
    map_failures,
    multiply_cells,
    smith_normal_form,
    sparse_columns,
    sweep_products,
)
from reference import bareiss, det, mat_inverse, mat_mul, mat_vec, minors_gcds
from reference import multiply_rows, rows_of

small_int = st.integers(min_value=-9, max_value=9)


# Dense Fraction references for the integer and sparse routines.


def det_fraction(A):
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = Fraction(1) / M[col][col]
        for i in range(col + 1, n):
            if M[i][col] != 0:
                f = M[i][col] * inv
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return det


def p_valuation_at_least(x, p, k):
    """True iff v_p(x) >= k for a Fraction or int x (0 passes every bound)."""
    x = Fraction(x)
    if x == 0:
        return True
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v >= k


def square(n):
    return st.lists(
        st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
    )


@st.composite
def singular_square(draw):
    """A square matrix of size 2..6 whose column k >= 1 is an integer
    combination of the columns before it, so that elimination finds no
    pivot there at the latest."""
    n = draw(st.integers(2, 6))
    A = draw(square(n))
    k = draw(st.integers(1, n - 1))
    coeffs = draw(st.lists(small_int, min_size=k, max_size=k))
    for row in A:
        row[k] = sum(c * x for c, x in zip(coeffs, row))
    return A


# n x n matrices, every size 1..6, and singular matrices whose first column
# without a pivot need not be column 0
def squares(n):
    return st.one_of(square(n), st.integers(1, 6).flatmap(square), singular_square())


@given(squares(3))
@example([[1, 2], [2, 4]])
@example([[1, 0, 5], [0, 1, 7], [2, 3, 31]])
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 4], [0, 0, 1, 2]])
def test_det_routes_agree(A):
    assert det_bareiss([r[:] for r in A]) == det_fraction(
        [[Fraction(x) for x in r] for r in A]
    )


@given(square(3))
def test_inverse_multiplies_to_identity(A):
    d = det_bareiss([r[:] for r in A])
    if d == 0:
        with pytest.raises(SingularMatrixError):
            int_inverse(A)
        return
    N, n = int_inverse(A)
    assert mat_mul(A, N) == [[n * x for x in row] for row in identity_matrix(3)]


@given(square(3))
def test_hnf_is_idempotent(A):
    H = hnf_rows([r[:] for r in A])
    assert hnf_rows([r[:] for r in H]) == H


@given(square(3))
@settings(max_examples=60)
def test_smith_form_diagonalizes(A):
    D, V = smith_normal_form([r[:] for r in A])
    # some unimodular U has U*A*V == D iff A*V and D span one row lattice
    assert hnf_rows(mat_mul(A, V)) == hnf_rows(D)
    assert abs(det_bareiss([r[:] for r in V])) == 1
    divs = [D[i][i] for i in range(3)]
    for a, b in zip(divs, divs[1:]):
        if a and b:
            assert b % a == 0


def test_elementary_divisors_example():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert elementary_divisors(A) == [2, 2, 156]


def test_hnf_detects_sublattice():
    H = hnf_rows([[2, 0], [0, 2], [1, 1]])
    assert H[0][0] * H[1][1] == 2


def test_local_lattice_ignores_odd_denominators():
    gens = [[2, 0], [0, 6]]
    assert LocalLattice(gens, 2).contains([2, 0])
    # 1/3 of a generator is allowed at p = 2 but not at p = 3
    assert LocalLattice(gens, 2).contains([0, 2])
    assert not LocalLattice(gens, 3).contains([0, 2])
    assert not LocalLattice(gens, 2).contains([1, 0])
    # gens / 2 is spanned by (1, 0) and (0, 3)
    assert LocalLattice(gens, 2, 2).contains([1, 0])
    halves = LocalLattice(gens, 3, 2)
    assert halves.contains([1, 0]) and not halves.contains([0, 1])
    # a p-valuation of 0, or at p = 1, never ends: refused
    for p, den in ((2, 0), (1, 1)):
        with pytest.raises(ValueError):
            LocalLattice(gens, p, den)


def test_local_lattice_contains_refuses_a_den_below_1():
    # den 0 once sent contains into a p-valuation loop that never ended: run
    # the calls in a fresh interpreter, so that a hang fails within seconds
    code = """
from bisetforge.linalg import LocalLattice
for gens in ([[2, 0], [0, 6]], []):
    for den in (0, -2):
        try:
            LocalLattice(gens, 2).contains([1, 0], den)
        except ValueError as exc:
            print(exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["expected a positive integer den"] * 4


def test_p_valuation():
    assert p_valuation_at_least(Fraction(4, 3), 2, 2)
    assert not p_valuation_at_least(Fraction(2, 3), 2, 2)


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [5, 6]) == [17, 39]
    assert apply_columns(sparse_columns([[1, 2], [3, 4]]), [5, 6]) == [17, 39]


@st.composite
def sparse_problems(draw):
    """A matrix with zero rows, zero columns and negative entries likely, and
    a vector that is often zero or mostly zero."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if m and draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [0] * n
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in A:
            row[j] = 0
    v = draw(st.lists(st.one_of(st.just(0), st.integers(-30, 30)), min_size=n, max_size=n))
    return A, v


@given(sparse_problems())
@settings(max_examples=150)
def test_apply_columns_matches_dense_mat_vec(problem):
    A, v = problem
    cols = sparse_columns(A)
    assert cols.nrows == len(A)
    assert all(x for col in cols.cols for _, x in col)
    assert apply_columns(cols, v) == mat_vec(A, v)
    assert apply_columns(cols, [0] * len(v)) == [0] * len(A)


# coefficients of the operands of left_columns: small, or many digits
_coefficient = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))


def _unit(k, a=1):
    return [a if i == k else 0 for i in range(22)]


_operand = st.one_of(
    st.just([0] * 22),
    st.builds(_unit, st.integers(0, 21), _coefficient.filter(bool)),
    st.dictionaries(st.integers(0, 21), _coefficient, max_size=4).map(
        lambda d: [d.get(k, 0) for k in range(22)]
    ),
    st.lists(_coefficient, min_size=22, max_size=22),
)


@given(_operand, _operand)
@example([0] * 22, [3] * 22)
@example(_unit(14), _unit(19, -7))
@example(list(range(-11, 11)), [10**25 - k for k in range(22)])
@example([-(10**40)] * 22, list(range(22)))
@settings(max_examples=150)
def test_left_columns_and_apply_columns_are_the_product(xs, ys):
    # on the ring's table and on the block algebra's slot cells
    for cells in (structure_cells(), slot_cells()):
        L = left_columns(cells, xs)
        product = multiply_rows(rows_of(cells), xs, ys)
        assert apply_columns(L, ys) == product
        # column j is xs times e_j, stored as sparse_columns stores it
        dense = [multiply_rows(rows_of(cells), xs, _unit(j)) for j in range(22)]
        assert L == sparse_columns(list(map(list, zip(*dense))))
    cells = structure_cells()
    assert apply_columns(left_columns(cells, xs), ys) == multiply_cells(cells, xs, ys)


def _dense_product(rows, xs, ys):
    """Reference: xs times ys by the triples of rows, one at a time."""
    out = [0] * len(rows)
    for x, row in zip(xs, rows):
        if x:
            for j, k, c in row:
                out[k] += c * x * ys[j]
    return out


def _fraction_map_failures(rows, images, q, products):
    """Reference: the cells (i, j), row by row, where phi(e_i) phi(e_j) !=
    phi(e_i e_j), for phi(e_k) = images[k] / q from the algebra of rows into
    itself, in Fractions; products[i][j] is images[i] images[j]."""
    n = len(rows)
    square = [[[0] * n for _ in range(n)] for _ in range(n)]  # square[i][j][k]
    for i, row in enumerate(rows):
        for j, k, c in row:
            square[i][j][k] += c

    def image(cell):
        out = [0] * n
        for k, c in enumerate(cell):
            if c:
                out = [a + c * b for a, b in zip(out, images[k])]
        return [Fraction(a, q) for a in out]

    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if [Fraction(x, q * q) for x in products[i][j]] != image(square[i][j])
    ]


@st.composite
def _algebra_maps(draw):
    """(cells, images, q, is_map): linear maps e_k -> images[k] / q of an
    algebra into itself.  The algebra is the ring's table, the slot algebra,
    or small random structure constants; the images are q times the
    identity, or on a small algebra random integers, and are then perturbed
    up to twice."""
    q = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["ring", "slots", "small", "small"]))
    if kind == "small":
        n = draw(st.integers(1, 4))
        index = st.integers(0, n - 1)
        triples = st.lists(st.tuples(index, index, small_int.filter(bool)), max_size=4)
        cells = [[[] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j, k, c in draw(triples):
                cells[i][j].append((k, c))
    else:
        cells = structure_cells() if kind == "ring" else slot_cells()
        n = len(cells)
    images = [[q * (i == k) for i in range(n)] for k in range(n)]
    if kind == "small" and draw(st.booleans()):
        images = draw(st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n))
    is_map = images == [[q * (i == k) for i in range(n)] for k in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        k, r = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        images[k][r] += draw(small_int.filter(bool))
        is_map = False
    return cells, images, q, is_map


@given(_algebra_maps())
@settings(max_examples=40, deadline=None)
def test_sweep_products_and_map_failures_match_the_fraction_reference(case):
    cells, images, q, is_map = case
    rows = rows_of(cells)
    products = sweep_products(cells, images)
    want = [[_dense_product(rows, x, y) for y in images] for x in images]
    assert products == want
    failures = map_failures(cells, images, products, q)
    assert failures == _fraction_map_failures(rows, images, q, want)
    if is_map:
        assert failures == []


# Random small algebras for the one product loop: 1 to 6 basis elements, rows
# and cells often empty, a key k repeated in a cell now and then, and int and
# Fraction constants; the operands mix ints, Fractions and zeros the same way.
_constant = st.one_of(
    small_int.filter(bool), st.builds(Fraction, small_int.filter(bool), st.integers(2, 5))
)


def _vectors(n):
    return st.lists(st.one_of(st.just(0), _constant), min_size=n, max_size=n)


@st.composite
def _small_algebras(draw):
    """(cells, dense): structure constants by cell, and the tensor
    dense[i][j][k] they sum to."""
    n = draw(st.integers(1, 6))
    pairs = st.lists(st.tuples(st.integers(0, n - 1), _constant), max_size=3)
    cells = []
    for _ in range(n):
        empty_row = draw(st.booleans())
        cells.append(tuple(() if empty_row else tuple(draw(pairs)) for _ in range(n)))
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for k, c in cell:
                dense[i][j][k] += c
    return tuple(cells), dense


@given(st.data())
@settings(deadline=None)
def test_multiply_cells_matches_the_row_walk_and_the_dense_references(data):
    cells, dense = data.draw(_small_algebras())
    n = len(cells)
    rows = rows_of(cells)

    def dense_product(xs, ys):
        return [
            sum(
                Fraction(x) * y * dense[i][j][k]
                for i, x in enumerate(xs)
                for j, y in enumerate(ys)
                if dense[i][j][k]
            )
            for k in range(n)
        ]

    xs, ys = data.draw(_vectors(n)), data.draw(_vectors(n))
    product = multiply_cells(cells, xs, ys)
    assert product == multiply_rows(rows, xs, ys) == dense_product(xs, ys)
    assert apply_columns(left_columns(cells, xs), ys) == product
    q = data.draw(st.integers(1, 6))
    images = [[q * (i == k) for i in range(n)] for k in range(n)]
    if data.draw(st.booleans()):
        images = data.draw(st.lists(_vectors(n), min_size=n, max_size=n))
    want = [[dense_product(x, y) for y in images] for x in images]
    products = sweep_products(cells, images)
    assert products == want
    failures = map_failures(cells, images, products, q)
    assert failures == _fraction_map_failures(rows, images, q, want)
    if images == [[q * (i == k) for i in range(n)] for k in range(n)]:
        assert failures == []


@pytest.mark.parametrize("q", [1, 4])
def test_a_perturbed_identity_image_fails_the_map_at_the_reference_cells(q):
    for cells, (k, r) in ((structure_cells(), (4, 9)), (slot_cells(), (19, 20))):
        rows = rows_of(cells)
        images = [[q * (i == j) for i in range(22)] for j in range(22)]
        images[k][r] += 1
        products = [[_dense_product(rows, x, y) for y in images] for x in images]
        want = _fraction_map_failures(rows, images, q, products)
        assert want and map_failures(cells, images, products, q) == want


@given(squares(4), st.integers(1, 6))
@example([[1, 2], [2, 4]], 1)
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 4], [0, 0, 1, 2]], 2)
@settings(max_examples=80)
def test_det_inverse_is_det_bareiss_and_int_inverse(A, den):
    det, inverse = det_inverse(A, den)
    assert det == det_bareiss(A)
    if det:
        assert inverse == int_inverse(A, den)
        assert inverse_of((det, inverse)) is inverse
    else:
        assert isinstance(inverse, SingularMatrixError)
        with pytest.raises(SingularMatrixError, match="^%s$" % re.escape(str(inverse))):
            int_inverse(A, den)
        with pytest.raises(SingularMatrixError) as raised:
            inverse_of((det, inverse))
        assert raised.value is inverse


def test_common_denominator():
    assert common_denominator([Fraction(1, 2), 3, Fraction(-2, 3)]) == ((3, 18, -4), 6)
    assert common_denominator(["1/4", 0]) == ((1, 0), 4)
    assert common_denominator([]) == ((), 1)


@given(squares(4), st.integers(1, 6))
@example([[1, 2], [2, 4]], 1)
@example([[1, 0, 5], [0, 1, 7], [2, 3, 31]], 3)
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 4], [0, 0, 1, 2]], 2)
@settings(max_examples=80)
def test_int_inverse_matches_fraction_inverse(A, den):
    rational = [[Fraction(x, den) for x in row] for row in A]
    try:
        want = mat_inverse(rational)
    except SingularMatrixError as exc:
        assert det_bareiss([r[:] for r in A]) == 0
        with pytest.raises(SingularMatrixError, match="^%s$" % re.escape(str(exc))):
            int_inverse(A, den)
        return
    N, d = int_inverse(A, den)
    assert d > 0
    assert [[Fraction(x, d) for x in row] for row in N] == want


def reference_in_local_span(gens, v, p):
    """The Fraction formulation that LocalLattice replaced, kept as the oracle."""
    if not gens:
        return all(Fraction(x) == 0 for x in v)
    D, V = smith_normal_form(gens)
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
            if w[j].denominator % p == 0:
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


@given(span_problems(), st.sampled_from([2, 3, 5]), st.integers(1, 12))
@settings(max_examples=150)
def test_local_lattice_matches_fraction_reference(problem, p, den):
    # the span of gens / den holds v exactly when that of gens holds v * den
    gens, vecs = problem
    lattice = LocalLattice(gens, p, den)
    for v in vecs:
        want = reference_in_local_span(gens, [x * den for x in v], p)
        assert lattice.contains(*common_denominator(v)) == want
    if gens:
        assert lattice.divisors == elementary_divisors(gens)


def dense_contains(gens, p, nums, den=1):
    """Reference: LocalLattice.contains as a dense dot product of nums with
    every column of V, V from the Smith form of the generators."""
    if not gens:
        return not any(nums)
    D, V = smith_normal_form(gens)
    k = len(gens)
    scale = p ** _p_part(den, p)
    for j in range(len(gens[0])):
        d = D[j][j] if j < k else 0
        m = p ** _p_part(d, p) if d else 0
        w = sum(a * row[j] for a, row in zip(nums, V))
        if m == 0:
            if w:
                return False
        elif w % (m * scale):
            return False
    return True


def _p_part(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@st.composite
def sparse_membership_problems(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n), max_size=5))
    nonzero = st.integers(-12, 12).filter(bool)
    probes = []
    for _ in range(draw(st.integers(1, 6))):
        entries = draw(st.dictionaries(st.integers(0, n - 1), nonzero, max_size=2))
        nums = [entries.get(i, 0) for i in range(n)]
        den = p ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 1, 7]))
        probes.append((nums, den))
    probes.append(([0] * n, p ** draw(st.integers(0, 3))))
    # p-power multiples of one generator, which may or may not stay inside
    if gens:
        g = draw(st.sampled_from(gens))
        k = draw(st.integers(0, 2))
        probes.append(([x * p**k for x in g], p ** draw(st.integers(0, 3))))
    return p, gens, probes


@given(sparse_membership_problems())
@settings(max_examples=150)
def test_sparse_local_lattice_matches_the_dense_reference(problem):
    p, gens, probes = problem
    lattice = LocalLattice(gens, p)
    for nums, den in probes:
        assert lattice.contains(nums, den) == dense_contains(gens, p, nums, den)


# The sparse-aware kernels against eager and independent references.


@st.composite
def sparse_square(draw):
    """A square matrix of size 1..8 with at least 70% zeros.  Zero rows and
    columns make many of them singular; in half of the draws one row is a
    multiple of another, from half the budget of nonzeros, so those are
    singular without a zero row."""
    n = draw(st.integers(1, 8))
    repeat = n > 1 and draw(st.booleans())
    budget = (3 * n * n) // (20 if repeat else 10)
    cells = [(i, j) for i in range(n) for j in range(n)]
    A = [[0] * n for _ in range(n)]
    for i, j in draw(st.lists(st.sampled_from(cells), max_size=budget, unique=True)):
        A[i][j] = draw(small_int.filter(bool))
    if repeat:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(small_int)
        A[j] = [c * x for x in A[i]]
    assert 10 * sum(x == 0 for row in A for x in row) >= 7 * n * n
    return A


@given(sparse_square(), st.booleans())
@example([[0, 0], [0, 5]], True)
@example([[0, 1, 0], [1, 0, 0], [0, 0, 0]], False)
@example([[0, 3, 0, 0], [0, 0, 0, -2], [1, 0, 0, 0], [0, 0, 5, 0]], True)
@example([[2, 0, 0], [0, 3, 0], [1, 0, 4]], True)
@settings(max_examples=200)
def test_lazy_bareiss_matches_the_eager_elimination(A, adjoin):
    before = [r[:] for r in A]
    assert linalg._bareiss(A, adjoin) == bareiss(A, adjoin)
    assert A == before


@st.composite
def sparse_shapes(draw):
    """A matrix of a non-square or degenerate shape, mostly zeros: 1 x n,
    short and wide, tall, or all zero."""
    shape = draw(st.sampled_from(["row", "wide", "tall", "zero"]))
    if shape == "row":
        m, n = 1, draw(st.integers(1, 7))
    elif shape == "wide":
        m = draw(st.integers(2, 3))
        n = draw(st.integers(m + 1, 6))
    elif shape == "tall":
        n = draw(st.integers(1, 3))
        m = draw(st.integers(n + 1, 6))
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.just(0) if shape == "zero" else st.one_of(st.just(0), st.just(0), small_int)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


@given(sparse_shapes())
@example([[0, 0, 0]])
@example([[0, 6, 4]])
@example([[2, 0], [0, 3], [0, 0], [4, 6]])
@example([[0, 0], [0, 0], [0, 0]])
@example([[4, 0], [0, 6]])  # 2, 12: the gcd/lcm column step
@example([[0, 0], [0, 3]])  # 3, 0: a column step moves the zero column last
@example([[6, 0, 0], [0, 10, 0], [0, 0, 15]])  # 1, 30, 30
@settings(max_examples=150)
def test_smith_form_of_sparse_shapes(A):
    m, n = len(A), len(A[0])
    D, V = smith_normal_form(A)
    assert hnf_rows(mat_mul(A, V)) == hnf_rows(D)
    assert abs(det(V)) == 1
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diagonal = [D[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diagonal)
    for a, b in zip(diagonal, diagonal[1:]):
        assert b % a == 0 if a else b == 0
    # d_k = D_k / D_(k-1), D_k the gcd of the k x k minors
    gcds = minors_gcds(A)
    assert elementary_divisors(A) == [g // h for g, h in zip(gcds, [1] + gcds)]


@given(
    sparse_shapes(),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), small_int), max_size=6),
)
@example([[0, 2, 4], [0, 3, 0]], [(0, 1, 1)])
@settings(max_examples=150)
def test_hnf_is_canonical_under_unimodular_row_operations(A, ops):
    B = [r[:] for r in A]
    for i, j, q in ops:
        i, j = i % len(B), j % len(B)
        if i != j:
            B[i] = [x + q * y for x, y in zip(B[i], B[j])]
    B.reverse()
    H = hnf_rows(A)
    assert hnf_rows(B) == H
    # echelon shape, positive pivots, entries above each pivot in [0, pivot)
    pivots = [next(j for j, x in enumerate(row) if x) for row in H]
    assert pivots == sorted(set(pivots))
    for k, (row, p) in enumerate(zip(H, pivots)):
        assert row[p] > 0 and all(0 <= H[i][p] < row[p] for i in range(k))


@pytest.mark.parametrize(
    "fn",
    [det_bareiss, det_inverse, int_inverse, hnf_rows, smith_normal_form, elementary_divisors,
     lambda A: LocalLattice(A, 2)],
    ids=["det_bareiss", "det_inverse", "int_inverse", "hnf_rows", "smith_normal_form",
         "elementary_divisors", "LocalLattice"],
)
@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4, 2), 2.7, 2.0], ids=repr)
def test_exact_kernels_refuse_non_integer_entries(fn, bad):
    # int() would truncate these: det 0, Hermite row [1, 1], divisor 2
    with pytest.raises(TypeError):
        fn([[bad, 0], [0, 2]])


def test_local_lattice_keeps_no_reference_to_the_callers_rows():
    gens = [[2, 0, 0], [0, 6, 0]]
    probes = [([2, 0, 0], 1), ([0, 2, 0], 1), ([1, 0, 0], 1), ([0, 0, 1], 1), ([0, 6, 0], 2)]
    for p in (2, 3):
        lattice = LocalLattice(gens, p)
        want = [lattice.contains(nums, den) for nums, den in probes]
        gens[0][0] = 1
        gens[1][:] = [0, 0, 1]
        gens.append([0, 1, 0])
        assert [lattice.contains(nums, den) for nums, den in probes] == want
        assert lattice.divisors == [2, 6]
        gens[:] = [[2, 0, 0], [0, 6, 0]]

