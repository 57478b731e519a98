"""Exact linear algebra over Q and Z: no floats anywhere.

Matrices are plain lists of lists.  sparse_columns and apply_columns accept
ints and Fractions; the exact kernels (det_bareiss, int_inverse, hnf_rows,
smith_normal_form, elementary_divisors, LocalLattice) take integers only and
raise TypeError on a Fraction or a float, which int() would truncate.  A
rational matrix is integer rows over one denominator, as rows_over_lcm()
gives them: LocalLattice(rows, p, den) is the Z_(p)-span of rows / den.  A
matrix applied many times is kept as its sparse columns.

    >>> A = sparse_columns([[2, 0, 1], [0, 0, 3]])
    >>> apply_columns(A, [1, 5, 2])
    [4, 6]
    >>> det_bareiss([[2, 0], [0, 3]])
    6
    >>> D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]

The matrices are small (22 rows at most) and mostly zero, so the kernels
skip zeros: an elimination step leaves alone every row whose entry in the
pivot column is 0 and scales it later, all at once (see _bareiss).  Below,
the steps at columns 0 and 2 leave the row (0, 3, 0) alone:

    >>> int_inverse([[2, 0, 0], [0, 3, 0], [1, 0, 4]])
    ([[12, 0, 0], [0, 8, 0], [-3, 0, 6]], 24)

An algebra is given by structure constants by cell: cells[i][j] holds the
(k, c) pairs for which e_i e_j has coefficient c at e_k.  StructureElement
holds the coefficients and the ring rules of an element; each subclass names
its cells.  multiply_cells() is the product, and visits only the cells of the
pairs of nonzero coefficients; in Q[t]/(t^2), with e_0 = 1 and e_1 = t:

    >>> cells = ((((0, 1),), ((1, 1),)), (((1, 1),), ()))
    >>> multiply_cells(cells, [1, 2], [3, 1])  # (1 + 2t)(3 + t)
    [3, 7]

A sweep of products with one left factor x gathers x's cells once:
left_columns() is the left multiplication by x as sparse columns, so that
x y is apply_columns(L, y):

    >>> apply_columns(left_columns(cells, [1, 2]), [3, 1])
    [3, 7]

A linear map from an algebra with structure constants cells to another,
sending e_k to images[k] / q, is multiplicative when images[i] images[j] is
q times the sum of c images[k] over the (k, c) pairs of cells[i][j].
sweep_products() makes those products by the cells of the target, with one
left multiplication per image, and map_failures() lists the cells where one
differs.  In Q[t]/(t^2), t -> 2t is multiplicative, t -> 1 + t not:

    >>> maps = [[1, 0], [0, 2]], [[1, 0], [1, 1]]
    >>> [map_failures(cells, imgs, sweep_products(cells, imgs)) for imgs in maps]
    [[], [(1, 1)]]
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache
from itertools import compress

from . import rings

__all__ = [
    "SingularMatrixError",
    "identity_matrix",
    "transpose",
    "SparseColumns",
    "sparse_columns",
    "apply_columns",
    "multiply_cells",
    "left_columns",
    "sweep_products",
    "map_failures",
    "StructureElement",
    "det_inverse",
    "int_inverse",
    "inverse_of",
    "common_denominator",
    "rows_over_lcm",
    "det_bareiss",
    "hnf_rows",
    "smith_normal_form",
    "elementary_divisors",
    "LocalLattice",
]


class SingularMatrixError(Exception):
    pass


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


SparseColumns = namedtuple("SparseColumns", "nrows cols")


def sparse_columns(A):
    """A (m x n, ints or Fractions) as its row count and, for each column,
    the (row, entry) pairs of its nonzero entries."""
    return SparseColumns(len(A), tuple(
        tuple((r, x) for r, x in enumerate(col) if x) for col in zip(*A)
    ))


def apply_columns(A, v):
    """A*v for A = sparse_columns(...), as a list; zero entries of v are skipped."""
    out = [0] * A.nrows
    for col, x in zip(A.cols, v):
        if x:
            for r, a in col:
                out[r] += a * x
    return out


def multiply_cells(cells, xs, ys):
    """The coefficients of xs times ys by the structure constants cells, as a
    list: only the cells (i, j) with xs[i] and ys[j] nonzero are visited."""
    n = len(cells)
    out = [0] * n
    js = list(compress(range(n), ys))
    for i in compress(range(n), xs):
        x, row = xs[i], cells[i]
        for j in js:
            for k, c in row[j]:
                out[k] += c * x * ys[j]
    return out


def left_columns(cells, xs):
    """The left multiplication by xs for the structure constants cells, as
    SparseColumns L: column j is xs times e_j, so that apply_columns(L, ys)
    is multiply_cells(cells, xs, ys)."""
    cols = [{} for _ in cells]
    for i, x in enumerate(xs):
        if x:
            for col, cell in zip(cols, cells[i]):
                for k, c in cell:
                    col[k] = col.get(k, 0) + c * x
    cols = tuple(tuple(sorted((k, a) for k, a in col.items() if a)) for col in cols)
    return SparseColumns(len(cells), cols)


def sweep_products(cells, imgs):
    """[i][j]: imgs[i] times imgs[j] by the structure constants cells, as
    lists, from one left_columns() per image and one apply_columns() per
    product."""
    return [[apply_columns(L, y) for y in imgs] for L in [left_columns(cells, x) for x in imgs]]


def map_failures(cells, images, products, q=1):
    """The cells (i, j), row by row, where products[i][j] differs from q times
    the sum of c * images[k] over the (k, c) pairs of cells[i][j]."""
    bad = []
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            want = [0] * len(products[i][j])
            for k, c in cell:
                want = [w + c * x for w, x in zip(want, images[k])]
            if products[i][j] != [q * w for w in want]:
                bad.append((i, j))
    return bad


class StructureElement:
    """An element over one of rings.RINGS: integer numerators `nums` over one
    denominator `den` > 0, in lowest terms (rings.normalize_ints).  A subclass
    names its structure constants: _cells() returns them in the form of
    multiply_cells(), which makes every product.  Elements of two classes
    never compare equal, and combining them, or two rings, raises.  Elements
    are built by the subclass's from_ints, which checks its arguments by
    _int_args(); calling the class raises TypeError."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        raise TypeError("%s is built by %s.from_ints, not by calling the class" % (name, name))

    @classmethod
    def _int_args(cls, nums, den):
        """(nums, den) as a tuple of ints and an int, a bool read as 0 or 1;
        TypeError naming from_ints for any other value, which
        rings.normalize_ints() would store as it is.  Only from_ints checks:
        the operators make ints from ints."""
        try:
            return tuple(map(operator.index, nums)), operator.index(den)
        except TypeError:
            raise TypeError(
                "%s.from_ints takes integer numerators and an integer denominator"
                % cls.__name__
            ) from None

    @classmethod
    def _new(cls, ring, nums, den=1):
        out = object.__new__(cls)
        out.ring = ring
        out.nums, out.den = rings.normalize_ints(ring, tuple(nums), den)
        return out

    def _check(self, other):
        if type(other) is not type(self):
            names = type(self).__name__, type(other).__name__
            raise TypeError("cannot combine %s with %s" % names)
        if other.ring != self.ring:
            raise ValueError("ring mismatch: %s vs %s" % (self.ring, other.ring))

    def __add__(self, other):
        self._check(other)
        da, db = self.den, other.den
        nums = (a * db + b * da for a, b in zip(self.nums, other.nums))
        return self._new(self.ring, nums, da * db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new(self.ring, (-a for a in self.nums), self.den)

    def scale(self, r):
        """The element times r: an int, a Fraction or coefficient text; a
        float raises TypeError (rings.rational)."""
        if not isinstance(r, int):
            r = rings.rational(r)
        nums = (r.numerator * a for a in self.nums)
        return self._new(self.ring, nums, self.den * r.denominator)

    def __mul__(self, other):
        self._check(other)
        nums = multiply_cells(self._cells(), self.nums, other.nums)
        return self._new(self.ring, nums, self.den * other.den)

    def is_zero(self):
        return not any(self.nums)

    def _key(self):
        return self.ring, self.den, self.nums

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def common_denominator(values):
    """(numerators, d) with values[i] == numerators[i] / d and d the least
    common denominator; a value other than an int is read by rings.rational(),
    so a float raises TypeError."""
    fracs = [v if isinstance(v, int) else rings.rational(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def rows_over_lcm(elems):
    """(rows, d) with elems[i] == rows[i] / d, d the lcm of the denominators
    of the elements, each holding its integer numerators nums over den."""
    d = math.lcm(*(e.den for e in elems))
    return [[x * (d // e.den) for x in e.nums] for e in elems], d


def _int_rows(A):
    """A as a list of new int lists; a Fraction or float entry raises
    TypeError, where int() would truncate it to a wrong answer."""
    return [list(map(operator.index, row)) for row in A]


def _bareiss(A, adjoin):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the square integer
    matrix A, with the identity adjoined on the right if adjoin, as (det, k, M).

    Every intermediate entry is a minor of A, so each division is exact.  A
    row swap also negates the row it moves down, which keeps the sign of the
    determinant, so the last pivot is det and the rows M end as
    [det*I | det*A^-1].  k is the first column with no pivot, where det is 0
    and the elimination stops, and None otherwise.

    Rows are scaled lazily.  A step with pivot p only multiplies a row whose
    entry in the pivot column is 0 by p and divides it by the pivot before;
    such a row is left as it is, and at[i] records the pivot it is current
    at.  Its entries are the current ones times the nonzero ratio
    at[i] / prev, so they are zero where those are, the row is brought
    current (as pivot row, or at the end) by the exact M[i] * prev // at[i],
    and an elimination step divides by at[i] where the eager one divides by
    prev.  Hence the result is the eager one, bit for bit.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("not square")
    M = _int_rows(A)
    if adjoin:
        M = [row + unit for row, unit in zip(M, identity_matrix(n))]
    at = [1] * n
    prev = 1

    def current(i):
        s = at[i]
        if s != prev:
            M[i] = [x * prev // s if x else 0 for x in M[i]]
            at[i] = prev

    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            for i in range(n):
                current(i)
            return 0, k, M
        if piv != k:
            M[k], M[piv] = M[piv], [-x for x in M[k]]
            at[k], at[piv] = at[piv], at[k]
        current(k)
        rk = M[k]
        pk = rk[k]
        for i in range(n):
            f = M[i][k]
            if f and i != k:
                # the eager step on the row brought current, (pk*x*prev/s -
                # f*prev/s*y)/prev, is the same step divided by s instead
                s = at[i]
                M[i] = [(pk * x - f * y) // s for x, y in zip(M[i], rk)]
                at[i] = pk
        at[k] = pk
        prev = pk
    for i in range(n):
        current(i)
    return prev, None, M


def det_inverse(A, den=1):
    """(det A, inverse) for the integer matrix A from one adjoined
    elimination: det is det_bareiss(A), and inverse is what int_inverse(A,
    den) returns, or, when det is 0, the SingularMatrixError it raises, so
    that a caller may read the determinant of a singular matrix too."""
    det, k, M = _bareiss(A, True)
    if k is not None:
        return 0, SingularMatrixError("singular at column %d" % k)
    sign = -1 if det < 0 else 1
    N = [[sign * den * x for x in row[len(A):]] for row in M]
    g = math.gcd(det, *(x for row in N for x in row))
    return det, ([[x // g for x in row] for row in N], abs(det) // g)


def int_inverse(A, den=1):
    """Inverse of the rational matrix A/den, A an integer matrix, as (N, d)
    with (A/den)^-1 == N/d in lowest terms and d > 0; SingularMatrixError
    names the first column with no pivot."""
    return inverse_of(det_inverse(A, den))


def inverse_of(det_inverse_pair):
    """The inverse held by a (det, inverse) pair of det_inverse(); when det is
    0, the SingularMatrixError the pair holds is raised."""
    det, inverse = det_inverse_pair
    if not det:
        raise inverse
    return inverse


def det_bareiss(A):
    """Fraction-free determinant of an integer matrix (exact int)."""
    return _bareiss(A, False)[0]


def _hermite(rows, n):
    """Bring the integer rows (lists, changed in place) to the Hermite form
    of hnf_rows on their first n columns; later columns ride along.  Returns
    the rank r: rows[:r] are the nonzero rows on those columns."""
    m = len(rows)
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            if len(nz) == 1:
                break
            a = rows[r][c]
            for i in range(r + 1, m):
                if rows[i][c] != 0:
                    q = rows[i][c] // a
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        a = rows[r][c]
        for i in range(r):
            q = rows[i][c] // a
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def hnf_rows(A):
    """Canonical row Hermite normal form of the row lattice of A.

    Returns only the nonzero rows: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot).  Two integer matrices span the
    same row lattice iff their hnf_rows agree.
    """
    rows = _int_rows(A)
    return rows[: _hermite(rows, len(rows[0]) if rows else 0)]


def smith_normal_form(A):
    """(D, V) with D diagonal, d_i | d_{i+1}, V unimodular and U*A*V == D
    for a unimodular U that is not built.

    Row Hermite steps on D alternate with column Hermite steps, row steps on
    [D^T | V^T], until D is diagonal (Kannan and Bachem): the leading entry
    of each step divides the last one, and once it stops shrinking its row
    and column are clear and stay so.  Then each pair a, b on the diagonal
    with a not dividing b becomes g = gcd(a, b) and a*b/g by the column step
    [[x, -b/g], [y, a/g]], a*x + b*y == g; a row step, not built, clears
    what that step leaves off the diagonal.
    """
    D = _int_rows(A)
    m = len(D)
    n = len(D[0]) if m else 0
    Vt = identity_matrix(n)
    while True:
        r = _hermite(D, n)
        if not any(any(row[i + 1 :]) for i, row in enumerate(D)):
            break
        T = [list(col) + v for col, v in zip(zip(*D), Vt)]
        _hermite(T, m)
        D = transpose([t[:m] for t in T])
        Vt = [t[m:] for t in T]
    for i in range(r):
        for j in range(i + 1, r):
            a, b = D[i][i], D[j][j]
            if b % a:
                g = math.gcd(a, b)
                x = pow(a // g, -1, b // g)
                y = (g - a * x) // b
                vi, vj = Vt[i], Vt[j]
                Vt[i] = [x * s + y * t for s, t in zip(vi, vj)]
                Vt[j] = [(a * t - b * s) // g for s, t in zip(vi, vj)]
                D[i][i], D[j][j] = g, a * b // g
    return D, transpose(Vt)


def elementary_divisors(A):
    D, _ = smith_normal_form(A)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0]


def _p_val(x, p):
    # valuation of a nonzero integer
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@lru_cache(maxsize=32)
def _smith_step(rows):
    """The part of LocalLattice that does not depend on p, for the tuple of
    integer rows G: the diagonal entry of D at each column (0 past the last
    row) and the rows of V as sparse columns of V^T, with U*G*V = D."""
    D, V = smith_normal_form(rows)
    k = len(rows)
    return tuple(D[j][j] if j < k else 0 for j in range(len(V))), sparse_columns(transpose(V))


class LocalLattice:
    """The Z_(p)-span of the rational rows G / den, G integer rows over their
    common denominator den > 0 as rows_over_lcm() gives them, factored once
    for many tests.

    With U*G*V = D in Smith form, v lies in the span iff every coordinate of
    den*v*V is divisible at p by the matching elementary divisor, and is 0
    where the divisor is 0; only the p-part of den counts, so a den prime to
    p scales nothing.  The rows of V are kept as sparse columns of V^T, so a
    test multiplies only the nonzero entries of v, and the p-parts of the
    divisors are kept, so a test is integer arithmetic only.

    The Smith step does not depend on p, so lattices on the same rows share
    it, at p = 2 and p = 3 alike, through a bounded cache keyed by the rows
    (copied, so a caller may change its lists afterwards).
    """

    def __init__(self, gens, p, den=1):
        if p < 2 or operator.index(den) < 1:
            raise ValueError("expected a prime p and a positive integer den")
        self.p = p
        self.divisors = []
        self._moduli = None
        self._row_den = p ** _p_val(den, p)  # the p-part of den
        rows = tuple(map(tuple, gens))
        if not rows:
            return
        diagonal, self._rows = _smith_step(rows)
        self.divisors = [d for d in diagonal if d]
        self._moduli = [p ** _p_val(d, p) if d else 0 for d in diagonal]

    def contains(self, nums, den=1):
        """Is the rational vector nums/den in the span?  (integer nums, den > 0)"""
        if operator.index(den) < 1:
            raise ValueError("expected a positive integer den")
        if self._moduli is None:
            return not any(nums)
        if self._row_den != 1:
            nums = [self._row_den * x for x in nums]
        scale = self.p ** _p_val(den, self.p)
        for w, m in zip(apply_columns(self._rows, nums), self._moduli):
            if m == 0:
                if w:
                    return False
            elif w % (m * scale):
                return False
        return True
