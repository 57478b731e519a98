"""Exact linear algebra over Q and Z: no floats anywhere.

Matrices are plain lists of lists holding ints or Fractions.  Sizes in this
package never exceed a few dozen rows, so the eliminations are dense and
direct; a matrix applied many times is kept as its sparse columns.

    >>> A = sparse_columns([[2, 0, 1], [0, 0, 3]])
    >>> apply_columns(A, [1, 5, 2])
    [4, 6]
    >>> det_bareiss([[2, 0], [0, 3]])
    6
    >>> U, D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]

An algebra is given by structure constants in row form: rows[i] holds the
(j, k, c) triples for which e_i e_j has coefficient c at e_k.  The ring and
the block algebra, both StructureElement subclasses, multiply through one
kernel, multiply_rows(); in Q[t]/(t^2), with e_0 = 1 and e_1 = t:

    >>> multiply_rows((((0, 0, 1), (1, 1, 1)), ((0, 1, 1),)), [1, 2], [3, 1])  # (1 + 2t)(3 + t)
    [3, 7]
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import rings

__all__ = [
    "SingularMatrixError",
    "identity_matrix",
    "transpose",
    "SparseColumns",
    "sparse_columns",
    "apply_columns",
    "multiply_rows",
    "StructureElement",
    "int_inverse",
    "common_denominator",
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


def multiply_rows(rows, xs, ys):
    """The coefficients of xs times ys by the structure constants rows, as a
    list; only the nonzero xs[i] and the stored triples are visited."""
    out = [0] * len(rows)
    for i, x in enumerate(xs):
        if x:
            for j, k, c in rows[i]:
                y = ys[j]
                if y:
                    out[k] += c * x * y
    return out


class StructureElement:
    """An element over one of rings.RINGS: integer numerators `nums` over one
    denominator `den` > 0, in lowest terms (rings.normalize_ints).  A subclass
    supplies _rows(), its structure constants; elements of two classes never
    compare equal, and combining them, or two rings, raises."""

    __slots__ = ("ring", "nums", "den")

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
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        nums = (r.numerator * a for a in self.nums)
        return self._new(self.ring, nums, self.den * r.denominator)

    def __mul__(self, other):
        self._check(other)
        nums = multiply_rows(self._rows(), self.nums, other.nums)
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
    common denominator; ints and Fractions pass through, other values go
    through Fraction()."""
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def _bareiss(A, adjoin):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the square matrix
    A, with the identity adjoined on the right if adjoin, as (det, k, M).

    Every intermediate entry is a minor of A, so each division is exact.  A
    row swap also negates the row it moves down, which keeps the sign of the
    determinant, so the last pivot is det and the rows M end as
    [det*I | det*A^-1].  k is the first column with no pivot, where det is 0
    and the elimination stops, and None otherwise.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("not square")
    M = [[int(x) for x in row] + [int(i == j) for j in range(n * adjoin)] for i, row in enumerate(A)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0, k, M
        if piv != k:
            M[k], M[piv] = M[piv], [-x for x in M[k]]
        rk = M[k]
        pk = rk[k]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(pk * x - f * y) // prev for x, y in zip(M[i], rk)]
        prev = pk
    return prev, None, M


def int_inverse(A, den=1):
    """Inverse of the rational matrix A/den, A an integer matrix, as (N, d)
    with (A/den)^-1 == N/d in lowest terms and d > 0; SingularMatrixError
    names the first column with no pivot."""
    det, k, M = _bareiss(A, True)
    if k is not None:
        raise SingularMatrixError("singular at column %d" % k)
    sign = -1 if det < 0 else 1
    N = [[sign * den * x for x in row[len(A):]] for row in M]
    g = math.gcd(det, *(x for row in N for x in row))
    return [[x // g for x in row] for row in N], abs(det) // g


def det_bareiss(A):
    """Fraction-free determinant of an integer matrix (exact int)."""
    return _bareiss(A, False)[0]


def hnf_rows(A):
    """Canonical row Hermite normal form of the row lattice of A.

    Returns only the nonzero rows: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot).  Two integer matrices span the
    same row lattice iff their hnf_rows agree.
    """
    rows = [[int(x) for x in row] for row in A]
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if not nz:
                break
            if len(nz) == 1:
                i0 = nz[0]
                rows[r], rows[i0] = rows[i0], rows[r]
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
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
    return rows[:r]


def smith_normal_form(A):
    """(U, D, V) with D = U*A*V diagonal, d_i | d_{i+1}, U and V unimodular."""
    D = [[int(x) for x in row] for row in A]
    m = len(D)
    n = len(D[0]) if m else 0
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i -= q * row j
        D[i] = [x - q * y for x, y in zip(D[i], D[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def add_col(i, j, q):
        # col i -= q * col j
        for row in D:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    for t in range(min(m, n)):
        while True:
            entries = [(abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j] != 0]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            d = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    add_row(i, t, D[i][t] // d)
                    dirty = dirty or D[i][t] != 0
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    add_col(j, t, D[t][j] // d)
                    dirty = dirty or D[t][j] != 0
            if dirty:
                continue
            bad = None
            for i in range(t + 1, m):
                if any(D[i][j] % d for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, -1)
        if t < m and t < n and D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
    return U, D, V


def elementary_divisors(A):
    _, D, _ = smith_normal_form(A)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0]


def _p_val(x, p):
    # valuation of a nonzero integer
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class LocalLattice:
    """The Z_(p)-span of integer row vectors, factored once for many tests.

    With U*G*V = D in Smith form, v lies in the span iff every coordinate of
    v*V is divisible at p by the matching elementary divisor, and is 0 where
    the divisor is 0.  The rows of V are kept as sparse columns of V^T, so a
    test multiplies only the nonzero entries of v, and the p-parts of the
    divisors are kept, so a test is integer arithmetic only.
    """

    def __init__(self, gens, p):
        self.p = p
        self.divisors = []
        self._moduli = None
        if not gens:
            return
        _, D, V = smith_normal_form(gens)
        k, n = len(gens), len(gens[0])
        self._rows = sparse_columns(transpose(V))
        self._moduli = []
        for j in range(n):
            d = D[j][j] if j < k else 0
            if d:
                self.divisors.append(d)
            self._moduli.append(p ** _p_val(d, p) if d else 0)

    def contains(self, nums, den=1):
        """Is the rational vector nums/den in the span?  (integer nums, den > 0)"""
        if self._moduli is None:
            return not any(nums)
        scale = self.p ** _p_val(den, self.p)
        for w, m in zip(apply_columns(self._rows, nums), self._moduli):
            if m == 0:
                if w:
                    return False
            elif w % (m * scale):
                return False
        return True

