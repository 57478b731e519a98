"""Dense references, in Fractions or eager integer steps, that several test
modules compare against."""

import itertools
import math
from fractions import Fraction

from bisetforge.linalg import SingularMatrixError


def outcome(fn):
    """(fn(), None), or (None, its message) when fn raises ValueError."""
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_inverse(A):
    """Exact Gauss-Jordan inverse of a square matrix, entries returned as
    Fractions; SingularMatrixError when a column has no pivot."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("singular at column %d" % col)
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return [row[n:] for row in M]


def bareiss(A, adjoin):
    """The eager fraction-free Gauss-Jordan elimination that linalg._bareiss
    refines, as (det, first column with no pivot or None, rows): every step
    rescales every row, so each row is current after every step."""
    n = len(A)
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


def minors_gcds(A):
    """[D_1, D_2, ...]: D_k is the gcd of the k x k minors of the integer
    matrix A, up to its rank (D_k = 0 from there on is left out)."""
    m, n = len(A), len(A[0]) if A else 0
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, det([[A[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        out.append(g)
    return out


def det(A):
    """Laplace expansion along the first row; exact for integer entries."""
    if not A:
        return 1
    return sum(
        (-1) ** j * a * det([row[:j] + row[j + 1 :] for row in A[1:]])
        for j, a in enumerate(A[0])
        if a
    )


def associativity_failures(rows):
    """The pairs (i, j) for which e_i(e_j e_s) != (e_i e_j)e_s for some s, in
    row order, for structure constants in the row form of
    linalg.multiply_rows(): the combine loop that verify's associativity
    check ran before it built each side as one array."""
    n = len(rows)
    T = [[[] for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, k, c in row:
            T[i][j].append((k, c))
    cols = [[T[k][s] for k in range(n)] for s in range(n)]

    def combine(rows, pairs):
        out = [0] * n
        for m, a in pairs:
            for r, b in rows[m]:
                out[r] += a * b
        return out

    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if any(combine(T[i], T[j][s]) != combine(cols[s], T[i][j]) for s in range(n))
    ]
