"""Dense Fraction references that several test modules compare against."""

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
