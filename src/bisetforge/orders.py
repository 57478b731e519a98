"""The integral form of the ring inside the block algebra, by congruences.

The 22 transitive classes map through the inverse of the slot isomorphism and
a fixed conjugation to an integral 22x22 matrix M over the coordinate order
of blocks.COORD_NAMES, one column per class in BASIS_LABELS order.  The image
lattice of M is cut out of the integral block order by the paper's
congruences, compiled once to LAMBDA_CONDITIONS and localized at 2 and 3;
mod24_conditions() derives that cut from M instead, for comparison.  The
idempotents of the localized orders open the corner bases built on them.

The matrix fixture ships with a stated column listing that swaps the two
factors in each class label; contracting its columns against the component
basis shows the actual column order is plain BASIS_LABELS.  The stated
listing is kept as HT_LABELS so the discrepancy stays mechanically checkable;
see errata.json.
"""

from __future__ import annotations

import functools
import math

from . import fixtures
from .bisets import BASIS_LABELS
from .blocks import COORD_INDEX, COORD_NAMES, BlockElement
from .linalg import hnf_rows, smith_normal_form

__all__ = [
    "HT_TO_H",
    "HT_LABELS",
    "X1",
    "X2",
    "X3",
    "delta_images",
    "representation_matrix",
    "load_fixture_matrix",
    "matrix_diff",
    "CONGRUENCES_2",
    "CONGRUENCES_3",
    "LAMBDA_CONDITIONS",
    "mod24_conditions",
    "lambda_membership",
    "localized_membership",
    "congruence_solution_lattice",
    "local_idempotents",
    "GAMMA_CORNER_BASIS_2",
    "CORNER_BASIS_2",
    "CORNER_BASIS_3",
    "CORNER_BASIS_Q",
    "CORNER_IDEMPOTENTS_Q",
]

# The column listing stated alongside the matrix fixture: position k of that
# listing is position HT_TO_H[k] of BASIS_LABELS.  Each label differs from the
# actual column class by the factor swap; kept only to pin down the erratum.
HT_TO_H = (0, 2, 1, 3, 5, 4, 6, 7, 9, 8, 13, 12, 11, 10, 14, 15, 17, 16, 19, 18, 20, 21)
HT_LABELS = tuple(BASIS_LABELS[i] for i in HT_TO_H)

# The three unit conjugators applied after the slot isomorphism's inverse,
# each 1 on the scalar slots u, w and z1.
_UNIT_DIAGONAL = {"u": 1, "w": 1, "z1": 1}
X1 = BlockElement.from_coords({"s12": -2, "s21": 6, "s22": 6, "s23": -4, "s33": 1, **_UNIT_DIAGONAL})
X2 = BlockElement.from_coords({"s11": 1, "s22": 1, "s32": 7, "s33": 1, **_UNIT_DIAGONAL})
X3 = BlockElement.from_coords({"s11": 1, "s22": 1, "s33": 1, "t3": 1, "x3": 6, **_UNIT_DIAGONAL})


@functools.cache
def _conjugators():
    x = X1 * X2 * X3
    return x, x.inverse()


def delta_images(peirce):
    """delta of the 22 basis classes in BASIS_LABELS order, as BlockElements.

    Each is x^-1 * gamma^-1(class) * x for the conjugator x = X1 * X2 * X3.
    """
    x, xi = _conjugators()
    n = len(BASIS_LABELS)
    slots = (peirce.slot_ints([int(i == j) for j in range(n)]) for i in range(n))
    return [xi * BlockElement.from_ints(*s) * x for s in slots]


def representation_matrix(imgs):
    """22x22 integer matrix; column j holds the coordinates of imgs[j], the
    j-th delta image.

    Raises ValueError if any image fails to be integral.
    """
    for j, img in enumerate(imgs):
        bad = img.non_integer_coordinate()
        if bad:
            raise ValueError("image %d (%s) has non-integer %s" % (j, BASIS_LABELS[j], bad))
    return [[img.nums[i] for img in imgs] for i in range(22)]


def load_fixture_matrix(fixture_dir=None):
    data = fixtures.load_delta_matrix(fixture_dir)
    if not isinstance(data, dict):
        raise ValueError("delta_matrix.json: expected an object")
    if data.get("row_order") != list(COORD_NAMES):
        raise ValueError("delta_matrix.json:row_order: differs from COORD_NAMES")
    if data.get("column_classes") != list(BASIS_LABELS):
        raise ValueError("delta_matrix.json:column_classes: differs from BASIS_LABELS")
    if data.get("stated_column_classes") != list(HT_LABELS):
        raise ValueError("delta_matrix.json:stated_column_classes: differs from HT_LABELS")
    M = data.get("matrix")
    if not isinstance(M, list) or len(M) != 22:
        raise ValueError("delta_matrix.json:matrix: expected 22 rows")
    for i, row in enumerate(M):
        if not isinstance(row, list) or len(row) != 22:
            raise ValueError("delta_matrix.json:matrix[%d]: expected 22 cells" % i)
        for j, x in enumerate(row):
            if type(x) is not int:
                where = "delta_matrix.json:matrix[%d][%d]" % (i, j)
                raise ValueError("%s: %r is not an integer" % (where, x))
    return M


def matrix_diff(A, B, row_names, col_names):
    """Human-readable list of the cells where A and B differ, each named by
    its row and column names; empty when equal."""
    return [
        "(%s, %s): %s != %s" % (row_names[i], col_names[j], A[i][j], B[i][j])
        for i in range(len(A))
        for j in range(len(A[0]))
        if A[i][j] != B[i][j]
    ]


# Congruence conditions: (coefficient dict over COORD_NAMES, modulus).
CONGRUENCES_2 = (
    ({"w": 2, "z1": -2, "z2": -1}, 8),
    ({"z2": 1, "z3": -1}, 4),
    ({"z3": 1}, 4),
    ({"x1": 1}, 4),
    ({"x2": 1}, 4),
    ({"x3": 1}, 4),
    ({"y": 1}, 2),
    ({"t1": 1}, 2),
    ({"t2": 1}, 2),
    ({"t3": 1}, 2),
    ({"v": 1}, 2),
)
CONGRUENCES_3 = (
    ({"x1": 1}, 3),
    ({"x2": 1}, 3),
    ({"x3": 1}, 3),
    ({"z2": 1}, 3),
)


def _compiled(congs, p=None):
    """(((index in COORD_NAMES, coeff), ...), modulus) for each congruence;
    at p the modulus is gcd(m, p^m), the p-part of m: over a denominator prime
    to p, a residual has valuation >= v_p(m) exactly when that divides it."""
    return tuple(
        (tuple((COORD_INDEX[n], c) for n, c in coeffs.items()), math.gcd(m, p**m) if p else m)
        for coeffs, m in congs
    )


LAMBDA_CONDITIONS = _compiled(CONGRUENCES_2 + CONGRUENCES_3)
_LOCAL_CONDITIONS = {2: _compiled(CONGRUENCES_2, 2), 3: _compiled(CONGRUENCES_3, 3)}
_24_IDENTITY = [[24 * (i == j) for j in range(22)] for i in range(22)]


def mod24_conditions(inverse):
    """The conditions c . v == 0 mod 24, compiled like LAMBDA_CONDITIONS, that
    cut the column lattice of M, M^-1 = N / d for inverse = (N, d), out of
    Z^22: the rows of the Hermite form of 24 M^-1 stacked on 24 I, less its
    24 e_k rows.  ValueError when 24 M^-1 is not integral."""
    N, d = inverse
    if 24 % d:
        raise ValueError("24 times the inverse matrix is not integral")
    rows = hnf_rows([[24 // d * x for x in row] for row in N] + _24_IDENTITY)
    return tuple(
        (tuple((i, c) for i, c in enumerate(row) if c), 24)
        for row in rows
        if [c for c in row if c] != [24]
    )


def _satisfies(nums, conditions, g=1):
    """Whether nums / g, for g dividing every entry, meets the conditions."""
    for terms, m in conditions:
        r = 0  # a plain loop: most conditions have one term
        for i, c in terms:
            r += c * nums[i]
        if r % (m * g):
            return False
    return True


def lambda_membership(nums, den=1):
    """Membership of the block nums / den, in any terms, in the integral
    congruence order (integrality included)."""
    g = math.gcd(den, *nums)
    return g == den and _satisfies(nums, LAMBDA_CONDITIONS, g)


def localized_membership(nums, den, p):
    """Membership of the block nums / den, in any terms, in the localized
    order at p (2 or 3)."""
    if p not in _LOCAL_CONDITIONS:
        raise ValueError("p must be 2 or 3")
    g = math.gcd(den, *nums)
    return den // g % p != 0 and _satisfies(nums, _LOCAL_CONDITIONS[p], g)


def congruence_solution_lattice():
    """HNF row basis of {v in Z^22 : v meets LAMBDA_CONDITIONS}.

    Each c . v == 0 mod m is read as (24/m) c . v == 0 mod 24, solved through
    the Smith form of those rows: the generators are columns of V scaled by
    24/gcd(d_i, 24), plus the full 24 Z^22."""
    C = [[24 // m * dict(terms).get(i, 0) for i in range(22)] for terms, m in LAMBDA_CONDITIONS]
    D, V = smith_normal_form(C)
    k = len(C)
    gens = []
    for j in range(22):
        m = 24 // math.gcd(D[j][j], 24) if j < k else 1
        gens.append([m * V[i][j] for i in range(22)])
    return hnf_rows(gens + _24_IDENTITY)


# Idempotents of the localized orders, e1..e4 alike: at 2 the last couples
# the w slot with the constant part of the corner; at 3 they are separate.
_E1_TO_E4 = tuple(BlockElement.from_coords({n: 1}) for n in ("s11", "s22", "s33", "u"))
_LOCAL_IDEMPOTENTS = {
    2: _E1_TO_E4 + (BlockElement.from_coords({"w": 1, "z1": 1}),),
    3: _E1_TO_E4 + (BlockElement.from_coords({"w": 1}), BlockElement.from_coords({"z1": 1})),
}


def local_idempotents(p):
    """e1, e2, ... of the localized order at p (2 or 3), the same objects on every call."""
    if p not in _LOCAL_IDEMPOTENTS:
        raise ValueError("p must be 2 or 3")
    return _LOCAL_IDEMPOTENTS[p]


# Claimed corner bases for the Morita-reduced localized orders, opening with
# the idempotents e3.. of the order.
CORNER_BASIS_2 = (
    *zip(("e3", "e4", "e5"), local_idempotents(2)[2:]),
    ("tau1", BlockElement.from_coords({"x3": 4})),
    ("tau2", BlockElement.from_coords({"t3": 2})),
    ("tau3", BlockElement.from_coords({"y": 2})),
    ("tau4", BlockElement.from_coords({"v": 2})),
    ("tau5", BlockElement.from_coords({"z2": 8})),
    ("tau6", BlockElement.from_coords({"z3": 4})),
    ("tau7", BlockElement.from_coords({"z1": 2, "z2": 4})),
)
CORNER_BASIS_3 = (
    *zip(("e3", "e4", "e5", "e6"), local_idempotents(3)[2:]),
    ("tau1", BlockElement.from_coords({"x3": 3})),
    ("tau2", BlockElement.from_coords({"t3": 1})),
    ("tau3", BlockElement.from_coords({"y": 1})),
    ("tau4", BlockElement.from_coords({"v": 1})),
    ("tau5", BlockElement.from_coords({"z2": 3})),
    ("tau6", BlockElement.from_coords({"z3": 1})),
)

# Basis of the local corner at 2 on the (w, z) slots, in the claimed order:
# b1 = identity of the corner, b2 = 2 + 4 eta, b3 = 8 eta, b4 = 4 xi, which
# are e5, tau7, tau5 and tau6 of CORNER_BASIS_2.
GAMMA_CORNER_BASIS_2 = tuple(
    zip(("b1", "b2", "b3", "b4"), map(dict(CORNER_BASIS_2).get, ("e5", "tau7", "tau5", "tau6")))
)

# The rational corner used for the characteristic-zero presentation: the four
# diagonal slot idempotents, which are e1, e4, e5 and e6 at 3, with basis the
# ten surviving coordinate slots.
CORNER_IDEMPOTENTS_Q = ("a_{1,1}", "a_{2,2}", "a_{3,3}", "a_{4,4}")
CORNER_BASIS_Q = (
    *zip(CORNER_IDEMPOTENTS_Q, (local_idempotents(3)[i] for i in (0, 3, 4, 5))),
    ("a_{1,4}", BlockElement.from_coords({"t1": 1})),
    ("a_{4,1}", BlockElement.from_coords({"x1": 1})),
    ("a_{2,4}", BlockElement.from_coords({"v": 1})),
    ("a_{4,2}", BlockElement.from_coords({"y": 1})),
    ("a'_{4,4}", BlockElement.from_coords({"z2": 1})),
    ("a''_{4,4}", BlockElement.from_coords({"z3": 1})),
)
