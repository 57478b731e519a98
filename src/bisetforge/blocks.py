"""The 22-dimensional block matrix model and its bridge to the biset basis.

An element is a block matrix

    [ s      t  ]      s: 3x3,  t: 3x1   (slots s11..s33, t1..t3)
    [    u   v  ]      u, v, y, w: scalars
    [      w    ]      x: 1x3            (slots x1..x3)
    [ x  y   z  ]      z = z1 + z2*eta + z3*xi

with only the blocks shown nonzero.  Each slot is a matrix unit E_ab of a
6x6 pattern, indices 0..5: s_ij at (i-1, j-1), t_i at (i-1, 5), u at
(3, 3), v at (3, 5), w at (4, 4), x_j at (5, j-1), y at (5, 3) and z1 at
(5, 5); z2 and z3 are the nilpotents eta and xi, also at (5, 5).  Slots
multiply by E_ab E_cd = [b = c] E_ad, except that

    a product through index 5 from a row other than 5 to a column other
      than 5 vanishes: t.x, v.y, and t.y, v.x (outside the pattern);
    x_j t_j = eta and y v = xi - 12 eta;
    eta and xi square to zero and kill the legs: only z1 keeps them.

slot_cells() derives the slot products from this rule once, by cell as
linalg.multiply_cells() reads them: the structure constants of BlockElement,
a linalg.StructureElement over Q.

The coordinate order used for vectors throughout is COORD_NAMES.  A
BlockElement stores its 22 coordinates in that order as integer numerators
(`nums`) over one positive denominator (`den`), in lowest terms.  Fractions
appear only at the edges: from_vector and from_coords accept them,
to_vector returns them, and scale takes a rational factor.

The linear isomorphism onto the rational double Burnside ring sends each
coordinate slot to one member of the 22-element orthogonal-decomposition basis
(gamma).  PeirceBasis reads that basis as integer rows over one denominator
and its table by cell; gamma and its inverse are integer matrices over one
denominator each, kept as sparse columns built once per instance, on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property

from . import fixtures, rings
from .bisets import BASIS_LABELS, BurnsideElement
from .linalg import SingularMatrixError, StructureElement, apply_columns, common_denominator
from .linalg import det_inverse, int_inverse, sparse_columns

__all__ = [
    "COORD_NAMES",
    "COORD_INDEX",
    "BlockElement",
    "slot_cells",
    "slot_basis",
    "PEIRCE_LABELS",
    "SLOT_TO_PEIRCE",
    "PeirceBasis",
]

COORD_NAMES = (
    "s11", "s21", "s31", "s12", "s22", "s32", "s13", "s23", "s33",
    "x1", "x2", "x3", "u", "y", "w", "t1", "t2", "t3", "v",
    "z1", "z2", "z3",
)
COORD_INDEX = {name: i for i, name in enumerate(COORD_NAMES)}

_ONE = tuple(int(n in ("s11", "s22", "s33", "u", "w", "z1")) for n in COORD_NAMES)


# The matrix unit of each slot in the 6x6 pattern of the module docstring;
# z2 and z3 (eta, xi) sit at (5, 5) beside z1.
_POSITION = {"s%d%d" % (i + 1, j + 1): (i, j) for i in range(3) for j in range(3)}
_POSITION.update({"t%d" % (i + 1): (i, 5) for i in range(3)})
_POSITION.update({"x%d" % (j + 1): (5, j) for j in range(3)})
_POSITION.update(u=(3, 3), v=(3, 5), w=(4, 4), y=(5, 3), z1=(5, 5))
_AT = {pos: name for name, pos in _POSITION.items()}
# a leg from row 5 composed with the leg back into column 5, by its first slot
_LOOPS = {"x": {"z2": 1}, "y": {"z3": 1, "z2": -12}}


def _slot_product(p, q):
    """Slot p times slot q, as {slot: coefficient}, by the module docstring's rule."""
    if p in ("z2", "z3") or q in ("z2", "z3"):
        return {q if p == "z1" else p: 1} if "z1" in (p, q) else {}
    (a, b), (c, d) = _POSITION[p], _POSITION[q]
    if b != c or (b == 5 and a != 5 and d != 5):
        return {}
    if a == d == 5 and b != 5:
        return _LOOPS[p[0]]
    return {_AT[a, d]: 1}


@cache
def slot_cells():
    """The slot products in the form of linalg.multiply_cells()."""
    return tuple(
        tuple(
            tuple((COORD_INDEX[r], c) for r, c in _slot_product(p, q).items())
            for q in COORD_NAMES
        )
        for p in COORD_NAMES
    )


class BlockElement(StructureElement):
    """One element of the block algebra: nums / den over Q, see the module
    docstring."""

    __slots__ = ()

    @staticmethod
    def _cells():
        """slot_cells(), looked up by name on each product, as verify does."""
        return slot_cells()

    @classmethod
    def from_ints(cls, nums, den=1):
        """The element with coordinates nums[k] / den, reduced to lowest terms;
        TypeError unless nums and den are ints."""
        nums, den = cls._int_args(nums, den)
        if len(nums) != 22:
            raise ValueError("expected 22 coordinates")
        return cls._new("Q", nums, den)

    @classmethod
    def identity(cls):
        return cls.from_ints(_ONE)

    @classmethod
    def zero(cls):
        return cls.from_ints((0,) * 22)

    @classmethod
    def from_vector(cls, vec):
        return cls.from_ints(*common_denominator(vec))

    @classmethod
    def from_coords(cls, mapping):
        vec = [0] * 22
        for name, val in mapping.items():
            vec[COORD_INDEX[name]] = val
        return cls.from_vector(vec)

    def to_vector(self):
        return [Fraction(a, self.den) for a in self.nums]

    def int_vector(self):
        """The coordinates as a list of ints; ValueError unless integral."""
        if self.den != 1:
            raise ValueError("block element has denominator %d" % self.den)
        return list(self.nums)

    def inverse(self):
        # Column k of L is (nums of self, over 1) * e_k, so self * c == 1
        # reads (L / den) c == 1.
        numer = BlockElement.from_ints(self.nums)
        cols = [(numer * e).nums for e in slot_basis()]
        try:
            N, d = int_inverse(list(zip(*cols)), self.den)
        except SingularMatrixError:
            raise SingularMatrixError("block element is not a unit") from None
        inv = BlockElement.from_ints(apply_columns(sparse_columns(N), _ONE), d)
        assert (self * inv) == BlockElement.identity()
        assert (inv * self) == BlockElement.identity()
        return inv

    def is_integral(self):
        return self.den == 1

    def __repr__(self):
        parts = ["%s=%s" % nc for nc in zip(COORD_NAMES, self.to_vector()) if nc[1]]
        return "BlockElement(%s)" % (", ".join(parts) or "0")


@cache
def slot_basis():
    """The 22 coordinate unit blocks, in COORD_NAMES order."""
    return tuple(BlockElement.from_ints([int(i == k) for i in range(22)]) for k in range(22))


# The 22 members of the idempotent-decomposition basis, in multiplication
# table order, and the coordinate slot each one corresponds to under gamma.
PEIRCE_LABELS = (
    "e", "b_{e,g}", "b_{e,h}",
    "b_{g,e}", "g", "b_{g,h}",
    "b_{h,e}", "b_{h,g}", "h",
    "b_{e,eps4}", "b_{g,eps4}", "b_{h,eps4}",
    "eps2", "b_{eps2,eps4}", "eps3",
    "b_{eps4,e}", "b_{eps4,g}", "b_{eps4,h}", "b_{eps4,eps2}",
    "eps4", "b'_{eps4,eps4}", "b''_{eps4,eps4}",
)
_PEIRCE_INDEX = {label: i for i, label in enumerate(PEIRCE_LABELS)}
IDEMPOTENT_LABELS = ("e", "g", "h", "eps2", "eps3", "eps4")

# slot k of COORD_NAMES maps to PEIRCE_LABELS[SLOT_TO_PEIRCE[k]] under gamma
SLOT_TO_PEIRCE = (0, 3, 6, 1, 4, 7, 2, 5, 8, 15, 16, 17, 12, 18, 14, 9, 10, 11, 13, 19, 20, 21)


def _coeff_map_to_vector(mapping, where):
    """The (n, d) coefficients of one {class label: coefficient} vector of
    peirce.json; a bad label or coefficient raises ValueError naming it."""
    vec = [(0, 1)] * len(BASIS_LABELS)
    for label, val in mapping.items():
        if label not in BASIS_LABELS:
            raise ValueError("%s: unknown class label %r" % (where, label))
        try:
            vec[BASIS_LABELS.index(label)] = rings.parse_ints(val)
        except ValueError as exc:
            raise ValueError("%s[%r]: %s" % (where, label, exc)) from None
    return vec


def _checked_table(table):
    """The product table of 22x22 cells {Peirce label: int}, by cell as in
    multiply_cells(); a malformed one raises ValueError naming its JSON path."""
    n = len(PEIRCE_LABELS)

    def expect_list(seq, where, what):
        if not isinstance(seq, list) or len(seq) != n:
            at = "[%d]" % min(len(seq), n) if isinstance(seq, list) else ""
            raise ValueError("%s%s: expected %d %s" % (where, at, n, what))

    expect_list(table, "peirce.json:table", "rows")
    for i, row in enumerate(table):
        expect_list(row, "peirce.json:table[%d]" % i, "cells")
        for j, cell in enumerate(row):
            where = "peirce.json:table[%d][%d]" % (i, j)
            if not isinstance(cell, dict):
                raise ValueError("%s: expected an object {label: coefficient}" % where)
            for lab, c in cell.items():
                if lab not in PEIRCE_LABELS:
                    raise ValueError("%s: unknown label %r" % (where, lab))
                if type(c) is not int:
                    raise ValueError("%s[%r]: %r is not an integer" % (where, lab, c))
    return [[[(_PEIRCE_INDEX[k], c) for k, c in cell.items()] for cell in row] for row in table]


def _checked_vectors(vectors, where):
    """An object {Peirce label: {class label: coefficient}} of peirce.json;
    a malformed one raises ValueError naming its JSON path."""
    if not isinstance(vectors, dict):
        raise ValueError("peirce.json:%s: expected an object {label: vector}" % where)
    for label, vec in vectors.items():
        if label not in PEIRCE_LABELS:
            raise ValueError("peirce.json:%s: unknown label %r" % (where, label))
        if not isinstance(vec, dict):
            raise ValueError("peirce.json:%s[%r]: expected an object" % (where, label))
    return vectors


class PeirceBasis:
    """The fixture-backed 22-element basis adapted to the idempotents.

    int_vectors is (rows, d): rows[i] / d are the coefficients of
    PEIRCE_LABELS[i] over the transitive-biset basis, d the least common
    denominator; cells is the product table in the form of multiply_cells().
    """

    def __init__(self, rows, d, cells):
        self.int_vectors = [tuple(row) for row in rows], d
        self.cells = cells
        self._elements = {}  # (i, ring) -> element(i, ring), each built once

    @classmethod
    def load(cls, fixture_dir=None):
        return cls.from_data(fixtures.load_peirce(fixture_dir))

    @classmethod
    def from_data(cls, data):
        """The basis of a parsed peirce.json; a malformed one raises ValueError
        naming the JSON path of the problem."""
        if not isinstance(data, dict):
            raise ValueError("peirce.json: expected an object")
        basis = data.get("basis22")
        basis = basis if isinstance(basis, dict) else {}
        vectors = _checked_vectors(basis.get("vectors"), "basis22.vectors")
        idempotents = _checked_vectors(data.get("idempotents"), "idempotents")
        missing = [label for label in PEIRCE_LABELS if label not in vectors]
        if missing:
            raise ValueError("peirce.json:basis22.vectors: missing %r" % missing[0])
        missing = [label for label in IDEMPOTENT_LABELS if label not in idempotents]
        if missing:
            raise ValueError("peirce.json:idempotents: missing %r" % missing[0])
        for label, src in idempotents.items():
            if vectors[label] != src:
                raise ValueError(
                    "peirce.json:idempotents[%r]: disagrees with basis22.vectors" % label
                )
        if basis.get("order") != list(PEIRCE_LABELS):
            raise ValueError("peirce.json:basis22.order: differs from PEIRCE_LABELS")
        vecs = [
            _coeff_map_to_vector(vectors[label], "peirce.json:basis22.vectors[%r]" % label)
            for label in PEIRCE_LABELS
        ]
        d = math.lcm(*(e for vec in vecs for _, e in vec))
        rows = [[n * (d // e) for n, e in vec] for vec in vecs]
        return cls(rows, d, _checked_table(data.get("table")))

    def element(self, i, ring="Q"):
        """PEIRCE_LABELS[i] as an element over ring, built on the first call
        and kept: elements are immutable.  A vector outside the ring raises
        ValueError on every call and is never kept."""
        elem = self._elements.get((i, ring))
        if elem is None:
            rows, d = self.int_vectors
            elem = self._elements[i, ring] = BurnsideElement.from_ints(ring, rows[i], d)
        return elem

    def element_by_label(self, label, ring="Q"):
        try:
            i = _PEIRCE_INDEX[label]
        except (KeyError, TypeError):
            raise ValueError("unknown Peirce label %r" % (label,)) from None
        return self.element(i, ring)

    @cached_property
    def int_gamma(self):
        """(G, g): gamma is the 22x22 integer matrix G over g, column k the
        image of coordinate slot k."""
        rows, g = self.int_vectors
        G = [[rows[SLOT_TO_PEIRCE[k]][r] for k in range(22)] for r in range(len(BASIS_LABELS))]
        return G, g

    @cached_property
    def _gamma_columns(self):
        """(G, g): gamma is G/g, as sparse columns."""
        G, g = self.int_gamma
        return sparse_columns(G), g

    @cached_property
    def gamma_det_inverse(self):
        """(det G, inverse of G/g) from one elimination, linalg.det_inverse():
        gamma-bijective reads the determinant and gamma^-1 the inverse."""
        return det_inverse(*self.int_gamma)

    @cached_property
    def _inverse_columns(self):
        """(H, h): gamma^-1 is H/h, as sparse columns; SingularMatrixError
        when the basis vectors are linearly dependent."""
        det, inverse = self.gamma_det_inverse
        if not det:
            raise SingularMatrixError("gamma has no inverse: %s" % inverse)
        H, h = inverse
        return sparse_columns(H), h

    def gamma_ints(self, nums, den=1):
        """gamma of the block element nums / den, as integer coefficients over
        one denominator: (coefficient numerators, denominator), not reduced."""
        G, g = self._gamma_columns
        return apply_columns(G, nums), g * den

    def slot_ints(self, nums, den=1):
        """The preimage under gamma of the ring element whose coefficients are
        nums / den, as (slot numerators, denominator), not reduced."""
        H, h = self._inverse_columns
        return apply_columns(H, nums), h * den
