"""The double Burnside ring of S3: bisets, tensor products, structure constants.

Conventions, fixed once and used everywhere:

  * G = S3 acts on {0,1,2}; a = (1,2) and b = (1,2,3) in 1-based cycle notation.
  * An (S3,S3)-biset is a left (S3xS3)-set via (h,g)x = h.x.g^-1, so a left
    (S3xS3)-set Y becomes a biset through h.y.g := (h, g^-1)y.
  * The basis of the ring is the 22 transitive bisets (S3xS3)/U, one per
    conjugacy class of subgroups U <= S3xS3, in the fixed order of
    BASIS_LABELS, with point sets the left cosets xU under translation.
  * The product [M][N] = [M (x)_G N]: orbits of the middle action
    g.(m,n) = (m g^-1, g n), carrying (h,g)[m,n] = [(h,1)m, (1,g)n].
  * The identity element is the class of the regular biset S3, which is
    (S3xS3)/Delta(S3), index IDENTITY_INDEX in the basis.

The structure constants are computed twice.  The orbit route enumerates
the points of M x N for each pair of basis bisets: each orbit of the middle
action is the set of images of one point under the six elements of S3, the
outer generators (a,1), (b,1), (1,a), (1,b) then join these orbits into
transitive pieces, and each piece is classified by the mask of the 36 pairs
that fix one of its middle orbits.  No biset is built for the product.  The
double-coset route uses the formula

  [(GxG)/U] . [(GxG)/V]
      = sum over p2(U)\\G/p1(V), g a representative, of
        [(GxG)/(U * (g,1)-conjugate of V)]

where U * W = {(a,c) : exists b with (a,b) in U and (b,c) in W}.  The two
routes share only the index tables and classify_subgroup; their tables must
agree cell for cell, and construction fails otherwise.

Both routes run on integer indices.  The pair (S3.elements[a], S3.elements[b])
has index 6a + b, its position in PAIRS; a subgroup of S3xS3 is the 36-bit
mask of its pair indices, and Biset.action[x] is the permutation of the points
by the pair of index x.  _index_tables() builds, on first use and not at
import, the tables of S3 and of S3xS3 from Perm products and the class of each
of the 60 subgroup masks, so that classify_subgroup is one lookup.

Every product on the 22-class basis runs on the verified table, derived
once from structure_table() in two sparse forms: structure_tensor(), for
each i the (j, k, c) triples with c = c[i][j][k] nonzero (the row form of
linalg.multiply_rows()), and structure_cells(), for each cell (i, j) its
(k, c) pairs.  multiply_vectors() walks the cells of the pairs of nonzero
coefficients only, so a product with a three-term operand visits three
cells per row, not all of a row's triples.  A BurnsideElement is a
linalg.StructureElement whose product is one multiply_vectors() call and one
ring-membership test on its denominator.  A sweep of products with one left
factor takes that factor's left_multiplication() once per row.

An element is written as format_element() writes it: "label:n" or
"label:n/d" for each nonzero coefficient in basis order, joined by commas
with no spaces, and "0" for zero.  parse_element() reads that grammar in one
pattern scan and any other text (spaces, "Δ" for "D", decimals) term by term;
in F_p a fraction is read as its residue:

    >>> x = parse_element("H_8:3,H_{0,0}:-1/2", "Z3")
    >>> format_element(x)
    'H_{0,0}:-1/2,H_8:3'
    >>> parse_element(format_element(x), "Z3") == x
    True
    >>> format_element(parse_element(" H^Δ_5 : 0.5 ", "F3"))
    'H^D_5:2'
"""

from __future__ import annotations

import itertools
import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import rings
from .linalg import StructureElement, left_columns
from .perms import Perm, PermGroup

__all__ = [
    "S3",
    "S3_A",
    "S3_B",
    "PAIRS",
    "BASIS_LABELS",
    "IDENTITY_INDEX",
    "TableMismatch",
    "subgroup_reps",
    "biset_sizes",
    "transitive_biset",
    "basis_bisets",
    "classify_subgroup",
    "oracle_table",
    "mackey_table",
    "structure_table",
    "structure_tensor",
    "tensor_cells",
    "structure_cells",
    "multiply_vectors",
    "left_multiplication",
    "BurnsideElement",
]

S3_ID = Perm.identity(3)
S3_A = Perm((1, 0, 2))
S3_B = Perm((1, 2, 0))
S3 = PermGroup(3, [S3_A, S3_B])

PAIRS = tuple(itertools.product(S3.elements, S3.elements))
_IA, _IB = S3.elements.index(S3_A), S3.elements.index(S3_B)


# Basis order and the generators of one representative subgroup per class.
# 1 denotes the identity of S3; entries are (left, right) components.
_E, _A, _B = S3_ID, S3_A, S3_B
_SUBGROUP_SPECS = (
    ("H_{0,0}", ()),
    ("H_{1,0}", ((_A, _E),)),
    ("H_{0,1}", ((_E, _A),)),
    ("H^D_1", ((_A, _A),)),
    ("H_{4,0}", ((_B, _E),)),
    ("H_{0,4}", ((_E, _B),)),
    ("H^D_4", ((_B, _B),)),
    ("H_{1,1}", ((_A, _E), (_E, _A))),
    ("H_{5,0}", ((_A, _E), (_B, _E))),
    ("H_{0,5}", ((_E, _A), (_E, _B))),
    ("H_6", ((_A, _A), (_E, _B))),
    ("H_{4,1}", ((_B, _E), (_E, _A))),
    ("H_{1,4}", ((_A, _E), (_E, _B))),
    ("H_7", ((_A, _A), (_B, _E))),
    ("H^D_5", ((_A, _A), (_B, _B))),
    ("H_{4,4}", ((_B, _E), (_E, _B))),
    ("H_{1,5}", ((_A, _E), (_E, _A), (_E, _B))),
    ("H_{5,1}", ((_A, _E), (_B, _E), (_E, _A))),
    ("H_{4,5}", ((_B, _E), (_E, _A), (_E, _B))),
    ("H_{5,4}", ((_A, _E), (_B, _E), (_E, _B))),
    ("H_8", ((_A, _A), (_B, _E), (_E, _B))),
    ("H_{5,5}", ((_A, _E), (_E, _A), (_B, _E), (_E, _B))),
)

BASIS_LABELS = tuple(label for label, _ in _SUBGROUP_SPECS)
_LABEL_INDEX = {label: i for i, label in enumerate(BASIS_LABELS)}
SUBGROUP_GENERATORS = tuple(gens for _, gens in _SUBGROUP_SPECS)
IDENTITY_INDEX = BASIS_LABELS.index("H^D_5")


class TableMismatch(Exception):
    """The two structure-constant routes disagree; message names the cell."""


@lru_cache(maxsize=1)
def subgroup_reps():
    """The representative subgroups in basis order, as frozensets of pairs."""
    return tuple(frozenset(PAIRS[x] for x in _members(mask)) for mask in _index_tables().masks)


@lru_cache(maxsize=1)
def biset_sizes():
    return tuple(36 // len(U) for U in subgroup_reps())


def embed_pair(a, b):
    """Degree-6 permutation acting as a on {0,1,2} and b on {3,4,5}."""
    return Perm(tuple(a.images) + tuple(3 + i for i in b.images))


def pair_group():
    """S3xS3 at degree 6, the factors acting on {0,1,2} and {3,4,5}."""
    gens = [embed_pair(p, S3_ID) for p in S3.generators]
    gens += [embed_pair(S3_ID, p) for p in S3.generators]
    return PermGroup(6, gens)


@lru_cache(maxsize=1)
def _closed_references():
    return tuple(PermGroup(6, [embed_pair(a, b) for a, b in gens]) for gens in SUBGROUP_GENERATORS)


def labeled_subgroups():
    """The 22 classified subgroups embedded at degree 6, in basis order: closed
    once per process, returned as a new list so that a caller may edit its own."""
    return list(_closed_references())


def match_classes(group, references):
    """(classes, assignment): the (representative, member masks) classes of
    subgroups of group and, for each, the least index of a reference conjugate
    to its members, or None.  A class lists its whole conjugation orbit, so a
    reference is conjugate to its members exactly when its mask is one of
    theirs; a reference outside group has no mask and no class."""
    classes = group.conjugacy_classes_of_subgroups()
    class_of = {m: ci for ci, (_, members) in enumerate(classes) for m in members}
    assignment = [None] * len(classes)
    for ri, ref in enumerate(references):
        ci = class_of.get(group.subgroup_mask(ref))
        if ci is not None and assignment[ci] is None:
            assignment[ci] = ri
    return classes, assignment


class Biset:
    """A finite left (S3xS3)-set: `size` points; `action[x]`, for the pair of
    index x, is the tuple of the images of the points."""

    __slots__ = ("size", "action")

    def __init__(self, size, action):
        self.size = size
        self.action = action


def _members(mask):
    return [x for x in range(36) if mask >> x & 1]


_IndexTables = namedtuple("_IndexTables", "mul inv pair_mul masks class_of")


@lru_cache(maxsize=1)
def _index_tables():
    """Built on first use: S3 on its positions 0..5 (mul, inv), S3xS3 on pair
    indices (pair_mul), the masks of the representative subgroups closed from
    SUBGROUP_GENERATORS, and the basis class of each of the 60 subgroup masks."""
    els = S3.elements
    e = els.index(S3_ID)
    mul = tuple(tuple(els.index(g * h) for h in els) for g in els)
    inv = tuple(row.index(e) for row in mul)
    pmul = tuple(
        tuple(6 * mul[x // 6][y // 6] + mul[x % 6][y % 6] for y in range(36)) for x in range(36)
    )
    masks = []
    for gens in SUBGROUP_GENERATORS:
        gens = [6 * els.index(a) + els.index(b) for a, b in gens]
        elems = frontier = {6 * e + e}
        while frontier:
            frontier = {pmul[x][g] for x in frontier for g in gens} - elems
            elems = elems | frontier
        masks.append(sum(1 << x for x in elems))
    class_of = {}
    for k, mask in enumerate(masks):
        members = _members(mask)
        for g in range(36):
            gi = 6 * inv[g // 6] + inv[g % 6]
            class_of.setdefault(sum(1 << pmul[pmul[g][u]][gi] for u in members), k)
    return _IndexTables(mul, inv, pmul, tuple(masks), class_of)


def transitive_biset(U):
    """The coset biset (S3xS3)/U for a subgroup U given as a mask of pair indices."""
    pmul = _index_tables().pair_mul
    members = _members(U)
    index_of = [-1] * 36
    reps = []
    for x in range(36):
        if index_of[x] < 0:
            for u in members:
                index_of[pmul[x][u]] = len(reps)
            reps.append(x)
    return Biset(len(reps), tuple(tuple(index_of[pmul[g][r]] for r in reps) for g in range(36)))


def classify_subgroup(mask):
    """Index of the basis class of the subgroup of S3xS3 with this pair-index mask."""
    try:
        return _index_tables().class_of[mask]
    except KeyError:
        raise ValueError("stabilizer matches no representative class") from None


_OUTER_GENS = (6 * _IA, 6 * _IB, _IA, _IB)


def _orbit_counts(M, N):
    """Multiplicities of the 22 transitive classes inside M (x)_G N, read off
    the points (m, n) of M x N, point (i, j) at index i * N.size + j."""
    nn = N.size
    # g acts in the middle as the pair (1, g) on M and (g, 1) on N, pair
    # indices g and 6g since S3.elements[0] is the identity
    mid = [(M.action[g], N.action[6 * g]) for g in range(6)]
    orbit_of = [-1] * (M.size * nn)
    reps = []
    for start in range(M.size * nn):
        if orbit_of[start] < 0:
            i, j = divmod(start, nn)
            for am, an in mid:
                orbit_of[am[i] * nn + an[j]] = len(reps)
            reps.append((i, j))
    # pair index 6h + g acts as (h, 1) on M and as (1, g) on N
    outer = [(M.action[6 * (x // 6)], N.action[x % 6]) for x in _OUTER_GENS]
    left, right = M.action[::6], N.action[:6]
    counts = [0] * len(BASIS_LABELS)
    seen = [False] * len(reps)
    for start, (i0, j0) in enumerate(reps):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            i, j = reps[stack.pop()]
            for am, an in outer:
                o = orbit_of[am[i] * nn + an[j]]
                if not seen[o]:
                    seen[o] = True
                    stack.append(o)
        stab = 0
        for h, am in enumerate(left):
            base = am[i0] * nn
            for g, an in enumerate(right):
                if orbit_of[base + an[j0]] == start:
                    stab |= 1 << (6 * h + g)
        counts[classify_subgroup(stab)] += 1
    return tuple(counts)


@lru_cache(maxsize=1)
def basis_bisets():
    """The 22 transitive bisets, in basis order, built once."""
    return tuple(transitive_biset(U) for U in _index_tables().masks)


@lru_cache(maxsize=1)
def oracle_table():
    """c[i][j][k] by enumerating the orbits on the points of M x N."""
    bisets = basis_bisets()
    return tuple(tuple(_orbit_counts(bi, bj) for bj in bisets) for bi in bisets)


def _star(U, W):
    """Mask of {(a,c) : exists b, (a,b) in U, (b,c) in W}, for U and W lists of
    S3 position pairs."""
    by_mid = {}
    for b, c in W:
        by_mid.setdefault(b, []).append(c)
    return sum({1 << 6 * a + c for a, b in U for c in by_mid.get(b, ())})


@lru_cache(maxsize=1)
def mackey_table():
    """c[i][j][k] by the double-coset formula, no biset is ever materialized.

    The representatives g of p2(U)\\G/p1(V) depend only on the two
    projections, so they are found once per pair of projections, and the
    conjugates Vg once per V and g, before the 484 cells are counted."""
    mul, inv, _, masks, _ = _index_tables()
    reps = [[divmod(x, 6) for x in _members(mask)] for mask in masks]
    conjugates = [[[(mul[mul[g][v1]][inv[g]], v2) for v1, v2 in V] for g in range(6)] for V in reps]
    p2 = [frozenset(u2 for _, u2 in U) for U in reps]
    p1 = [frozenset(v1 for v1, _ in V) for V in reps]
    cosets = {}
    for a in set(p2):
        for b in set(p1):
            gs, seen = [], set()
            for g in range(6):  # one representative g per double coset a g b
                if g not in seen:
                    seen.update(mul[mul[h][g]][k] for h in a for k in b)
                    gs.append(g)
            cosets[a, b] = gs
    table = []
    for U, a in zip(reps, p2):
        row = []
        for Vgs, b in zip(conjugates, p1):
            counts = [0] * len(reps)
            for g in cosets[a, b]:
                counts[classify_subgroup(_star(U, Vgs[g]))] += 1
            row.append(tuple(counts))
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=1)
def structure_table():
    """The verified structure constants; raises TableMismatch on disagreement."""
    fast = mackey_table()
    slow = oracle_table()
    for i in range(len(fast)):
        for j in range(len(fast)):
            if fast[i][j] != slow[i][j]:
                raise TableMismatch(
                    "cell (%s, %s): double-coset %r != orbit enumeration %r"
                    % (BASIS_LABELS[i], BASIS_LABELS[j], fast[i][j], slow[i][j])
                )
    return fast


@lru_cache(maxsize=1)
def structure_tensor():
    """rows[i]: the (j, k, c) triples with c = c[i][j][k] != 0 in the
    verified table, the row form of linalg.multiply_rows()."""
    return tuple(
        tuple((j, k, x) for j, cell in enumerate(row) for k, x in enumerate(cell) if x)
        for row in structure_table()
    )


def tensor_cells(rows):
    """cells[i][j]: the (k, c) pairs of the triples (j, k, c) of rows[i],
    for structure constants in the row form of linalg.multiply_rows()."""
    cells = [[[] for _ in rows] for _ in rows]
    for i, row in enumerate(rows):
        for j, k, c in row:
            cells[i][j].append((k, c))
    return tuple(tuple(map(tuple, row)) for row in cells)


@lru_cache(maxsize=1)
def structure_cells():
    """The verified table by cell: tensor_cells(structure_tensor())."""
    return tensor_cells(structure_tensor())


def multiply_vectors(xs, ys):
    """Coefficient vector of the product of two coefficient vectors, as a
    list: only the cells (i, j) with xs[i] and ys[j] nonzero are visited."""
    cells = structure_cells()
    out = [0] * len(cells)
    ys = [(j, y) for j, y in enumerate(ys) if y]
    for i, x in enumerate(xs):
        if x:
            row = cells[i]
            for j, y in ys:
                for k, c in row[j]:
                    out[k] += c * x * y
    return out


def left_multiplication(xs):
    """The left multiplication by the coefficient vector xs on the verified
    table, as linalg.left_columns() on structure_tensor(): xs times ys is
    linalg.apply_columns(L, ys), for a sweep of products with one left factor."""
    return left_columns(structure_tensor(), xs)


class BurnsideElement(StructureElement):
    """An element of the double Burnside ring over one of rings.RINGS, its
    coefficients in basis order as in linalg.StructureElement (for F2/F3 den
    is 1 and nums are residues 0..p-1); `coeffs` gives them as Fractions."""

    __slots__ = ()
    _product = staticmethod(multiply_vectors)

    @classmethod
    def from_ints(cls, ring, nums, den=1):
        """The element with coefficients nums[k] / den, den > 0; ValueError
        naming the first coefficient outside the ring, TypeError unless nums
        and den are ints."""
        nums, den = cls._int_args(nums, den)
        if len(nums) != len(BASIS_LABELS):
            raise ValueError("expected %d coefficients" % len(BASIS_LABELS))
        return cls._new(ring, nums, den)

    @classmethod
    def zero(cls, ring="Q"):
        return cls.from_ints(ring, [0] * len(BASIS_LABELS))

    @classmethod
    def one(cls, ring="Q"):
        return cls.basis(IDENTITY_INDEX, ring)

    @classmethod
    def basis(cls, i, ring="Q"):
        nums = [0] * len(BASIS_LABELS)
        nums[i] = 1
        return cls.from_ints(ring, nums)

    @property
    def coeffs(self):
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __repr__(self):
        return "BurnsideElement(%s, %s)" % (self.ring, format_element(self))


# One term of the text format_element() writes: a label of one of the three
# shapes of BASIS_LABELS, H_{i,j}, H^D_i and H_i, then an integer and an
# optional positive denominator.  The label has a bounded length, so a scan
# of any text is linear in its length.
_TERM = re.compile(r"(H(?:_\{\d,\d\}|\^D_\d|_\d)):(-?\d+)(?:/([1-9]\d*))?")


def _basis_index(label):
    label = label.strip().replace("Δ", "D")
    try:
        return _LABEL_INDEX[label]
    except KeyError:
        raise ValueError("unknown basis label %r" % (label,)) from None


def _split_terms(text):
    """Split on commas outside label braces: pieces rejoin until the braces balance."""
    chunks, cur, depth = [], [], 0
    for piece in text.split(","):
        cur.append(piece)
        depth += piece.count("{") - piece.count("}")
        if depth == 0:
            chunks.append(",".join(cur))
            cur = []
    if cur:
        chunks.append(",".join(cur))
    return chunks


def parse_element(text, ring="Q"):
    """Parse "H_{0,0}:-1/2,H_{1,0}:1"; each term's coefficient must lie in the ring.

    Text in the grammar format_element() writes is read in one scan of _TERM;
    any other text goes to _parse_terms(), which alone refuses malformed text
    and unknown labels.  Both collect (index, n, d) terms, each term with a
    denominator checked on its own by rings.normalize_ints(), so that the
    first coefficient outside the ring is the one named, and _sum_terms()
    then builds and normalizes the vector once."""
    pieces = _TERM.split(text)
    # canonical text splits as ["", label, n, d, ",", label, n, d, ..., ""]
    seps = pieces[4:-1:4]
    if pieces[0] or pieces[-1] or seps.count(",") != len(seps):
        return _parse_terms(text, ring)
    terms, den = [], 1
    for label, n, d in zip(pieces[1::4], pieces[2::4], pieces[3::4]):
        i = _LABEL_INDEX.get(label)
        if i is None:
            return _parse_terms(text, ring)
        if d is None:
            terms.append((i, int(n), 1))
        else:
            (n,), d = rings.normalize_ints(ring, (int(n),), int(d))
            terms.append((i, n, d))
            den = math.lcm(den, d)
    return _sum_terms(ring, terms, den)


def _parse_terms(text, ring):
    """parse_element() for any text: spaces, the "Δ" alias, decimals, and
    the refusals of unknown labels, malformed terms and coefficients outside
    the ring."""
    text = text.strip()
    if text in ("0", ""):
        return BurnsideElement.zero(ring)
    terms, den = [], 1
    for chunk in _split_terms(text):
        if not chunk.strip():
            continue
        if ":" not in chunk:
            raise ValueError("bad term %r, expected label:coefficient" % (chunk,))
        label, val = chunk.rsplit(":", 1)
        i = _basis_index(label)
        n, d = rings.parse_ints(val)
        (n,), d = rings.normalize_ints(ring, (n,), d)
        terms.append((i, n, d))
        den = math.lcm(den, d)
    return _sum_terms(ring, terms, den)


def _sum_terms(ring, terms, den):
    """The element sum of n/d at coefficient i over the (i, n, d) terms, each
    already in the ring, and den the lcm of their d: one vector over den,
    normalized once.  Its ints need no from_ints() check."""
    vec = [0] * len(BASIS_LABELS)
    for i, n, d in terms:
        vec[i] += n * (den // d)
    return BurnsideElement._new(ring, vec, den)


def format_element(elem):
    """ "label:n" or "label:n/d" per nonzero coefficient, in basis order and
    joined by commas; "0" for zero."""
    den = elem.den
    parts = [
        "%s:%s" % (BASIS_LABELS[i], a if den == 1 else rings.format_fraction(a, den))
        for i, a in enumerate(elem.nums)
        if a
    ]
    return ",".join(parts) if parts else "0"
