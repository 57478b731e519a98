"""The double Burnside ring of S3, and the bisets between the sections of S3.

Conventions, fixed once and used everywhere:

  * S3 acts on {0,1,2}; a = (1,2) and b = (1,2,3) in 1-based cycle notation.
    G, H and K are the sections 1, <a>, <b> and S3, generated as in SECTIONS.
  * A (G,H)-biset is a left (GxH)-set via (g,h)x = g.x.h^-1.  The basis of
    B(G,H) is the transitive bisets (GxH)/U on the left cosets xU, one per
    conjugacy class of subgroups U <= GxH.  The ring B(S3,S3) lists its 22
    classes in the order of BASIS_LABELS, and a function called without
    sections is about the ring.
  * The product of M in B(G,H) and N in B(H,K) is [M (x)_H N] in B(G,K): the
    orbits of h.(m,n) = (m h^-1, h n), carrying (g,k)[m,n] = [(g,1)m, (1,k)n].
    The identity of B(H,H) is (HxH)/Delta(H), in the ring IDENTITY_INDEX.

The structure constants are computed twice.  The orbit route enumerates
the points of M x N for each pair of basis bisets: each orbit of the middle
action is the set of images of one point under H, the images of one middle
orbit under GxK are its transitive piece, and the piece is classified by the
mask of the pairs of GxK that fix that orbit.  No biset is built for the
product.  The double-coset route uses the formula

  [(GxH)/U] . [(HxK)/V]
      = sum over p2(U)\\H/p1(V), h a representative, of
        [(GxK)/(U * (h,1)-conjugate of V)]

where U * W = {(a,c) : exists b with (a,b) in U and (b,c) in W}.  The two
routes share only the index tables and classify_subgroup; their tables must
agree cell for cell, and construction fails otherwise.  The ranks of B(S3,H):

    >>> [len(subgroup_reps("S3", H)) for H in SECTIONS]
    [4, 10, 9, 22]

Both routes run on integer indices.  The pair (S3.elements[a],
S3.elements[b]) has index 6a + b, its position in PAIRS, and a subgroup of
GxH <= S3xS3 is the 36-bit mask of its pair indices.  A biset is an action
table, a dict from the pairs (g, h) of positions of GxH to the images of
the points.  The index tables are those of perms, taken on first use, not
at import: S3._table() and pair_group()._table() give the products and
inverses, and their generated() closes the sections and the representatives
of B(S3,S3); _hom(G, H) adds the pair indices and the classes of a hom-set.

Every product on the 22-class basis runs on the verified table, derived
once from structure_table() in the sparse form of linalg.multiply_cells():
structure_cells() holds, for each cell (i, j), the (k, c) pairs with
c = c[i][j][k] nonzero.  The product walks the cells of the pairs of nonzero
coefficients only, so a product with a three-term operand visits three cells
per row, not all 22.  A BurnsideElement is a linalg.StructureElement on
these cells, with one ring-membership test on the product's denominator.

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
from functools import lru_cache, wraps

from . import rings
from .linalg import StructureElement
from .perms import Perm, PermGroup, _bits

S3_ID = Perm.identity(3)
S3_A = Perm((1, 0, 2))
S3_B = Perm((1, 2, 0))
S3 = PermGroup(3, [S3_A, S3_B])
_ONE = S3.elements.index(S3_ID)

SECTIONS = {"1": (), "C2": (S3_A,), "C3": (S3_B,), "S3": (S3_A, S3_B)}

# The pair-index layout: PAIRS[6a + b] == (S3.elements[a], S3.elements[b]),
# the order in which pair_group() sorts its elements.
PAIRS = tuple(itertools.product(S3.elements, S3.elements))


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


def _hom_cache(f):
    """lru_cache(f) with one entry per hom-set: sections that are all "S3" name
    the ring, cached as the call without sections."""
    cached = lru_cache(maxsize=None)(f)
    call = wraps(f)(lambda *sections: cached(*sections) if set(sections) - {"S3"} else cached())
    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


@_hom_cache
def subgroup_reps(G="S3", H="S3"):
    """The representative subgroups of B(G,H) in basis order, as frozensets of pairs."""
    return tuple(frozenset(PAIRS[x] for x in _bits(mask)) for mask in _hom(G, H).masks)


@_hom_cache
def biset_sizes(G="S3", H="S3"):
    hom = _hom(G, H)
    return tuple(len(hom.pairs) // mask.bit_count() for mask in hom.masks)


def embed_pair(a, b):
    """Degree-6 permutation acting as a on {0,1,2} and b on {3,4,5}."""
    return Perm(tuple(a.images) + tuple(3 + i for i in b.images))


@lru_cache(maxsize=1)
def pair_group():
    """S3xS3 at degree 6, the factors acting on {0,1,2} and {3,4,5}, built
    once per process; elements[6a + b] is embed_pair(*PAIRS[6a + b])."""
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
    """(classes, assignment): the classes of subgroups of group, each as its
    member masks, and for each the least index of a reference conjugate to its
    members, or None.  A class lists its whole conjugation orbit, so a
    reference is conjugate to its members exactly when its mask is one of
    theirs; a reference outside group has no mask and no class."""
    classes = group.conjugacy_classes_of_subgroups()
    class_of = {m: ci for ci, members in enumerate(classes) for m in members}
    assignment = [None] * len(classes)
    for ri, ref in enumerate(references):
        ci = class_of.get(group.subgroup_mask(ref))
        if ci is not None and assignment[ci] is None:
            assignment[ci] = ri
    return classes, assignment


_IndexTables = namedtuple("_IndexTables", "mul inv pair_mul pair_inv sections reps")
_Hom = namedtuple("_Hom", "left right pairs bits masks class_of")


@lru_cache(maxsize=1)
def _index_tables():
    """S3 on its positions (mul, inv), pair_group() on pair indices (pair_mul,
    pair_inv), the sections by positions and the representatives' masks."""
    s3, pairs = S3._table(), pair_group()._table()
    sections = {
        n: tuple(sorted(s3.generated([s3.index[g.images] for g in gs])))
        for n, gs in SECTIONS.items()
    }
    reps = tuple(
        pairs.mask_of(pairs.generated([PAIRS.index(g) for g in gens]))
        for gens in SUBGROUP_GENERATORS
    )
    return _IndexTables(s3.mul, s3.inv, pairs.mul, pairs.inv, sections, reps)


@lru_cache(maxsize=None)
def _hom(G, H):
    """The index tables of B(G,H): the sections G and H, the pair indices of
    GxH and their mask bits by element of G, the masks of its class
    representatives in basis order, and the class of each subgroup mask.
    Every subgroup of GxH is one of the 60 of S3xS3, the conjugates of the
    representatives of B(S3,S3); so a smaller GxH takes the masks of S3xS3
    inside it, in the order of the classes of S3xS3."""
    _, _, pmul, pinv, sections, reps = _index_tables()
    left, right = sections[G], sections[H]
    pairs = tuple(6 * g + h for g in left for h in right)
    bits = tuple(tuple(1 << 6 * g + h for h in right) for g in left)
    candidates = reps
    if (G, H) != ("S3", "S3"):
        inside = sum(1 << x for x in pairs)
        candidates = [m for m in _hom("S3", "S3").class_of if m & inside == m]
    masks, class_of = [], {}
    for mask in candidates:
        if mask not in class_of:
            members = _bits(mask)
            for g in pairs:
                gi = pinv[g]
                class_of.setdefault(sum(1 << pmul[pmul[g][u]][gi] for u in members), len(masks))
            masks.append(mask)
    return _Hom(left, right, pairs, bits, tuple(masks), class_of)


def transitive_biset(U, G="S3", H="S3"):
    """The coset biset (GxH)/U, U a subgroup of GxH given as a mask of pair
    indices, as its action table; cosets are numbered by their least pairs."""
    pmul, pairs = _index_tables().pair_mul, _hom(G, H).pairs
    members = _bits(U)
    index_of = [-1] * len(PAIRS)
    reps = []
    for x in pairs:
        if index_of[x] < 0:
            for u in members:
                index_of[pmul[x][u]] = len(reps)
            reps.append(x)
    return {divmod(g, 6): tuple(index_of[pmul[g][r]] for r in reps) for g in pairs}


def classify_subgroup(mask, G="S3", H="S3"):
    """The basis index in B(G,H) of the subgroup of GxH with this pair mask."""
    try:
        return _hom(G, H).class_of[mask]
    except KeyError:
        raise ValueError("stabilizer matches no representative class") from None


def _orbit_counts(M, N, G, H, K):
    """Multiplicities of the classes of B(G,K) in M (x)_H N, read off the points
    (m, n) of M x N, point (i, j) at index i * |N| + j."""
    nn = len(N[_ONE, _ONE])
    # h acts in the middle as the pair (1, h) on M and (h, 1) on N
    mid = [(M[_ONE, h], N[h, _ONE]) for h in _index_tables().sections[H]]
    orbit_of = [-1] * (len(M[_ONE, _ONE]) * nn)
    reps = []
    for start in range(len(orbit_of)):
        if orbit_of[start] < 0:
            i, j = divmod(start, nn)
            for am, an in mid:
                orbit_of[am[i] * nn + an[j]] = len(reps)
            reps.append((i, j))
    # (g, k) acts as (g, 1) on M and as (1, k) on N; the images of a middle
    # orbit under GxK are its transitive piece, the pairs that fix it its stabilizer
    GK = _hom(G, K)
    left = [M[g, _ONE] for g in GK.left]
    right = [N[_ONE, k] for k in GK.right]
    counts = [0] * len(GK.masks)
    seen = [False] * len(reps)
    for start, (i0, j0) in enumerate(reps):
        if not seen[start]:
            stab = 0
            for am, row in zip(left, GK.bits):
                base = am[i0] * nn
                for an, bit in zip(right, row):
                    o = orbit_of[base + an[j0]]
                    seen[o] = True
                    if o == start:
                        stab |= bit
            counts[classify_subgroup(stab, G, K)] += 1
    return tuple(counts)


@_hom_cache
def basis_bisets(G="S3", H="S3"):
    """The transitive bisets of B(G,H), in basis order, built once."""
    return tuple(transitive_biset(U, G, H) for U in _hom(G, H).masks)


@_hom_cache
def oracle_table(*sections):
    """c[i][j][k] for B(G,H) x B(H,K) -> B(G,K), sections = (G, H, K), by
    enumerating the orbits on the points of M x N; the ring's bisets are
    basis_bisets() without arguments, shared with its other callers."""
    G, H, K = sections or ("S3",) * 3
    return tuple(
        tuple(_orbit_counts(M, N, G, H, K) for N in basis_bisets(*sections[1:]))
        for M in basis_bisets(*sections[:2])
    )


def _star(U, W):
    """Mask of {(a,c) : exists b, (a,b) in U, (b,c) in W}, for U and W lists of
    S3 position pairs."""
    by_mid = {}
    for b, c in W:
        by_mid.setdefault(b, []).append(c)
    return sum({1 << 6 * a + c for a, b in U for c in by_mid.get(b, ())})


@_hom_cache
def mackey_table(*sections):
    """c[i][j][k] for B(G,H) x B(H,K) -> B(G,K), sections = (G, H, K), by the
    double-coset formula, no biset is ever materialized.

    The representatives h of p2(U)\\H/p1(V) depend only on the two
    projections, so they are found once per pair of projections, and the
    conjugates of V by (h,1) once per V and h, before the cells are counted."""
    G, H, K = sections or ("S3",) * 3
    t = _index_tables()
    mul, inv, hs = t.mul, t.inv, t.sections[H]
    us, vs = ([[divmod(x, 6) for x in _bits(m)] for m in _hom(*s).masks] for s in ((G, H), (H, K)))
    conjugates = [{h: [(mul[mul[h][v1]][inv[h]], v2) for v1, v2 in V] for h in hs} for V in vs]
    p2 = [frozenset(u2 for _, u2 in U) for U in us]
    p1 = [frozenset(v1 for v1, _ in V) for V in vs]
    cosets = {}
    for a, b in itertools.product(set(p2), set(p1)):
        gs, seen = [], set()
        for g in hs:  # one representative g per double coset a g b
            if g not in seen:
                seen.update(mul[mul[x][g]][y] for x in a for y in b)
                gs.append(g)
        cosets[a, b] = gs
    n = len(_hom(G, K).masks)
    table = []
    for U, a in zip(us, p2):
        row = []
        for Vhs, b in zip(conjugates, p1):
            counts = [0] * n
            for h in cosets[a, b]:
                counts[classify_subgroup(_star(U, Vhs[h]), G, K)] += 1
            row.append(tuple(counts))
        table.append(tuple(row))
    return tuple(table)


@_hom_cache
def structure_table(*sections):
    """The verified structure constants of B(G,H) x B(H,K) -> B(G,K),
    sections = (G, H, K); raises TableMismatch on disagreement."""
    fast, slow = mackey_table(*sections), oracle_table(*sections)
    for i, j in itertools.product(range(len(fast)), range(len(fast[0]))):
        if fast[i][j] != slow[i][j]:
            cell = (BASIS_LABELS[i], BASIS_LABELS[j]) if set(sections) <= {"S3"} else (i, j)
            msg = "cell (%s, %s): double-coset %r != orbit enumeration %r"
            raise TableMismatch(msg % (*cell, fast[i][j], slow[i][j]))
    return fast


@lru_cache(maxsize=1)
def structure_cells():
    """The verified table by cell, in the form of linalg.multiply_cells():
    cells[i][j] holds the (k, c) pairs with c = c[i][j][k] nonzero."""
    return tuple(
        tuple(tuple((k, x) for k, x in enumerate(cell) if x) for cell in row)
        for row in structure_table()
    )


class BurnsideElement(StructureElement):
    """An element of the double Burnside ring over one of rings.RINGS, its
    coefficients in basis order as in linalg.StructureElement (for F2/F3 den
    is 1 and nums are residues 0..p-1); `coeffs` gives them as Fractions."""

    __slots__ = ()
    _cells = staticmethod(structure_cells)

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

# The digits of an operand's numerators and common denominator, so that a
# product prints under Python's 4,300-digit limit for int text; text of at
# most DIGIT_BOUND characters cannot pass it, so only longer text is checked.
# _LONG_RUN tries a match only where a run of digits starts: a linear scan.
DIGIT_BOUND = 2000
_LIMIT, _LONG_RUN = 10**DIGIT_BOUND, re.compile(r"(?<!\d)\d{%d}" % (DIGIT_BOUND + 1))
_TOO_LONG = "coefficient of %s has more than %d digits"


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
    then builds and normalizes the vector once.  Text longer than DIGIT_BOUND
    goes to _parse_terms(), which alone checks that bound."""
    if len(text) > DIGIT_BOUND:
        return _parse_terms(text, ring)
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
    the refusals of unknown labels, malformed terms, coefficients outside
    the ring and numerators or a common denominator of more than DIGIT_BOUND
    digits, each text checked before it is converted."""
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
        if _LONG_RUN.search(val):
            raise ValueError(_TOO_LONG % (BASIS_LABELS[i], DIGIT_BOUND))
        n, d = rings.parse_ints(val)
        (n,), d = rings.normalize_ints(ring, (n,), d)
        terms.append((i, n, d))
        den = math.lcm(den, d)
    elem = _sum_terms(ring, terms, den)
    if elem.den >= _LIMIT:
        raise ValueError("common denominator of more than %d digits" % DIGIT_BOUND)
    big = next((i for i, a in enumerate(elem.nums) if abs(a) >= _LIMIT), None)
    if big is not None:
        raise ValueError(_TOO_LONG % (BASIS_LABELS[big], DIGIT_BOUND))
    return elem


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
