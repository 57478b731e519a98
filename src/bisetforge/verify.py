"""Verification stages covering the whole chain, from subgroup enumeration
to the quiver presentations.

Every check is a function check(fx, *args) -> (ok, detail) on a FixtureSet,
listed once in the ordered table _CHECKS with its name and its stages.  A
stage walks that table and returns {"stage", "status", "checks"} with one
entry per check; run() strings the requested stages together in dependency
order.  Checks recompute from independent routes wherever a second route
exists, and a fixture mismatch only passes when errata.json documents it.
When the two routes that build the structure table disagree, table-dual-route
fails and every check that reads the table is skipped, in every stage, with
that said in its detail; a check stopped by a singular matrix or by the
rewriting bound quivers.MAX_STEPS fails with "cannot be checked: ...".
"""

import itertools
import math
import os
import random
from functools import cached_property, partial, reduce

from . import bisets, blocks, fixtures, rings
from .fixtures import STAGE_ORDER
from .bisets import (
    BASIS_LABELS,
    IDENTITY_INDEX,
    S3,
    S3_ID,
    BurnsideElement,
    TableMismatch,
    basis_bisets,
    biset_sizes,
    labeled_subgroups,
    match_classes,
    pair_group,
    structure_cells,
    structure_table,
)
from .blocks import (
    COORD_INDEX,
    COORD_NAMES,
    IDEMPOTENT_LABELS,
    PEIRCE_LABELS,
    SLOT_TO_PEIRCE,
    BlockElement,
    PeirceBasis,
)
from .orders import (
    CORNER_BASIS_2,
    CORNER_BASIS_3,
    CORNER_BASIS_Q,
    CORNER_IDEMPOTENTS_Q,
    GAMMA_CORNER_BASIS_2,
    HT_LABELS,
    LAMBDA_CONDITIONS,
    congruence_solution_lattice,
    delta_images,
    lambda_membership,
    load_fixture_matrix,
    local_idempotents,
    localized_membership,
    matrix_diff,
    mod24_conditions,
    representation_matrix,
)
from .linalg import LocalLattice, SingularMatrixError, det_inverse, elementary_divisors, hnf_rows
from .linalg import inverse_of, map_failures, multiply_cells, rows_over_lcm, sweep_products, transpose
from .quivers import (
    CornerAlgebra,
    Presentation,
    PresentationError,
    element_from_terms,
    element_to_terms,
    same_element_sets,
    verify_presentation,
)

_SEED = 20260816


def _pairs(labels, bad, cols=None):
    """"(a, b)" for each cell (i, j) of the 22x22 scan with bad(i, j), row by
    row; b is cols[j], labels[j] by default."""
    cols = cols or labels
    return ["(%s, %s)" % (labels[i], cols[j]) for i in range(22) for j in range(22) if bad(i, j)]


def _cells(cells, ok, fail, sep=", ", limit=6):
    """(passed, detail): ok when no cell failed, else fail naming the first
    limit failing cells."""
    if not cells:
        return True, ok
    return False, fail % sep.join(cells[:limit])


def _problems(problems, ok):
    """(passed, detail): ok when there are no problems, else the first four."""
    return _cells(problems, ok, "%s", "; ", 4)


def _relations(relations, ok):
    """(passed, detail): ok when each (name, holds) holds, else the failing names."""
    return _cells([name for name, holds in relations if not holds], ok, "fails: %s", "; ")


def _idempotent_relations(labels, es, zero, one):
    """(name, holds) for e_a e_b = e_a if a = b else 0, over all pairs, and for
    the es summing to one."""
    return [
        ("%s %s = %s" % (a, b, a if a == b else 0), x * y == (x if a == b else zero))
        for a, x in zip(labels, es)
        for b, y in zip(labels, es)
    ] + [("sum = 1", sum(es, zero) == one)]


class FixtureSet:
    """The fixtures of one directory for one run, and the values the checks
    share: each file is read, and each value computed, at most once and only
    when a check needs it."""

    def __init__(self, fixture_dir=None):
        self.fixture_dir = fixture_dir
        self._reductions = {}
        self._corners = {}

    @cached_property
    def references(self):
        """The 22 labeled subgroups of S3xS3, fetched once per run (bisets
        closes them once per process)."""
        return labeled_subgroups()

    @cached_property
    def peirce_data(self):
        return fixtures.load_peirce(self.fixture_dir)

    @cached_property
    def peirce(self):
        return PeirceBasis.from_data(self.peirce_data)

    @cached_property
    def peirce_products(self):
        """[i][j]: Peirce vectors i times j over d^2, pb.int_vectors being (rows, d);
        on bisets' table, so that a table swapped into verify reaches associativity alone."""
        return sweep_products(bisets.structure_cells(), self.peirce.int_vectors[0])

    @cached_property
    def route_diffs(self):
        """The cells where the orbit and double-coset routes disagree."""
        ot, mt = bisets.oracle_table(), bisets.mackey_table()
        return _pairs(BASIS_LABELS, lambda i, j: ot[i][j] != mt[i][j])

    @cached_property
    def table(self):
        """The certified structure table; TableMismatch when the routes
        disagree, raised again on each read since nothing is cached then."""
        return structure_table()

    @cached_property
    def delta_images(self):
        return delta_images(self.peirce)

    @cached_property
    def named_delta_images(self):
        """(name, image) pairs, the name 'j (label)' of the j-th basis element."""
        named = zip(enumerate(BASIS_LABELS), self.delta_images)
        return [("%d (%s)" % jl, img) for jl, img in named]

    @cached_property
    def int_delta_images(self):
        """(rows, D): the delta images are rows[i] / D, over their lcm D."""
        return rows_over_lcm(self.delta_images)

    @cached_property
    def delta_products(self):
        """[i][j]: delta(i) delta(j) over D^2, int_delta_images being (rows, D),
        by linalg.sweep_products()."""
        return sweep_products(blocks.slot_cells(), self.int_delta_images[0])

    @cached_property
    def matrix(self):
        """The transcribed representation matrix of delta_matrix.json."""
        return load_fixture_matrix(self.fixture_dir)

    @cached_property
    def matrix_det_inverse(self):
        """(det, inverse) of the matrix from one elimination, linalg.det_inverse()."""
        return det_inverse(self.matrix)

    @cached_property
    def mod24_conditions(self):
        """orders.mod24_conditions() of the matrix: SingularMatrixError when
        it has no inverse, ValueError when 24 times that is not integral."""
        return mod24_conditions(inverse_of(self.matrix_det_inverse))

    @cached_property
    def matrix_hermite(self):
        """HNF row basis of the column lattice of the matrix."""
        return hnf_rows(transpose(self.matrix))

    @cached_property
    def presentation_data(self):
        """The JSON of each presentations/<name>.json, as read."""
        names = fixtures.PRESENTATION_NAMES
        return {name: fixtures.load_presentation(name, self.fixture_dir) for name in names}

    @cached_property
    def presentations(self):
        """Each presentations/<name>.json, parsed against its corner's labels."""
        return {
            name: Presentation.from_dict(
                self.presentation_data[name], "presentations/%s.json" % name, corner.labels
            )
            for name, corner in self.corners.items()
        }

    @cached_property
    def corners(self):
        """corner() of each presentation's basis by name, as the module holds
        it when first read; basic-corner-span reads z2_corner and z3_corner."""
        bases = (CORNER_BASIS_Q, CORNER_BASIS_2, CORNER_BASIS_3)
        return {name: self.corner(b) for name, b in zip(fixtures.PRESENTATION_NAMES, bases)}

    @cached_property
    def errata(self):
        return fixtures.load_errata(self.fixture_dir)

    def corner(self, named_basis):
        """The CornerAlgebra of the (name, element) pairs, built once per run:
        its Hermite form and its lattice at each prime are shared."""
        key = tuple(named_basis)
        if key not in self._corners:
            self._corners[key] = CornerAlgebra(key)
        return self._corners[key]

    def reduction(self, name, p):
        """presentations[name] over F_p, reduced once per run."""
        if (name, p) not in self._reductions:
            self._reductions[name, p] = self.presentations[name].reduce_mod(p)
        return self._reductions[name, p]


def _fixture_set(fixture_dir):
    """fixture_dir as a FixtureSet: a stage takes a directory or a shared set."""
    return fixture_dir if isinstance(fixture_dir, FixtureSet) else FixtureSet(fixture_dir)


def swap_label(label):
    """Exchange the two factor components of a class label."""
    if label.startswith("H_{") and "," in label:
        a, b = label[3:-1].split(",")
        return "H_{%s,%s}" % (b, a)
    if label == "H_6":
        return "H_7"
    if label == "H_7":
        return "H_6"
    return label


def _errata_for(fixture_name, fx):
    return [e for e in fx.errata if e.get("fixture") == fixture_name]


def _subgroup_classes(fx):
    G = pair_group()
    classes, assignment = match_classes(G, fx.references)
    bij = sorted(a for a in assignment if a is not None) == list(range(22))
    return (
        G.order == 36 and len(classes) == 22 and bij,
        "order %d group, %d conjugacy classes of subgroups, labels matched %s"
        % (G.order, len(classes), "bijectively" if bij else "INCOMPLETELY"),
    )


def _biset_sizes(fx):
    sizes = biset_sizes()
    total = sum(sizes)
    want = [36 // ref.order for ref in fx.references]
    bad = [] if total == 194 else ["total %d, not 194" % total]
    bad += [
        "%s: %s points, not %s" % (label, n, w)
        for label, n, w in itertools.zip_longest(BASIS_LABELS, sizes, want)
        if n != w
    ]
    return _problems(bad, "point counts match 36/|H| for every class, total %d" % total)


def _table_dual_route(fx):
    return _cells(
        fx.route_diffs,
        "orbit enumeration and double-coset route agree on all 484 products",
        "routes disagree at %s",
    )


def _table_mass(fx):
    c, sizes, bs = fx.table, biset_sizes(), basis_bisets()
    # fixed points of the pairs (1, g) and (g, 1), g by its position in S3.elements
    one, gs = S3.elements.index(S3_ID), range(S3.order)
    left = [[sum(q == x for x, q in enumerate(b[one, g])) for g in gs] for b in bs]
    right = [[sum(q == x for x, q in enumerate(b[g, one])) for g in gs] for b in bs]

    def off(i, j):
        total = sum(fm * fn for fm, fn in zip(left[i], right[j]))
        return S3.order * sum(x * n for x, n in zip(c[i][j], sizes)) != total

    return _cells(
        _pairs(BASIS_LABELS, off),
        "every contracted point count matches the fixed-point average",
        "point count off at %s",
    )


def _identity(fx):
    c, e = fx.table, IDENTITY_INDEX
    unit = [[int(k == j) for k in range(22)] for j in range(22)]
    # in cell (i, j) with e in (i, j), unit[i + j - e] is the other factor
    return _cells(
        _pairs(BASIS_LABELS, lambda i, j: e in (i, j) and list(c[i][j]) != unit[i + j - e]),
        "%s is a two-sided identity" % BASIS_LABELS[e],
        "product with the identity is not the other factor at %s",
    )


def _associativity(fx):
    # L_i L_j = sum_k c_ij^k L_k holds iff e_i(e_j e_s) = (e_i e_j)e_s for every s.
    # Each side is one 22x22 array, entry 22 s + r its coefficient at e_r:
    # e_i(e_j e_s) from the (m, a) pairs of the cells (j, s) and the (r, c)
    # pairs of cell (i, m), (e_i e_j)e_s from the (m, a) pairs of cell (i, j)
    # and the (r, c) pairs of the cells (m, s).
    T = structure_cells()
    by_s = [[(22 * s, m, a) for s, cell in enumerate(row) for m, a in cell] for row in T]
    at_sr = [[(22 * s + r, c) for s, cell in enumerate(row) for r, c in cell] for row in T]

    def fails(i, j):
        left, right, Ti = [0] * 484, [0] * 484, T[i]
        for base, m, a in by_s[j]:
            for r, c in Ti[m]:
                left[base + r] += a * c
        for m, a in Ti[j]:
            for sr, c in at_sr[m]:
                right[sr] += a * c
        return left != right

    return _cells(
        _pairs(range(22), fails),
        "left regular representation is multiplicative, covering all 22^3 triples",
        "fails at %s",
    )


def _idempotents(fx):
    idem = [fx.peirce.element_by_label(lab, "Q") for lab in IDEMPOTENT_LABELS]
    zero, one = BurnsideElement.zero("Q"), BurnsideElement.one("Q")
    return _relations(
        _idempotent_relations(IDEMPOTENT_LABELS, idem, zero, one),
        "six orthogonal idempotents summing to the identity",
    )


def _peirce_products(fx):
    pb = fx.peirce
    # basis vector i is rows[i] / d, so products are over d^2 and table entries over d
    rows, d = pb.int_vectors
    bad = set(map_failures(pb.cells, rows, fx.peirce_products, d))
    ok, detail = _cells(
        _pairs(PEIRCE_LABELS, lambda i, j: (i, j) in bad),
        "all 484 products match the adapted-basis table",
        "recomputed product differs from the table at %s; ",
    )
    if not ok:
        documented = _errata_for("peirce.json", fx)
        detail += (
            "documented erratum entries: %d" % len(documented)
            if documented
            else "no documented erratum covers this fixture"
        )
    return ok, detail


def _eps3_central(fx):
    pb = fx.peirce
    eps3 = pb.element_by_label("eps3", "Q")
    basis = [pb.element(i, "Q") for i in range(22)]
    return _cells(
        [lab for lab, x in zip(PEIRCE_LABELS, basis) if eps3 * x != x * eps3],
        "eps3 commutes with the whole basis",
        "eps3 does not commute with %s",
    )


def _randint(rng, lo, hi):
    """A draw() returning what rng.randint(lo, hi) would, from the same stream:
    CPython's rejection sampling on getrandbits, without randint's frames."""
    n, bits = hi - lo + 1, rng.getrandbits
    k = n.bit_length()

    def draw():
        r = bits(k)
        while r >= n:
            r = bits(k)
        return lo + r

    return draw


def _random_ints(rng, denominators=True):
    """(nums, d): 22 block coordinates num/den over their least common d, num
    in [-24, 24] and den in [1, 6] (or 1)."""
    num = _randint(rng, -24, 24)
    if not denominators:
        return [num() for _ in range(22)], 1
    den = _randint(rng, 1, 6)
    return _over_lcm([(num(), den()) for _ in range(22)])


def _over_lcm(fracs):
    """(numerators, d) for the (num, den) pairs over their least common d."""
    d = math.lcm(*(den for _, den in fracs))
    return [num * (d // den) for num, den in fracs], d


def _gamma_bijective(fx):
    G, g = fx.peirce.int_gamma
    det = fx.peirce.gamma_det_inverse[0]
    return det != 0, "change of basis determinant %s" % rings.format_fraction(det, g ** len(G))


def _gamma_unit(fx):
    image, g = fx.peirce.gamma_ints(BlockElement.identity().nums)  # gamma(1) = image / g
    one = [g * (k == IDENTITY_INDEX) for k in range(len(BASIS_LABELS))]
    off = [lab for lab, a, b in zip(BASIS_LABELS, image, one) if a != b]
    return _cells(off, "identity block maps to the identity", "gamma(1) differs from 1 at %s")


def _gamma_multiplicative(fx):
    # gamma(b) is G b.nums / (g b.den), and s_i s_j is the integer block of
    # cell (i, j) of the slot table, so gamma(s_i s_j) == gamma(s_i) gamma(s_j)
    # reads g G (s_i s_j) == (G e_i)(G e_j), column k of G the image of slot k
    G, g = fx.peirce.int_gamma
    images = transpose(G)
    products = sweep_products(bisets.structure_cells(), images)
    bad = set(map_failures(blocks.slot_cells(), images, products, g))
    fails = _pairs(COORD_NAMES, lambda i, j: (i, j) in bad)
    return _cells(fails, "multiplicative on all 484 slot pairs", "fails at %s")


def _gamma_roundtrip(fx):
    pb = fx.peirce
    rng = random.Random(_SEED)
    num, den = _randint(rng, -12, 12), _randint(rng, 1, 4)
    # x / d == y / e reads x e == y d
    for n in range(100):
        nums, d = _random_ints(rng)
        back, e = pb.slot_ints(*pb.gamma_ints(nums, d))
        if [x * d for x in back] != [x * e for x in nums]:
            return False, "gamma^-1(gamma(b)) != b for block sample %d" % n
        nums, d = _over_lcm([(num(), den()) for _ in range(22)])
        image, e = pb.gamma_ints(*pb.slot_ints(nums, d))
        if [x * d for x in image] != [x * e for x in nums]:
            return False, "gamma(gamma^-1(x)) != x for ring sample %d" % n
    return True, "200 seeded round trips through both directions"


def _support_components(conditions):
    """The coordinates linked by a shared condition, as sorted lists of names
    ordered by their largest name."""
    comps = []
    for terms, _ in conditions:
        sup = {i for i, _ in terms}
        joined = [comp for comp in comps if comp & sup]
        comps = [comp for comp in comps if not comp & sup] + [sup.union(*joined)]
    return sorted((sorted(COORD_NAMES[i] for i in comp) for comp in comps), key=lambda c: c[-1])


def _component_conditions(names, conditions):
    """The conditions on the given coordinates alone, each index replaced by
    its position in names."""
    pos = {COORD_INDEX[n]: k for k, n in enumerate(names)}
    return [
        (tuple((pos[i], c) for i, c in terms), m)
        for terms, m in conditions
        if all(i in pos for i, _ in terms)
    ]


def _holds_on_grid(conditions, n, q):
    """For each residue vector of product(range(q), repeat=n), in that order,
    whether every condition holds mod gcd(modulus, q)."""
    ok = [True] * q**n
    for terms, m in conditions:
        coeff, g, values = dict(terms), math.gcd(m, q), [0]
        for i in range(n):  # the last coordinate varies fastest, as in product
            step = [coeff.get(i, 0) * r for r in range(q)]
            values = [v + s for v in values for s in step]
        ok = [o and v % g == 0 for o, v in zip(ok, values)]
    return ok


# The residue scan lists 8**n residue vectors for a component of n
# coordinates, so a wider component fails unscanned; the paper's order has
# none wider than 4.
_MAX_SCAN_COORDS = 6


def _residue_disagreement(comp, rows):
    """Residues mod 24 of the coordinates in comp on which LAMBDA_CONDITIONS
    and the mod-24 conditions rows disagree, or None; the first disagreement
    of an exhaustive scan in itertools.product order.

    Every modulus divides 24 = 8 * 3, so each predicate is the conjunction of
    its reductions mod 8 and mod 3, and 0 satisfies every condition.  The
    predicates therefore agree on all residues mod 24 iff they agree on all
    residues mod 8 and on all residues mod 3; a witness r mod q lifts to the
    residue that is r mod q and 0 mod 24/q.
    """
    congs, rows = _component_conditions(comp, LAMBDA_CONDITIONS), _component_conditions(comp, rows)
    n = len(comp)
    for q in (8, 3):
        a, b = _holds_on_grid(congs, n, q), _holds_on_grid(rows, n, q)
        if a != b:
            at = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
            lift = (24 // q) * pow(24 // q, -1, q)
            return tuple(at // q ** (n - 1 - i) % q * lift % 24 for i in range(n))
    return None


def _delta_integral(fx):
    return _cells(
        [lab for lab, b in zip(BASIS_LABELS, fx.delta_images) if not b.is_integral()],
        "all 22 images have integer coordinates",
        "images with a non-integer coordinate: %s",
    )


def _delta_ring_map(fx):
    # delta(e_i) is rows[i] / D, so delta(e_i) delta(e_j) == delta(e_i e_j)
    # reads products[i][j] == D * sum c rows[k] over the cell (i, j) of the table
    rows, D = fx.int_delta_images
    failed = set(map_failures(bisets.structure_cells(), rows, fx.delta_products, D))
    unit_ok = fx.delta_images[IDENTITY_INDEX] == BlockElement.identity()
    bad = _pairs(BASIS_LABELS, lambda i, j: (i, j) in failed)
    return _cells(
        bad or ([] if unit_ok else ["the identity"]),
        "delta carries the identity to the identity and respects all 484 products",
        "fails at %s",
    )


def _matrix_fixture(fx):
    try:
        M = representation_matrix(fx.delta_images)
    except ValueError as exc:  # a non-integral delta image
        return False, "no integer matrix to compare: %s" % exc
    diffs = matrix_diff(M, fx.matrix, COORD_NAMES, BASIS_LABELS)
    return _cells(
        diffs,
        "recomputed matrix matches the transcribed fixture in all 484 cells",
        "differs at %s",
        "; ",
    )


def _stated_column_listing(fx):
    erratum = [
        e
        for e in _errata_for("delta_matrix.json", fx)
        if e.get("id") == "delta-matrix-stated-column-listing"
    ]
    stated_swapped = tuple(swap_label(l) for l in HT_LABELS) == BASIS_LABELS
    listing_diverges = HT_LABELS != BASIS_LABELS
    return (
        bool(erratum) and stated_swapped and listing_diverges,
        "stated listing is the factor swap of the actual column order and "
        "errata.json documents it"
        if erratum
        else "stated column listing diverges without a documented erratum",
    )


def _columns_satisfy_congruences(fx):
    cols = transpose(fx.matrix)
    return _cells(
        [lab for lab, col in zip(BASIS_LABELS, cols) if not lambda_membership(col)],
        "every column passes all listed congruence conditions",
        "columns failing a listed congruence condition: %s",
    )


def _congruences_match_mod24_rows(fx):
    try:
        rows = fx.mod24_conditions
    except ValueError as exc:
        return False, "no mod-24 conditions to compare: %s" % exc
    comps = _support_components(LAMBDA_CONDITIONS + rows)
    free = [n for n in COORD_NAMES if all(n not in comp for comp in comps)]
    for comp in comps:
        if len(comp) > _MAX_SCAN_COORDS:
            detail = "cannot be checked: a component of %d coordinates, %s"
            return False, detail % (len(comp), ",".join(comp))
        worst = _residue_disagreement(comp, rows)
        if worst is not None:
            return False, "predicates disagree on %s at residues %s" % (",".join(comp), worst)
    return True, "exhaustive residue check over components %s; unconstrained slots %s" % (
        ["+".join(comp) for comp in comps],
        ",".join(free),
    )


def _full_rank(fx):
    det = fx.matrix_det_inverse[0]
    return det != 0, "det = %d = -(2^17)(3^4)" % det if det == -10616832 else "det = %s" % det


def _inverse_24_integral(fx):
    det, inverse = fx.matrix_det_inverse
    if not det:
        return False, "the matrix has no inverse"
    inv, d = inverse
    # the inverse maps slots to classes: its rows are classes, its columns slots
    return _cells(
        _pairs(BASIS_LABELS, lambda r, c: 24 * inv[r][c] % d, COORD_NAMES),
        "24 times the inverse matrix is integral",
        "24 times the inverse matrix is not integral at %s",
    )


def _lattice_equality(fx):
    rows = itertools.zip_longest(fx.matrix_hermite, congruence_solution_lattice())
    return _cells(
        ["row %d" % r for r, (h, c) in enumerate(rows) if h != c][:1],
        "column lattice and congruence solution lattice share one Hermite form",
        "the two Hermite forms first differ at %s",
    )


def _index_matches_determinant(fx):
    H = fx.matrix_hermite
    # a rank-deficient column lattice has infinite index, written 0
    index_h = math.prod(H[i][i] for i in range(22)) if len(H) == 22 else 0
    index_s = math.prod(d for d in elementary_divisors([list(r) for r in fx.matrix]) if d)
    det = abs(fx.matrix_det_inverse[0])
    found = (("lattice index", index_h), ("|det|", det), ("Smith index", index_s))
    return _cells(
        ["%s %d" % (name, x) for name, x in found if x != 10616832],
        "lattice index %d agrees with |det| and the Smith form" % index_h,
        "expected 10616832, got %s",
    )


def _lambda_closed(fx):
    if not lambda_membership(BlockElement.identity().nums):
        return False, "the congruence lattice does not contain 1"
    DD, prods = fx.int_delta_images[1] ** 2, fx.delta_products
    return _cells(
        _pairs(BASIS_LABELS, lambda i, j: not lambda_membership(prods[i][j], DD)),
        "the congruence lattice contains 1 and is closed under all 484 products",
        "product escapes at %s",
    )


def _membership_splits(fx):
    rng = random.Random(_SEED + 2)
    samples = [(b.nums, b.den) for b in fx.delta_images]
    samples += [_random_ints(rng, denominators=False) for _ in range(1000)]
    local = localized_membership
    for nums, den in samples:
        if lambda_membership(nums, den) != (local(nums, den, 2) and local(nums, den, 3)):
            return False, "split fails on %s" % [rings.format_fraction(a, den) for a in nums]
    # each witness lies in the order at its prime p and not at the other one, 5 - p
    for coords, p in (
        ({"z2": 4, "z3": 4, "w": 2}, 2),
        ({"z2": 3}, 3),
        ({"s11": "1/3"}, 2),
    ):
        b = BlockElement.from_coords(coords)
        if not local(b.nums, b.den, p) or local(b.nums, b.den, 5 - p):
            witness = "{%s}" % ", ".join("%s: %s" % kv for kv in coords.items())
            detail = "one-sided witness %s should lie in the order at %d but not at %d"
            return False, detail % (witness, p, 5 - p)
    return (
        True,
        "global membership equals the conjunction at 2 and 3 on %d samples, "
        "with one-sided witnesses in both directions" % len(samples),
    )


def _idempotents_local(fx, p):
    es = local_idempotents(p)
    labels = ["e%d" % (k + 1) for k in range(len(es))]
    return _relations(
        _idempotent_relations(labels, es, BlockElement.zero(), BlockElement.identity())
        + [
            ("%s in the order" % a, localized_membership(e.nums, e.den, p))
            for a, e in zip(labels, es)
        ],
        "%s orthogonal idempotents in the order summing to 1" % ("five" if p == 2 else "six"),
    )


def _matrix_part_corners(fx, p):
    """All idempotents of the order at p but the last cut rank-one corners."""
    es = local_idempotents(p)
    problems = []
    for k, f in enumerate(es[:-1]):
        corner = fx.corner((("e%d" % (k + 1), f),))
        problems += corner.span_problems(p, fx.named_delta_images, (f,))
    return _problems(
        problems,
        "e1..e4 cut rank-one corners" if p == 2 else "e1..e5 cut rank-one corners at 3",
    )


def _morita_witnesses(fx, p):
    """Matrix units inside the order at p link e1 and e2 to e3: the Morita
    reduction to the basic corner."""
    es = local_idempotents(p)
    E = {name: BlockElement.from_coords({name: 1}) for name in ("s13", "s31", "s23", "s32")}
    units = [("s13", "s31", 1), ("s31", "s13", 3), ("s23", "s32", 2), ("s32", "s23", 3)]
    return _relations(
        [("%s %s = e%d" % (a, b, k), E[a] * E[b] == es[k - 1]) for a, b, k in units]
        + [
            ("%s in the order" % name, localized_membership(x.nums, x.den, p))
            for name, x in E.items()
        ],
        "matrix units inside the order link e1 and e2 to e3",
    )


def _gamma_corner_span(fx):
    problems = fx.corner(GAMMA_CORNER_BASIS_2).span_problems(
        2, fx.named_delta_images, (local_idempotents(2)[4],)
    )
    return _problems(problems, "b1..b4 span the e5 corner at 2")


def _gamma_corner_table(fx):
    b = dict(GAMMA_CORNER_BASIS_2)
    relations = [
        ("b1 %s = %s b1 = %s" % (k, k, k), b["b1"] * x == x == x * b["b1"]) for k, x in b.items()
    ]
    relations.append(("b2^2 = 2b2 + b3", b["b2"] * b["b2"] == b["b2"].scale(2) + b["b3"]))
    relations += [
        ("%s%s = 2%s" % (p, q, k), b[p] * b[q] == b[k].scale(2))
        for k in ("b3", "b4")
        for p, q in (("b2", k), (k, "b2"))
    ]
    relations += [
        ("%s%s = 0" % pq, (b[pq[0]] * b[pq[1]]).is_zero())
        for pq in itertools.product(("b3", "b4"), repeat=2)
    ]
    return _relations(
        relations,
        "b1 is the corner unit; b2^2 = 2b2 + b3, b2b3 = 2b3, b2b4 = 2b4, "
        "and b3, b4 multiply to zero",
    )


def _radical_2():
    """The corner basis b1..b4 at 2 and the generators 2b1, b2, b3, b4 of its
    radical J, each by name."""
    b = dict(GAMMA_CORNER_BASIS_2)
    return b, {"2b1": b["b1"].scale(2), "b2": b["b2"], "b3": b["b3"], "b4": b["b4"]}


def _radical_lattice():
    """_radical_2() and J as a LocalLattice at 2."""
    b, jgens = _radical_2()
    return b, jgens, LocalLattice([g.int_vector() for g in jgens.values()], 2)


def _radical_ideal(fx):
    b, jgens, J = _radical_lattice()
    # a dict, since a generator and a basis element may share a name
    closed = {
        "%s %s in J" % names: J.contains(xy.nums, xy.den)
        for g, x in jgens.items()
        for k, y in b.items()
        for names, xy in (((g, k), x * y), ((k, g), y * x))
    }
    return _relations(
        [*closed.items(), ("b1 outside J", not J.contains(b["b1"].nums, b["b1"].den))],
        "J = (2b1, b2, b3, b4) is a proper two-sided ideal",
    )


def _radical_cube(fx):
    b, jgens = _radical_2()
    jgens = list(jgens.values())
    cube = [(x1 * x2 * x3).int_vector() for x1 in jgens for x2 in jgens for x3 in jgens]
    claimed = [
        g.int_vector()
        for g in (b["b1"].scale(8), b["b2"].scale(4), b["b3"].scale(2), b["b4"].scale(4))
    ]
    twice = [g.scale(2).int_vector() for g in b.values()]
    cube_lat, claimed_lat, twice_lat = (LocalLattice(g, 2) for g in (cube, claimed, twice))
    return _relations(
        [
            ("J^3 inside (8b1, 4b2, 2b3, 4b4)", all(claimed_lat.contains(v) for v in cube)),
            ("(8b1, 4b2, 2b3, 4b4) inside J^3", all(cube_lat.contains(v) for v in claimed)),
            ("J^3 inside twice the corner", all(twice_lat.contains(v) for v in cube)),
        ],
        "J^3 = (8b1, 4b2, 2b3, 4b4) and lands inside twice the corner",
    )


def _residue_field(fx):
    # Coordinates of the J generators over b1..b4 are diag(2,1,1,1) by
    # construction, so the quotient has order 2; with 1 outside J it is a field.
    b, _, J = _radical_lattice()
    return _relations(
        [("b1 outside J", not J.contains(b["b1"].nums, b["b1"].den))],
        "corner modulo J is the field with two elements",
    )


def _basic_corner_span(fx, p):
    corner = fx.corners["z%d_corner" % p]
    problems = corner.span_problems(p, fx.named_delta_images, local_idempotents(p)[2:])
    return _problems(
        problems, "the ten claimed elements are a local basis of the basic corner at %d" % p
    )


def _corner_identities(fx, p):
    """tau1..tau4 run between e3, e4 and the loop vertex v (e5 at 2, e6 at
    3), the loops tau5.. sit at v, and the products of the corner hold."""
    t = dict(CORNER_BASIS_2 if p == 2 else CORNER_BASIS_3)
    t["v"] = t["e5" if p == 2 else "e6"]
    loops, k = (("tau5", "tau6", "tau7"), 6) if p == 2 else (("tau5", "tau6"), 4)

    def mul(word):
        return reduce(lambda a, b: a * b, (t[name] for name in word.split()))

    t12 = mul("tau1 tau2")
    words = ["v tau1 e3", "e3 tau2 v", "v tau3 e4", "e4 tau4 v"] + ["v %s v" % x for x in loops]
    relations = [("%s = %s" % (w, w.split()[1]), mul(w) == t[w.split()[1]]) for w in words]
    relations += [
        ("tau5 = tau1 tau2", t12 == t["tau5"]),
        ("tau6 = tau3 tau4 + %d tau1 tau2" % k, mul("tau3 tau4") + t12.scale(k) == t["tau6"]),
    ]
    zero = ["tau2 tau1", "tau2 tau3", "tau4 tau1", "tau4 tau3"]
    if p == 3:
        zero += ["%s %s" % xy for xy in itertools.product(loops, loops)]
        ok = "tau6 = tau3 tau4 + 4 tau1 tau2 hold, with square-zero loops"
    else:
        seven = mul("tau7 tau7") == t["tau7"].scale(2) + t12
        sides = [(x, x + " tau7") for x in ("tau2", "tau4")]
        sides += [(x, "tau7 " + x) for x in ("tau1", "tau3")]
        relations += [("tau7 tau7 = 2 tau7 + tau1 tau2", seven)]
        relations += [("%s = 2 %s" % (w, x), mul(w) == t[x].scale(2)) for x, w in sides]
        ok = "tau6 = tau3 tau4 + 6 tau1 tau2, tau7^2 = 2 tau7 + tau1 tau2 all hold"
    relations += [("%s = 0" % w, mul(w).is_zero()) for w in zero]
    return _relations(relations, "arrow supports and the products tau5 = tau1 tau2, " + ok)


def _loop_corner_span(fx):
    t = dict(CORNER_BASIS_3)
    loop = (("e6", t["e6"]), ("eta", t["tau5"]), ("xi", t["tau6"]))
    problems = fx.corner(loop).span_problems(3, fx.named_delta_images, (t["e6"],))
    return _problems(problems, "the e6 corner at 3 is spanned by 1, eta, xi")


def _loop_combo():
    """combo(a, b, c): the coordinates of a e6 + b tau5 + c tau6, the element
    a + b eta + c xi of the e6 corner at 3."""
    t = dict(CORNER_BASIS_3)
    loop = [t[k].int_vector() for k in ("e6", "tau5", "tau6")]
    # the three touch few coordinates: only those are combined
    support = [(k, x, y, z) for k, (x, y, z) in enumerate(zip(*loop)) if x or y or z]

    def combo(a, b, c):
        nums = [0] * 22
        for k, x, y, z in support:
            nums[k] = a * x + b * y + c * z
        return nums

    return combo


def _loop_corner_law(fx):
    combo, mul = _loop_combo(), partial(multiply_cells, blocks.slot_cells())
    draw = _randint(random.Random(_SEED + 3), -9, 9)
    for n in range(200):
        a1, b1, c1, a2, b2, c2 = (draw() for _ in range(6))
        u1, u2 = combo(a1, b1, c1), combo(a2, b2, c2)
        u1u2 = mul(u1, u2)
        if u1u2 != combo(a1 * a2, a1 * b2 + a2 * b1, a1 * c2 + a2 * c1) or u1u2 != mul(u2, u1):
            return False, "the law fails on sample %d: (%d, %d, %d) times (%d, %d, %d)" % (
                n, a1, b1, c1, a2, b2, c2
            )
    return (
        True,
        "products follow the commutative square-zero two-variable law "
        "on 200 seeded samples",
    )


def _unit_criterion(fx):
    # a = 0 gives a square-zero non-unit; otherwise the closed-form inverse
    # inv / a^2 is two-sided, u inv == a^2 e6 == inv u, and it lies in the
    # order at 3 exactly when 3 does not divide a
    combo, mul = _loop_combo(), partial(multiply_cells, blocks.slot_cells())
    for a, b, c in itertools.product(range(-4, 5), repeat=3):
        u = combo(a, b, c)
        if a == 0:
            ok = not any(mul(u, u))
        else:
            inv = combo(a, -b, -c)
            ok = mul(u, inv) == combo(a * a, 0, 0) == mul(inv, u)
            ok = ok and localized_membership(inv, a * a, 3) == (a % 3 != 0)
        if not ok:
            return False, "criterion fails at (a, b, c) = (%d, %d, %d)" % (a, b, c)
    return (
        True,
        "a + b eta + c xi is a unit exactly when 3 does not divide a, "
        "with the closed-form inverse, on all 729 small triples",
    )


def _rational_corner_table(fx):
    corner_q = fx.corners["q_corner"]
    a = corner_q.by_label
    ones = sum((a[n] for n in CORNER_IDEMPOTENTS_Q), BlockElement.zero())
    return _relations(
        [
            ("a_{4,1} a_{1,4} = a'_{4,4}", a["a_{4,1}"] * a["a_{1,4}"] == a["a'_{4,4}"]),
            (
                "a_{4,2} a_{2,4} = a''_{4,4} - 12 a'_{4,4}",
                a["a_{4,2}"] * a["a_{2,4}"] == a["a''_{4,4}"] + a["a'_{4,4}"].scale(-12),
            ),
            ("a_{1,4} a_{4,1} = 0", (a["a_{1,4}"] * a["a_{4,1}"]).is_zero()),
            ("a_{2,4} a_{4,2} = 0", (a["a_{2,4}"] * a["a_{4,2}"]).is_zero()),
            ("the unit is the sum of the corner idempotents", corner_q.is_identity(ones, "Q")),
        ],
        "the two long compositions give the loop pair and the reversed "
        "compositions vanish",
    )


def _presentation(fx, name):
    problems, n = verify_presentation(fx.presentations[name], fx.corners[name])
    # n is None only when there are problems, and then the pass text is unused
    ok, detail = _problems(
        problems,
        "confluent with %s irreducible paths and a unit change of basis" % n,
    )
    return ok and n == 10, detail


def _presentation_mod(fx, name, p):
    pres = fx.presentations[name]
    reduced = fx.reduction(name, p)
    problems, n = verify_presentation(reduced, fx.corners[name])
    recorded = (
        pres.mod_p is not None
        and pres.mod_p[0] == p
        and same_element_sets(pres.quiver, reduced.relations, pres.mod_p[1])
    )
    ok, detail = _problems(
        problems or ([] if recorded else ["modular relations differ"]),
        "reduction stays confluent with %s irreducible paths and matches "
        "the recorded modular relations" % n,
    )
    return ok and n == 10, detail


def _loop_relation_mod2(fx):
    pres = fx.presentations["z2_corner"]
    expected = element_from_terms(
        pres.quiver, "F2", [["1", "e5", ["t7", "t7"]], ["-1", "e5", ["t1", "t2"]]]
    )
    return _relations(
        [("t7 t7 = t1 t2 at e5 mod 2", expected in fx.reduction("z2_corner", 2).relations)],
        "the loop squares to the long cycle once 2 vanishes",
    )


_PEIRCE, _GAMMA, _LAMBDA, _LOCAL2, _LOCAL3, _PATHS = ({stage: ()} for stage in STAGE_ORDER)
_LOCAL = {"local2": (2,), "local3": (3,)}

# Every check once, in report order: (name, {stage: args}, check).  In each
# of its stages the check is run as check(fx, *args), and a %d in the name
# takes the args.
_CHECKS = (
    ("subgroup-classes", _PEIRCE, _subgroup_classes),
    ("biset-sizes", _PEIRCE, _biset_sizes),
    ("table-dual-route", _PEIRCE, _table_dual_route),
    ("table-mass", _PEIRCE, _table_mass),
    ("identity", _PEIRCE, _identity),
    ("associativity", _PEIRCE, _associativity),
    ("idempotents", _PEIRCE, _idempotents),
    ("peirce-products", _PEIRCE, _peirce_products),
    ("eps3-central", _PEIRCE, _eps3_central),
    ("gamma-bijective", _GAMMA, _gamma_bijective),
    ("gamma-unit", _GAMMA, _gamma_unit),
    ("gamma-multiplicative", _GAMMA, _gamma_multiplicative),
    ("gamma-roundtrip", _GAMMA, _gamma_roundtrip),
    ("delta-integral", _LAMBDA, _delta_integral),
    ("delta-ring-map", _LAMBDA, _delta_ring_map),
    ("matrix-fixture", _LAMBDA, _matrix_fixture),
    ("stated-column-listing", _LAMBDA, _stated_column_listing),
    ("columns-satisfy-congruences", _LAMBDA, _columns_satisfy_congruences),
    ("congruences-match-mod24-rows", _LAMBDA, _congruences_match_mod24_rows),
    ("full-rank", _LAMBDA, _full_rank),
    ("24-inverse-integral", _LAMBDA, _inverse_24_integral),
    ("lattice-equality", _LAMBDA, _lattice_equality),
    ("index-matches-determinant", _LAMBDA, _index_matches_determinant),
    ("lambda-closed", _LAMBDA, _lambda_closed),
    ("membership-splits", _LOCAL2, _membership_splits),
    ("idempotents-local%d", _LOCAL, _idempotents_local),
    ("matrix-part-corners", _LOCAL, _matrix_part_corners),
    ("morita-witnesses", _LOCAL, _morita_witnesses),
    ("gamma-corner-span", _LOCAL2, _gamma_corner_span),
    ("gamma-corner-table", _LOCAL2, _gamma_corner_table),
    ("radical-ideal", _LOCAL2, _radical_ideal),
    ("radical-cube", _LOCAL2, _radical_cube),
    ("residue-field", _LOCAL2, _residue_field),
    ("basic-corner-span", _LOCAL, _basic_corner_span),
    ("corner-identities", _LOCAL, _corner_identities),
    ("loop-corner-span", _LOCAL3, _loop_corner_span),
    ("loop-corner-law", _LOCAL3, _loop_corner_law),
    ("unit-criterion", _LOCAL3, _unit_criterion),
    ("rational-corner-table", _PATHS, _rational_corner_table),
    ("presentation-q_corner", {"paths": ("q_corner",)}, _presentation),
    ("presentation-z2_corner", {"paths": ("z2_corner",)}, _presentation),
    ("presentation-z2_corner-mod2", {"paths": ("z2_corner", 2)}, _presentation_mod),
    ("loop-relation-mod2", _PATHS, _loop_relation_mod2),
    ("presentation-z3_corner", {"paths": ("z3_corner",)}, _presentation),
    ("presentation-z3_corner-mod3", {"paths": ("z3_corner", 3)}, _presentation_mod),
)


def _stage_checks(stage):
    """(name, check, args) for each check of stage, in order."""
    for name, stages, check in _CHECKS:
        if stage in stages:
            args = stages[stage]
            yield (name % args if "%" in name else name), check, args


def _run_stage(stage, fixture_dir):
    fx = _fixture_set(fixture_dir)
    checks = []
    for name, check, args in _stage_checks(stage):
        try:
            ok, detail = check(fx, *args)
            status = "pass" if ok else "fail"
        except TableMismatch:  # the check reads the structure table
            status, detail = "skip", "skipped: the structure-table routes disagree"
        except (SingularMatrixError, PresentationError) as exc:  # no gamma^-1; MAX_STEPS passed
            status, detail = "fail", "cannot be checked: %s" % exc
        checks.append({"name": name, "status": status, "detail": detail})
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"stage": stage, "status": status, "checks": checks}


def stage_peirce(fixture_dir=None):
    return _run_stage("peirce", fixture_dir)


def stage_gamma(fixture_dir=None):
    return _run_stage("gamma", fixture_dir)


def stage_lambda(fixture_dir=None):
    return _run_stage("lambda", fixture_dir)


def stage_local2(fixture_dir=None):
    return _run_stage("local2", fixture_dir)


def stage_local3(fixture_dir=None):
    return _run_stage("local3", fixture_dir)


def stage_paths(fixture_dir=None):
    return _run_stage("paths", fixture_dir)


_STAGE_FUNCS = {
    "peirce": stage_peirce,
    "gamma": stage_gamma,
    "lambda": stage_lambda,
    "local2": stage_local2,
    "local3": stage_local3,
    "paths": stage_paths,
}


def emit_fixtures(out_dir, fixture_dir=None):
    """Recompute every derived fixture layer and write the set for diffing.

    Transcribed data (basis vectors, quivers, relations, errata) passes
    through unchanged; the product table, the representation matrix, and the
    modular relation lists are recomputed from the engine.  fixture_dir may
    be the FixtureSet a run() used, so that the files are read once.
    """
    fx = _fixture_set(fixture_dir)
    pb = fx.peirce
    try:  # before anything is written: no partial set when delta is not integral or undefined
        M = representation_matrix(fx.delta_images)
    except (ValueError, SingularMatrixError) as exc:
        raise ValueError("peirce.json: delta_matrix.json cannot be written: %s" % exc) from None
    raw = fx.peirce_data
    # Peirce coordinate SLOT_TO_PEIRCE[k] of a ring element is slot k of its
    # slot_ints, integral as BlockElement.int_vector() requires; the integer
    # vectors over d multiply to products over d^2.
    dd = pb.int_vectors[1] ** 2
    table = []
    for products in fx.peirce_products:
        row = []
        for prod in products:
            slots, den = pb.slot_ints(prod, dd)
            g = math.gcd(den, *slots)
            if g != den:
                raise ValueError("block element has denominator %d" % (den // g))
            coords = dict(zip(SLOT_TO_PEIRCE, [x // den for x in slots]))
            row.append({PEIRCE_LABELS[k]: coords[k] for k in range(22) if coords[k]})
        table.append(row)
    # {path below out_dir: data}, in the order the files are written
    files = {
        "peirce.json": {
            "basis22": raw["basis22"],
            "idempotents": raw["idempotents"],
            "table": table,
        },
        "delta_matrix.json": {
            "row_order": list(COORD_NAMES),
            "column_classes": list(BASIS_LABELS),
            "stated_column_classes": list(HT_LABELS),
            "matrix": M,
        },
    }
    for name in fixtures.PRESENTATION_NAMES:
        out = dict(fx.presentation_data[name])
        pres = fx.presentations[name]
        if pres.mod_p:
            p = pres.mod_p[0]
            out["mod_p"] = {
                "p": p,
                "relations": sorted(
                    element_to_terms(pres.quiver, r) for r in fx.reduction(name, p).relations
                ),
            }
        files[os.path.join("presentations", "%s.json" % name)] = out
    files["errata.json"] = fx.errata

    os.makedirs(os.path.join(out_dir, "presentations"), exist_ok=True)
    written = [os.path.join(out_dir, rel) for rel in files]
    for path, data in zip(written, files.values()):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fixtures.canonical_dumps(data))
    return written


def run(stages=None, fixture_dir=None):
    """The report of the requested stages; fixture_dir is a directory, None
    for the default, or a FixtureSet to share with emit_fixtures()."""
    if stages in (None, "all"):
        wanted = STAGE_ORDER
    elif isinstance(stages, str):
        wanted = (stages,)
    else:
        wanted = tuple(stages)
    for s in wanted:
        if s not in _STAGE_FUNCS:
            raise ValueError("unknown stage %r" % s)
    fx = _fixture_set(fixture_dir)
    reports = [_STAGE_FUNCS[s](fx) for s in STAGE_ORDER if s in wanted]
    status = "pass" if all(r["status"] == "pass" for r in reports) else "fail"
    return {"status": status, "stages": reports}
