"""Verification stages covering the whole chain, from subgroup enumeration
to the quiver presentations.

Each stage returns {"stage", "status", "checks"} with one entry per named
check; run() strings the requested stages together in dependency order.
Checks recompute from independent routes wherever a second route exists,
and a fixture mismatch only passes when errata.json documents it.  A check
that needs the structure table is skipped, with that said in its detail,
when the two routes that build the table disagree.
"""

import itertools
import math
import os
import random
from fractions import Fraction
from functools import cached_property

from . import fixtures
from .perms import Perm, PermGroup
from .bisets import (
    BASIS_LABELS,
    IDENTITY_INDEX,
    S3,
    SUBGROUP_GENERATORS,
    BurnsideElement,
    TableMismatch,
    basis_bisets,
    biset_sizes,
    mackey_table,
    multiply_vectors,
    oracle_table,
    structure_table,
    structure_tensor,
)
from .blocks import (
    COORD_NAMES,
    IDEMPOTENT_LABELS,
    PEIRCE_LABELS,
    SLOT_TO_PEIRCE,
    BlockElement,
    PeirceBasis,
    slot_basis,
)
from .orders import (
    CONGRUENCES_2,
    CONGRUENCES_3,
    CORNER_BASIS_2,
    CORNER_BASIS_3,
    CORNER_BASIS_Q,
    CORNER_IDEMPOTENTS_Q,
    GAMMA_CORNER_BASIS_2,
    HT_LABELS,
    MOD24_ROWS,
    congruence_solution_lattice,
    delta_images,
    delta_ints,
    image_lattice,
    lambda_membership,
    load_fixture_matrix,
    local_idempotents,
    localized_membership,
    matrix_diff,
    representation_matrix,
)
from .linalg import LocalLattice, det_bareiss, elementary_divisors, int_inverse
from .quivers import (
    CornerAlgebra,
    Presentation,
    corner_span_problems,
    element_from_terms,
    element_to_terms,
    same_element_sets,
    verify_presentation,
)

STAGE_ORDER = ("peirce", "gamma", "lambda", "local2", "local3", "paths")

_SEED = 20260816
_ID3 = Perm((0, 1, 2))


def _check(checks, name, ok, detail=""):
    checks.append(
        {"name": name, "status": "pass" if ok else "fail", "detail": detail}
    )
    return bool(ok)


def _skip(checks, *names):
    detail = "skipped: the structure-table routes disagree"
    checks.extend({"name": name, "status": "skip", "detail": detail} for name in names)


def _certified_table():
    """structure_table(), or None when its two routes disagree."""
    try:
        return structure_table()
    except TableMismatch:
        return None


class FixtureSet:
    """The fixtures of one directory for one run: peirce.json is read, the
    Peirce basis built and its 484 products taken, at most once and only
    when a stage needs them."""

    def __init__(self, fixture_dir=None):
        self.fixture_dir = fixture_dir

    @cached_property
    def peirce_data(self):
        return fixtures.load_peirce(self.fixture_dir)

    @cached_property
    def peirce(self):
        return PeirceBasis.from_data(self.peirce_data)

    @cached_property
    def peirce_products(self):
        """[i][j]: the product of Peirce basis vectors i and j as integers
        over d^2, where pb.int_vectors is (rows, d)."""
        rows, _ = self.peirce.int_vectors
        return [[multiply_vectors(x, y) for y in rows] for x in rows]


def _fixture_set(fixture_dir):
    """fixture_dir as a FixtureSet: a stage takes a directory or a shared set."""
    return fixture_dir if isinstance(fixture_dir, FixtureSet) else FixtureSet(fixture_dir)


def _stage(name, checks):
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"stage": name, "status": status, "checks": checks}


def embed_pair(a, b):
    """Degree-6 permutation acting as a on {0,1,2} and b on {3,4,5}."""
    return Perm(tuple(a.images) + tuple(3 + i for i in b.images))


def pair_group():
    gens = [embed_pair(p, _ID3) for p in S3.generators]
    gens += [embed_pair(_ID3, p) for p in S3.generators]
    return PermGroup(6, gens)


def labeled_subgroups():
    """The 22 classified subgroups embedded at degree 6, in basis order."""
    out = []
    for genpairs in SUBGROUP_GENERATORS:
        out.append(PermGroup(6, [embed_pair(a, b) for a, b in genpairs]))
    return out


def match_classes(group, references):
    """Map each conjugacy class of subgroups to the reference it meets.

    Returns (classes, assignment) where assignment[i] is the reference index
    conjugate to classes[i][0], or None if nothing matches.
    """
    classes = group.conjugacy_classes_of_subgroups()
    assignment = []
    for cls in classes:
        hit = None
        for ri, ref in enumerate(references):
            ok, _ = group.are_conjugate(cls[0], ref)
            if ok:
                hit = ri
                break
        assignment.append(hit)
    return classes, assignment


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
    entries = fixtures.load_errata(fx.fixture_dir)
    return [e for e in entries if e.get("fixture") == fixture_name]


def stage_peirce(fixture_dir=None):
    fx = _fixture_set(fixture_dir)
    checks = []

    G = pair_group()
    refs = labeled_subgroups()
    classes, assignment = match_classes(G, refs)
    bij = sorted(a for a in assignment if a is not None) == list(range(22))
    _check(
        checks,
        "subgroup-classes",
        G.order == 36 and len(classes) == 22 and bij,
        "order %d group, %d conjugacy classes of subgroups, labels matched %s"
        % (G.order, len(classes), "bijectively" if bij else "INCOMPLETELY"),
    )

    sizes = biset_sizes()
    size_ok = list(sizes) == [36 // refs[i].order for i in range(22)]
    _check(
        checks,
        "biset-sizes",
        size_ok and sum(sizes) == 194,
        "point counts match 36/|H| for every class, total %d" % sum(sizes),
    )

    ot = oracle_table()
    mt = mackey_table()
    diffs = [
        "(%s, %s)" % (BASIS_LABELS[i], BASIS_LABELS[j])
        for i in range(22)
        for j in range(22)
        if ot[i][j] != mt[i][j]
    ]
    try:
        c = structure_table()
    except TableMismatch as exc:
        c, diffs = None, diffs or [str(exc)]
    _check(
        checks,
        "table-dual-route",
        not diffs,
        "orbit enumeration and double-coset route agree on all 484 products"
        if not diffs
        else "routes disagree at %s" % ", ".join(diffs[:6]),
    )
    if diffs:
        _skip(checks, "table-mass", "identity", "associativity", "idempotents")
        _skip(checks, "peirce-products", "eps3-central")
        return _stage("peirce", checks)

    bisets_by_class = basis_bisets()
    mass_bad = []
    for i in range(22):
        for j in range(22):
            lhs = sum(c[i][j][k] * sizes[k] for k in range(22))
            total = 0
            for g in range(6):  # pair indices of (1, g) and (g, 1)
                am = bisets_by_class[i].action[g]
                an = bisets_by_class[j].action[6 * g]
                fm = sum(1 for x, q in enumerate(am) if q == x)
                fn = sum(1 for y, q in enumerate(an) if q == y)
                total += fm * fn
            if 6 * lhs != total:
                mass_bad.append("(%s, %s)" % (BASIS_LABELS[i], BASIS_LABELS[j]))
    _check(
        checks,
        "table-mass",
        not mass_bad,
        "every contracted point count matches the fixed-point average"
        if not mass_bad
        else "point count off at %s" % ", ".join(mass_bad[:6]),
    )

    unit_rows = all(
        list(c[IDENTITY_INDEX][j]) == [int(k == j) for k in range(22)]
        and list(c[j][IDENTITY_INDEX]) == [int(k == j) for k in range(22)]
        for j in range(22)
    )
    _check(
        checks,
        "identity",
        unit_rows,
        "%s is a two-sided identity" % BASIS_LABELS[IDENTITY_INDEX],
    )

    # L_i L_j = sum_k c_ij^k L_k holds iff e_i(e_j e_s) = (e_i e_j)e_s for every s
    T = structure_tensor()
    cols = [[T[k][s] for k in range(22)] for s in range(22)]

    def combine(rows, pairs):
        out = [0] * 22
        for m, a in pairs:
            for r, b in rows[m]:
                out[r] += a * b
        return out

    assoc_bad = [
        "(%d, %d)" % (i, j)
        for i in range(22)
        for j in range(22)
        if any(combine(T[i], T[j][s]) != combine(cols[s], T[i][j]) for s in range(22))
    ]
    _check(
        checks,
        "associativity",
        not assoc_bad,
        "left regular representation is multiplicative, covering all 22^3 triples"
        if not assoc_bad
        else "fails at %s" % ", ".join(assoc_bad[:6]),
    )

    pb = fx.peirce
    idem = [pb.element_by_label(lab, "Q") for lab in IDEMPOTENT_LABELS]
    one = BurnsideElement.one("Q")
    idem_ok = all(e * e == e for e in idem)
    orth_ok = all(
        (idem[i] * idem[j]).is_zero()
        for i in range(6)
        for j in range(6)
        if i != j
    )
    total = BurnsideElement.zero("Q")
    for e in idem:
        total = total + e
    _check(
        checks,
        "idempotents",
        idem_ok and orth_ok and total == one,
        "six orthogonal idempotents summing to the identity",
    )

    # vectors[i] == rows[i] / d, so products are over d^2 and table entries over d
    _, d = pb.int_vectors
    products = fx.peirce_products
    mism = []
    for i in range(22):
        for j in range(22):
            want = pb.table_entry_ints(i, j)
            if products[i][j] != [d * x for x in want]:
                mism.append("(%s, %s)" % (PEIRCE_LABELS[i], PEIRCE_LABELS[j]))
    if mism:
        documented = _errata_for("peirce.json", fx)
        _check(
            checks,
            "peirce-products",
            False,
            "recomputed product differs from the table at %s; %s"
            % (
                ", ".join(mism[:6]),
                "documented erratum entries: %d" % len(documented)
                if documented
                else "no documented erratum covers this fixture",
            ),
        )
    else:
        _check(
            checks,
            "peirce-products",
            True,
            "all 484 products match the adapted-basis table",
        )

    eps3 = pb.element_by_label("eps3", "Q")
    central = all(
        eps3 * pb.element(i, "Q") == pb.element(i, "Q") * eps3 for i in range(22)
    )
    _check(checks, "eps3-central", central, "eps3 commutes with the whole basis")

    return _stage("peirce", checks)


def _random_block(rng, denominators=True):
    """22 coordinates num/den, num in [-24, 24] and den in [1, 6] (or 1)."""
    fracs = [(rng.randint(-24, 24), rng.randint(1, 6) if denominators else 1) for _ in range(22)]
    return BlockElement.from_ints(*_over_lcm(fracs))


def _over_lcm(fracs):
    """(numerators, d) for the (num, den) pairs over their least common d."""
    d = math.lcm(*(den for _, den in fracs))
    return [num * (d // den) for num, den in fracs], d


def stage_gamma(fixture_dir=None):
    checks = []
    pb = _fixture_set(fixture_dir).peirce

    G, g = pb.int_gamma
    d = Fraction(det_bareiss(G), g ** len(G))
    _check(
        checks,
        "gamma-bijective",
        d != 0,
        "change of basis determinant %s" % d,
    )

    one_ok = pb.gamma(BlockElement.identity()) == BurnsideElement.one("Q")
    _check(checks, "gamma-unit", one_ok, "identity block maps to the identity")

    if _certified_table() is None:
        _skip(checks, "gamma-multiplicative")
    else:
        # gamma(b) is G b.nums / (g b.den), so gamma(s_i s_j) == gamma(s_i) gamma(s_j)
        # reads g G (s_i s_j).nums == (s_i s_j).den (G e_i)(G e_j)
        slots = slot_basis()
        images = [pb.gamma_ints(b.nums)[0] for b in slots]
        bad = []
        for i in range(22):
            for j in range(22):
                prod = slots[i] * slots[j]
                lhs = [g * x for x in pb.gamma_ints(prod.nums)[0]]
                if lhs != [prod.den * x for x in multiply_vectors(images[i], images[j])]:
                    bad.append("(%s, %s)" % (COORD_NAMES[i], COORD_NAMES[j]))
        _check(
            checks,
            "gamma-multiplicative",
            not bad,
            "multiplicative on all 484 slot pairs"
            if not bad
            else "fails at %s" % ", ".join(bad[:6]),
        )

    rng = random.Random(_SEED)
    trips = 0
    ok = True
    for _ in range(100):
        b = _random_block(rng)
        if pb.slot_coordinates(*pb.gamma_ints(b.nums, b.den)) != b:
            ok = False
            break
        nums, den = _over_lcm([(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(22)])
        back = pb.slot_coordinates(nums, den)
        image, iden = pb.gamma_ints(back.nums, back.den)
        if [x * den for x in image] != [x * iden for x in nums]:
            ok = False
            break
        trips += 2
    _check(
        checks,
        "gamma-roundtrip",
        ok,
        "%d seeded round trips through both directions" % trips,
    )

    return _stage("gamma", checks)


def _support_components():
    """Union-find over coordinate names shared by congruences and mod-24 rows."""
    parent = {n: n for n in COORD_NAMES}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(names):
        names = list(names)
        for other in names[1:]:
            ra, rb = find(names[0]), find(other)
            if ra != rb:
                parent[rb] = ra

    supports = []
    for coeffs, _ in CONGRUENCES_2 + CONGRUENCES_3:
        supports.append(set(coeffs))
    for row in MOD24_ROWS:
        supports.append({COORD_NAMES[i] for i, c in enumerate(row) if c})
    for sup in supports:
        union(sup)
    comps = {}
    for sup in supports:
        for n in sup:
            comps.setdefault(find(n), set()).add(n)
    # ordered by largest name: the roots depend on set iteration order
    return sorted((sorted(v) for v in comps.values()), key=lambda comp: comp[-1])


def _component_conditions(names):
    """Compile both membership predicates to the given coordinates."""
    idx = {n: i for i, n in enumerate(names)}
    congs = []
    for coeffs, m in CONGRUENCES_2 + CONGRUENCES_3:
        if set(coeffs) <= set(names):
            congs.append(
                (tuple(idx[n] for n in coeffs), tuple(coeffs[n] for n in coeffs), m)
            )
    rows = []
    for row in MOD24_ROWS:
        sup_names = [COORD_NAMES[i] for i, c in enumerate(row) if c]
        if all(n in idx for n in sup_names):
            rows.append(
                tuple((idx[COORD_NAMES[i]], c) for i, c in enumerate(row) if c)
            )
    return congs, rows


def _residue_disagreement(comp):
    """Residues mod 24 of the coordinates in comp on which the congruences and
    the mod-24 rows disagree, or None.

    Every modulus divides 24 = 8 * 3, so each predicate is the conjunction of
    its reductions mod 8 and mod 3, and 0 satisfies every condition.  The
    predicates therefore agree on all residues mod 24 iff they agree on all
    residues mod 8 and on all residues mod 3; a witness r mod q lifts to the
    residue that is r mod q and 0 mod 24/q.
    """
    congs, rows = _component_conditions(comp)
    for q in (8, 3):
        lift = (24 // q) * pow(24 // q, -1, q)
        for combo in itertools.product(range(q), repeat=len(comp)):
            a = all(
                sum(cf * combo[i] for i, cf in zip(ix, cfs)) % math.gcd(m, q) == 0
                for ix, cfs, m in congs
            )
            b = all(sum(cf * combo[i] for i, cf in sup) % q == 0 for sup in rows)
            if a != b:
                return tuple(r * lift % 24 for r in combo)
    return None


def stage_lambda(fixture_dir=None):
    fx = _fixture_set(fixture_dir)
    checks = []
    pb = fx.peirce
    imgs = delta_images(pb)

    _check(
        checks,
        "delta-integral",
        all(b.is_integral() for b in imgs),
        "all 22 images have integer coordinates",
    )

    c = _certified_table()
    if c is None:
        _skip(checks, "delta-ring-map")
    else:
        unit_ok = imgs[IDENTITY_INDEX] == BlockElement.identity()
        mult_bad = []
        for i in range(22):
            for j in range(22):
                if imgs[i] * imgs[j] != delta_ints(c[i][j], 1, pb):
                    mult_bad.append("(%s, %s)" % (BASIS_LABELS[i], BASIS_LABELS[j]))
        _check(
            checks,
            "delta-ring-map",
            unit_ok and not mult_bad,
            "delta carries the identity to the identity and respects all 484 products"
            if unit_ok and not mult_bad
            else "fails at %s" % ", ".join(mult_bad[:6] or ["the identity"]),
        )

    M_re = representation_matrix(pb)
    M_fx = load_fixture_matrix(fx.fixture_dir)
    diffs = matrix_diff(M_re, M_fx, COORD_NAMES, BASIS_LABELS)
    _check(
        checks,
        "matrix-fixture",
        not diffs,
        "recomputed matrix matches the transcribed fixture in all 484 cells"
        if not diffs
        else "differs at %s" % "; ".join(diffs[:6]),
    )

    erratum = [
        e
        for e in _errata_for("delta_matrix.json", fx)
        if e.get("id") == "delta-matrix-stated-column-listing"
    ]
    stated_swapped = tuple(swap_label(l) for l in HT_LABELS) == BASIS_LABELS
    listing_diverges = HT_LABELS != BASIS_LABELS
    _check(
        checks,
        "stated-column-listing",
        bool(erratum) and stated_swapped and listing_diverges,
        "stated listing is the factor swap of the actual column order and "
        "errata.json documents it"
        if erratum
        else "stated column listing diverges without a documented erratum",
    )

    _check(
        checks,
        "columns-satisfy-congruences",
        all(
            lambda_membership(BlockElement.from_vector([M_fx[r][j] for r in range(22)]))
            for j in range(22)
        ),
        "every column passes all listed congruence conditions",
    )

    comps = _support_components()
    free = [n for n in COORD_NAMES if all(n not in comp for comp in comps)]
    worst = None
    for comp in comps:
        worst = _residue_disagreement(comp)
        if worst is not None:
            break
    _check(
        checks,
        "congruences-match-mod24-rows",
        worst is None,
        "exhaustive residue check over components %s; unconstrained slots %s"
        % (["+".join(comp) for comp in comps], ",".join(free))
        if worst is None
        else "predicates disagree on %s at residues %s" % (",".join(comp), worst),
    )

    detM = det_bareiss([list(r) for r in M_fx])
    _check(
        checks,
        "full-rank",
        detM != 0,
        "det = %d = -(2^17)(3^4)" % detM if detM == -10616832 else "det = %s" % detM,
    )

    Minv, dinv = int_inverse(M_fx) if detM else ([], 1)
    _check(
        checks,
        "24-inverse-integral",
        detM != 0 and all(24 * x % dinv == 0 for row in Minv for x in row),
        "24 times the inverse matrix is integral" if detM else "the matrix has no inverse",
    )

    H_img = image_lattice(M_fx)
    H_cong = congruence_solution_lattice()
    _check(
        checks,
        "lattice-equality",
        H_img == H_cong,
        "column lattice and congruence solution lattice share one Hermite form",
    )

    # a rank-deficient column lattice has infinite index, written 0
    index_h = math.prod(H_img[i][i] for i in range(22)) if len(H_img) == 22 else 0
    divs = [d for d in elementary_divisors([list(r) for r in M_fx]) if d]
    index_s = 1
    for d in divs:
        index_s *= d
    _check(
        checks,
        "index-matches-determinant",
        index_h == abs(detM) == index_s == 10616832,
        "lattice index %d agrees with |det| and the Smith form" % index_h,
    )

    closed_bad = []
    for i in range(22):
        for j in range(22):
            if not lambda_membership(imgs[i] * imgs[j]):
                closed_bad.append("(%s, %s)" % (BASIS_LABELS[i], BASIS_LABELS[j]))
    _check(
        checks,
        "lambda-closed",
        not closed_bad and lambda_membership(BlockElement.identity()),
        "the congruence lattice contains 1 and is closed under all 484 products"
        if not closed_bad
        else "product escapes at %s" % ", ".join(closed_bad[:6]),
    )

    return _stage("lambda", checks)


_LOCAL_DETAILS = {
    2: (
        "five orthogonal idempotents in the order summing to 1",
        "e1..e4 cut rank-one corners",
    ),
    3: (
        "six orthogonal idempotents in the order summing to 1",
        "e1..e5 cut rank-one corners at 3",
    ),
}


def _local_idempotent_checks(checks, p, imgs):
    """The checks both local stages open with; returns the idempotents.

    The idempotents of the order at p are orthogonal and sum to 1, all but
    the last cut rank-one corners, and matrix units inside the order link e1
    and e2 to e3 (the Morita reduction to the basic corner).
    """
    es = local_idempotents(p)
    n = len(es)
    total = BlockElement.zero()
    for e in es:
        total = total + e
    _check(
        checks,
        "idempotents-local%d" % p,
        all(e * e == e for e in es)
        and all((es[i] * es[j]).is_zero() for i in range(n) for j in range(n) if i != j)
        and total == BlockElement.identity()
        and all(localized_membership(e, p) for e in es),
        _LOCAL_DETAILS[p][0],
    )

    rank1 = []
    for k, f in enumerate(es[: n - 1]):
        rank1.extend(corner_span_problems(p, (("e%d" % (k + 1), f),), imgs, (f,)))
    _check(
        checks,
        "matrix-part-corners",
        not rank1,
        _LOCAL_DETAILS[p][1] if not rank1 else "; ".join(rank1[:4]),
    )

    E13, E31, E23, E32 = (
        BlockElement.from_coords({name: 1}) for name in ("s13", "s31", "s23", "s32")
    )
    _check(
        checks,
        "morita-witnesses",
        E13 * E31 == es[0]
        and E31 * E13 == es[2]
        and E23 * E32 == es[1]
        and E32 * E23 == es[2]
        and all(localized_membership(x, p) for x in (E13, E31, E23, E32)),
        "matrix units inside the order link e1 and e2 to e3",
    )
    return es


def stage_local2(fixture_dir=None):
    checks = []
    imgs = delta_images(_fixture_set(fixture_dir).peirce)

    rng = random.Random(_SEED + 2)
    split_ok = True
    witness = ""
    samples = list(imgs)
    for _ in range(1000):
        samples.append(_random_block(rng, denominators=False))
    for b in samples:
        glob = lambda_membership(b)
        loc = localized_membership(b, 2) and localized_membership(b, 3)
        if glob != loc:
            split_ok = False
            witness = str([str(x) for x in b.to_vector()])
            break
    w2 = BlockElement.from_coords({"z2": 4, "z3": 4, "w": 2})
    w3 = BlockElement.from_coords({"z2": 3})
    wq = BlockElement.from_coords({"s11": Fraction(1, 3)})
    directional = (
        localized_membership(w2, 2)
        and not localized_membership(w2, 3)
        and localized_membership(w3, 3)
        and not localized_membership(w3, 2)
        and localized_membership(wq, 2)
        and not localized_membership(wq, 3)
    )
    _check(
        checks,
        "membership-splits",
        split_ok and directional,
        "global membership equals the conjunction at 2 and 3 on %d samples, "
        "with one-sided witnesses in both directions" % len(samples)
        if split_ok
        else "split fails on %s" % witness,
    )

    es = _local_idempotent_checks(checks, 2, imgs)

    gprobs = corner_span_problems(
        2, GAMMA_CORNER_BASIS_2, imgs, (es[4],)
    )
    _check(
        checks,
        "gamma-corner-span",
        not gprobs,
        "b1..b4 span the e5 corner at 2" if not gprobs else "; ".join(gprobs[:4]),
    )

    b = {name: elem for name, elem in GAMMA_CORNER_BASIS_2}
    table_ok = (
        all(b["b1"] * b[k] == b[k] and b[k] * b["b1"] == b[k] for k in b)
        and b["b2"] * b["b2"] == b["b2"].scale(2) + b["b3"]
        and b["b2"] * b["b3"] == b["b3"].scale(2)
        and b["b3"] * b["b2"] == b["b3"].scale(2)
        and b["b2"] * b["b4"] == b["b4"].scale(2)
        and b["b4"] * b["b2"] == b["b4"].scale(2)
        and (b["b3"] * b["b3"]).is_zero()
        and (b["b3"] * b["b4"]).is_zero()
        and (b["b4"] * b["b3"]).is_zero()
        and (b["b4"] * b["b4"]).is_zero()
    )
    _check(
        checks,
        "gamma-corner-table",
        table_ok,
        "b1 is the corner unit; b2^2 = 2b2 + b3, b2b3 = 2b3, b2b4 = 2b4, "
        "and b3, b4 multiply to zero",
    )

    jgens = [b["b1"].scale(2), b["b2"], b["b3"], b["b4"]]
    J = LocalLattice([g.int_vector() for g in jgens], 2)
    ideal_ok = all(
        J.contains(x.nums, x.den)
        for g in jgens
        for bb in b.values()
        for x in (g * bb, bb * g)
    )
    unit_out = not J.contains(b["b1"].nums, b["b1"].den)
    _check(
        checks,
        "radical-ideal",
        ideal_ok and unit_out,
        "J = (2b1, b2, b3, b4) is a proper two-sided ideal",
    )

    cube = [(x1 * x2 * x3).int_vector() for x1 in jgens for x2 in jgens for x3 in jgens]
    claimed = [
        g.int_vector()
        for g in (b["b1"].scale(8), b["b2"].scale(4), b["b3"].scale(2), b["b4"].scale(4))
    ]
    twice = [g.scale(2).int_vector() for g in b.values()]
    cube_lat, claimed_lat, twice_lat = (LocalLattice(g, 2) for g in (cube, claimed, twice))
    cube_ok = (
        all(claimed_lat.contains(v) for v in cube)
        and all(cube_lat.contains(v) for v in claimed)
        and all(twice_lat.contains(v) for v in cube)
    )
    _check(
        checks,
        "radical-cube",
        cube_ok,
        "J^3 = (8b1, 4b2, 2b3, 4b4) and lands inside twice the corner",
    )

    # Coordinates of the J generators over b1..b4 are diag(2,1,1,1) by
    # construction, so the quotient has order 2; with 1 outside J it is a field.
    _check(
        checks,
        "residue-field",
        unit_out,
        "corner modulo J is the field with two elements",
    )

    cprobs = corner_span_problems(2, CORNER_BASIS_2, imgs, (es[2], es[3], es[4]))
    _check(
        checks,
        "basic-corner-span",
        not cprobs,
        "the ten claimed elements are a local basis of the basic corner at 2"
        if not cprobs
        else "; ".join(cprobs[:4]),
    )

    t = {name: elem for name, elem in CORNER_BASIS_2}
    e3, e4, e5 = t["e3"], t["e4"], t["e5"]
    supports = (
        e5 * t["tau1"] * e3 == t["tau1"]
        and e3 * t["tau2"] * e5 == t["tau2"]
        and e5 * t["tau3"] * e4 == t["tau3"]
        and e4 * t["tau4"] * e5 == t["tau4"]
        and all(e5 * t[k] * e5 == t[k] for k in ("tau5", "tau6", "tau7"))
    )
    rels = (
        t["tau1"] * t["tau2"] == t["tau5"]
        and t["tau3"] * t["tau4"] + t["tau1"].scale(6) * t["tau2"] == t["tau6"]
        and t["tau7"] * t["tau7"] == t["tau7"].scale(2) + t["tau1"] * t["tau2"]
        and t["tau2"] * t["tau7"] == t["tau2"].scale(2)
        and t["tau4"] * t["tau7"] == t["tau4"].scale(2)
        and t["tau7"] * t["tau1"] == t["tau1"].scale(2)
        and t["tau7"] * t["tau3"] == t["tau3"].scale(2)
        and (t["tau2"] * t["tau1"]).is_zero()
        and (t["tau4"] * t["tau1"]).is_zero()
        and (t["tau2"] * t["tau3"]).is_zero()
        and (t["tau4"] * t["tau3"]).is_zero()
    )
    _check(
        checks,
        "corner-identities",
        supports and rels,
        "arrow supports and the products tau5 = tau1 tau2, "
        "tau6 = tau3 tau4 + 6 tau1 tau2, tau7^2 = 2 tau7 + tau1 tau2 all hold",
    )

    return _stage("local2", checks)


def stage_local3(fixture_dir=None):
    checks = []
    imgs = delta_images(_fixture_set(fixture_dir).peirce)

    es = _local_idempotent_checks(checks, 3, imgs)

    cprobs = corner_span_problems(3, CORNER_BASIS_3, imgs, (es[2], es[3], es[4], es[5]))
    _check(
        checks,
        "basic-corner-span",
        not cprobs,
        "the ten claimed elements are a local basis of the basic corner at 3"
        if not cprobs
        else "; ".join(cprobs[:4]),
    )

    t = {name: elem for name, elem in CORNER_BASIS_3}
    e3, e4, e6 = t["e3"], t["e4"], t["e6"]
    supports = (
        e6 * t["tau1"] * e3 == t["tau1"]
        and e3 * t["tau2"] * e6 == t["tau2"]
        and e6 * t["tau3"] * e4 == t["tau3"]
        and e4 * t["tau4"] * e6 == t["tau4"]
        and all(e6 * t[k] * e6 == t[k] for k in ("tau5", "tau6"))
    )
    rels = (
        t["tau1"] * t["tau2"] == t["tau5"]
        and t["tau3"] * t["tau4"] + t["tau1"].scale(4) * t["tau2"] == t["tau6"]
        and (t["tau2"] * t["tau1"]).is_zero()
        and (t["tau4"] * t["tau1"]).is_zero()
        and (t["tau2"] * t["tau3"]).is_zero()
        and (t["tau4"] * t["tau3"]).is_zero()
        and (t["tau5"] * t["tau5"]).is_zero()
        and (t["tau5"] * t["tau6"]).is_zero()
        and (t["tau6"] * t["tau5"]).is_zero()
        and (t["tau6"] * t["tau6"]).is_zero()
    )
    _check(
        checks,
        "corner-identities",
        supports and rels,
        "arrow supports and the products tau5 = tau1 tau2, "
        "tau6 = tau3 tau4 + 4 tau1 tau2 hold, with square-zero loops",
    )

    eprobs = corner_span_problems(
        3, (("e6", t["e6"]), ("eta", t["tau5"]), ("xi", t["tau6"])), imgs, (es[5],)
    )
    _check(
        checks,
        "loop-corner-span",
        not eprobs,
        "the e6 corner at 3 is spanned by 1, eta, xi"
        if not eprobs
        else "; ".join(eprobs[:4]),
    )

    loop = [x.int_vector() for x in (e6, t["tau5"], t["tau6"])]

    def combo(a, b, c, den=1):
        """(a e6 + b tau5 + c tau6) / den"""
        return BlockElement.from_ints([a * x + b * y + c * z for x, y, z in zip(*loop)], den)

    rng = random.Random(_SEED + 3)
    law_ok = True
    for _ in range(200):
        a1, b1, c1, a2, b2, c2 = (rng.randint(-9, 9) for _ in range(6))
        u1 = combo(a1, b1, c1)
        u2 = combo(a2, b2, c2)
        want = combo(a1 * a2, a1 * b2 + a2 * b1, a1 * c2 + a2 * c1)
        if u1 * u2 != want or u1 * u2 != u2 * u1:
            law_ok = False
            break
    _check(
        checks,
        "loop-corner-law",
        law_ok,
        "products follow the commutative square-zero two-variable law "
        "on 200 seeded samples",
    )

    # a = 0 gives a square-zero non-unit; otherwise the closed-form inverse
    # is two-sided, and it lies in the order at 3 exactly when 3 does not divide a
    bad = None
    for a, bb, cc in itertools.product(range(-4, 5), repeat=3):
        u = combo(a, bb, cc)
        if a == 0:
            ok = (u * u).is_zero()
        else:
            inv = combo(a, -bb, -cc, a * a)
            ok = u * inv == e6 == inv * u and localized_membership(inv, 3) == (a % 3 != 0)
        if not ok:
            bad = "(a, b, c) = (%d, %d, %d)" % (a, bb, cc)
            break
    _check(
        checks,
        "unit-criterion",
        bad is None,
        "a + b eta + c xi is a unit exactly when 3 does not divide a, "
        "with the closed-form inverse, on all 729 small triples"
        if bad is None
        else "criterion fails at %s" % bad,
    )

    return _stage("local3", checks)


def stage_paths(fixture_dir=None):
    fixture_dir = _fixture_set(fixture_dir).fixture_dir
    checks = []

    corner_q = CornerAlgebra("Q", CORNER_BASIS_Q)
    aq = corner_q.by_label
    table_ok = (
        aq["a_{4,1}"] * aq["a_{1,4}"] == aq["a'_{4,4}"]
        and aq["a_{4,2}"] * aq["a_{2,4}"]
        == aq["a''_{4,4}"] + aq["a'_{4,4}"].scale(-12)
        and (aq["a_{1,4}"] * aq["a_{4,1}"]).is_zero()
        and (aq["a_{2,4}"] * aq["a_{4,2}"]).is_zero()
    )
    unit_ok = corner_q.unit() == sum(
        (aq[n] for n in CORNER_IDEMPOTENTS_Q), BlockElement.zero()
    )
    _check(
        checks,
        "rational-corner-table",
        table_ok and unit_ok,
        "the two long compositions give the loop pair and the reversed "
        "compositions vanish",
    )

    plans = (
        ("q_corner", "Q", CORNER_BASIS_Q, None),
        ("z2_corner", "Z2", CORNER_BASIS_2, 2),
        ("z3_corner", "Z3", CORNER_BASIS_3, 3),
    )
    for name, ring, basis, p in plans:
        corner = CornerAlgebra(ring, basis)
        pres = Presentation.from_fixture(name, fixture_dir, corner.labels)
        probs = verify_presentation(pres, corner)
        nbasis = len(pres.basis_paths())
        _check(
            checks,
            "presentation-%s" % name,
            not probs and nbasis == 10,
            "confluent with %d irreducible paths and a unit change of basis"
            % nbasis
            if not probs
            else "; ".join(probs[:4]),
        )
        if p is None:
            continue
        reduced = pres.reduce_mod(p)
        fcorner = CornerAlgebra("F%d" % p, basis)
        fprobs = verify_presentation(reduced, fcorner)
        fbasis = len(reduced.basis_paths())
        fix_ok = (
            pres.mod_p is not None
            and pres.mod_p[0] == p
            and same_element_sets(reduced.relations, pres.mod_p[1])
        )
        _check(
            checks,
            "presentation-%s-mod%d" % (name, p),
            not fprobs and fbasis == 10 and fix_ok,
            "reduction stays confluent with %d irreducible paths and matches "
            "the recorded modular relations" % fbasis
            if not fprobs and fix_ok
            else "; ".join(fprobs[:4]) or "modular relations differ",
        )
        if p == 2:
            expected = element_from_terms(
                pres.quiver,
                "F2",
                [["1", "e5", ["t7", "t7"]], ["-1", "e5", ["t1", "t2"]]],
            )
            _check(
                checks,
                "loop-relation-mod2",
                any(r == expected for r in reduced.relations),
                "the loop squares to the long cycle once 2 vanishes",
            )

    return _stage("paths", checks)


_STAGE_FUNCS = {
    "peirce": stage_peirce,
    "gamma": stage_gamma,
    "lambda": stage_lambda,
    "local2": stage_local2,
    "local3": stage_local3,
    "paths": stage_paths,
}


def _write_fixture(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fixtures.canonical_dumps(data))
    return path


def emit_fixtures(out_dir, fixture_dir=None):
    """Recompute every derived fixture layer and write the set for diffing.

    Transcribed data (basis vectors, quivers, relations, errata) passes
    through unchanged; the product table, the representation matrix, and the
    modular relation lists are recomputed from the engine.  fixture_dir may
    be the FixtureSet a run() used, so that the files are read once.
    """
    fx = _fixture_set(fixture_dir)
    fixture_dir = fx.fixture_dir
    os.makedirs(os.path.join(out_dir, "presentations"), exist_ok=True)
    written = []
    pb = fx.peirce
    raw = fx.peirce_data
    # Peirce coordinate SLOT_TO_PEIRCE[k] of a ring element is slot k of its
    # gamma_inv; the integer vectors over d multiply to products over d^2.
    _, d = pb.int_vectors
    table = []
    for products in fx.peirce_products:
        row = []
        for prod in products:
            slots = pb.slot_coordinates(prod, d * d)
            coords = dict(zip(SLOT_TO_PEIRCE, slots.int_vector()))
            row.append({PEIRCE_LABELS[k]: coords[k] for k in range(22) if coords[k]})
        table.append(row)
    written.append(
        _write_fixture(
            os.path.join(out_dir, "peirce.json"),
            {
                "basis22": raw["basis22"],
                "idempotents": raw["idempotents"],
                "table": table,
            },
        )
    )

    M = representation_matrix(pb)
    written.append(
        _write_fixture(
            os.path.join(out_dir, "delta_matrix.json"),
            {
                "row_order": list(COORD_NAMES),
                "column_classes": list(BASIS_LABELS),
                "stated_column_classes": list(HT_LABELS),
                "matrix": M,
            },
        )
    )

    for name in fixtures.PRESENTATION_NAMES:
        rawp = fixtures.load_presentation(name, fixture_dir)
        out = dict(rawp)
        pres = Presentation.from_dict(rawp, "presentations/%s.json" % name)
        if pres.mod_p:
            p = pres.mod_p[0]
            out["mod_p"] = {
                "p": p,
                "relations": sorted(
                    element_to_terms(r) for r in pres.reduce_mod(p).relations
                ),
            }
        written.append(
            _write_fixture(
                os.path.join(out_dir, "presentations", "%s.json" % name), out
            )
        )

    written.append(
        _write_fixture(
            os.path.join(out_dir, "errata.json"), fixtures.load_errata(fixture_dir)
        )
    )
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
