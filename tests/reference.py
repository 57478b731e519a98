"""Dense references, in Fractions, eager integer steps or one element per
value, that several test modules compare against."""

import itertools
import json
import math
import random
from fractions import Fraction

from bisetforge import bisets, cli, verify
from bisetforge.bisets import BASIS_LABELS
from bisetforge.blocks import PEIRCE_LABELS, SLOT_TO_PEIRCE, BlockElement
from bisetforge.linalg import SingularMatrixError, rows_over_lcm
from bisetforge.orders import lambda_membership, localized_membership
from bisetforge.perms import PermGroup, _bits


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


def rows_of(cells):
    """Structure constants by cell, as linalg.multiply_cells() reads them, in
    row form: rows[i] holds the triple (j, k, c) of each (k, c) pair of
    cells[i][j]."""
    return tuple(tuple((j, k, c) for j, cell in enumerate(row) for k, c in cell) for row in cells)


def multiply_rows(rows, xs, ys):
    """xs times ys by the structure constants rows, as a list: the row walk
    over the nonzero xs[i] and every stored triple, which the product ran
    before it walked cells."""
    out = [0] * len(rows)
    for i, x in enumerate(xs):
        if x:
            for j, k, c in rows[i]:
                y = ys[j]
                if y:
                    out[k] += c * x * y
    return out


def associativity_failures(T):
    """The pairs (i, j) for which e_i(e_j e_s) != (e_i e_j)e_s for some s, in
    row order, for the structure constants T by cell: the combine loop that
    verify's associativity check ran before it built each side as one
    array."""
    n = len(T)
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


# verify's sampled checks as they were written on BlockElements, one element
# per sample or product; each reads the corner basis and the seeds from
# verify when called, so that a perturbation installed there reaches both.


def in_lambda(b):
    """Membership of a BlockElement in the integral congruence order."""
    return lambda_membership(b.nums, b.den)


def in_local(b, p):
    """Membership of a BlockElement in the localized order at p."""
    return localized_membership(b.nums, b.den, p)


def _random_block(rng, denominators=True):
    num = verify._randint(rng, -24, 24)
    if not denominators:
        return BlockElement.from_ints([num() for _ in range(22)])
    den = verify._randint(rng, 1, 6)
    return BlockElement.from_ints(*verify._over_lcm([(num(), den()) for _ in range(22)]))


def gamma_roundtrip(fx):
    pb = fx.peirce
    rng = random.Random(verify._SEED)
    num, den = verify._randint(rng, -12, 12), verify._randint(rng, 1, 4)
    for n in range(100):
        b = _random_block(rng)
        if BlockElement.from_ints(*pb.slot_ints(*pb.gamma_ints(b.nums, b.den))) != b:
            return False, "gamma^-1(gamma(b)) != b for block sample %d" % n
        nums, d = verify._over_lcm([(num(), den()) for _ in range(22)])
        back = BlockElement.from_ints(*pb.slot_ints(nums, d))
        image, iden = pb.gamma_ints(back.nums, back.den)
        if [x * d for x in image] != [x * iden for x in nums]:
            return False, "gamma(gamma^-1(x)) != x for ring sample %d" % n
    return True, "200 seeded round trips through both directions"


def lambda_closed(fx):
    if not in_lambda(BlockElement.identity()):
        return False, "the congruence lattice does not contain 1"
    D = fx.int_delta_images[1]
    prods = [[BlockElement.from_ints(p, D * D) for p in row] for row in fx.delta_products]
    return verify._cells(
        verify._pairs(verify.BASIS_LABELS, lambda i, j: not in_lambda(prods[i][j])),
        "the congruence lattice contains 1 and is closed under all 484 products",
        "product escapes at %s",
    )


def membership_splits(fx):
    rng = random.Random(verify._SEED + 2)
    samples = list(fx.delta_images)
    samples += [_random_block(rng, denominators=False) for _ in range(1000)]
    for b in samples:
        if in_lambda(b) != (in_local(b, 2) and in_local(b, 3)):
            return False, "split fails on %s" % [str(x) for x in b.to_vector()]
    for coords, p in (
        ({"z2": 4, "z3": 4, "w": 2}, 2),
        ({"z2": 3}, 3),
        ({"s11": Fraction(1, 3)}, 2),
    ):
        b = BlockElement.from_coords(coords)
        if not in_local(b, p) or in_local(b, 5 - p):
            witness = "{%s}" % ", ".join("%s: %s" % kv for kv in coords.items())
            detail = "one-sided witness %s should lie in the order at %d but not at %d"
            return False, detail % (witness, p, 5 - p)
    return (
        True,
        "global membership equals the conjunction at 2 and 3 on %d samples, "
        "with one-sided witnesses in both directions" % len(samples),
    )


def _loop_combo():
    t = dict(verify.CORNER_BASIS_3)
    loop, d = rows_over_lcm([t[k] for k in ("e6", "tau5", "tau6")])
    support = [(k, x, y, z) for k, (x, y, z) in enumerate(zip(*loop)) if x or y or z]

    def combo(a, b, c, den=1):
        nums = [0] * 22
        for k, x, y, z in support:
            nums[k] = a * x + b * y + c * z
        return BlockElement.from_ints(nums, den * d)

    return combo


def loop_corner_law(fx):
    combo = _loop_combo()
    draw = verify._randint(random.Random(verify._SEED + 3), -9, 9)
    for n in range(200):
        a1, b1, c1, a2, b2, c2 = (draw() for _ in range(6))
        u1 = combo(a1, b1, c1)
        u2 = combo(a2, b2, c2)
        want = combo(a1 * a2, a1 * b2 + a2 * b1, a1 * c2 + a2 * c1)
        if u1 * u2 != want or u1 * u2 != u2 * u1:
            return False, "the law fails on sample %d: (%d, %d, %d) times (%d, %d, %d)" % (
                n, a1, b1, c1, a2, b2, c2
            )
    return (
        True,
        "products follow the commutative square-zero two-variable law "
        "on 200 seeded samples",
    )


def unit_criterion(fx):
    combo, e6 = _loop_combo(), dict(verify.CORNER_BASIS_3)["e6"]
    for a, b, c in itertools.product(range(-4, 5), repeat=3):
        u = combo(a, b, c)
        if a == 0:
            ok = (u * u).is_zero()
        else:
            inv = combo(a, -b, -c, a * a)
            ok = u * inv == e6 == inv * u and in_local(inv, 3) == (a % 3 != 0)
        if not ok:
            return False, "criterion fails at (a, b, c) = (%d, %d, %d)" % (a, b, c)
    return (
        True,
        "a + b eta + c xi is a unit exactly when 3 does not divide a, "
        "with the closed-form inverse, on all 729 small triples",
    )


def peirce_table(fx):
    """The product table emit_fixtures writes to peirce.json."""
    pb = fx.peirce
    _, d = pb.int_vectors
    table = []
    for products in fx.peirce_products:
        row = []
        for prod in products:
            slots = BlockElement.from_ints(*pb.slot_ints(prod, d * d))
            if slots.den != 1:
                raise ValueError("block element has denominator %d" % slots.den)
            coords = dict(zip(SLOT_TO_PEIRCE, slots.nums))
            row.append({PEIRCE_LABELS[k]: coords[k] for k in range(22) if coords[k]})
        table.append(row)
    return table


def subgroup(G, idx):
    """The subgroup of G on the sorted element indices idx, generated greedily
    (highest order first, then least index, skipping elements in the span)
    and closed again, which must give back the elements idx names."""
    els = G.elements
    H = PermGroup(G.degree, [els[g] for g in G._table().minimal_gens(idx)])
    assert H.elements == tuple(els[i] for i in idx)
    return H


def subgroups_output(spec, as_json):
    """`bisetforge subgroups spec` output built one `PermGroup` per class:
    classes sorted by (order, element indices) of their least member, that
    member built by subgroup(), its generators written by Perm.cycle_string,
    the least conjugate reference labelling S3xS3, and JSON by json.dumps."""
    group, display = cli.parse_group_spec(spec)
    classes = sorted(
        sorted((m.bit_count(), _bits(m), m) for m in cls)
        for cls in group._table().subgroup_classes()
    )
    reps = [subgroup(group, cls[0][1]) for cls in classes]
    labels = [None] * len(classes)
    if display == "S3xS3" or (
        (group.degree, group.order) == (6, 36) and group == bisets.pair_group()
    ):
        class_of = {m: ci for ci, cls in enumerate(classes) for _, _, m in cls}
        for label, ref in zip(BASIS_LABELS, bisets.labeled_subgroups()):
            ci = class_of.get(group.subgroup_mask(ref))
            if ci is not None and labels[ci] is None:
                labels[ci] = label
    rows = [
        {
            "index": i,
            "order": rep.order,
            "class_size": len(cls),
            "label": label,
            "generators": [p.cycle_string() for p in rep.generators] or ["()"],
        }
        for i, (rep, cls, label) in enumerate(zip(reps, classes, labels))
    ]
    if as_json:
        payload = {
            "group": display,
            "degree": group.degree,
            "group_order": group.order,
            "class_count": len(rows),
            "classes": rows,
        }
        return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    lines = [
        "group %s of order %d on %d points: %d conjugacy classes of subgroups"
        % (display, group.order, group.degree, len(rows)),
        "%5s %6s %6s %-9s %s" % ("index", "order", "class", "label", "generators"),
    ]
    lines += [
        "%5d %6d %6d %-9s %s"
        % (r["index"], r["order"], r["class_size"], r["label"] or "-", " ".join(r["generators"]))
        for r in rows
    ]
    return "\n".join(lines) + "\n"
