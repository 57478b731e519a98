"""Seeded inputs and the reference each output is checked against.

Inputs depend only on the seed.  References never come from the code path
under test: subgroup counts are known values, products are recomputed here
from the orbit-enumeration table with this module's own loop, and the verify
report is compared with a stored golden copy.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_REPORT = HERE / "golden" / "verify_report.json"

WORKLOADS = ("verify-full", "subgroups-lattice", "mult-stream")

# The 22 transitive biset classes of S3 x S3, in basis order.
BASIS_LABELS = (
    "H_{0,0}", "H_{1,0}", "H_{0,1}", "H^D_1", "H_{4,0}", "H_{0,4}", "H^D_4",
    "H_{1,1}", "H_{5,0}", "H_{0,5}", "H_6", "H_{4,1}", "H_{1,4}", "H_7",
    "H^D_5", "H_{4,4}", "H_{1,5}", "H_{5,1}", "H_{4,5}", "H_{5,4}", "H_8",
    "H_{5,5}",
)
RINGS = ("Q", "Z", "Z2", "Z3", "F2", "F3")
PRIME = {"Z2": 2, "Z3": 3, "F2": 2, "F3": 3}

# ----------------------------------------------------------------------------
# subgroups-lattice
# ----------------------------------------------------------------------------


def _cycle(n):
    return [tuple(range(1, n + 1))]


# name -> (degree, generators as lists of 1-based cycles, order, classes, subgroups).
# Class and subgroup counts: OEIS A000638 / A005432 for S4, tau(n) for C_n,
# and the standard lattices of A4, A5, D6 (order 12) and AGL(1,5).  S5
# (19 classes, 156 subgroups) is left out: one classification takes 21-31 s
# on the reference machine, the whole run, so the figures would rest on a
# single sample.
GROUPS = {
    "C12": (12, [_cycle(12)], 12, 6, 6),
    "A4": (4, [[(1, 2, 3)], [(2, 3, 4)]], 12, 5, 10),
    "D6": (6, [_cycle(6), [(2, 6), (3, 5)]], 12, 10, 16),
    "AGL(1,5)": (5, [_cycle(5), [(2, 3, 5, 4)]], 20, 6, 14),
    "C30": (30, [_cycle(30)], 30, 8, 8),
    "S4": (4, [[(1, 2)], _cycle(4)], 24, 11, 30),
    "S3xS3": (None, None, 36, 22, 60),
    "A5": (5, [[(1, 2, 3)], _cycle(5)], 60, 9, 59),
}


def subgroup_inputs(seed):
    """[(name, spec)]: cycle notation with the points relabeled by the seed."""
    rng = random.Random("subgroups-lattice/%d" % seed)
    out = []
    for name, (degree, gens, _, _, _) in GROUPS.items():
        if degree is None:
            out.append((name, name))
            continue
        points = list(range(1, degree + 1))
        rng.shuffle(points)
        relabel = dict(zip(range(1, degree + 1), points))
        spec = "; ".join(
            "".join("(%s)" % ",".join(str(relabel[x]) for x in cyc) for cyc in gen)
            for gen in gens
        )
        out.append((name, spec))
    return out


def check_subgroups(name, text):
    """None if `subgroups <G> --json` output is right for G, else the reason."""
    _, _, order, classes, total = GROUPS[name]
    try:
        data = json.loads(text)
        got = (data["group_order"], data["class_count"], sum(c["class_size"] for c in data["classes"]))
        labels = [c["label"] for c in data["classes"]]
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output: %s" % exc
    if got != (order, classes, total):
        return "order/classes/subgroups %r, expected %r" % (got, (order, classes, total))
    if name == "S3xS3" and sorted(labels) != sorted(BASIS_LABELS):
        return "basis labels not assigned bijectively: %r" % labels
    return None


# ----------------------------------------------------------------------------
# mult-stream
# ----------------------------------------------------------------------------

POOL_SIZE = 1200
REJECT_EVERY = 8  # one op in 8 of each ring other than Q gets an out-of-ring operand


def load_peirce_vectors(root):
    """{peirce label: {basis label: Fraction}} read straight from the fixture."""
    path = Path(root) / "src" / "bisetforge" / "fixtures" / "peirce.json"
    with open(path, encoding="utf-8") as fh:
        basis = json.load(fh)["basis22"]
    return {
        label: {k: Fraction(v) for k, v in basis["vectors"][label].items()}
        for label in basis["order"]
    }


def verdict(ring, coeffs):
    """'ok', 'reject' or None (a fraction in F_p, whose verdict may change)."""
    if ring == "Q":
        return "ok"
    dens = [Fraction(c).denominator for c in coeffs]
    if ring == "Z":
        return "ok" if all(d == 1 for d in dens) else "reject"
    p = PRIME[ring]
    if any(d % p == 0 for d in dens):
        return "reject"
    if ring.startswith("F") and any(d != 1 for d in dens):
        return None
    return "ok"


def _coefficient(rng, ring, bad):
    n = rng.choice([k for k in range(-9, 10) if k])
    if ring == "Q":
        return Fraction(n, rng.choice((1, 2, 3, 4, 6, 12)))
    if ring == "Z":
        if bad:
            d = rng.choice((2, 3, 4, 6))
            return Fraction(rng.choice([k for k in range(-9, 10) if math.gcd(k, d) == 1]), d)
        return Fraction(n)
    p = PRIME[ring]
    if bad:
        d = p * rng.choice((1, 2, 3))
        return Fraction(rng.choice([k for k in range(-9, 10) if k % p]), d)
    if ring.startswith("F"):
        return Fraction(n)
    return Fraction(n, rng.choice([d for d in (1, 2, 3, 5, 7) if d % p]))


def _format(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _terms(rng, ring, count, bad):
    """(text, {basis label: Fraction}) of a list of `count` distinct labels."""
    labels = rng.sample(BASIS_LABELS, count)
    bad_at = rng.randrange(count) if bad else -1
    terms = {lab: _coefficient(rng, ring, i == bad_at) for i, lab in enumerate(labels)}
    return ",".join("%s:%s" % (lab, _format(c)) for lab, c in terms.items()), terms


def mult_inputs(seed, peirce):
    """POOL_SIZE ops (ring, a, b, a_terms, b_terms, expect_reject).

    The shape of the pool is the same for every seed, so that its cost is:
    op i is in ring RINGS[i % 6]; for its index j within the ring, operand
    a is a Peirce label when j % 4 == 0 and b when j % 4 == 2, else a list
    of 1 + (j + 3 * side) % 6 terms; j % REJECT_EVERY == REJECT_EVERY - 1
    puts one operand outside the ring (not in Q).  The seed draws the labels,
    the coefficients and the rotation of the Peirce labels.
    """
    rng = random.Random("mult-stream/%d" % seed)
    eligible = {
        (ring, want): [lab for lab, vec in peirce.items() if verdict(ring, vec.values()) == want]
        for ring in RINGS
        for want in ("ok", "reject")
    }
    turn = {key: rng.randrange(1000) for key in eligible}
    ops = []
    for i in range(POOL_SIZE):
        ring, j = RINGS[i % len(RINGS)], i // len(RINGS)
        reject = ring != "Q" and j % REJECT_EVERY == REJECT_EVERY - 1
        sides = []
        for side in (0, 1):
            bad = reject and side == (j // REJECT_EVERY) % 2
            use_peirce = (j % 4 == 2 * side) or (bad and (j // REJECT_EVERY) % 4 < 2)
            labels = eligible[ring, "reject" if bad else "ok"]
            if use_peirce and labels:
                key = (ring, "reject" if bad else "ok")
                turn[key] += 1
                label = labels[turn[key] % len(labels)]
                sides.append((label, dict(peirce[label])))
            else:
                sides.append(_terms(rng, ring, 1 + (j + 3 * side) % 6, bad))
        (a, a_terms), (b, b_terms) = sides
        ops.append((ring, a, b, a_terms, b_terms, reject))
    return ops


def expected_product(table, ring, a_terms, b_terms):
    """{label: Fraction} of a*b by this module's own loop over the table."""
    index = {lab: i for i, lab in enumerate(BASIS_LABELS)}
    out = [Fraction(0)] * len(BASIS_LABELS)
    for la, x in a_terms.items():
        row = table[index[la]]
        for lb, y in b_terms.items():
            cell = row[index[lb]]
            for k, c in enumerate(cell):
                if c:
                    out[k] += x * y * c
    if ring in ("F2", "F3"):
        out = [Fraction(c.numerator % PRIME[ring]) for c in out]
    return {BASIS_LABELS[k]: c for k, c in enumerate(out) if c}


def parse_product(text):
    """{label: Fraction} of a 'label:coeff,...' string; ValueError if malformed."""
    if text == "0":
        return {}
    out = {}
    depth, start = 0, 0
    chunks = []
    for pos, ch in enumerate(text):
        depth += ch == "{"
        depth -= ch == "}"
        if ch == "," and depth == 0:
            chunks.append(text[start:pos])
            start = pos + 1
    chunks.append(text[start:])
    for chunk in chunks:
        label, value = chunk.rsplit(":", 1)
        if label not in BASIS_LABELS or label in out:
            raise ValueError("bad label %r" % label)
        out[label] = Fraction(value)
        if out[label] == 0:
            raise ValueError("zero term %r" % chunk)
    return out


def check_product(table, op, outcome):
    """None if the worker's outcome for op is right, else the reason."""
    ring, a, b, a_terms, b_terms, reject = op
    if reject:
        return None if outcome == "ValueError" else "expected ValueError, got %r" % outcome
    if outcome in ("ValueError", None) or outcome.startswith("error:"):
        return "unexpected %s" % outcome
    try:
        got = parse_product(outcome)
    except ValueError as exc:
        return "unreadable product %r: %s" % (outcome, exc)
    want = expected_product(table, ring, a_terms, b_terms)
    return None if got == want else "%s * %s in %s: got %s" % (a, b, ring, outcome)


# ----------------------------------------------------------------------------
# verify-full
# ----------------------------------------------------------------------------


def check_verify(root, returncode, report, out_dir):
    """None if a verify run passed, printed the golden report and re-emitted
    a tree byte-identical to the shipped fixtures, else the reason."""
    if returncode != 0:
        return "exit code %d" % returncode
    if report != GOLDEN_REPORT.read_bytes():
        return "report differs from %s" % GOLDEN_REPORT.name
    shipped = Path(root) / "src" / "bisetforge" / "fixtures"
    want = sorted(p.relative_to(shipped) for p in shipped.rglob("*") if p.is_file())
    got = sorted(p.relative_to(out_dir) for p in Path(out_dir).rglob("*") if p.is_file())
    if got != want:
        return "emitted files %s differ from shipped %s" % (got, want)
    for rel in want:
        if (shipped / rel).read_bytes() != (Path(out_dir) / rel).read_bytes():
            return "emitted %s differs from the shipped fixture" % rel
    return None
