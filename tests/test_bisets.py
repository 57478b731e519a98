import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisetforge import bisets as bisets_module
from bisetforge.bisets import (
    BASIS_LABELS,
    IDENTITY_INDEX,
    PAIRS,
    S3,
    S3_A,
    S3_B,
    S3_ID,
    SECTIONS,
    SUBGROUP_GENERATORS,
    BurnsideElement,
    basis_bisets,
    biset_sizes,
    classify_subgroup,
    embed_pair,
    format_element,
    mackey_table,
    oracle_table,
    parse_element,
    structure_cells,
    structure_table,
    subgroup_reps,
    transitive_biset,
)
from bisetforge.linalg import multiply_cells
from bisetforge.perms import PermGroup
from bisetforge.rings import RINGS, normalize_ints
from reference import element, multiply_rows, outcome, rows_of


def test_basis_has_22_classes():
    assert len(BASIS_LABELS) == 22
    assert len(subgroup_reps()) == 22
    assert BASIS_LABELS[IDENTITY_INDEX] == "H^D_5"


def test_labeled_subgroups_are_closed_once_and_each_caller_gets_its_own_list(monkeypatch):
    first = bisets_module.labeled_subgroups()
    first[0] = first[1]
    first.append(None)
    built = []
    PermGroup = bisets_module.PermGroup
    monkeypatch.setattr(bisets_module, "PermGroup", lambda *a: built.append(a) or PermGroup(*a))
    second = bisets_module.labeled_subgroups()
    assert built == []
    assert second is not first and len(second) == 22
    assert [ref.order for ref in second] == [36 // size for size in biset_sizes()]


def test_sizes():
    sizes = biset_sizes()
    assert sum(sizes) == 194
    assert sizes[BASIS_LABELS.index("H_{0,0}")] == 36
    assert sizes[BASIS_LABELS.index("H_{5,5}")] == 1
    assert sizes[IDENTITY_INDEX] == 6


def test_dual_route_tables_agree():
    assert oracle_table() == mackey_table()


def test_identity_class():
    c = structure_table()
    for j in range(22):
        unit = [int(k == j) for k in range(22)]
        assert list(c[IDENTITY_INDEX][j]) == unit
        assert list(c[j][IDENTITY_INDEX]) == unit


def test_frozen_products():
    # orbit counts checked by hand through the fixed-point formula
    c = structure_table()
    i0 = BASIS_LABELS.index("H_{0,0}")
    assert list(c[i0][i0]) == [6 * int(k == i0) for k in range(22)]
    itop = BASIS_LABELS.index("H_{5,5}")
    assert list(c[itop][itop]) == [int(k == itop) for k in range(22)]
    i10 = BASIS_LABELS.index("H_{1,0}")
    i01 = BASIS_LABELS.index("H_{0,1}")
    i11 = BASIS_LABELS.index("H_{1,1}")
    assert list(c[i10][i01]) == [6 * int(k == i11) for k in range(22)]


small_coeff = st.integers(min_value=-4, max_value=4)
sparse_elem = st.lists(
    st.tuples(st.integers(0, 21), small_coeff), min_size=1, max_size=3
).map(
    lambda terms: element(
        "Q",
        [
            sum(v for j, v in terms if j == k)
            for k in range(22)
        ],
    )
)


@given(sparse_elem, sparse_elem, sparse_elem)
@settings(max_examples=50)
def test_ring_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(sparse_elem, sparse_elem, sparse_elem)
@settings(max_examples=50)
def test_ring_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_noncommutative():
    c = structure_table()
    assert any(
        list(c[i][j]) != list(c[j][i]) for i in range(22) for j in range(22)
    )


def test_parse_format_round_trip():
    e = parse_element("H_{0,0}:-1/2,H_{1,0}:1,H^D_5:3")
    assert parse_element(format_element(e)) == e
    assert parse_element("0").is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("H_{0,0}")
    with pytest.raises(ValueError):
        parse_element("nope:1")


def test_ring_coefficient_validation():
    with pytest.raises(ValueError):
        element("Z", [Fraction(1, 2)] + [0] * 21)
    with pytest.raises(ValueError):
        element("Z2", [Fraction(1, 2)] + [0] * 21)
    ok = element("Z2", [Fraction(1, 3)] + [0] * 21)
    assert ok.coeffs[0] == Fraction(1, 3)
    red = element("F3", [5] + [0] * 21)
    assert red.coeffs[0] == 2


def test_multiply_cells_matches_table():
    c = structure_table()
    xs = [0] * 22
    ys = [0] * 22
    xs[2] = 1
    ys[5] = 1
    assert list(multiply_cells(structure_cells(), xs, ys)) == list(c[2][5])


def test_structure_cells_are_the_sparse_table():
    c = structure_table()
    cells = structure_cells()
    dense = [[[0] * 22 for _ in range(22)] for _ in range(22)]
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for k, x in cell:
                assert x != 0 and dense[i][j][k] == 0
                dense[i][j][k] = x
    assert [[tuple(cell) for cell in row] for row in dense] == [list(row) for row in c]
    assert sum(len(cell) for row in cells for cell in row) == 504


def test_structure_cells_regroup_the_row_form_by_cell():
    c = structure_table()
    cells = structure_cells()
    rows = tuple(
        tuple((j, k, x) for j, cell in enumerate(row) for k, x in enumerate(cell) if x) for row in c
    )
    assert rows_of(cells) == rows
    for i in range(22):
        for j in range(22):
            assert cells[i][j] == tuple((k, x) for k, x in enumerate(c[i][j]) if x)


def _dense_product(xs, ys):
    """Reference: the dense table, every k of every pair of nonzero inputs."""
    c = structure_table()
    out = [Fraction(0)] * 22
    for i in range(22):
        for j in range(22):
            if xs[i] and ys[j]:
                for k in range(22):
                    out[k] += Fraction(xs[i]) * Fraction(ys[j]) * c[i][j][k]
    return out


# denominators that each ring admits; F2/F3 residues are reduced on entry
_RING_DENOMS = {
    "Q": (1, 2, 3, 4, 6, 9),
    "Z": (1,),
    "Z2": (1, 3, 5, 9),
    "Z3": (1, 2, 4, 5),
    "F2": (1,),
    "F3": (1,),
}


def _coeff_vectors(denoms):
    coeff = st.builds(Fraction, st.integers(-7, 7), st.sampled_from(denoms))
    sparse = st.lists(st.tuples(st.integers(0, 21), coeff), max_size=6).map(
        lambda terms: [sum((v for j, v in terms if j == k), Fraction(0)) for k in range(22)]
    )
    return st.one_of(st.just([0] * 22), sparse)


@given(_coeff_vectors(_RING_DENOMS["Q"]), _coeff_vectors(_RING_DENOMS["Q"]))
@settings(max_examples=60, deadline=None)
def test_multiply_cells_matches_dense_reference(xs, ys):
    cells = structure_cells()
    assert multiply_cells(cells, xs, ys) == _dense_product(xs, ys)
    ints = [int(x * 36) for x in xs]
    assert multiply_cells(cells, ints, ys) == _dense_product(ints, ys)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_element_product_matches_dense_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = element(ring, data.draw(_coeff_vectors(_RING_DENOMS[ring])))
    b = element(ring, data.draw(_coeff_vectors(_RING_DENOMS[ring])))
    assert a * b == element(ring, _dense_product(a.coeffs, b.coeffs))
    assert all(type(x) is Fraction for x in (a * b).coeffs)


# The cell kernel of linalg.multiply_cells() against the row walk of
# reference.py on the row form of the same table: zero, sparse and dense
# numerators, over a denominator each ring admits.
_num = st.integers(-30, 30)
_numerators = st.one_of(
    st.just([0] * 22),
    st.lists(st.tuples(st.integers(0, 21), _num), max_size=4).map(
        lambda terms: [sum(v for j, v in terms if j == k) for k in range(22)]
    ),
    st.lists(_num, min_size=22, max_size=22),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_products_match_multiply_rows_in_every_ring(data):
    ring = data.draw(st.sampled_from(RINGS))
    dens = st.sampled_from(_RING_DENOMS[ring])
    xs, ys = data.draw(_numerators), data.draw(_numerators)
    a = BurnsideElement.from_ints(ring, xs, data.draw(dens))
    b = BurnsideElement.from_ints(ring, ys, data.draw(dens))
    cells = structure_cells()
    rows = rows_of(cells)
    assert multiply_cells(cells, xs, ys) == multiply_rows(rows, xs, ys)
    assert multiply_cells(cells, a.nums, b.nums) == multiply_rows(rows, a.nums, b.nums)
    want = normalize_ints(ring, tuple(multiply_rows(rows, a.nums, b.nums)), a.den * b.den)
    assert ((a * b).nums, (a * b).den) == want
    fracs = [Fraction(x, 7) for x in xs]
    assert multiply_cells(cells, fracs, ys) == multiply_rows(rows, fracs, ys)


# The integer representation: nums over one den, checked once per element,
# against the per-coefficient rule and the Fraction-based text it replaced.
_PRIMES = {"Q": None, "Z": None, "Z2": 2, "Z3": 3, "F2": 2, "F3": 3}


def _ref_normalize(ring, x):
    """One coefficient by the ring's definition, with the refusal text."""
    p = _PRIMES[ring]
    if ring == "Z" and x.denominator != 1:
        raise ValueError("coefficient %s is not an integer" % x)
    if p is not None and x.denominator % p == 0:
        raise ValueError("coefficient %s has denominator divisible by %d" % (x, p))
    if ring in ("F2", "F3"):
        return Fraction(x.numerator * pow(x.denominator, -1, p) % p)
    return x


def _ref_format(elem):
    parts = [
        "%s:%s" % (lab, c.numerator if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator))
        for lab, c in zip(BASIS_LABELS, elem.coeffs)
        if c
    ]
    return ",".join(parts) or "0"


_sparse_nums = st.lists(st.tuples(st.integers(0, 21), st.integers(-40, 40)), max_size=6).map(
    lambda terms: [sum(v for j, v in terms if j == k) for k in range(22)]
)
_dens = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 18, 35, 36])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), _sparse_nums, _dens)
def test_from_ints_matches_the_per_coefficient_rule(ring, nums, den):
    fracs = [Fraction(n, den) for n in nums]
    ref, ref_err = outcome(lambda: [_ref_normalize(ring, x) for x in fracs])
    got, err = outcome(lambda: BurnsideElement.from_ints(ring, nums, den))
    old, old_err = outcome(lambda: element(ring, fracs))
    assert err == old_err == ref_err
    if ref_err is None:
        assert got == old and hash(got) == hash(old)
        assert list(got.coeffs) == ref
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
        if ring in ("Z", "F2", "F3"):
            assert got.den == 1
        if ring in ("F2", "F3"):
            assert all(0 <= a < _PRIMES[ring] for a in got.nums)
        assert format_element(got) == _ref_format(got)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), _sparse_nums, _dens, st.integers(1, 12))
def test_equal_elements_hash_equal(ring, nums, den, k):
    a, err = outcome(lambda: BurnsideElement.from_ints(ring, nums, den))
    if err is None:
        b = BurnsideElement.from_ints(ring, [k * n for n in nums], k * den)
        assert a == b and hash(a) == hash(b)
        assert a + b - b == a and hash(a + b - b) == hash(a)
        assert a.scale(k) == BurnsideElement.from_ints(ring, [k * n for n in nums], den)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(RINGS),
    st.lists(
        st.tuples(st.sampled_from(BASIS_LABELS[:4] + ("H_8",)), st.integers(-9, 9), _dens),
        min_size=1,
        max_size=6,
    ),
)
def test_parse_element_checks_each_term_and_sums_repeats(ring, terms):
    text = ",".join("%s:%d/%d" % t for t in terms)

    def reference():
        total = [Fraction(0)] * 22
        for label, n, d in terms:
            total[BASIS_LABELS.index(label)] += _ref_normalize(ring, Fraction(n, d))
        return element(ring, total)

    want, want_err = outcome(reference)
    got, err = outcome(lambda: parse_element(text, ring))
    assert (got, err) == (want, want_err)
    if err is None:
        assert format_element(got) == _ref_format(want)
        assert parse_element(format_element(got), ring) == got


def test_repeated_labels_in_f3():
    with pytest.raises(ValueError, match="^coefficient 1/3 has denominator divisible by 3$"):
        parse_element("H_8:1/3,H_8:2/3", "F3")
    assert format_element(parse_element("H_8:2,H_8:2", "F3")) == "H_8:1"
    assert format_element(parse_element("H_8:1/2,H_8:1/2", "F3")) == "H_8:1"
    assert format_element(parse_element("H_8:1/2,H_8:1/2", "Z3")) == "H_8:1"
    assert format_element(parse_element("H_8:1/6,H_{1,0}:-3/4,H_8:1/6", "Q")) == "H_{1,0}:-3/4,H_8:1/3"


# The parser that walked the operand one character at a time, found labels by
# a linear search and summed the terms as Fractions: the reference for the
# integer parser, input by input, in every ring.
def _ref_basis_index(label):
    label = label.strip().replace("Δ", "D")
    try:
        return BASIS_LABELS.index(label)
    except ValueError:
        raise ValueError("unknown basis label %r" % (label,)) from None


def _ref_split_terms(text):
    chunks, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    chunks.append("".join(cur))
    return chunks


def _ref_parse_fraction(text):
    """Fraction's reading of text as on Python 3.11, on every version: spaces
    inside are refused (3.12 reads "1 / 2"), and underscores between digits
    are dropped before Fraction sees them (3.10 refuses them all)."""
    text = str(text).strip()
    if "e" in text.lower():
        raise ValueError("exponent notation is not accepted: %r" % (text,))

    def between_digits(i):
        return 0 < i < len(text) - 1 and text[i - 1].isdecimal() and text[i + 1].isdecimal()

    if any(ch.isspace() or ch == "_" and not between_digits(i) for i, ch in enumerate(text)):
        raise ValueError("Invalid literal for Fraction: %r" % (text,))
    bare = text.replace("_", "")
    try:
        return Fraction(bare)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None
    except ValueError as exc:
        raise ValueError(str(exc).replace(repr(bare), repr(text))) from None


def _ref_parse_element(text, ring):
    terms = {}
    text = text.strip()
    if text in ("0", ""):
        return BurnsideElement.zero(ring)
    for chunk in _ref_split_terms(text):
        if not chunk.strip():
            continue
        if ":" not in chunk:
            raise ValueError("bad term %r, expected label:coefficient" % (chunk,))
        label, val = chunk.rsplit(":", 1)
        i = _ref_basis_index(label)
        run = 0
        for ch in val:  # a run of more digits than the bound is never converted
            run = run + 1 if ch.isdecimal() else 0
            if run > 2000:
                raise ValueError("coefficient of %s has more than 2000 digits" % BASIS_LABELS[i])
        x = _ref_normalize(ring, _ref_parse_fraction(val))
        terms[i] = terms[i] + x if i in terms else x
    vec = [Fraction(0)] * len(BASIS_LABELS)
    for i, x in terms.items():
        vec[i] = x
    out = element(ring, vec)
    if out.den >= 10**2000:
        raise ValueError("common denominator of more than 2000 digits")
    for label, a in zip(BASIS_LABELS, out.nums):
        if abs(a) >= 10**2000:
            raise ValueError("coefficient of %s has more than 2000 digits" % label)
    return out


_LABEL_TEXTS = st.sampled_from(
    BASIS_LABELS[:4] + ("H_8", "H^Δ_1", "H^Δ_5", "H_9", "H_{1,0", "H_1,0}", "{", "}{", "}", "")
)
_ODD_COEFFS = (
    "+3", "007", "-0", "0.5", "-1.25", ".5", "5.", "1_000", "1__0", "2/1_0", "1/0_0", "1e3",
    "2E-1", "3/0", "0/0", "1/-2", "-1/+2", "1/", "/2", "-", "", "abc", "inf", "½", "٣/٤",
    "1 /2", "1" * 4400, "1" * 4400 + "/3", "2/" + "1" * 4400,
)
_COEFF_TEXTS = st.one_of(
    st.integers(-30, 30).map(str),
    st.tuples(st.integers(-30, 30), st.integers(0, 36)).map(lambda t: "%d/%d" % t),
    st.sampled_from(_ODD_COEFFS),
)
_SPACES = st.sampled_from(["", " ", "\t"])
_TERM_TEXTS = st.one_of(
    st.tuples(_SPACES, _LABEL_TEXTS, _SPACES, _SPACES, _COEFF_TEXTS, _SPACES).map(
        lambda t: "%s%s%s:%s%s%s" % t
    ),
    _LABEL_TEXTS,  # no ':'
    _SPACES,  # an empty chunk
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_TERM_TEXTS, max_size=6).map(",".join))
@example("H_{0,0}:1/2, H^Δ_1 :-3, H_{0,0}: 1/4")
@example("H_{1,0:1,H_8:1")
@example("}H_8:1,{H_8:2")
@example("H_8:1,,H_8")
@example(" 0 ")
def test_parse_element_matches_the_character_walk_parser(text):
    for ring in RINGS:
        assert outcome(lambda: parse_element(text, ring)) == outcome(
            lambda: _ref_parse_element(text, ring)
        ), (text, ring)


@pytest.mark.parametrize(
    "coeff",
    _ODD_COEFFS + ("12/18", "-4", "3/1"),
    ids=lambda c: c if len(c) < 20 else "%s...%s" % (c[:3], c[-2:]),
)
def test_parse_element_matches_the_reference_on_each_coefficient_shape(coeff):
    text = "H_8:1,H_{1,0}:%s" % coeff
    for ring in RINGS:
        assert outcome(lambda: parse_element(text, ring)) == outcome(
            lambda: _ref_parse_element(text, ring)
        ), (text, ring)


@pytest.mark.parametrize(
    "text, message",
    [
        ("H_9:1", "unknown basis label 'H_9'"),
        ("H_8:1", "unknown ring 'Z4'"),
        ("H_8:1/2", "unknown ring 'Z4'"),
        ("H_8:1,H_9:1", "unknown ring 'Z4'"),
        ("H_8", "bad term 'H_8', expected label:coefficient"),
    ],
)
def test_a_non_ring_name_keeps_the_term_by_term_refusal_order(text, message):
    assert outcome(lambda: parse_element(text, "Z4")) == (None, message)


def _no_split(text):
    raise AssertionError("the term-by-term reader ran on %r" % (text,))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), _sparse_nums, _dens)
@example("Q", list(range(-11, 0)) + list(range(1, 12)), 35)
@example("F3", list(range(1, 23)), 1)
def test_what_format_element_writes_reads_back_in_one_scan(ring, nums, den):
    elem, err = outcome(lambda: BurnsideElement.from_ints(ring, nums, den))
    if err is None:
        text = format_element(elem)
        assert parse_element(text, ring) == elem
        with pytest.MonkeyPatch.context() as m:
            m.setattr(bisets_module, "_split_terms", _no_split)
            assert parse_element(text, ring) == elem


@pytest.mark.parametrize(
    "text",
    ["H" * 20000, "H_{" * 7000, "H_8:1," * 3000 + "H_9:1"],
    ids=["H", "H_{", "H_8:1,"],
)
def test_a_long_operand_is_scanned_in_linear_time(text):
    # a label pattern that could run on to the end of the text from every
    # position took about 2.5 s on 4,400 'H's and grows with the square
    start = time.process_time()
    outcome(lambda: parse_element(text, "Q"))
    assert time.process_time() - start < 0.5


def test_from_ints_refuses_a_bad_denominator_or_length():
    with pytest.raises(ValueError, match="denominator must be positive"):
        BurnsideElement.from_ints("Q", [0] * 22, 0)
    with pytest.raises(ValueError, match="expected 22 coefficients"):
        BurnsideElement.from_ints("Q", [1] * 21)
    with pytest.raises(ValueError, match="unknown ring"):
        BurnsideElement.from_ints("F5", [0] * 22)


# References: both structure-table routes and the conjugation-search classifier
# on Perm pairs hashed into dicts and frozensets; bisets runs them on pair
# indices and masks.
_PAIR_ID = (S3_ID, S3_ID)


def _ref_pair_mul(p, q):
    return (p[0] * q[0], p[1] * q[1])


def _ref_close(gens):
    elems = {_PAIR_ID}
    frontier = [_PAIR_ID]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _ref_pair_mul(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


@lru_cache(maxsize=1)
def _ref_reps():
    return tuple(_ref_close(gens) for gens in SUBGROUP_GENERATORS)


def _ref_conj(g, U):
    return frozenset(
        (g[0] * u[0] * g[0].inverse(), g[1] * u[1] * g[1].inverse()) for u in U
    )


def _ref_classify(stab):
    for k, rep in enumerate(_ref_reps()):
        if len(rep) == len(stab) and any(_ref_conj(g, stab) == rep for g in PAIRS):
            return k
    raise ValueError("stabilizer matches no representative class")


def _ref_transitive(U):
    """(size, action) with action[pair] the list of images of the points."""
    index_of = {}
    reps = []
    for x in PAIRS:
        if x in index_of:
            continue
        for u in U:
            index_of[_ref_pair_mul(x, u)] = len(reps)
        reps.append(x)
    return len(reps), {g: [index_of[_ref_pair_mul(g, r)] for r in reps] for g in PAIRS}


def _ref_tensor(M, N):
    (nm, act_m), (nn, act_n) = M, N
    orbit_of = [-1] * (nm * nn)
    orbit_reps = []
    mid = [(act_m[(S3_ID, g)], act_n[(g, S3_ID)]) for g in (S3_A, S3_B)]
    for start in range(nm * nn):
        if orbit_of[start] >= 0:
            continue
        orbit_of[start] = len(orbit_reps)
        orbit_reps.append(start)
        stack = [start]
        while stack:
            i, j = divmod(stack.pop(), nn)
            for ma, na in mid:
                q = ma[i] * nn + na[j]
                if orbit_of[q] < 0:
                    orbit_of[q] = orbit_of[start]
                    stack.append(q)
    action = {}
    for h, g in PAIRS:
        am, an = act_m[(h, S3_ID)], act_n[(S3_ID, g)]
        action[(h, g)] = [orbit_of[am[r // nn] * nn + an[r % nn]] for r in orbit_reps]
    return len(orbit_reps), action


def _ref_decompose(X):
    size, action = X
    counts = [0] * 22
    seen = [False] * size
    gens = [action[g] for g in ((S3_A, S3_ID), (S3_B, S3_ID), (S3_ID, S3_A), (S3_ID, S3_B))]
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            pt = stack.pop()
            for row in gens:
                if not seen[row[pt]]:
                    seen[row[pt]] = True
                    stack.append(row[pt])
        counts[_ref_classify(frozenset(g for g in PAIRS if action[g][start] == start))] += 1
    return tuple(counts)


# The orbit route as it ran before it moved to points only: materialise
# M (x)_G N as an action table on all 36 pairs, then decompose it.  Kept as
# the reference that sees the same perturbed input as oracle_table, which it
# checks against the perm-pair reference on true actions.  Action
# tables are keyed by pairs of positions in S3.elements.
_E, _IA, _IB = (S3.elements.index(g) for g in (S3_ID, S3_A, S3_B))
_POSITIONS = range(len(S3.elements))
_PAIR_INDEX = {(S3.elements.index(a), S3.elements.index(b)): x for x, (a, b) in enumerate(PAIRS)}


def _positions(pair):
    return tuple(S3.elements.index(g) for g in pair)


def tensor(M, N):
    nm, nn = len(M[_E, _E]), len(N[_E, _E])
    orbit_of = [-1] * (nm * nn)
    orbit_reps = []
    mid = [(M[_E, g], N[g, _E]) for g in (_IA, _IB)]
    for start in range(nm * nn):
        if orbit_of[start] >= 0:
            continue
        oid = len(orbit_reps)
        orbit_reps.append(divmod(start, nn))
        orbit_of[start] = oid
        stack = [start]
        while stack:
            i, j = divmod(stack.pop(), nn)
            for ma, na in mid:
                q = ma[i] * nn + na[j]
                if orbit_of[q] < 0:
                    orbit_of[q] = oid
                    stack.append(q)
    js = [j for _, j in orbit_reps]
    action = {}
    for h in _POSITIONS:
        base = [M[h, _E][i] * nn for i, _ in orbit_reps]
        for g in _POSITIONS:
            an = N[_E, g]
            action[h, g] = tuple([orbit_of[b + an[j]] for b, j in zip(base, js)])
    return action


def decompose(X):
    # a transitive piece is the set of images of one point under all 36 pairs,
    # as in oracle_table; on an action that is the closure under generators
    size = len(X[_E, _E])
    counts = [0] * 22
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        for row in X.values():
            seen[row[start]] = True
        stab = sum(1 << _PAIR_INDEX[g] for g, row in X.items() if row[start] == start)
        counts[classify_subgroup(stab)] += 1
    return tuple(counts)


@lru_cache(maxsize=1)
def _ref_bisets():
    return tuple(_ref_transitive(U) for U in _ref_reps())


def _ref_star(U, W):
    return frozenset((a, c) for a, b in U for b2, c in W if b == b2)


def _ref_double_cosets(left, right):
    """Representatives of left\\S3/right, first-seen in sorted element order."""
    seen, reps = set(), []
    for g in S3.elements:
        if g not in seen:
            reps.append(g)
            seen.update(h * g * k for h in left for k in right)
    return reps


def test_double_cosets_cover_group():
    H = frozenset((S3_ID, S3_A))
    cosets = [frozenset(h * g * k for h in H for k in H) for g in _ref_double_cosets(H, H)]
    seen = set()
    for c in cosets:
        assert not (seen & c)
        seen |= c
    assert len(seen) == 6


def _ref_mackey():
    table = []
    for U in _ref_reps():
        row = []
        for V in _ref_reps():
            counts = [0] * 22
            p2U = frozenset(u2 for _, u2 in U)
            p1V = frozenset(v1 for v1, _ in V)
            for g in _ref_double_cosets(p2U, p1V):
                Vg = frozenset((g * v1 * g.inverse(), v2) for v1, v2 in V)
                counts[_ref_classify(_ref_star(U, Vg))] += 1
            row.append(tuple(counts))
        table.append(tuple(row))
    return table


def _mask(U):
    return sum(1 << PAIRS.index(x) for x in U)


def _assert_tables_equal(got, want):
    for i in range(22):
        for j in range(22):
            assert got[i][j] == want[i][j], (BASIS_LABELS[i], BASIS_LABELS[j])


def test_subgroup_reps_are_the_perm_closures():
    assert subgroup_reps() == _ref_reps()


def test_bisets_match_the_perm_pair_reference():
    for X, (size, action) in zip(basis_bisets(), _ref_bisets()):
        assert len(X[_E, _E]) == size
        assert X == {_positions(g): tuple(action[g]) for g in PAIRS}
    bisets, refs = basis_bisets(), _ref_bisets()
    for i, j in ((1, 2), (7, 14), (0, 21), (12, 19), (20, 4)):
        size, action = _ref_tensor(refs[i], refs[j])
        X = tensor(bisets[i], bisets[j])
        assert len(X[_E, _E]) == size
        assert X == {_positions(g): tuple(action[g]) for g in PAIRS}
        assert tuple(decompose(X)) == _ref_decompose((size, action))
    assert transitive_biset(_mask(_ref_reps()[5])) == bisets[5]


def test_orbit_route_reads_the_points(monkeypatch):
    # Swap two images of the regular biset under (a, 1): no longer an action,
    # so a route that reads the points cannot reproduce the double cosets.
    # (a, 1) acts on the outer side of a left factor only, so in the row of
    # the broken biset the old Biset-building route reads the same points.
    # Point x of the regular biset is the coset of pair x; the points (1, 1)
    # and (a, 1) each come first in their middle orbits, whose images under
    # the outer pairs the route reads.
    bisets = basis_bisets()
    i0 = BASIS_LABELS.index("H_{0,0}")
    broken = dict(bisets[i0])
    row = list(broken[_IA, _E])
    p, q = _PAIR_INDEX[_E, _E], _PAIR_INDEX[_IA, _E]
    row[p], row[q] = row[q], row[p]
    broken[_IA, _E] = tuple(row)
    perturbed = bisets[:i0] + (broken,) + bisets[i0 + 1:]
    monkeypatch.setattr(bisets_module, "basis_bisets", lambda *sections: perturbed)
    table = bisets_module.oracle_table.__wrapped__()
    others = [j for j in range(22) if j != i0]
    assert [table[i0][j] for j in others] == [decompose(tensor(broken, perturbed[j])) for j in others]
    assert sum(table[i0][j] != mackey_table()[i0][j] for j in others) > 10


def test_oracle_table_matches_the_perm_pair_reference():
    refs = _ref_bisets()
    _assert_tables_equal(
        oracle_table(), [[_ref_decompose(_ref_tensor(a, b)) for b in refs] for a in refs]
    )


def test_mackey_table_matches_the_perm_reference():
    _assert_tables_equal(mackey_table(), _ref_mackey())


def test_classify_subgroup_agrees_on_all_60_subgroups():
    subgroups = {_ref_conj(g, U) for U in _ref_reps() for g in PAIRS}
    assert len(subgroups) == 60
    for U in subgroups:
        assert classify_subgroup(_mask(U)) == _ref_classify(U)


@pytest.mark.parametrize(
    "pairs",
    [
        (),
        ((S3_A, S3_ID),),
        ((S3_ID, S3_ID), (S3_A, S3_ID), (S3_B, S3_ID)),
        tuple(PAIRS[:7]),
    ],
)
def test_classify_subgroup_rejects_non_subgroups(pairs):
    with pytest.raises(ValueError, match="matches no representative class"):
        classify_subgroup(_mask(pairs))


@pytest.mark.parametrize("bad", [0.5, 2.0, Fraction(1, 2), Fraction(2, 1), "1", None])
@pytest.mark.parametrize("ring", RINGS)
def test_from_ints_refuses_a_non_integer_numerator_or_denominator(ring, bad):
    with pytest.raises(TypeError, match=r"^BurnsideElement\.from_ints takes integer"):
        BurnsideElement.from_ints(ring, [bad] + [0] * 21)
    with pytest.raises(TypeError, match=r"^BurnsideElement\.from_ints takes integer"):
        BurnsideElement.from_ints(ring, [1] + [0] * 21, bad)


@pytest.mark.parametrize("ring", RINGS)
def test_from_ints_stores_bools_as_ints(ring):
    x = BurnsideElement.from_ints(ring, [True, False] + [0] * 20, True)
    assert x == BurnsideElement.basis(0, ring) == parse_element("H_{0,0}:1", ring)
    assert [type(a) for a in x.nums] == [int] * 22 and type(x.den) is int
    assert format_element(x) == "H_{0,0}:1"


def test_calling_the_class_raises_and_names_from_ints():
    with pytest.raises(TypeError, match=r"^BurnsideElement is built by BurnsideElement\.from_ints"):
        BurnsideElement()
    with pytest.raises(TypeError, match=r"BurnsideElement\.from_ints"):
        BurnsideElement("Q", [0] * 22)
    # the classmethods still build through _new
    assert BurnsideElement.from_ints("Z", [1] + [0] * 21).nums == (1,) + (0,) * 21


# The bisets between the sections of S3: the ranks of B(G,H), G the row and
# H the column, both in the order 1, C2, C3, S3 of SECTIONS.
_RANKS = ((1, 2, 2, 4), (2, 5, 4, 10), (2, 4, 6, 9), (4, 10, 9, 22))
_SECTION_PAIRS = list(itertools.product(SECTIONS, repeat=2))


def test_the_hom_set_ranks_are_the_section_table():
    assert tuple(tuple(len(subgroup_reps(G, H)) for H in SECTIONS) for G in SECTIONS) == _RANKS
    assert sum(map(sum, _RANKS)) == 96


@pytest.mark.parametrize("G, H", _SECTION_PAIRS)
def test_each_rank_counts_the_perms_classes_of_the_embedded_product(G, H):
    # GxH at degree 6 through embed_pair; each representative of B(G,H)
    # matches its own perms class
    gens = [embed_pair(g, S3_ID) for g in SECTIONS[G]] + [embed_pair(S3_ID, h) for h in SECTIONS[H]]
    group = PermGroup(6, gens)
    reps = [PermGroup(6, [embed_pair(a, b) for a, b in U]) for U in subgroup_reps(G, H)]
    classes, assignment = bisets_module.match_classes(group, reps)
    assert len(classes) == len(reps) == _RANKS[list(SECTIONS).index(G)][list(SECTIONS).index(H)]
    assert sorted(assignment) == list(range(len(reps)))
    assert biset_sizes(G, H) == tuple(group.order // len(U) for U in subgroup_reps(G, H))


@pytest.mark.parametrize("sections", list(itertools.product(SECTIONS, repeat=3)))
def test_both_routes_agree_on_every_hom_set_table(sections):
    G, H, K = sections
    table = mackey_table(*sections)
    assert table == oracle_table(*sections) == structure_table(*sections)
    assert len(table) == len(subgroup_reps(G, H))
    assert {len(row) for row in table} == {len(subgroup_reps(H, K))}
    assert {len(cell) for row in table for cell in row} == {len(subgroup_reps(G, K))}


@pytest.mark.parametrize("H", SECTIONS)
def test_the_diagonal_biset_is_the_identity_of_each_hom_set(H):
    diagonal = sum(1 << PAIRS.index((h, h)) for h in PermGroup(3, SECTIONS[H]).elements)
    d = classify_subgroup(diagonal, H, H)
    if H == "S3":
        assert d == IDENTITY_INDEX
    for G in SECTIONS:
        n = len(subgroup_reps(G, H))
        assert [structure_table(G, H, H)[j][d] for j in range(n)] == [
            tuple(int(k == j) for k in range(n)) for j in range(n)
        ]
        n = len(subgroup_reps(H, G))
        assert list(structure_table(H, H, G)[d]) == [
            tuple(int(k == j) for k in range(n)) for j in range(n)
        ]


def test_composition_is_associative_across_the_sections():
    rng = random.Random(7)
    names = list(SECTIONS)
    for _ in range(400):
        G, H, K, L = (rng.choice(names) for _ in range(4))
        x, y, z = (rng.randrange(len(subgroup_reps(*s))) for s in ((G, H), (H, K), (K, L)))
        xy, yz = structure_table(G, H, K)[x][y], structure_table(H, K, L)[y][z]
        left = [0] * len(subgroup_reps(G, L))
        for k, c in enumerate(xy):
            for m, d in enumerate(structure_table(G, K, L)[k][z]):
                left[m] += c * d
        right = [0] * len(left)
        for k, c in enumerate(yz):
            for m, d in enumerate(structure_table(G, H, L)[x][k]):
                right[m] += c * d
        assert left == right, (G, H, K, L, x, y, z)


def test_both_spellings_of_the_ring_share_one_cache_entry():
    # f() and f("S3", ...) name the same hom-set, so the second finds the
    # first's entry: each cache misses once and holds one entry
    funcs = [
        (structure_table, 3), (mackey_table, 3), (oracle_table, 3),
        (basis_bisets, 2), (subgroup_reps, 2), (biset_sizes, 2),
    ]
    for f, _ in funcs:
        f.cache_clear()
    for f, n in funcs:
        assert f() is f(*["S3"] * n)
    assert [f.cache_info()[1:] for f, _ in funcs] == [(1, None, 1)] * len(funcs)


def test_a_route_mismatch_between_sections_names_the_cell_by_index(monkeypatch):
    table = [list(row) for row in mackey_table("S3", "1", "C2")]
    table[1][0] = (table[1][0][0] + 1,) + table[1][0][1:]
    monkeypatch.setattr(bisets_module, "mackey_table", lambda *sections: table)
    with pytest.raises(bisets_module.TableMismatch, match=r"^cell \(1, 0\): "):
        structure_table.__wrapped__("S3", "1", "C2")
