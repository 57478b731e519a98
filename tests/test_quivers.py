import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bisetforge import fixtures, quivers, rings
from bisetforge.blocks import COORD_NAMES, BlockElement
from bisetforge.orders import (
    CORNER_BASIS_2,
    CORNER_BASIS_3,
    CORNER_BASIS_Q,
    CORNER_IDEMPOTENTS_Q,
)
from bisetforge.quivers import (
    CornerAlgebra,
    Presentation,
    PresentationError,
    Quiver,
    _vanishes,
    element_image,
    element_from_terms,
    irreducible_paths,
    local_confluence_failures,
    make_rules,
    normal_form,
    same_element_sets,
    terms_in,
    verify_presentation,
)


def fixture_presentation(name):
    """The presentation of fixtures/presentations/<name>.json."""
    return Presentation.from_dict(fixtures.load_presentation(name), "presentations/%s.json" % name)


def loop_quiver():
    return Quiver(["p", "q"], [("a", "p", "q"), ("b", "q", "p")])


def test_quiver_rejects_bad_data():
    for vertices, bad in ((["p", "p"], "'p'"), (["p", 1], "1"), (["p", None], "None")):
        message = r"^vertices\[1\]: expected a new vertex name, got %s$" % bad
        with pytest.raises(ValueError, match=message):
            Quiver(vertices, [])
    with pytest.raises(ValueError):
        Quiver(["p"], [("a", "p", "missing")])
    with pytest.raises(ValueError):
        Quiver(["p"], [("a", "p", "p"), ("a", "p", "p")])
    q = loop_quiver()
    with pytest.raises(ValueError):
        q.path("p", ("b",))


def test_path_coefficients_must_lie_in_the_ring():
    q = loop_quiver()
    path = q.path("p", ("a",))
    for ring in ("Z", "Z2", "F2"):
        with pytest.raises(ValueError):
            terms_in(ring, {path: Fraction(1, 2)})
        with pytest.raises(ValueError, match=r"^terms\[0\]: coefficient 1/2"):
            element_from_terms(q, ring, [["1/2", "p", ["a"]]])
    for ring, half in (("Z3", Fraction(1, 2)), ("F3", 2)):
        assert terms_in(ring, {path: Fraction(1, 2)}) == {path: half}
        assert element_from_terms(q, ring, [["1/2", "p", ["a"]]]) == {path: half}
    assert terms_in("F3", {path: 3, q.path("q"): Fraction(1, 2)}) == {q.path("q"): 2}
    with pytest.raises(ValueError, match=r"terms\[1\]: coefficient 1/2 is not an integer"):
        element_from_terms(q, "Z", [["1", "p", ["a"]], ["1/2", "q", ["b"]]])


def test_a_path_longer_than_the_bound_is_refused_as_it_is_read():
    q = loop_quiver()
    at_bound = ["a", "b"] * (quivers.LENGTH_BOUND // 2)
    assert len(element_from_terms(q, "Z", [["1", "p", at_bound]])) == 1
    with pytest.raises(ValueError, match=r"^terms\[1\]: path of length 9 exceeds the bound 8$"):
        element_from_terms(q, "Z", [["1", "p", []], ["1", "p", at_bound + ["a"]]])


def test_a_float_path_coefficient_is_refused():
    q = loop_quiver()
    path = q.path("p", ("a",))
    with pytest.raises(TypeError, match="is a float"):
        terms_in("Q", {path: 0.1})
    with pytest.raises(ValueError, match=r"^terms\[0\]: coefficient 0.1 is not a string"):
        element_from_terms(q, "Q", [[0.1, "p", ["a"]]])
    assert terms_in("Q", {path: "1/10"}) == {path: Fraction(1, 10)}
    assert element_from_terms(q, "Q", [["1/10", "p", ["a"]]]) == {path: Fraction(1, 10)}


def test_make_rules_orients_on_the_leading_path():
    q = loop_quiver()
    # ab - e_p becomes the rule ab -> e_p
    rel = element_from_terms(q, "Z", [["1", "p", ["a", "b"]], ["-1", "p", []]])
    rules = make_rules(q, "Z", [rel])
    assert rules[0][0] == ("p", ("a", "b"))
    assert rules[0][1] == {("p", ()): 1}
    assert normal_form(q, "Z", {("p", ("a", "b", "a")): 1}, rules) == {("p", ("a",)): 1}


def test_make_rules_rejects_bad_relations():
    q = loop_quiver()
    with pytest.raises(PresentationError):
        make_rules(q, "Z", [{}])
    mixed = element_from_terms(q, "Z", [["1", "p", ["a"]], ["1", "q", ["b"]]])
    with pytest.raises(PresentationError):
        make_rules(q, "Z", [mixed])
    trivial = element_from_terms(q, "Z", [["1", "p", []]])
    with pytest.raises(PresentationError):
        make_rules(q, "Z", [trivial])
    # leading coefficient 2 is not a unit over Z
    doubled = element_from_terms(q, "Z", [["2", "p", ["a", "b"]], ["1", "p", []]])
    with pytest.raises(PresentationError):
        make_rules(q, "Z", [doubled])
    assert make_rules(q, "Q", [doubled])


def test_irreducible_paths_detects_unbounded_growth(monkeypatch):
    monkeypatch.setattr(quivers, "LENGTH_BOUND", 6)
    q = loop_quiver()
    with pytest.raises(PresentationError):
        irreducible_paths(q, [])


def test_more_relations_than_the_bound_are_refused_as_read(monkeypatch):
    data = fixtures.load_presentation("z2_corner")
    where = "presentations/z2_corner.json"
    monkeypatch.setattr(quivers, "RELATION_BOUND", 9)
    assert len(Presentation.from_dict(data, where).relations) == 9
    monkeypatch.setattr(quivers, "RELATION_BOUND", 8)
    with pytest.raises(ValueError, match=r"^%s:relations: 9 relations exceed the bound 8$" % where):
        Presentation.from_dict(data, where)


def test_more_terms_than_the_bound_are_refused_as_read(monkeypatch):
    data = fixtures.load_presentation("z2_corner")
    where = "presentations/z2_corner.json"
    monkeypatch.setattr(quivers, "TERM_BOUND", 3)
    assert max(map(len, Presentation.from_dict(data, where).relations)) == 3
    monkeypatch.setattr(quivers, "TERM_BOUND", 2)
    with pytest.raises(ValueError, match=r"^%s:relations\[8\]: 3 terms exceed the bound 2$" % where):
        Presentation.from_dict(data, where)
    q = loop_quiver()
    with pytest.raises(ValueError, match=r"^terms: 3 terms exceed the bound 2$"):
        element_from_terms(q, "Z", [["1", "p", []], ["1", "p", ["a", "b"]], ["1", "q", []]])


def _loop_path(src, n):
    """The path of length n from src in loop_quiver(), whose arrows alternate."""
    arrows = ("a", "b") if src == "p" else ("b", "a")
    return (src, tuple(arrows[k % 2] for k in range(n)))


# parallel paths of loop_quiver(): one source, lengths of one parity, raw
# coefficients n/d, some outside a given ring
_LOOP_TERMS = st.builds(
    lambda src, odd, terms: [(Fraction(n, d), _loop_path(src, 2 * k + odd)) for n, d, k in terms],
    st.sampled_from("pq"),
    st.integers(0, 1),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6), st.integers(0, 3)), max_size=4),
)


def _loop_terms_in(ring, raw):
    """The term map over ring of the raw terms whose coefficients lie in it."""
    terms = {}
    for c, path in raw:
        try:
            terms[path] = terms.get(path, 0) + rings.normalize(ring, c)
        except ValueError:
            continue
    return terms_in(ring, terms)


def _orients(q, ring, rel):
    try:
        return bool(make_rules(q, ring, [rel]))
    except PresentationError:
        return False


@given(
    st.sampled_from(rings.RINGS),
    st.lists(_LOOP_TERMS, min_size=1, max_size=3),
    st.lists(_LOOP_TERMS, min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_rewriting_keeps_coefficients_normalized_and_nonzero(ring, raw_relations, raw_words):
    q = loop_quiver()
    relations = [_loop_terms_in(ring, raw) for raw in raw_relations]
    relations = [rel for rel in relations if _orients(q, ring, rel)]
    assume(relations)
    words = [_loop_terms_in(ring, raw) for raw in raw_words]
    rules = make_rules(q, ring, relations)
    pres = Presentation("loop", ring, q, relations, words, {}, {})
    maps = [(ring, tail) for _, tail in rules]
    maps += [(ring, normal_form(q, ring, w, rules)) for w in words]
    for p in {"Q": (), "Z": (2, 3)}.get(ring, (rings.prime(ring),)):
        reduced = pres.reduce_mod(p)
        maps += [(reduced.ring, rel) for rel in reduced.relations + reduced.long_kernel]
    for r, terms in maps:
        for c in terms.values():
            assert c != 0 and c == rings.normalize(r, c), (r, terms)


FIXED = (
    ("q_corner", "Q", CORNER_BASIS_Q),
    ("z2_corner", "Z2", CORNER_BASIS_2),
    ("z3_corner", "Z3", CORNER_BASIS_3),
)


@pytest.mark.parametrize("name,ring,basis", FIXED, ids=[f[0] for f in FIXED])
def test_fixture_presentations_verify(name, ring, basis):
    pres = fixture_presentation(name)
    corner = CornerAlgebra(basis)
    assert pres.ring == ring
    assert verify_presentation(pres, corner) == ([], 10)
    rules = pres.rules()
    assert local_confluence_failures(pres.quiver, ring, rules) == []
    assert len(irreducible_paths(pres.quiver, rules)) == 10
    assert len(corner.labels) == 10


@pytest.mark.parametrize(
    "name,p,basis",
    [("z2_corner", 2, CORNER_BASIS_2), ("z3_corner", 3, CORNER_BASIS_3)],
)
def test_modular_reductions_verify_and_match_fixture(name, p, basis):
    pres = fixture_presentation(name)
    reduced = pres.reduce_mod(p)
    corner = CornerAlgebra(basis)
    assert verify_presentation(reduced, corner) == ([], 10)
    assert pres.mod_p[0] == p
    assert same_element_sets(pres.quiver, reduced.relations, pres.mod_p[1])


def test_dropping_a_zero_relation_changes_the_rank():
    pres = fixture_presentation("q_corner")
    sr = element_from_terms(pres.quiver, "Q", [["1", "a22", ["sigma", "rho"]]])
    kept = [r for r in pres.relations if r != sr]
    assert len(kept) == len(pres.relations) - 1
    rules = make_rules(pres.quiver, "Q", kept)
    assert local_confluence_failures(pres.quiver, "Q", rules) == []
    assert len(irreducible_paths(pres.quiver, rules)) == 14
    crippled = Presentation(
        pres.name, pres.ring, pres.quiver, kept, pres.long_kernel,
        pres.vertex_images, pres.arrow_images,
    )
    corner = CornerAlgebra(CORNER_BASIS_Q)
    probs, n = verify_presentation(crippled, corner)
    assert any("rank" in msg for msg in probs)
    assert n == 14


def test_wrong_arrow_image_is_reported():
    pres = fixture_presentation("q_corner")
    images = dict(pres.arrow_images)
    images["rho"], images["theta"] = images["theta"], images["rho"]
    broken = Presentation(
        pres.name, pres.ring, pres.quiver, pres.relations, pres.long_kernel,
        pres.vertex_images, images,
    )
    corner = CornerAlgebra(CORNER_BASIS_Q)
    probs, _ = verify_presentation(broken, corner)
    assert any("arrow" in msg or "relation" in msg for msg in probs)


def test_corner_unit_is_the_sum_of_the_slot_idempotents():
    for ring, basis, labels in (
        ("Q", CORNER_BASIS_Q, CORNER_IDEMPOTENTS_Q),
        ("Z2", CORNER_BASIS_2, ("e3", "e4", "e5")),
        ("Z3", CORNER_BASIS_3, ("e3", "e4", "e5", "e6")),
    ):
        corner = CornerAlgebra(basis)
        for k in range(len(labels) + 1):
            for part in itertools.combinations(labels, k):
                f = sum((corner.by_label[x] for x in part), BlockElement.zero())
                assert corner.is_identity(f, ring) == (k == len(labels)), part


def _solve_unique(rows, rhs):
    """Reference: exact Fraction solution of an overdetermined full-rank system."""
    m = len(rows)
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    piv = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        f = aug[r][col]
        aug[r] = [x / f for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                g = aug[i][col]
                aug[i] = [a - g * c for a, c in zip(aug[i], aug[r])]
        piv.append(col)
        r += 1
    if len(piv) != n:
        raise ValueError("system is underdetermined")
    if any(aug[i][n] != 0 for i in range(r, m)):
        raise ValueError("system is inconsistent")
    x = [Fraction(0)] * n
    for i, col in enumerate(piv):
        x[col] = aug[i][n]
    return x


def reference_unit(elements):
    """Reference: the corner unit as a Fraction solve of u.e_k = e_k."""
    n = len(elements)
    rows, rhs = [], []
    for k in range(n):
        prods = [(elements[i] * elements[k]).to_vector() for i in range(n)]
        target = elements[k].to_vector()
        for j in range(22):
            rows.append([prods[i][j] for i in range(n)])
            rhs.append(target[j])
    u = BlockElement.zero()
    for c, e in zip(_solve_unique(rows, rhs), elements):
        u = u + e.scale(c)
    return u


@pytest.mark.parametrize("ring, basis", [("Q", CORNER_BASIS_Q), ("Z2", CORNER_BASIS_2), ("Z3", CORNER_BASIS_3)])
def test_integer_corner_unit_matches_the_fraction_solve(ring, basis):
    corner = CornerAlgebra(basis)
    u = reference_unit(corner.elements)
    idempotents = [e for e in corner.elements if e * e == e]
    candidates = [
        sum(part, BlockElement.zero())
        for k in range(len(idempotents) + 1)
        for part in itertools.combinations(idempotents, k)
    ]
    p = rings.prime(ring) or 2
    candidates += [u + e.scale(sign * p) for e in corner.elements for sign in (1, -1)]
    # over F_p, u + p*e is the unit of A/pA; over Q and Z_(p) it is not
    for r in (ring,) if ring == "Q" else (ring, "F%d" % p):
        for f in candidates:
            assert corner.is_identity(f, r) == _vanishes(u - f, r, corner)
    assert sum(corner.is_identity(f, ring) for f in candidates) == 1
    # rescaled basis vectors have denominators; the unit is the same
    scaled = CornerAlgebra([(name, e.scale(Fraction(k + 2, 3))) for k, (name, e) in enumerate(basis)])
    assert scaled.is_identity(u, ring)


@pytest.mark.parametrize(
    "coords",
    [
        [{"z2": 1}],  # a nilpotent: b.b = 0 for every b of the span
        [{"s11": 1}, {"s12": 1}],  # E11 is a left unit only
    ],
)
def test_span_without_a_two_sided_unit_raises(coords):
    corner = CornerAlgebra([("b%d" % i, BlockElement.from_coords(c)) for i, c in enumerate(coords)])
    grid = [Fraction(n, 2) for n in range(-4, 5)]
    for cs in itertools.product(grid, repeat=len(coords)):
        f = sum((e.scale(c) for c, e in zip(cs, corner.elements)), BlockElement.zero())
        assert not corner.is_identity(f, "Q"), cs


def _express_reference(elements, block):
    """Fraction solve of sum_i c_i e_i == block, one equation per coordinate;
    None when block is outside the span."""
    vectors = [e.to_vector() for e in elements]
    rows = [[v[j] for v in vectors] for j in range(22)]
    try:
        return _solve_unique(rows, block.to_vector())
    except ValueError as exc:  # the basis is independent: only inconsistency is expected
        if "inconsistent" not in str(exc):
            raise
        return None


def _is_zero(ring, c):
    """Is the rational c zero in ring?  One outside ring is not."""
    try:
        return rings.normalize(ring, c) == 0
    except ValueError:
        return False


def _combination(coeffs, elements):
    block = BlockElement.zero()
    for c, e in zip(coeffs, elements):
        block = block + e.scale(c)
    return block


def _fraction_det(rows):
    """Reference: the determinant of a square matrix by Fraction elimination."""
    M = [[Fraction(x) for x in row] for row in rows]
    d = Fraction(1)
    for k in range(len(M)):
        piv = next((i for i in range(k, len(M)) if M[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            d = -d
        d *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return d


_CORNER_BASES = {"Q": CORNER_BASIS_Q, "Z2": CORNER_BASIS_2, "Z3": CORNER_BASIS_3}
_CORNERS = {}


def _corner(name):
    if name not in _CORNERS:
        _CORNERS[name] = CornerAlgebra(_CORNER_BASES[name])
    return _CORNERS[name]


@given(
    st.sampled_from(sorted(_CORNER_BASES)),
    st.lists(st.integers(-4, 4), min_size=10, max_size=10),
    st.sampled_from([1, 5, 7, 2, 3, 4, 6]),
    st.sampled_from([0, 1, 2, 3, 4, 6, 9]),
    st.one_of(st.none(), st.tuples(st.sampled_from(COORD_NAMES), st.integers(-3, 3))),
    st.integers(1, 8),
)
@example("Z2", [1] * 10, 1, 0, None, 1)  # zero
@example("Z2", list(range(-4, 6)), 5, 2, None, 1)  # in 2L over Z_(2)
@example("Z3", list(range(-4, 6)), 7, 3, None, 1)  # in 3L over Z_(3)
@example("Q", [1] * 10, 1, 6, ("s11", 1), 1)  # nudged out of the span
@example("Z2", [1] * 10, 1, 2, ("s11", 2), 1)  # a p-multiple nudged out of the span
@settings(max_examples=150, deadline=None)
def test_vanishing_matches_the_fraction_coordinates(name, nums, den, mult, nudge, nudge_den):
    corner = _corner(name)
    coeffs = [Fraction(mult * n, den) for n in nums]
    block = _combination(coeffs, corner.elements)
    if nudge is not None:
        block = block + BlockElement.from_coords({nudge[0]: Fraction(nudge[1], nudge_den)})
    want = _express_reference(corner.elements, block)
    if nudge is None:
        assert want == coeffs
    for ring in rings.RINGS:
        zero = want is not None and all(_is_zero(ring, c) for c in want)
        assert _vanishes(block, ring, corner) == zero, ring


@pytest.mark.parametrize("name,ring,basis", FIXED, ids=[f[0] for f in FIXED])
def test_path_image_determinant_matches_the_fraction_coordinates(name, ring, basis):
    pres = fixture_presentation(name)
    corner = _corner(ring)
    paths = irreducible_paths(pres.quiver, pres.rules())
    images = [element_image({b: 1}, pres, corner) for b in paths]
    coords = [_express_reference(corner.elements, img) for img in images]
    d = corner.change_of_basis_det(images)
    assert d == _fraction_det(coords) and rings.is_unit(ring, d)


@given(
    st.sampled_from(sorted(_CORNER_BASES)),
    st.lists(st.lists(st.integers(-3, 3), min_size=10, max_size=10), min_size=10, max_size=10),
    st.lists(st.integers(1, 4), min_size=10, max_size=10),
)
@example("Q", [[0] * 10] * 10, [1] * 10)
@example("Z3", [[int(i == j) for j in range(10)] for i in range(10)], [1] * 10)
@settings(max_examples=80, deadline=None)
def test_change_of_basis_det_matches_the_fraction_det(name, nums, dens):
    corner = _corner(name)
    T = [[Fraction(n, d) for n in row] for row, d in zip(nums, dens)]
    blocks = [_combination(row, corner.elements) for row in T]
    assert corner.change_of_basis_det(blocks) == _fraction_det(T)


def test_corner_rejects_dependent_basis():
    # recorded, not raised: the span check and the presentation check each
    # fail on it, and nothing else of the presentation is tested
    dup = (
        ("one", BlockElement.from_coords({"s11": 1})),
        ("two", BlockElement.from_coords({"s11": 2})),
    )
    corner = CornerAlgebra(dup)
    assert not corner.independent
    dependent = "claimed corner basis is not linearly independent"
    assert corner.span_problems(2, dup[:1], corner.elements[:1]) == [dependent]
    assert verify_presentation(fixture_presentation("q_corner"), corner) == ([dependent], None)


@pytest.mark.parametrize(
    "p, problems", [(2, ["basis element h is outside the projected order"]), (3, [])]
)
def test_the_span_check_reads_a_basis_over_its_denominator(p, problems):
    # h = e/2 is a row over the lcm 2, not refused as non-integral: outside
    # the order at 2, and a unit multiple of e at 3
    e = BlockElement.from_coords({"s11": 1})
    corner = CornerAlgebra((("h", e.scale(Fraction(1, 2))),))
    assert corner.span_problems(p, (("g", e),), (e,)) == problems


def test_structure_table_matches_block_products():
    corner = _corner("Q")
    for a in corner.elements:
        for b in corner.elements:
            coords = _express_reference(corner.elements, a * b)
            assert coords is not None and _combination(coords, corner.elements) == a * b


def test_long_kernel_elements_rewrite_to_zero():
    for name in ("q_corner", "z2_corner", "z3_corner"):
        pres = fixture_presentation(name)
        rules = pres.rules()
        for elem in pres.long_kernel:
            assert normal_form(pres.quiver, pres.ring, elem, rules) == {}
