import doctest
import importlib
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bisetforge
from bisetforge import perms
from bisetforge.bisets import (
    PAIRS,
    S3,
    SECTIONS,
    SUBGROUP_GENERATORS,
    _index_tables,
    embed_pair,
    labeled_subgroups,
    pair_group,
)
from bisetforge.perms import (
    CapacityError,
    Perm,
    PermGroup,
    _bits,
    _is_prime_power,
    _mask,
    cyclic_group,
    symmetric_group,
)
from reference import subgroup

perms4 = st.permutations(list(range(4))).map(lambda im: Perm(tuple(im)))


@given(perms4, perms4, perms4)
def test_composition_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perms4)
def test_inverse_cancels(p):
    e = Perm.identity(4)
    assert p * p.inverse() == e
    assert p.inverse() * p == e


@given(perms4)
def test_order_annihilates(p):
    acc = Perm.identity(4)
    for _ in range(p.order()):
        acc = acc * p
    assert acc == Perm.identity(4)


def test_cycle_string_round_trip():
    for text in ("(1,2)", "(1,2,3)", "(1,2)(3,4)", "()"):
        p = Perm.from_cycle_string(text, 4)
        assert Perm.from_cycle_string(p.cycle_string(), 4) == p


def test_spaces_separate_points_as_commas_do():
    assert Perm.from_cycle_string("(1 2)") == Perm.from_cycle_string("(1,2)")
    assert Perm.from_cycle_string("(1, 2) (3, 4)") == Perm.from_cycle_string("(1,2)(3,4)")
    assert Perm.from_cycle_string("(12)") == Perm.identity(12)
    assert Perm.from_cycle_string("( 1 2 )") == Perm.from_cycle_string("(1,2)")
    # spaces around a comma read as nothing, so the point between these commas is empty
    with pytest.raises(ValueError, match=r"^bad cycle notation: '\(1 , , 2\)'$"):
        Perm.from_cycle_string("(1 , , 2)")


def test_constructor_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((0, 0))


def test_from_cycles_rejects_overlap():
    # the overlap is found before the images: it never reads as a non-bijection
    for cycles in ([(0, 1), (1, 2)], [(0, 1), (0, 1)], [(0, 1, 0)]):
        with pytest.raises(ValueError, match=r"^cycles are not disjoint: "):
            Perm.from_cycles(cycles, 3)
        text = "".join("(%s)" % ",".join(str(pt + 1) for pt in cyc) for cyc in cycles)
        want = r"^cycles are not disjoint: '%s'$" % re.escape(text)
        with pytest.raises(ValueError, match=want):
            Perm.from_cycle_string(text)


def all_subgroups(G):
    """Every subgroup of G, each exactly once, sorted by (order, element
    list), built like a class representative, with greedy generators."""
    masks = [m for members in G.conjugacy_classes_of_subgroups() for m in members]
    return [subgroup(G, idx) for _, idx in sorted((m.bit_count(), _bits(m)) for m in masks)]


def test_symmetric_group_s3_subgroups():
    G = symmetric_group(3)
    assert G.order == 6
    subs = all_subgroups(G)
    assert len(subs) == 6
    classes = G.conjugacy_classes_of_subgroups()
    assert sorted(len(members) for members in classes) == [1, 1, 1, 3]


def test_conjugacy_classes_deterministic():
    G = symmetric_group(3)
    a = G.conjugacy_classes_of_subgroups()
    b = G.conjugacy_classes_of_subgroups()
    assert [(subgroup(G, _bits(members[0])).element_set, members) for members in a] == [
        (subgroup(G, _bits(members[0])).element_set, members) for members in b
    ]


def _enumerated_bits(mask):
    """Reference: the set bits read one binary digit at a time."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


@given(st.one_of(st.integers(0, (1 << 36) - 1), st.integers(0, (1 << 720) - 1)))
@example(0)
@example(1)
@example((1 << 720) - 1)
@example(1 << 719)
def test_bits_lists_the_set_bits_of_a_mask(mask):
    assert _bits(mask) == _enumerated_bits(mask)


def test_subgroup_mask_is_none_outside_the_group():
    G = symmetric_group(4)
    assert G.subgroup_mask(G) == (1 << 24) - 1
    assert G.subgroup_mask(PermGroup(4, [])) == 1
    assert G.subgroup_mask(symmetric_group(3)) is None
    H = PermGroup(5, [Perm.from_cycle_string("(4,5)", 5)])
    assert symmetric_group(5).subgroup_mask(H) is not None
    assert cyclic_group(5).subgroup_mask(H) is None


def test_cyclic_group():
    C = cyclic_group(4)
    assert C.order == 4
    assert len(C.conjugacy_classes_of_subgroups()) == 3


@pytest.mark.parametrize(
    "group, classes, subgroups",
    [
        # OEIS A000638 / A005432
        (lambda: symmetric_group(4), 11, 30),
        (lambda: symmetric_group(5), 19, 156),
        (lambda: symmetric_group(6), 56, 1455),
        (lambda: PermGroup(5, [Perm.from_cycle_string("(1,2,3)", 5),
                               Perm.from_cycle_string("(1,2,3,4,5)", 5)]), 9, 59),
        (pair_group, 22, 60),
    ],
    ids=["S4", "S5", "S6", "A5", "S3xS3"],
)
def test_subgroup_lattice_counts(group, classes, subgroups):
    found = group().conjugacy_classes_of_subgroups()
    assert (len(found), sum(len(members) for members in found)) == (classes, subgroups)


def test_classification_stops_past_the_subgroup_count_capacity(monkeypatch):
    # S4 has 30 subgroups in 11 classes
    monkeypatch.setattr(perms, "SUBGROUP_COUNT_CAPACITY", 29)
    with pytest.raises(CapacityError, match=r"^subgroup count exceeds the capacity of 29 subgroups$"):
        symmetric_group(4).conjugacy_classes_of_subgroups()
    monkeypatch.setattr(perms, "SUBGROUP_COUNT_CAPACITY", 30)
    assert len(symmetric_group(4).conjugacy_classes_of_subgroups()) == 11


# A naive reference on frozensets of Perm, for groups of degree <= 4: every
# subgroup of S4 is generated by two elements, so the closures of all pairs
# are all the subgroups.


def _ref_close(degree, gens):
    elems = {Perm.identity(degree)}
    frontier = list(elems)
    while frontier:
        frontier = [x * g for x in frontier for g in gens if x * g not in elems]
        elems.update(frontier)
    return frozenset(elems)


def _ref_witness(G, s1, s2):
    for g in G.elements:
        if frozenset(g * u * g.inverse() for u in s1) == s2:
            return g
    return None


def _ref_minimal_gens(degree, elems):
    gens, span = [], {Perm.identity(degree)}
    for p in sorted(elems, key=lambda p: (-p.order(), p.images)):
        if p not in span:
            gens.append(p)
            span = _ref_close(degree, gens)
    return gens


@st.composite
def small_groups(draw):
    degree = draw(st.integers(1, 4))
    gens = draw(st.lists(st.permutations(list(range(degree))), min_size=1, max_size=3))
    return PermGroup(degree, [Perm(g) for g in gens])


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_lattice_matches_naive_reference(G):
    subs = sorted(
        {_ref_close(G.degree, [a, b]) for a in G.elements for b in G.elements},
        key=lambda s: (len(s), sorted(s)),
    )
    classes = []
    for s in subs:
        for cls in classes:
            if _ref_witness(G, cls[0], s) is not None:
                cls.append(s)
                break
        else:
            classes.append([s])

    found = all_subgroups(G)
    assert [s.element_set for s in found] == subs
    assert [list(s.generators) for s in found] == [
        _ref_minimal_gens(G.degree, s) for s in subs
    ]
    found_classes = [
        (subgroup(G, _bits(members[0])), [subgroup(G, _bits(m)) for m in members])
        for members in G.conjugacy_classes_of_subgroups()
    ]
    assert [[s.element_set for s in c] for _, c in found_classes] == classes
    assert [[list(s.generators) for s in c] for _, c in found_classes] == [
        [_ref_minimal_gens(G.degree, s) for s in c] for c in classes
    ]
    assert [(rep.element_set, rep.generators) for rep, _ in found_classes] == [
        (c[0].element_set, c[0].generators) for _, c in found_classes
    ]


def _unpruned_classes(T):
    """The cyclic extension loop without pruning: every element of
    prime-power order is joined with the identity and duplicates dropped, and
    each representative is joined with every cyclic subgroup not inside it."""
    cyclics, seen_cyclic = [], set()
    for i in range(1, T.n):
        if not _is_prime_power(T.orders[i]):
            continue
        elems, flags = T.join([0], [], i)
        mask = _mask(flags)
        if mask not in seen_cyclic:
            seen_cyclic.add(mask)
            cyclics.append((i, mask, elems))
    classes, known, reps = [], set(), []

    def add(mask, elems, hgens):
        if mask not in known:
            orbit = T.orbit(mask)
            known.update(orbit)
            classes.append(orbit)
            reps.append((mask, elems, hgens))

    add(1, [0], [])
    for i, mask, elems in cyclics:
        add(mask, elems, [i])
    frontier = reps[1:]
    while frontier:
        start = len(reps)
        for hmask, helems, hgens in frontier:
            for z, zmask, _ in cyclics:
                if zmask & hmask != zmask:
                    kelems, flags = T.join(helems, hgens, z)
                    add(_mask(flags), kelems, hgens + [z])
        frontier = reps[start:]
    return classes


def _assert_pruning_keeps_the_classes(G):
    T = G._table()
    found = T.subgroup_classes()
    expected = {frozenset(c) for c in _unpruned_classes(T)}
    assert {frozenset(c) for c in found} == expected
    assert len(found) == len(expected)


def _group(degree, *cycles):
    return PermGroup(degree, [Perm.from_cycle_string(c, degree) for c in cycles])


@pytest.mark.parametrize(
    "group",
    [
        lambda: symmetric_group(5),
        lambda: _group(5, "(1,2,3)", "(1,2,3,4,5)"),
        lambda: _group(5, "(1,2,3,4,5)", "(2,3,5,4)"),
        lambda: _group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"),
        pair_group,
    ],
    ids=["S5", "A5", "AGL(1,5)", "D6", "S3xS3"],
)
def test_pruned_extension_finds_the_unpruned_classes(group):
    _assert_pruning_keeps_the_classes(group())


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_pruned_extension_matches_unpruned_on_small_groups(G):
    _assert_pruning_keeps_the_classes(G)


# every module of the package whose source holds an example
_DOCTEST_MODULES = sorted(
    path.stem
    for path in pathlib.Path(bisetforge.__file__).parent.glob("*.py")
    if ">>>" in path.read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", _DOCTEST_MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module("bisetforge." + name))
    assert result.failed == 0 and result.attempted > 0


def _assert_tables_match_composition(G):
    els = G.elements
    index = {p: i for i, p in enumerate(els)}
    # the closure's right-multiplication rows, one per distinct generator
    # other than the identity, before the tables are built from them
    moved = [g for g in dict.fromkeys(G.generators) if g != els[0]]
    assert G._right == [[index[a * g] for a in els] for g in moved]
    T = G._table()
    assert T.index == {p.images: i for p, i in index.items()}
    assert [list(row) for row in T.mul] == [[index[a * b] for b in els] for a in els]
    assert T.inv == [index[a.inverse()] for a in els]
    assert T.gens == [index[g] for g in G.generators]
    assert list(T.conj) == list(dict.fromkeys(T.gens))
    for g, row in T.conj.items():
        x = els[g]
        assert row == [index[x * y * x.inverse()] for y in els]
    assert T.orders == [p.order() for p in els]
    by_rank = sorted(range(len(els)), key=T.rank.__getitem__)
    assert by_rank == sorted(range(len(els)), key=lambda i: (-els[i].order(), i))


@settings(max_examples=40, deadline=None)
@given(small_groups())
@example(pair_group())
@example(_group(5, "(1,2,3)", "()", "(1,2,3,4,5)", "(1,2,3)"))
def test_tables_match_direct_composition(G):
    _assert_tables_match_composition(G)


def test_biset_index_tables_match_direct_composition():
    # the guard of the tables that the Mackey route, the orbit route and
    # subgroup-classes share: bisets takes them from perms' _Tables, so they
    # are rebuilt here from PAIRS and S3.elements with Perm.__mul__ alone
    els = S3.elements
    assert all(
        pair_group().elements[6 * a + b] == embed_pair(els[a], els[b])
        for a in range(6)
        for b in range(6)
    )
    pos, pair_pos = {g: i for i, g in enumerate(els)}, {p: x for x, p in enumerate(PAIRS)}
    t = _index_tables()
    assert [list(row) for row in t.mul] == [[pos[g * h] for h in els] for g in els]
    assert list(t.inv) == [pos[g.inverse()] for g in els]
    assert [list(row) for row in t.pair_mul] == [
        [pair_pos[a * c, b * d] for c, d in PAIRS] for a, b in PAIRS
    ]
    assert list(t.pair_inv) == [pair_pos[a.inverse(), b.inverse()] for a, b in PAIRS]
    assert t.sections == {
        name: tuple(sorted(pos[g] for g in _ref_close(3, gens)))
        for name, gens in SECTIONS.items()
    }
    # a pair (a, b) closes as the permutation acting as a on {0,1,2}, b on {3,4,5}
    joined = {x: Perm(a.images + tuple(3 + i for i in b.images)) for x, (a, b) in enumerate(PAIRS)}
    split = {p: x for x, p in joined.items()}
    assert list(t.reps) == [
        sum(1 << split[p] for p in _ref_close(6, [joined[pair_pos[g]] for g in gens]))
        for gens in SUBGROUP_GENERATORS
    ]


@pytest.mark.parametrize(
    "gens",
    [[], ["()", "(1,2,3,4)", "()"], ["()", "()"]],
    ids=["trivial", "repeated-identity", "only-identity"],
)
def test_tables_of_degenerate_generator_lists(gens):
    G = PermGroup(4, [Perm.from_cycle_string(c, 4) for c in gens])
    _assert_tables_match_composition(G)


def test_a_group_without_tables_holds_no_index():
    # the 22 references are closed for their masks alone: each keeps its
    # closure's rows, lists of ints, and no per-element dict or table
    for ref in labeled_subgroups():
        assert ref._tables is None
        assert not any(isinstance(v, dict) for v in vars(ref).values())
        assert all(type(row) is list and len(row) == ref.order for row in ref._right)
