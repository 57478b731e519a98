import itertools
import json
import math
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from bisetforge import bisets, cli, fixtures, linalg, orders, quivers, verify
from bisetforge.bisets import BASIS_LABELS, IDENTITY_INDEX, BurnsideElement
from bisetforge.blocks import COORD_NAMES, BlockElement, PeirceBasis, slot_basis
from bisetforge.linalg import common_denominator, hnf_rows
from bisetforge.perms import Perm, PermGroup, symmetric_group
from bisetforge.quivers import Presentation, element_from_terms
from reference import associativity_failures, bareiss, mat_mul, mat_vec


def _element(ring, coeffs):
    """The ring element with these rational coefficients."""
    return BurnsideElement.from_ints(ring, *common_denominator(coeffs))


@pytest.fixture(scope="module")
def full_report():
    return verify.run()


def test_every_stage_passes(full_report):
    assert full_report["status"] == "pass"
    names = [s["stage"] for s in full_report["stages"]]
    assert names == list(verify.STAGE_ORDER)
    for stage in full_report["stages"]:
        assert stage["status"] == "pass"
        for check in stage["checks"]:
            assert check["status"] == "pass", (stage["stage"], check["name"])
            assert check["detail"]


def test_expected_checks_are_present(full_report):
    by_stage = {s["stage"]: {c["name"] for c in s["checks"]} for s in full_report["stages"]}
    assert "identity" in by_stage["peirce"]
    assert "table-dual-route" in by_stage["peirce"]
    assert "gamma-bijective" in by_stage["gamma"]
    assert "lambda-closed" in by_stage["lambda"]
    assert "stated-column-listing" in by_stage["lambda"]
    assert "radical-cube" in by_stage["local2"]
    assert "unit-criterion" in by_stage["local3"]
    assert "presentation-q_corner" in by_stage["paths"]
    assert "loop-relation-mod2" in by_stage["paths"]


def test_stage_selection():
    rep = verify.run(stages="gamma")
    assert [s["stage"] for s in rep["stages"]] == ["gamma"]
    assert rep["status"] == "pass"
    rep2 = verify.run(stages=("paths", "gamma"))
    # execution keeps the canonical stage order regardless of request order
    assert [s["stage"] for s in rep2["stages"]] == ["gamma", "paths"]


def test_unknown_stage_is_rejected():
    with pytest.raises(ValueError):
        verify.run(stages=("gamma", "nonsense"))


def test_emitted_fixtures_are_byte_identical(tmp_path):
    written = verify.emit_fixtures(str(tmp_path))
    assert len(written) == 6
    src = fixtures.DEFAULT_DIR
    rels = [
        "peirce.json",
        "delta_matrix.json",
        "errata.json",
        "presentations/q_corner.json",
        "presentations/z2_corner.json",
        "presentations/z3_corner.json",
    ]
    for rel in rels:
        shipped = (src / rel).read_bytes()
        emitted = (tmp_path / rel).read_bytes()
        assert emitted == shipped, rel


def _copy_fixtures(tmp_path):
    dst = tmp_path / "fixtures"
    shutil.copytree(fixtures.DEFAULT_DIR, dst)
    return dst


def test_tampered_matrix_cell_is_named(tmp_path):
    dst = _copy_fixtures(tmp_path)
    path = dst / "delta_matrix.json"
    data = json.loads(path.read_text())
    data["matrix"][0][0] += 1
    path.write_text(fixtures.canonical_dumps(data))
    rep = verify.run(stages="lambda", fixture_dir=str(dst))
    assert rep["status"] == "fail"
    failing = {c["name"]: c for s in rep["stages"] for c in s["checks"] if c["status"] == "fail"}
    assert "matrix-fixture" in failing
    assert "a" in failing["matrix-fixture"]["detail"]
    assert "H_{0,0}" in failing["matrix-fixture"]["detail"]


@pytest.mark.parametrize(
    "name, check", [("q_corner", "presentation-q_corner"), ("z2_corner", "presentation-z2_corner-mod2")]
)
def test_vertex_images_off_the_corner_unit_are_reported(tmp_path, name, check):
    dst = _copy_fixtures(tmp_path)
    path = dst / "presentations" / ("%s.json" % name)
    data = json.loads(path.read_text())
    first, second = sorted(data["vertex_images"])[:2]
    data["vertex_images"][second] = data["vertex_images"][first]
    path.write_text(fixtures.canonical_dumps(data))
    rep = verify.run(stages="paths", fixture_dir=str(dst))
    assert rep["status"] == "fail"
    failing = {c["name"]: c for s in rep["stages"] for c in s["checks"] if c["status"] == "fail"}
    assert "vertex images do not sum to the corner unit" in failing[check]["detail"]


def test_tampered_product_table_is_caught(tmp_path):
    dst = _copy_fixtures(tmp_path)
    path = dst / "peirce.json"
    data = json.loads(path.read_text())
    cell = data["table"][0][0]
    key = sorted(cell)[0]
    cell[key] += 1
    path.write_text(fixtures.canonical_dumps(data))
    rep = verify.run(stages="peirce", fixture_dir=str(dst))
    assert rep["status"] == "fail"
    failing = {c["name"] for s in rep["stages"] for c in s["checks"] if c["status"] == "fail"}
    # the recomputed dual-route table ignores the fixture, so only the
    # fixture comparison trips
    assert failing == {"peirce-products"}


def test_removed_erratum_is_caught(tmp_path):
    dst = _copy_fixtures(tmp_path)
    path = dst / "errata.json"
    path.write_text(fixtures.canonical_dumps([]))
    rep = verify.run(stages="lambda", fixture_dir=str(dst))
    assert rep["status"] == "fail"
    failing = {c["name"] for s in rep["stages"] for c in s["checks"] if c["status"] == "fail"}
    assert failing == {"stated-column-listing"}


def _dense_rows(conditions):
    """Compiled mod-24 conditions as dense rows over COORD_NAMES."""
    assert all(m == 24 for _, m in conditions)
    return [[dict(terms).get(i, 0) for i in range(22)] for terms, _ in conditions]


def _compiled_rows(rows):
    """Dense rows as compiled mod-24 conditions."""
    return tuple((tuple((i, c) for i, c in enumerate(row) if c), 24) for row in rows)


def _shipped_mod24_rows():
    return _dense_rows(verify.FixtureSet().mod24_conditions)


def _disagree_mod24(names, residues, rows):
    """Do the congruences and the given mod-24 rows disagree at these residues?"""
    vec = [0] * 22
    for name, r in zip(names, residues):
        vec[orders.COORD_NAMES.index(name)] = r
    congs = all(
        sum(c * vec[orders.COORD_NAMES.index(n)] for n, c in coeffs.items()) % m == 0
        for coeffs, m in orders.CONGRUENCES_2 + orders.CONGRUENCES_3
    )
    return congs != all(sum(c * x for c, x in zip(row, vec)) % 24 == 0 for row in rows)


def _disagreement_detail(check):
    """(component, residues) named by a failed congruences-match-mod24-rows."""
    assert check["status"] == "fail"
    m = re.fullmatch(r"predicates disagree on (\S+) at residues \(([-\d, ]+),?\)", check["detail"])
    assert m, check["detail"]
    comp = m.group(1).split(",")
    residues = [int(r) for r in m.group(2).split(",") if r.strip()]
    assert len(residues) == len(comp) and all(0 <= r < 24 for r in residues)
    return comp, residues


@pytest.mark.parametrize(
    "broken",
    [{"x1": 6}, {"z3": 12}, {"w": 6, "z1": 6, "z2": 1}],
    ids=["mod3-part", "mod8-part", "coupled-row"],
)
def test_broken_mod24_row_fails_with_a_witness(broken):
    names = sorted(broken)
    broken_row = [broken.get(n, 0) for n in COORD_NAMES]
    rows = []
    for row in _shipped_mod24_rows():
        support = sorted(COORD_NAMES[i] for i, c in enumerate(row) if c)
        rows.append(broken_row if support == names else row)
    assert rows != _shipped_mod24_rows()
    fx = verify.FixtureSet()
    fx.mod24_conditions = _compiled_rows(rows)
    rep = verify.stage_lambda(fx)
    check = next(c for c in rep["checks"] if c["name"] == "congruences-match-mod24-rows")
    comp, residues = _disagreement_detail(check)
    assert _disagree_mod24(comp, residues, rows)


def test_a_negated_matrix_row_moves_the_derived_conditions(tmp_path):
    # negating the w row keeps 24 M^-1 integral but moves the column lattice
    dst = _copy_fixtures(tmp_path)
    path = dst / "delta_matrix.json"
    data = json.loads(path.read_text())
    w = COORD_NAMES.index("w")
    data["matrix"][w] = [-x for x in data["matrix"][w]]
    path.write_text(fixtures.canonical_dumps(data))
    rep = verify.stage_lambda(str(dst))
    check = next(c for c in rep["checks"] if c["name"] == "congruences-match-mod24-rows")
    assert check["detail"] == "predicates disagree on w,z1,z2,z3 at residues (9, 9, 0, 0)"
    comp, residues = _disagreement_detail(check)
    rows = _dense_rows(orders.mod24_conditions(linalg.int_inverse(data["matrix"])))
    assert _brute_disagreement(comp, rows) == tuple(residues)
    assert _disagree_mod24(comp, residues, rows)


def _brute_disagreement(comp, rows):
    """Reference: the first residues of product(range(q), repeat=len(comp)),
    q = 8 then 3, where the congruences and the dense mod-24 rows disagree,
    lifted to residues mod 24."""
    congs = [
        (coeffs, m)
        for coeffs, m in orders.CONGRUENCES_2 + orders.CONGRUENCES_3
        if set(coeffs) <= set(comp)
    ]
    rows = [{COORD_NAMES[i]: c for i, c in enumerate(row) if c} for row in rows]
    rows = [row for row in rows if set(row) <= set(comp)]
    for q in (8, 3):
        lift = (24 // q) * pow(24 // q, -1, q)
        for combo in itertools.product(range(q), repeat=len(comp)):
            x = dict(zip(comp, combo))
            a = all(sum(c * x[n] for n, c in co.items()) % math.gcd(m, q) == 0 for co, m in congs)
            b = all(sum(c * x[n] for n, c in row.items()) % q == 0 for row in rows)
            if a != b:
                return tuple(r * lift % 24 for r in combo)
    return None


def test_residue_disagreement_matches_the_brute_force_scan():
    # trial 0 has the shipped rows; the others change up to three coefficients
    # of the rows, each inside the row's own component, to a nonzero residue
    shipped = _shipped_mod24_rows()
    lam = orders.LAMBDA_CONDITIONS
    components = verify._support_components(lam + _compiled_rows(shipped))
    component = {n: comp for comp in components for n in comp}
    rng = random.Random(20261018)
    witnesses = 0
    for trial in range(30):
        rows = [list(r) for r in shipped]
        for _ in range(rng.randint(1, 3) if trial else 0):
            row = rng.choice(rows)
            names = component[COORD_NAMES[next(i for i, c in enumerate(row) if c)]]
            row[COORD_NAMES.index(rng.choice(names))] = rng.randrange(1, 24)
        conditions = _compiled_rows(rows)
        for comp in verify._support_components(lam + conditions):
            got = verify._residue_disagreement(comp, conditions)
            assert got == _brute_disagreement(comp, rows), (trial, comp)
            witnesses += got is not None
    assert witnesses >= 10


def _dense_associativity_failures(c):
    """Reference: the pairs (i, j) with L_i L_j != sum_k c_ij^k L_k, as dense
    matrices L_i[k][j] = c[i][j][k]."""
    L = [[[c[i][j][k] for j in range(22)] for k in range(22)] for i in range(22)]
    bad = []
    for i in range(22):
        for j in range(22):
            rhs = [[sum(c[i][j][k] * L[k][r][s] for k in range(22)) for s in range(22)] for r in range(22)]
            if mat_mul(L[i], L[j]) != rhs:
                bad.append((i, j))
    return bad


# (3, 21) breaks the predicate only at s = 21 for some pairs, so it needs
# every s; the detail lists the first six failing pairs
@pytest.mark.parametrize("cell", [(0, 1), (1, 4), (3, 13), (3, 21)])
def test_corrupted_structure_constant_fails_associativity(monkeypatch, cell):
    i, j = cell
    # the first nonzero constant of cell (i, j), one more
    T = [list(map(list, row)) for row in bisets.structure_cells()]
    k, x = T[i][j][0]
    T[i][j][0] = (k, x + 1)
    monkeypatch.setattr(verify, "structure_cells", lambda: tuple(tuple(map(tuple, r)) for r in T))
    rep = verify.stage_peirce()
    failing = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    assert set(failing) == {"associativity"}
    dense = [list(row) for row in bisets.structure_table()]
    dense[i][j] = tuple(x + 1 if n == k else v for n, v in enumerate(dense[i][j]))
    want = _dense_associativity_failures(dense)
    assert cell in want
    assert failing["associativity"] == "fails at %s" % ", ".join(
        "(%d, %d)" % ij for ij in want[:6]
    )
    assert ("(%d, %d)" % cell in failing["associativity"]) == (want.index(cell) < 6)


def test_seeded_perturbations_fail_associativity_at_the_reference_pairs(monkeypatch):
    # one structure constant set to a new value per case, to or from zero
    # too: the check finds the pairs that the combine loop of reference.py finds
    rng = random.Random(2025)
    table = bisets.structure_table()
    seen = []
    cells = verify._cells
    monkeypatch.setattr(verify, "_cells", lambda c, *a: seen.append(c) or cells(c, *a))
    failed = 0
    for _ in range(40):
        i, j, k = (rng.randrange(22) for _ in range(3))
        cell = list(table[i][j])
        cell[k] = rng.choice([x for x in (0, -2, -1, 1, 2, 7, cell[k] + 1) if x != cell[k]])
        T = [list(row) for row in bisets.structure_cells()]
        T[i][j] = tuple((n, c) for n, c in enumerate(cell) if c)
        T = tuple(map(tuple, T))
        monkeypatch.setattr(verify, "structure_cells", lambda: T)
        named = ["(%d, %d)" % ij for ij in associativity_failures(T)]
        ok, detail = verify._associativity(verify.FixtureSet())
        assert seen[-1] == named
        if named:
            assert (ok, detail) == (False, "fails at %s" % ", ".join(named[:6]))
            failed += 1
        else:
            assert ok
    assert failed >= 30


def _clear_table_caches():
    bisets.structure_table.cache_clear()
    bisets.structure_cells.cache_clear()


# a perturbed route must stop structure_table() and fail only table-dual-route
@pytest.mark.parametrize("route", ["mackey_table", "oracle_table"])
def test_perturbed_table_route_fails_the_dual_route_check(monkeypatch, capsys, route):
    i, j = 1, 2
    table = [list(row) for row in getattr(bisets, route)()]
    table[i][j] = (table[i][j][0] + 1,) + table[i][j][1:]
    perturbed = tuple(map(tuple, table))
    cell = "(%s, %s)" % (bisets.BASIS_LABELS[i], bisets.BASIS_LABELS[j])
    _clear_table_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(bisets, route, lambda: perturbed)
            with pytest.raises(bisets.TableMismatch) as exc:
                bisets.structure_table()
            rep = verify.stage_peirce()
    finally:
        _clear_table_caches()
    assert str(exc.value).startswith("cell %s: " % cell)
    assert repr(perturbed[i][j]) in str(exc.value)
    failing = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    assert failing == {"table-dual-route": "routes disagree at %s" % cell}

    # through the CLI: it reports the failed check, skips what reads the table
    # and exits 1 with no traceback, and mult refuses the product
    _clear_table_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(bisets, route, lambda: perturbed)
            code = cli.main(["verify", "--stage", "peirce"])
            out = capsys.readouterr()
            full = cli.main(["verify", "--json"])
            report = json.loads(capsys.readouterr().out)
            product = cli.main(["mult", "H_{1,0}", "H_{0,1}"])
            product_out = capsys.readouterr()
    finally:
        _clear_table_caches()
    assert code == 1 and out.err == ""
    lines = out.out.splitlines()
    assert lines[2] == "FAIL peirce/table-dual-route: routes disagree at %s" % cell
    skipped = ["table-mass", "identity", "associativity", "idempotents", "peirce-products", "eps3-central"]
    assert lines[3:-1] == [
        "SKIP peirce/%s: skipped: the structure-table routes disagree" % name for name in skipped
    ]
    assert lines[-1] == "result: FAIL"
    assert full == 1
    status = {
        (s["stage"], c["name"]): c["status"] for s in report["stages"] for c in s["checks"]
    }
    assert {k for k, v in status.items() if v != "pass"} == {
        ("peirce", "table-dual-route"),
        ("gamma", "gamma-multiplicative"),
        ("lambda", "delta-ring-map"),
    } | {("peirce", name) for name in skipped}
    assert status["peirce", "table-dual-route"] == "fail"
    assert status["gamma", "gamma-multiplicative"] == status["lambda", "delta-ring-map"] == "skip"
    assert product == 1 and product_out.out == ""
    assert product_out.err.startswith("error: cell %s: " % cell)


def _pair(b):
    """The (nums, den) of a BlockElement, as membership receives them."""
    return list(b.nums), b.den


def _shared_basis(pb):
    """A FixtureSet that hands the stages this PeirceBasis."""
    fx = verify.FixtureSet()
    fx.peirce = pb
    return fx


def _fraction_gamma_failures(G, g):
    """Reference: gamma-multiplicative as it was written on Fractions, for
    gamma = G / g; the failing slot pairs in order."""

    def gamma(b):
        den = g * b.den
        return _element("Q", [Fraction(x, den) for x in mat_vec(G, b.nums)])

    slots = slot_basis()
    images = [gamma(b) for b in slots]
    return [
        "(%s, %s)" % (COORD_NAMES[i], COORD_NAMES[j])
        for i in range(22)
        for j in range(22)
        if gamma(slots[i] * slots[j]) != images[i] * images[j]
    ]


@pytest.mark.parametrize("entry", [(0, 0), (4, 9), (13, 15), (21, 21)])
def test_perturbed_gamma_fails_multiplicativity_with_the_reference_witnesses(entry):
    r, k = entry
    pb = PeirceBasis.load()
    G, g = pb.int_gamma
    G = [list(row) for row in G]
    G[r][k] += 1
    pb.int_gamma = G, g
    want = _fraction_gamma_failures(G, g)
    assert want
    rep = verify.stage_gamma(_shared_basis(pb))
    check = next(c for c in rep["checks"] if c["name"] == "gamma-multiplicative")
    assert check["status"] == "fail"
    assert check["detail"] == "fails at %s" % ", ".join(want[:6])


def _fraction_delta_failures(imgs):
    """Reference: delta-ring-map as it was written, delta applied to a
    BurnsideElement per pair through a dense matrix over one denominator."""
    den = math.lcm(*(b.den for b in imgs))
    rows = [[b.nums[r] * (den // b.den) for b in imgs] for r in range(22)]

    def delta(elem):
        nums, cden = common_denominator(elem.coeffs)
        return BlockElement.from_ints(mat_vec(rows, nums), den * cden)

    c = bisets.structure_table()
    unit_ok = imgs[IDENTITY_INDEX] == BlockElement.identity()
    bad = [
        "(%s, %s)" % (BASIS_LABELS[i], BASIS_LABELS[j])
        for i in range(22)
        for j in range(22)
        if imgs[i] * imgs[j] != delta(_element("Q", list(c[i][j])))
    ]
    return unit_ok, bad


@pytest.mark.parametrize("image, slot", [(0, "s11"), (7, "z2"), (IDENTITY_INDEX, "w"), (21, "x3")])
def test_perturbed_delta_image_fails_the_ring_map_with_the_reference_witnesses(
    monkeypatch, image, slot
):
    # a fresh set: int_delta_images and delta_products are derived on first
    # use, from the installed images
    fx = verify.FixtureSet()
    imgs = list(fx.delta_images)
    imgs[image] = imgs[image] + BlockElement.from_coords({slot: 1})
    fx.delta_images = imgs
    unit_ok, want = _fraction_delta_failures(imgs)
    assert want or not unit_ok
    rep = verify.stage_lambda(fx)
    check = next(c for c in rep["checks"] if c["name"] == "delta-ring-map")
    assert check["status"] == "fail"
    assert check["detail"] == "fails at %s" % ", ".join(want[:6] or ["the identity"])


def _fraction_random_block(rng, denominators=True):
    """Reference: the sampler as it was written, one Fraction per coordinate."""
    coords = []
    for _ in range(22):
        num = rng.randint(-24, 24)
        den = rng.randint(1, 6) if denominators else 1
        coords.append(Fraction(num, den))
    return BlockElement.from_vector(coords)


@pytest.mark.parametrize("denominators", [True, False])
def test_random_block_draws_the_same_samples_as_the_fraction_sampler(denominators):
    new, old = random.Random(verify._SEED), random.Random(verify._SEED)
    for _ in range(50):
        sample = BlockElement.from_ints(*verify._random_ints(new, denominators))
        assert sample == _fraction_random_block(old, denominators)
    assert new.random() == old.random()


@pytest.mark.parametrize("lo, hi", [(-24, 24), (1, 6), (-12, 12), (1, 4), (-9, 9)])
def test_randint_draws_what_random_randint_draws(lo, hi):
    for seed in (verify._SEED, verify._SEED + 2, verify._SEED + 3, 0):
        new, old = random.Random(seed), random.Random(seed)
        draw = verify._randint(new, lo, hi)
        assert [draw() for _ in range(3000)] == [old.randint(lo, hi) for _ in range(3000)]
        assert new.getstate() == old.getstate()


def _reference_table_mass(fx):
    """Reference: table-mass as first written, recounting the fixed points
    of (1, g) and (g, 1) in every cell."""
    c, sizes, bisets_by_class = fx.table, bisets.biset_sizes(), bisets.basis_bisets()
    els = bisets.S3.elements
    one = els.index(bisets.S3_ID)

    def off(i, j):
        total = 0
        for g in range(len(els)):
            am = bisets_by_class[i][one, g]
            an = bisets_by_class[j][g, one]
            fm = sum(1 for x, q in enumerate(am) if q == x)
            fn = sum(1 for y, q in enumerate(an) if q == y)
            total += fm * fn
        return 6 * sum(c[i][j][k] * sizes[k] for k in range(22)) != total

    return verify._cells(
        verify._pairs(BASIS_LABELS, off),
        "every contracted point count matches the fixed-point average",
        "point count off at %s",
    )


@pytest.mark.parametrize(
    "cells", [[(0, 0, 0)], [(3, 5, 7), (5, 3, 7)], [(i, 21 - i, i) for i in range(0, 22, 3)]]
)
def test_a_tampered_table_mass_cell_fails_at_the_same_cells(cells):
    fx = verify.FixtureSet()
    table = [[list(cell) for cell in row] for row in fx.table]
    for i, j, k in cells:
        table[i][j][k] += 1
    fx.table = table
    ok, detail = verify._table_mass(fx)
    assert (ok, detail) == _reference_table_mass(fx)
    named = ["(%s, %s)" % (BASIS_LABELS[i], BASIS_LABELS[j]) for i, j, _ in sorted(cells)][:6]
    assert (ok, detail) == (False, "point count off at %s" % ", ".join(named))


def test_emit_reuses_the_checked_products_and_writes_the_recomputed_table(tmp_path, monkeypatch):
    dst = _copy_fixtures(tmp_path)
    path = dst / "peirce.json"
    data = json.loads(path.read_text())
    cell = next(cell for row in data["table"][5:] for cell in row if cell)
    key = sorted(cell)[0]
    cell[key] += 1
    path.write_text(fixtures.canonical_dumps(data))
    # the sweep takes each row's left multiplication once and makes each of
    # the 484 products from it; emit makes none
    rows, products = [], []
    left, apply = linalg.left_columns, linalg.apply_columns
    monkeypatch.setattr(linalg, "left_columns", lambda r, x: rows.append(1) or left(r, x))
    monkeypatch.setattr(linalg, "apply_columns", lambda L, y: products.append(1) or apply(L, y))
    fx = verify.FixtureSet(str(dst))
    rep = verify.run(stages="peirce", fixture_dir=fx)
    failing = {c["name"] for s in rep["stages"] for c in s["checks"] if c["status"] == "fail"}
    assert failing == {"peirce-products"}
    assert (len(rows), len(products)) == (22, 484)
    out = tmp_path / "out"
    verify.emit_fixtures(str(out), fixture_dir=fx)
    assert (len(rows), len(products)) == (22, 484)
    assert (out / "peirce.json").read_bytes() == (fixtures.DEFAULT_DIR / "peirce.json").read_bytes()


@pytest.mark.parametrize(
    "coords, p, text",
    [
        ({"z2": 4, "z3": 4, "w": 2}, 2, "{z2: 4, z3: 4, w: 2}"),
        ({"z2": 3}, 3, "{z2: 3}"),
        ({"s11": Fraction(1, 3)}, 2, "{s11: 1/3}"),
    ],
)
def test_a_one_sided_witness_in_both_orders_is_named(monkeypatch, coords, p, text):
    witness = _pair(BlockElement.from_coords(coords))
    member = verify.localized_membership
    monkeypatch.setattr(
        verify,
        "localized_membership",
        lambda nums, den, q: (q != p and (list(nums), den) == witness) or member(nums, den, q),
    )
    rep = verify.stage_local2()
    failing = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    assert failing == {
        "membership-splits": "one-sided witness %s should lie in the order at %d but not at %d"
        % (text, p, 5 - p)
    }


def test_a_route_disagreement_skips_the_table_checks_in_every_stage(monkeypatch):
    table = [list(row) for row in bisets.mackey_table()]
    table[1][2] = (table[1][2][0] + 1,) + table[1][2][1:]
    _clear_table_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(bisets, "mackey_table", lambda: tuple(map(tuple, table)))
            rep = verify.run()
    finally:
        _clear_table_caches()
    status = {(s["stage"], c["name"]): c["status"] for s in rep["stages"] for c in s["checks"]}
    assert rep["status"] == "fail"
    assert [k for k, v in status.items() if v == "fail"] == [("peirce", "table-dual-route")]
    peirce = ("table-mass", "identity", "associativity", "idempotents", "peirce-products")
    assert [k for k, v in status.items() if v == "skip"] == [
        *(("peirce", name) for name in peirce + ("eps3-central",)),
        ("gamma", "gamma-multiplicative"),
        ("lambda", "delta-ring-map"),
    ]


def test_a_new_check_that_reads_the_table_is_skipped_with_no_flag(monkeypatch):
    # the skip comes from structure_table() raising, not from the check's row
    monkeypatch.setattr(
        verify,
        "_CHECKS",
        verify._CHECKS + (("reads-table", {"lambda": ()}, lambda fx: (bool(fx.table), "read")),),
    )
    assert verify.stage_lambda()["checks"][-1] == {
        "name": "reads-table", "status": "pass", "detail": "read"
    }
    table = [list(row) for row in bisets.mackey_table()]
    table[1][2] = (table[1][2][0] + 1,) + table[1][2][1:]
    _clear_table_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(bisets, "mackey_table", lambda: tuple(map(tuple, table)))
            rep = verify.stage_lambda()
    finally:
        _clear_table_caches()
    skip = {"status": "skip", "detail": "skipped: the structure-table routes disagree"}
    assert [c for c in rep["checks"] if c["status"] != "pass"] == [
        {"name": name, **skip} for name in ("delta-ring-map", "reads-table")
    ]


GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "perfbench/golden/verify_report.json"
GOLDEN = {
    (s["stage"], c["name"]): c
    for s in json.loads(GOLDEN_REPORT.read_text())["stages"]
    for c in s["checks"]
}
# (stage, name, check, args) of every check, in report order
REGISTERED = [(s, *entry) for s in verify.STAGE_ORDER for entry in verify._stage_checks(s)]


def test_the_check_table_lists_the_golden_checks_in_report_order():
    assert [(stage, name) for stage, name, *_ in REGISTERED] == list(GOLDEN)


@pytest.mark.parametrize(
    "stage, name, check, args", REGISTERED, ids=["%s/%s" % r[:2] for r in REGISTERED]
)
def test_each_check_alone_reproduces_its_golden_record(stage, name, check, args):
    ok, detail = check(verify.FixtureSet(), *args)
    record = {"name": name, "status": "pass" if ok else "fail", "detail": detail}
    assert record == GOLDEN[stage, name]


def test_the_rewriting_bound_fails_two_checks_with_no_traceback(monkeypatch, capsys):
    monkeypatch.setattr(quivers, "MAX_STEPS", 1)
    assert cli.main(["verify", "--json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    records = {
        (s["stage"], c["name"]): c for s in json.loads(out.out)["stages"] for c in s["checks"]
    }
    assert list(records) == list(GOLDEN)
    stopped = "cannot be checked: no normal form within 1 steps"
    assert {key: c for key, c in records.items() if c["status"] != "pass"} == {
        ("paths", name): {"name": name, "status": "fail", "detail": stopped}
        for name in ("presentation-z2_corner", "presentation-z2_corner-mod2")
    }


def test_a_column_outside_the_congruences_is_named(monkeypatch):
    member = verify.lambda_membership
    identity = _pair(BlockElement.identity())
    monkeypatch.setattr(
        verify,
        "lambda_membership",
        lambda nums, den=1: (list(nums), den) != identity and member(nums, den),
    )
    rep = verify.stage_lambda()
    failing = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    assert failing["columns-satisfy-congruences"] == (
        "columns failing a listed congruence condition: %s" % BASIS_LABELS[IDENTITY_INDEX]
    )


def test_match_classes_takes_the_least_conjugate_reference():
    G = symmetric_group(3)
    t12, t23 = (PermGroup(3, [Perm.from_cycle_string(c, 3)]) for c in ("(1,2)", "(2,3)"))
    outside = PermGroup(4, [Perm.from_cycle_string("(1,2)", 4)])
    classes, assignment = verify.match_classes(G, [outside, G, t23, t12])
    assert [(members[0].bit_count(), len(members)) for members in classes] == [
        (1, 1), (2, 3), (3, 1), (6, 1)
    ]
    assert assignment == [None, 2, None, 1]


def test_a_reference_conjugate_to_another_leaves_a_class_unlabeled(monkeypatch):
    refs = verify.labeled_subgroups()
    k, g = next(
        (k, g)
        for k, ref in enumerate(refs)
        for g in verify.pair_group()
        if any(g * h * g.inverse() not in ref for h in ref.generators)
    )
    refs[k + 1] = PermGroup(6, [g * h * g.inverse() for h in refs[k].generators])
    monkeypatch.setattr(verify, "labeled_subgroups", lambda: refs)
    assert verify._subgroup_classes(verify.FixtureSet()) == (
        False,
        "order 36 group, 22 conjugacy classes of subgroups, labels matched INCOMPLETELY",
    )


def test_a_run_closes_the_references_and_reduces_each_presentation_once(monkeypatch, tmp_path):
    closures, primes = [], []
    labeled = verify.labeled_subgroups
    monkeypatch.setattr(verify, "labeled_subgroups", lambda: closures.append(1) or labeled())
    reduce_mod = Presentation.reduce_mod
    monkeypatch.setattr(
        Presentation, "reduce_mod", lambda pres, p: primes.append(p) or reduce_mod(pres, p)
    )
    fx = verify.FixtureSet()
    assert verify._subgroup_classes(fx)[0] and verify._biset_sizes(fx)[0]
    assert verify.stage_paths(fx)["status"] == "pass"
    verify.emit_fixtures(str(tmp_path), fx)
    assert len(closures) == 1
    assert sorted(primes) == [2, 3]


def test_a_table_cell_off_the_identity_is_named():
    fx, e = verify.FixtureSet(), IDENTITY_INDEX
    table = [list(row) for row in bisets.structure_table()]
    for i, j in ((e, 3), (5, e)):
        table[i][j] = (table[i][j][0] + 1,) + table[i][j][1:]
    fx.table = table
    assert verify._identity(fx) == (
        False,
        "product with the identity is not the other factor at (%s, %s), (%s, %s)"
        % (BASIS_LABELS[5], BASIS_LABELS[e], BASIS_LABELS[e], BASIS_LABELS[3]),
    )


def test_a_doubled_idempotent_names_its_square_and_the_sum(monkeypatch):
    element_by_label = PeirceBasis.element_by_label

    def doubled(pb, label, ring="Q"):
        x = element_by_label(pb, label, ring)
        return x.scale(2) if label == "eps2" else x

    monkeypatch.setattr(PeirceBasis, "element_by_label", doubled)
    assert verify._idempotents(verify.FixtureSet()) == (
        False,
        "fails: eps2 eps2 = eps2; sum = 1",
    )


def test_an_identity_image_off_the_unit_is_named(monkeypatch):
    gamma_ints = PeirceBasis.gamma_ints

    def shifted(pb, nums, den=1):
        # gamma(b) + BurnsideElement.basis(2), over the denominator of gamma(b)
        image, d = gamma_ints(pb, nums, den)
        image[2] += d
        return image, d

    monkeypatch.setattr(PeirceBasis, "gamma_ints", shifted)
    assert verify._gamma_unit(verify.FixtureSet()) == (
        False,
        "gamma(1) differs from 1 at %s" % BASIS_LABELS[2],
    )


@pytest.mark.parametrize("p", [2, 3])
def test_a_local_idempotent_outside_the_order_is_named(monkeypatch, p):
    e4 = _pair(orders.local_idempotents(p)[3])
    member = verify.localized_membership
    monkeypatch.setattr(
        verify,
        "localized_membership",
        lambda nums, den, q: (list(nums), den) != e4 and member(nums, den, q),
    )
    assert verify._idempotents_local(verify.FixtureSet(), p) == (False, "fails: e4 in the order")


@pytest.mark.parametrize("p", [2, 3])
def test_a_broken_matrix_unit_is_named(monkeypatch, p):
    s31 = _pair(BlockElement.from_coords({"s31": 1}))
    member = verify.localized_membership
    monkeypatch.setattr(
        verify,
        "localized_membership",
        lambda nums, den, q: (list(nums), den) != s31 and member(nums, den, q),
    )
    es = list(orders.local_idempotents(p))
    es[0] = es[1]
    monkeypatch.setattr(verify, "local_idempotents", lambda q: tuple(es))
    assert verify._morita_witnesses(verify.FixtureSet(), p) == (
        False,
        "fails: s13 s31 = e1; s31 in the order",
    )


def _with_doubled(basis, name):
    """The named basis with the element called name doubled."""
    return tuple((k, x.scale(2) if k == name else x) for k, x in basis)


@pytest.mark.parametrize(
    "p, name, failing",
    [
        (3, "tau6", ["tau6 = tau3 tau4 + 4 tau1 tau2"]),
        (
            2,
            "tau7",
            [
                "tau7 tau7 = 2 tau7 + tau1 tau2",
                "tau2 tau7 = 2 tau2",
                "tau4 tau7 = 2 tau4",
                "tau7 tau1 = 2 tau1",
                "tau7 tau3 = 2 tau3",
            ],
        ),
        (3, "tau2", ["tau5 = tau1 tau2", "tau6 = tau3 tau4 + 4 tau1 tau2"]),
    ],
)
def test_a_doubled_corner_element_names_the_broken_relations(monkeypatch, p, name, failing):
    attr = "CORNER_BASIS_%d" % p
    monkeypatch.setattr(verify, attr, _with_doubled(getattr(verify, attr), name))
    assert verify._corner_identities(verify.FixtureSet(), p) == (
        False,
        "fails: " + "; ".join(failing),
    )


def test_a_run_and_its_emit_read_each_fixture_file_once(monkeypatch, tmp_path):
    names = []
    load_json = fixtures.load_json
    monkeypatch.setattr(
        fixtures, "load_json", lambda name, d=None: names.append(name) or load_json(name, d)
    )
    fx = verify.FixtureSet()
    assert verify.run(fixture_dir=fx)["status"] == "pass"
    verify.emit_fixtures(str(tmp_path), fx)
    assert sorted(names) == sorted(
        ["peirce.json", "delta_matrix.json", "errata.json"]
        + ["presentations/%s.json" % n for n in fixtures.PRESENTATION_NAMES]
    )


# Checks whose pass text is a fixed claim name what failed instead.

def test_a_doubled_b3_names_the_broken_corner_relation(monkeypatch):
    basis = _with_doubled(orders.GAMMA_CORNER_BASIS_2, "b3")
    monkeypatch.setattr(verify, "GAMMA_CORNER_BASIS_2", basis)
    fx = verify.FixtureSet()
    assert verify._gamma_corner_table(fx) == (False, "fails: b2^2 = 2b2 + b3")
    # b2^2 = 2b2 + b3 keeps the old b3, which is not in (2b1, b2, 2b3, b4)
    assert verify._radical_ideal(fx) == (False, "fails: b2 b2 in J")


@pytest.mark.parametrize(
    "check, detail",
    [
        ("_radical_ideal", "fails: b1 outside J"),
        ("_radical_cube", "fails: J^3 inside (8b1, 4b2, 2b3, 4b4); J^3 inside twice the corner"),
        ("_residue_field", "fails: b1 outside J"),
    ],
)
def test_a_radical_holding_the_unit_is_named(monkeypatch, check, detail):
    radical = verify._radical_2

    def whole_corner():
        b, jgens = radical()
        return b, {**jgens, "2b1": b["b1"]}

    monkeypatch.setattr(verify, "_radical_2", whole_corner)
    assert getattr(verify, check)(verify.FixtureSet()) == (False, detail)


def test_a_doubled_loop_element_names_the_broken_rational_corner_products(monkeypatch):
    basis = _with_doubled(orders.CORNER_BASIS_Q, "a'_{4,4}")
    monkeypatch.setattr(verify, "CORNER_BASIS_Q", basis)
    assert verify._rational_corner_table(verify.FixtureSet()) == (
        False,
        "fails: a_{4,1} a_{1,4} = a'_{4,4}; a_{4,2} a_{2,4} = a''_{4,4} - 12 a'_{4,4}",
    )


def test_a_non_central_eps3_names_the_basis_it_does_not_commute_with(monkeypatch):
    # e is the matrix unit s11: it commutes with every Peirce basis element
    # but the six off-diagonal ones that have e at exactly one end
    element_by_label = PeirceBasis.element_by_label

    def shifted(pb, label, ring="Q"):
        x = element_by_label(pb, label, ring)
        return x + element_by_label(pb, "e", ring) if label == "eps3" else x

    monkeypatch.setattr(PeirceBasis, "element_by_label", shifted)
    assert verify._eps3_central(verify.FixtureSet()) == (
        False,
        "eps3 does not commute with b_{e,g}, b_{e,h}, b_{g,e}, b_{h,e}, b_{e,eps4}, b_{eps4,e}",
    )


def test_a_non_integral_delta_image_is_named():
    fx = verify.FixtureSet()
    imgs = list(fx.delta_images)
    for k in (3, 21):
        imgs[k] = imgs[k] + BlockElement.from_coords({"w": Fraction(1, 2)})
    fx.delta_images = imgs
    assert verify._delta_integral(fx) == (
        False,
        "images with a non-integer coordinate: %s, %s" % (BASIS_LABELS[3], BASIS_LABELS[21]),
    )


def test_a_non_integral_corner_projection_names_the_generator():
    # z2 survives the e6 corner at 3, so the projection of image 5 gains a half there
    fx = verify.FixtureSet()
    imgs = list(fx.delta_images)
    z2 = imgs[5].nums[COORD_NAMES.index("z2")]
    imgs[5] = imgs[5] + BlockElement.from_coords({"z2": Fraction(1, 2)})
    fx.delta_images = imgs
    ok, detail = verify._loop_corner_span(fx)
    assert not ok
    assert detail.split("; ")[0] == (
        "projection of generator 5 (%s) is not integral: z2 = %s"
        % (BASIS_LABELS[5], z2 + Fraction(1, 2))
    )
    assert detail.count("is not integral") == 1


def _generator(j):
    return "projected generator %d (%s) escapes the claimed basis" % (j, BASIS_LABELS[j])


_DEPENDENT = "claimed corner basis is not linearly independent"


@pytest.mark.parametrize(
    "attr, name, tamper, stage, failing",
    [
        (  # b2 + e1 leaves the e5 corner, and the generator that made b2 escapes
            "GAMMA_CORNER_BASIS_2", "b2", lambda x: x + orders.local_idempotents(2)[0], "local2",
            {
                ("local2", "gamma-corner-span"): [
                    "basis element b2 is not fixed by the corner",
                    "basis element b2 is outside the projected order",
                    _generator(6),
                ],
            },
        ),
        (
            "GAMMA_CORNER_BASIS_2", "b3", lambda x: x.scale(Fraction(1, 2)), "local2",
            {("local2", "gamma-corner-span"): ["basis element b3 is outside the projected order"]},
        ),
        (
            "GAMMA_CORNER_BASIS_2", "b3", lambda x: x.scale(2), "local2",
            {("local2", "gamma-corner-span"): [_generator(j) for j in (2, 3, 5, 6)]},
        ),
        (  # tau6 := tau5 loses z3; the presentation checks read the same corner
            "CORNER_BASIS_2", "tau6", lambda x: dict(orders.CORNER_BASIS_2)["tau5"], "all",
            {
                ("local2", "basic-corner-span"): [_generator(20), _DEPENDENT],
                ("paths", "presentation-z2_corner"): [_DEPENDENT],
                ("paths", "presentation-z2_corner-mod2"): [_DEPENDENT],
            },
        ),
    ],
    ids=["not-fixed", "halved", "doubled", "dependent"],
)
def test_each_span_check_witness_fails_its_check_with_exit_1(
    monkeypatch, capsys, attr, name, tamper, stage, failing
):
    basis = getattr(verify, attr)
    monkeypatch.setattr(verify, attr, tuple((k, tamper(x) if k == name else x) for k, x in basis))
    assert cli.main(["verify", "--json", "--stage", stage]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    records = {
        (s["stage"], c["name"]): c for s in json.loads(out.out)["stages"] for c in s["checks"]
    }
    for (st, check), problems in failing.items():
        assert records[st, check] == {"name": check, "status": "fail", "detail": "; ".join(problems)}


def test_a_non_integral_24_inverse_names_its_entries():
    # five times column 0 divides row 0 of the inverse by 5
    fx = verify.FixtureSet()
    N, d = linalg.int_inverse(fx.matrix)
    fx.matrix = [[5 * x if c == 0 else x for c, x in enumerate(row)] for row in fx.matrix]
    want = [
        "(%s, %s)" % (BASIS_LABELS[0], COORD_NAMES[c]) for c in range(22) if 24 * N[0][c] // d % 5
    ]
    assert want
    assert verify._inverse_24_integral(fx) == (
        False,
        "24 times the inverse matrix is not integral at %s" % ", ".join(want[:6]),
    )


@pytest.mark.parametrize("row", [4, 21])
def test_a_differing_hermite_row_is_named(row):
    fx = verify.FixtureSet()
    hermite = [list(r) for r in fx.matrix_hermite]
    if row < len(hermite) - 1:
        hermite[row][row] += 1
    else:
        del hermite[row:]
    fx.matrix_hermite = hermite
    assert verify._lattice_equality(fx) == (
        False,
        "the two Hermite forms first differ at row %d" % row,
    )


def test_a_broken_loop_law_names_its_first_failing_sample(monkeypatch):
    # with xi' = tau6 + e6 = 1 + xi, the combination (a, b, c) is a + c + b eta
    # + c xi, whose products break the law exactly when c1 c2 or c1 b2 + c2 b1
    # is nonzero
    t = dict(orders.CORNER_BASIS_3)
    basis = tuple((k, x + t["e6"] if k == "tau6" else x) for k, x in orders.CORNER_BASIS_3)
    monkeypatch.setattr(verify, "CORNER_BASIS_3", basis)
    rng = random.Random(verify._SEED + 3)
    for n in range(200):
        a1, b1, c1, a2, b2, c2 = (rng.randint(-9, 9) for _ in range(6))
        if c1 * c2 or c1 * b2 + c2 * b1:
            break
    assert n < 200
    assert verify._loop_corner_law(verify.FixtureSet()) == (
        False,
        "the law fails on sample %d: (%d, %d, %d) times (%d, %d, %d)"
        % (n, a1, b1, c1, a2, b2, c2),
    )


def test_a_missing_loop_relation_mod2_is_named():
    fx = verify.FixtureSet()
    reduced = fx.reduction("z2_corner", 2)
    loop = element_from_terms(
        reduced.quiver, "F2", [["1", "e5", ["t7", "t7"]], ["-1", "e5", ["t1", "t2"]]]
    )
    kept = tuple(r for r in reduced.relations if r != loop)
    assert len(kept) == len(reduced.relations) - 1
    fx._reductions["z2_corner", 2] = reduced._replace(relations=kept)
    assert verify._loop_relation_mod2(fx) == (False, "fails: t7 t7 = t1 t2 at e5 mod 2")


def test_a_wrong_lattice_index_names_the_quantities():
    fx = verify.FixtureSet()
    hermite = [list(r) for r in fx.matrix_hermite]
    hermite[0][0] *= 5
    fx.matrix_hermite = hermite
    assert verify._index_matches_determinant(fx) == (
        False,
        "expected 10616832, got lattice index 53084160",
    )


def test_wrong_biset_sizes_are_named(monkeypatch):
    monkeypatch.setattr(verify, "biset_sizes", lambda: (1,) * 22)
    assert verify._biset_sizes(verify.FixtureSet()) == (
        False,
        "total 22, not 194; H_{0,0}: 1 points, not 36; H_{1,0}: 1 points, not 18; "
        "H_{0,1}: 1 points, not 18",
    )


@pytest.mark.parametrize(
    "broken_call, detail",
    [
        (0, "gamma^-1(gamma(b)) != b for block sample 0"),
        (5, "gamma(gamma^-1(x)) != x for ring sample 2"),
        (198, "gamma^-1(gamma(b)) != b for block sample 99"),
    ],
)
def test_a_broken_round_trip_names_its_direction_and_sample(monkeypatch, broken_call, detail):
    # sample n calls slot_ints twice: call 2n for the block sample,
    # call 2n + 1 for the ring sample
    slot_ints, calls = PeirceBasis.slot_ints, []

    def doubled_once(pb, nums, den=1):
        calls.append(1)
        back, d = slot_ints(pb, nums, den)
        return ([2 * x for x in back] if len(calls) == broken_call + 1 else back), d

    monkeypatch.setattr(PeirceBasis, "slot_ints", doubled_once)
    assert verify._gamma_roundtrip(verify.FixtureSet()) == (False, detail)


def test_a_lattice_without_1_is_named(monkeypatch):
    member = verify.lambda_membership
    identity = _pair(BlockElement.identity())
    monkeypatch.setattr(
        verify,
        "lambda_membership",
        lambda nums, den=1: (list(nums), den) != identity and member(nums, den),
    )
    assert verify._lambda_closed(verify.FixtureSet()) == (
        False,
        "the congruence lattice does not contain 1",
    )


def test_the_484_delta_products_are_made_once_per_run(monkeypatch):
    # each image's left multiplication is taken once, and each of the 484
    # products is made from it once, for delta-ring-map and lambda-closed both
    fx = verify.FixtureSet()
    fx.table, fx.delta_images  # built before counting
    rows, products = [], []
    left, apply = linalg.left_columns, linalg.apply_columns
    monkeypatch.setattr(linalg, "left_columns", lambda r, x: rows.append(1) or left(r, x))
    monkeypatch.setattr(linalg, "apply_columns", lambda L, y: products.append(1) or apply(L, y))
    assert verify._delta_ring_map(fx)[0] and verify._lambda_closed(fx)[0]
    assert (len(rows), len(products)) == (22, 484)


def test_a_full_run_builds_one_corner_algebra_per_corner(monkeypatch):
    # no basis is built twice, and no lattice of one is factored twice at a
    # prime: basic-corner-span at p and the presentation checks of the z<p>
    # corner read one corner, rational-corner-table and presentation-q another
    built, lattices, spanned = [], [], []
    Corner = quivers.CornerAlgebra
    init, span, local = Corner.__init__, Corner.span_problems, quivers.LocalLattice
    monkeypatch.setattr(Corner, "__init__", lambda c, basis: built.append(basis) or init(c, basis))
    monkeypatch.setattr(
        Corner, "span_problems", lambda c, p, *a: spanned.append((p, c)) or span(c, p, *a)
    )
    monkeypatch.setattr(
        quivers, "LocalLattice", lambda rows, p: lattices.append((rows, p)) or local(rows, p)
    )
    presented = []
    present = verify.verify_presentation
    monkeypatch.setattr(
        verify, "verify_presentation", lambda pres, c: presented.append(c) or present(pres, c)
    )
    fx = verify.FixtureSet()
    assert verify.run(fixture_dir=fx)["status"] == "pass"
    assert len(set(built)) == len(built)
    for basis in (orders.CORNER_BASIS_Q, orders.CORNER_BASIS_2, orders.CORNER_BASIS_3):
        assert built.count(basis) == 1
    corners = fx.corners
    assert presented == [corners[n] for n in ("q_corner",) + ("z2_corner",) * 2 + ("z3_corner",) * 2]
    for p in (2, 3):
        corner = corners["z%d_corner" % p]
        assert (p, corner) in spanned
        assert [q for rows, q in lattices if rows is corner._rows] == [p]


def test_a_full_run_eliminates_the_matrix_and_gamma_once_each(monkeypatch):
    # full-rank and index-matches-determinant read the determinant of the
    # elimination that 24-inverse-integral inverts; gamma-bijective that of gamma^-1
    calls = []
    eliminate = linalg._bareiss
    monkeypatch.setattr(
        linalg, "_bareiss", lambda A, adjoin: calls.append(tuple(map(tuple, A))) or eliminate(A, adjoin)
    )
    fx = verify.FixtureSet()
    assert verify.run(fixture_dir=fx)["status"] == "pass"
    G, _ = fx.peirce.int_gamma
    assert calls.count(tuple(map(tuple, fx.matrix))) == 1
    assert calls.count(tuple(map(tuple, G))) == 1


def test_a_full_run_factors_each_smith_input_once(monkeypatch):
    # LocalLattice shares its Smith step between lattices on the same rows,
    # at p = 2 and p = 3 alike; the cache starts empty here
    calls, outputs = [], []
    original = linalg.smith_normal_form

    def recording(A):
        calls.append(tuple(map(tuple, A)))
        outputs.append(original(A))
        return outputs[-1]

    monkeypatch.setattr(linalg, "smith_normal_form", recording)
    monkeypatch.setattr(orders, "smith_normal_form", recording)
    linalg._smith_step.cache_clear()
    try:
        assert verify.run()["status"] == "pass"
    finally:
        linalg._smith_step.cache_clear()
    assert len(calls) >= 20
    assert len(calls) == len(set(calls))
    # some unimodular U has U*A*V == D iff A*V and D span one row lattice
    for A, (D, V) in zip(calls, outputs):
        assert abs(bareiss(V, False)[0]) == 1
        assert hnf_rows(mat_mul(A, V)) == hnf_rows(D)
