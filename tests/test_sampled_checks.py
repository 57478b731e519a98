"""verify's sampled checks and the emit table conversion run on integer
numerators over one denominator; each must report what its element-based
reference in reference.py reports, on the shipped fixtures and under seeded
perturbations of the data it reads."""

import json
import random
from fractions import Fraction

import pytest

import reference
from bisetforge import blocks, orders, verify
from bisetforge.blocks import BlockElement, PeirceBasis
from bisetforge.linalg import SparseColumns, StructureElement
from reference import outcome

LOOPS = (
    ("gamma-roundtrip", verify._gamma_roundtrip, reference.gamma_roundtrip),
    ("lambda-closed", verify._lambda_closed, reference.lambda_closed),
    ("membership-splits", verify._membership_splits, reference.membership_splits),
    ("loop-corner-law", verify._loop_corner_law, reference.loop_corner_law),
    ("unit-criterion", verify._unit_criterion, reference.unit_criterion),
)


def _warm_fixture_set():
    """A FixtureSet whose shared values are built on the unperturbed data, so
    that a perturbation reaches the loops alone and no process-wide cache
    keeps a perturbed value."""
    orders._conjugators()
    fx = verify.FixtureSet()
    fx.delta_images, fx.delta_products, fx.peirce_products  # noqa: B018
    return fx


def _slot_triple(monkeypatch, fx, rng):
    # a constant of the e6 corner's cells: z1, z2 and z3 times z1, z2 and z3
    cells = [list(map(list, row)) for row in blocks.slot_cells()]
    corner = [blocks.COORD_INDEX[n] for n in ("z1", "z2", "z3")]
    pairs = [(i, j, t) for i in corner for j in corner for t in range(len(cells[i][j]))]
    i, j, t = rng.choice(pairs)
    k, c = cells[i][j][t]
    if rng.random() < 0.5:
        cells[i][j][t] = (k, c + rng.choice((-2, -1, 1, 2)))
    else:
        cells[i][j][t] = (rng.choice([x for x in range(22) if x != k]), c)
    monkeypatch.setattr(blocks, "slot_cells", lambda: tuple(tuple(map(tuple, r)) for r in cells))


def _gamma_entry(monkeypatch, fx, rng):
    # one entry of gamma's or gamma^-1's sparse columns
    pb = fx.peirce
    name = rng.choice(("_gamma_columns", "_inverse_columns"))
    A, den = getattr(pb, name)
    cols = [list(col) for col in A.cols]
    c = rng.choice([c for c, col in enumerate(cols) if col])
    e = rng.randrange(len(cols[c]))
    r, x = cols[c][e]
    cols[c][e] = (r, x + rng.choice((-1, 1)))
    perturbed = SparseColumns(A.nrows, tuple(map(tuple, cols)))
    monkeypatch.setattr(pb, name, (perturbed, den), raising=False)


def _modulus(monkeypatch, fx, rng):
    # one modulus of the compiled congruences of Lambda, Lambda_(2) or Lambda_(3),
    # times 2 or 3
    which = rng.choice((None, 2, 3))
    conds = list(orders.LAMBDA_CONDITIONS if which is None else orders._LOCAL_CONDITIONS[which])
    t = rng.randrange(len(conds))
    terms, m = conds[t]
    conds[t] = (terms, rng.choice((2, 3)) * m)
    if which is None:
        monkeypatch.setattr(orders, "LAMBDA_CONDITIONS", tuple(conds))
    else:
        monkeypatch.setitem(orders._LOCAL_CONDITIONS, which, tuple(conds))


def _shifted_xi(monkeypatch, fx, rng):
    # tau6 -> tau6 + e6: the corner's xi becomes 1 + xi
    t = dict(orders.CORNER_BASIS_3)
    basis = tuple((k, x + t["e6"] if k == "tau6" else x) for k, x in orders.CORNER_BASIS_3)
    monkeypatch.setattr(verify, "CORNER_BASIS_3", basis)


def _delta_image(monkeypatch, fx, rng):
    # one delta image plus e_k / q: samples of membership-splits and products
    # of lambda-closed over a denominator; at q = 5 the split itself fails
    imgs = list(fx.delta_images)
    i, k, q = rng.randrange(22), rng.randrange(22), rng.choice((2, 3, 5, 6))
    imgs[i] = imgs[i] + BlockElement.from_ints([int(j == k) for j in range(22)], q)
    monkeypatch.setattr(fx, "delta_images", imgs)
    for name in ("int_delta_images", "delta_products"):
        monkeypatch.setattr(fx, name, getattr(verify.FixtureSet, name).func(fx))


def _broken_call(monkeypatch, fx, rng):
    # gamma^-1 doubled on one call of the round trip's 200: either direction
    slot_ints, calls, broken = PeirceBasis.slot_ints, [], rng.randrange(200)

    def doubled_once(pb, nums, den=1):
        calls.append(1)
        back, d = slot_ints(pb, nums, den)
        return ([2 * x for x in back] if len(calls) == broken + 1 else back), d

    monkeypatch.setattr(PeirceBasis, "slot_ints", doubled_once)


def _nonintegral_product(monkeypatch, fx, rng):
    # one Peirce product plus 1 at one coordinate: gamma^-1 of it over d^2 is not integral
    prods = [[list(p) for p in row] for row in fx.peirce_products]
    prods[rng.randrange(22)][rng.randrange(22)][rng.randrange(22)] += 1
    monkeypatch.setattr(fx, "peirce_products", prods)


def _outcomes(monkeypatch, fx, perturb, seed, *runs):
    """outcome(run) for each run, each under a fresh copy of the perturbation."""
    out = []
    for run in runs:
        with monkeypatch.context() as m:
            if perturb:
                perturb(m, fx, random.Random(seed))
            out.append(outcome(run))
    return out


SEEDED = (_slot_triple, _gamma_entry, _modulus, _delta_image, _broken_call)
PERTURBATIONS = [(None, 0), (_shifted_xi, 0)] + [(f, s) for f in SEEDED for s in range(6)]


@pytest.mark.parametrize(
    "perturb, seed",
    PERTURBATIONS,
    ids=["%s-%d" % (f.__name__[1:] if f else "none", s) for f, s in PERTURBATIONS],
)
def test_each_sampled_check_reports_what_its_element_reference_reports(monkeypatch, perturb, seed):
    fx = _warm_fixture_set()
    failed = []
    for check, fast, ref in LOOPS:
        got, want = _outcomes(monkeypatch, fx, perturb, seed, lambda: fast(fx), lambda: ref(fx))
        assert got == want, check
        (ok, _), err = got
        assert err is None, err
        failed.append(not ok)
    # each perturbation reaches at least one of the loops
    assert any(failed) == (perturb is not None)


def _emitted_table(fx, out):
    verify.emit_fixtures(str(out), fixture_dir=fx)
    return json.loads((out / "peirce.json").read_text())["table"]


@pytest.mark.parametrize(
    "perturb, seed",
    # seed 0 of _gamma_entry changes gamma^-1, which the conversion applies
    [(None, 0), (_nonintegral_product, 0), (_nonintegral_product, 1), (_gamma_entry, 0)],
)
def test_the_emitted_table_is_what_the_element_conversion_makes(
    monkeypatch, tmp_path, perturb, seed
):
    fx = _warm_fixture_set()
    got, want = _outcomes(
        monkeypatch,
        fx,
        perturb,
        seed,
        lambda: _emitted_table(fx, tmp_path / "out"),
        lambda: reference.peirce_table(fx),
    )
    assert got == want
    assert (want[1] is None) == (perturb is None), want[1]


def test_verify_and_emit_build_no_element_per_sample(monkeypatch, tmp_path):
    # StructureElement._new makes every element; the six rewritten loops
    # made 6,226 of a cold run's 8,837
    built, at = {}, ["other"]
    new = StructureElement._new.__func__

    def counting(cls, ring, nums, den=1):
        built[at[0]] = built.get(at[0], 0) + 1
        return new(cls, ring, nums, den)

    def named(name, check):
        def run(fx, *args):
            at[0] = name
            try:
                return check(fx, *args)
            finally:
                at[0] = "other"

        return run

    monkeypatch.setattr(StructureElement, "_new", classmethod(counting))
    fractions = [0]
    new_fraction = Fraction.__new__

    def counting_fraction(cls, *args, **kwargs):
        fractions[0] += 1
        return new_fraction(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_fraction))
    checks = tuple((n, s, named(n, c)) for n, s, c in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", checks)
    fx = verify.FixtureSet()
    assert verify.run(fixture_dir=fx)["status"] == "pass"
    at[0] = "emit"
    verify.emit_fixtures(str(tmp_path), fixture_dir=fx)
    bounds = {
        "gamma-roundtrip": 0,
        "lambda-closed": 1,  # the identity
        "membership-splits": 3,  # the three one-sided witnesses
        "loop-corner-law": 0,
        "unit-criterion": 0,
        "emit": 0,
    }
    assert {k: built.get(k, 0) for k in bounds} == bounds
    assert sum(built.values()) < 3000
    # 602 Fractions; 1,086 when PeirceBasis rebuilt every coefficient as one
    assert fractions[0] < 700
