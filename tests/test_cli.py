import contextlib
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisetforge import bisets, cli, fixtures, perms, verify
from bisetforge.perms import Perm, PermGroup
from bisetforge.rings import RINGS
from reference import subgroups_output
from test_rings import COEFFICIENT_GRAMMAR


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_subgroups_pair_group_lists_22_labeled_classes(capsys):
    code, out, err = run_cli(capsys, "subgroups", "S3xS3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 36
    assert data["class_count"] == 22
    labels = [r["label"] for r in data["classes"]]
    assert None not in labels
    assert len(set(labels)) == 22
    assert "H^D_5" in labels
    orders = [r["order"] for r in data["classes"]]
    assert sorted(orders)[0] == 1 and sorted(orders)[-1] == 36


@pytest.mark.parametrize(
    "spec, closures, labeled",
    [
        ("S3xS3", 1, True),
        ("(1,2);(1,2,3);(4,5);(4,5,6)", 1, True),
        ("(1,2,3);(4,5,6)", 0, False),
        ("C12", 0, False),
    ],
)
def test_subgroups_closes_the_pair_group_once_and_only_for_its_order(
    capsys, monkeypatch, spec, closures, labeled
):
    calls = []
    pair_group = bisets.pair_group
    monkeypatch.setattr(bisets, "pair_group", lambda: calls.append(1) or pair_group())
    code, out, _ = run_cli(capsys, "subgroups", spec, "--json")
    assert code == 0
    assert len(calls) == closures
    assert {r["label"] is not None for r in json.loads(out)["classes"]} == {labeled}


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    builds = []
    add_subparsers = cli._Parser.add_subparsers
    monkeypatch.setattr(
        cli._Parser, "add_subparsers", lambda ap, **kw: builds.append(1) or add_subparsers(ap, **kw)
    )
    cli.build_parser.cache_clear()
    try:
        codes = [
            run_cli(capsys, *argv)[0]
            for argv in (
                ["subgroups", "S3", "--json"],
                ["mult", "eps2", "H_8"],
                ["subgroups", "--jsn", "S3"],
                ["verify", "--stage", "nope"],
                ["subgroups", "C6"],
            )
        ]
    finally:
        cli.build_parser.cache_clear()
    assert codes == [0, 0, 2, 2, 0]
    assert len(builds) == 1


def test_a_usage_error_between_two_calls_leaves_the_output_unchanged(capsys):
    first = run_cli(capsys, "subgroups", "S3xS3", "--json")
    assert run_cli(capsys, "subgroups", "S3xS3", "--jsn")[0] == 2
    assert run_cli(capsys, "mult", "--ring", "Z5", "eps2", "H_8")[0] == 2
    assert run_cli(capsys, "subgroups", "S3xS3", "--json") == first


@pytest.mark.parametrize(
    "spec, classes, built",
    [("(1,2,3); (1,2,3,4,5)", 9, 1), ("S3xS3", 22, 0)],
    ids=["A5", "S3xS3"],
)
def test_subgroups_builds_only_the_group_and_hashes_no_perm(
    capsys, monkeypatch, spec, classes, built
):
    # a class stays masks from the lattice to the output; S3xS3 and its
    # labeled references are built by the first call of the process
    run_cli(capsys, "subgroups", spec, "--json")
    builds, hashes = [], []
    init, perm_hash = PermGroup.__init__, Perm.__hash__
    monkeypatch.setattr(PermGroup, "__init__", lambda G, *a: builds.append(1) or init(G, *a))
    monkeypatch.setattr(Perm, "__hash__", lambda p: hashes.append(1) or perm_hash(p))
    code, out, _ = run_cli(capsys, "subgroups", spec, "--json")
    assert code == 0
    assert json.loads(out)["class_count"] == classes
    assert (len(builds), len(hashes)) == (built, 0)


@pytest.mark.parametrize("spec", ["(1,2,3); (1,2,3,4,5)", "S3xS3"], ids=["A5", "S3xS3"])
def test_subgroups_joins_no_cyclic_and_spells_each_generator_once(capsys, monkeypatch, spec):
    # a cyclic subgroup is the powers of its generator, not a join from the
    # trivial subgroup; a generator shared by several classes is spelled once
    starts, spelled = [], []
    join, cycle_string = perms._Tables.join, Perm.cycle_string
    monkeypatch.setattr(
        perms._Tables, "join", lambda T, elems, *a: starts.append(len(elems)) or join(T, elems, *a)
    )
    monkeypatch.setattr(Perm, "cycle_string", lambda p: spelled.append(p.images) or cycle_string(p))
    code, out, _ = run_cli(capsys, "subgroups", spec, "--json")
    assert code == 0
    assert starts and 1 not in starts
    gens = [g for row in json.loads(out)["classes"] for g in row["generators"] if g != "()"]
    assert len(spelled) == len(set(spelled)) == len(set(gens))


_REFERENCE_SPECS = [
    *[("S%d" % n, "S%d" % n) for n in range(1, 6)],
    *[("C%d" % n, "C%d" % n) for n in [*range(1, 13), 30]],
    ("A4", "(1,2,3); (2,3,4)"),
    ("A5", "(1,2,3); (1,2,3,4,5)"),
    ("D6", "(1,2,3,4,5,6); (2,6)(3,5)"),
    ("AGL(1,5)", "(1,2,3,4,5); (2,3,5,4)"),
    ("S3xS3", "S3xS3"),
]


@pytest.mark.parametrize(
    "spec", [spec for _, spec in _REFERENCE_SPECS], ids=[name for name, _ in _REFERENCE_SPECS]
)
def test_subgroups_output_equals_the_one_group_per_class_reference(capsys, spec):
    for flags, as_json in ((["--json"], True), ([], False)):
        code, out, err = run_cli(capsys, "subgroups", spec, *flags)
        assert (code, err) == (0, "")
        assert out == subgroups_output(spec, as_json)


def test_subgroups_text_output(capsys):
    code, out, err = run_cli(capsys, "subgroups", "S3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "4 conjugacy classes" in lines[0]
    assert len(lines) == 2 + 4


def test_subgroups_accepts_generator_lists(capsys):
    code, out, err = run_cli(capsys, "subgroups", "(1,2); (1,2,3)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 6
    assert data["class_count"] == 4
    assert all(r["label"] is None for r in data["classes"])


def test_subgroups_cyclic(capsys):
    code, out, err = run_cli(capsys, "subgroups", "C12", "--json")
    assert code == 0
    data = json.loads(out)
    # one subgroup per divisor of 12
    assert data["class_count"] == 6


@pytest.mark.parametrize(
    "spec",
    ["S7", "C31", "F4", "", "(1,2", "(1,2)(2,3)"],
)
def test_bad_group_specs_exit_2(capsys, spec):
    code, out, err = run_cli(capsys, "subgroups", spec)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("spec", ["(1,2)(2,3)", "(1,2)(1,2)"])
def test_overlapping_cycles_are_refused_as_typed(capsys, spec):
    code, out, err = run_cli(capsys, "subgroups", spec)
    assert (code, out) == (2, "")
    assert err == "error: cycles are not disjoint: %r\n" % spec


@pytest.mark.parametrize(
    "spec", ["(1,2); (1,2,3,4,5,6,7,8,9,10)", "(1,2); (1,2,3,4,5,6,7)"], ids=["S10", "S7"]
)
def test_oversized_group_refused_before_work(spec):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bisetforge.cli", "subgroups", spec],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert elapsed < 2


def test_a_group_with_too_many_subgroups_exits_2(capsys):
    # C2^7: order 128, inside the order capacity, with 29,212 subgroups
    spec = "; ".join("(%d,%d)" % (k, k + 1) for k in range(1, 14, 2))
    code, out, err = run_cli(capsys, "subgroups", spec, "--json")
    assert (code, out) == (2, "")
    assert err == "error: subgroup count exceeds the capacity of 4000 subgroups\n"


def test_mult_basis_product(capsys):
    code, out, err = run_cli(capsys, "mult", "H_{1,0}", "H_{0,1}", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["product"] == "H_{1,1}:6"


def test_mult_peirce_idempotent(capsys):
    code, out, err = run_cli(capsys, "mult", "eps2", "eps2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == data["product"]


def test_mult_coefficient_lists(capsys):
    code, out, err = run_cli(
        capsys, "mult", "H_{0,0}:1/2", "H_{0,0}:1/3", "--ring", "Q", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["product"] == "H_{0,0}:1"


def test_mult_ring_validation(capsys):
    code, out, err = run_cli(capsys, "mult", "H_{0,0}:1/2", "H_{0,0}", "--ring", "Z")
    assert code == 2
    assert "error:" in err
    code, out, err = run_cli(
        capsys, "mult", "H_{0,0}:1/3", "H_{0,0}", "--ring", "Z2"
    )
    assert code == 0


def test_mult_unknown_label_exits_2(capsys):
    code, out, err = run_cli(capsys, "mult", "H_{9,9}", "H_{0,0}")
    assert code == 2


def test_mult_reads_the_zero_it_prints(capsys):
    code, out, err = run_cli(capsys, "mult", "0", "H_8")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["  a = 0", "  b = H_8:1", "  a * b = 0"]
    code, out, err = run_cli(capsys, "mult", "H_8", "0", "--json")
    assert code == 0
    assert json.loads(out) == {"ring": "Q", "a": "H_8:1", "b": "0", "product": "0"}
    code, out, err = run_cli(capsys, "mult", "", "H_8")
    assert (code, out) == (2, "")
    assert err == "error: unknown basis label ''\n"


def test_mult_refuses_an_operand_past_the_digit_bound_before_any_output(capsys):
    # both operands are parsed before anything is printed; the product of
    # two 2,200-digit coefficients would pass Python's 4,300-digit limit
    nines = "H_8:" + "9" * 2200
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "mult", nines, nines, *extra)
        assert (code, out, err) == (2, "", "error: coefficient of H_8 has more than 2000 digits\n")
    code, out, err = run_cli(capsys, "mult", "H_8:1", "H^Δ_5 : " + "9" * 5000)
    assert (code, out, err) == (2, "", "error: coefficient of H^D_5 has more than 2000 digits\n")
    # a sum of terms at one label, and a common denominator of 2,908 digits
    code, out, err = run_cli(capsys, "mult", "H_8:" + "9" * 2000 + ",H_8:1", "H_8")
    assert (code, out, err) == (2, "", "error: coefficient of H_8 has more than 2000 digits\n")
    wide = "H_{0,0}:1/%d,H_8:1/%d,H_7:1/%d" % (2**3000, 3**2000, 5**1500)
    code, out, err = run_cli(capsys, "mult", "H_8", wide)
    assert (code, out, err) == (2, "", "error: common denominator of more than 2000 digits\n")


def test_mult_prints_the_largest_accepted_pair(capsys):
    n, d = 10**2000 - 1, 10**2000 - 3  # 2,000 digits each, and coprime
    text = ",".join("%s:-%d/%d" % (label, n, d) for label in bisets.BASIS_LABELS)
    a = bisets.parse_element(text)
    assert (a.nums, a.den) == ((-n,) * 22, d)
    product = bisets.format_element(a * a)
    code, out, err = run_cli(capsys, "mult", text, text)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "  a * b = " + product
    code, out, err = run_cli(capsys, "mult", text, text, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["product"] == product


def test_verify_single_stage_text(capsys):
    code, out, err = run_cli(capsys, "verify", "--stage", "gamma")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "result: PASS"
    assert all(l.startswith("PASS gamma/") for l in lines[:-1])


def test_verify_json_is_byte_deterministic(capsys):
    code1, out1, err1 = run_cli(capsys, "verify", "--stage", "paths", "--json")
    code2, out2, err2 = run_cli(capsys, "verify", "--stage", "paths", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["status"] == "pass"
    canon = fixtures.canonical_dumps(data)
    assert out1 == canon


def _written(dump, data):
    """dump(data), or the type of the exception it raises."""
    try:
        return dump(data)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _json_dumps(data):
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_json_texts = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00", "\x1f\x7f", "\u2028", "é😀"])
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**5000), 10**5000)
    | st.floats()
    | _json_texts,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_json_texts, inner),
    max_leaves=25,
)


@settings(deadline=None)
@given(_json_values)
@example({})
@example([[], {}, ()])
@example({"b": [1, -2, {"a": None}], "a": {"c": "\\\"\n\t"}, "": 1.5})
@example(-(10**4999))
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
def test_canonical_dumps_writes_what_json_dumps_writes(data):
    assert _written(fixtures.canonical_dumps, data) == _written(_json_dumps, data)


@pytest.mark.parametrize("data", [{"a": {1, 2}}, [object()], {"a": [1, frozenset()]}])
def test_canonical_dumps_refuses_what_json_refuses(data):
    with pytest.raises(TypeError):
        json.dumps(data)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        fixtures.canonical_dumps(data)


def test_verify_tampered_fixture_exits_1(capsys, tmp_path):
    dst = tmp_path / "fixtures"
    shutil.copytree(fixtures.DEFAULT_DIR, dst)
    path = dst / "delta_matrix.json"
    data = json.loads(path.read_text())
    data["matrix"][2][0] -= 1
    path.write_text(fixtures.canonical_dumps(data))
    code, out, err = run_cli(
        capsys, "verify", "--stage", "lambda", "--fixture-dir", str(dst)
    )
    assert code == 1
    assert "FAIL lambda/matrix-fixture" in out
    assert "result: FAIL" in out


def test_verify_emit_writes_identical_fixtures(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--stage", "gamma", "--emit", "fixtures")
    assert code == 0
    assert err.count("wrote ") == 6
    regen = tmp_path / "fixtures.regenerated"
    assert (regen / "peirce.json").read_bytes() == (
        fixtures.DEFAULT_DIR / "peirce.json"
    ).read_bytes()
    assert (regen / "presentations" / "z2_corner.json").read_bytes() == (
        fixtures.DEFAULT_DIR / "presentations" / "z2_corner.json"
    ).read_bytes()


def test_zero_denominator_operand_exits_2(capsys):
    code, out, err = run_cli(capsys, "mult", "H_{1,0}:1/0", "eps2")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_missing_fixture_dir_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "verify", "--stage", "gamma", "--fixture-dir", str(tmp_path / "missing")
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_verify_json_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "bisetforge.cli", "verify", "--stage", "lambda", "--json"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b"'x1', 'x2', 'x3', 'y', 'w+z1+z2+z3']" in outs[0]


GOLDEN_REPORT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "golden", "verify_report.json",
)


def _assert_golden(code, out, err):
    assert code == 0 and err == ""
    with open(GOLDEN_REPORT, "rb") as fh:
        assert out.encode("utf-8") == fh.read()


def test_verify_json_matches_the_golden_report(capsys):
    _assert_golden(*run_cli(capsys, "verify", "--json"))


def _tree(root):
    """{path below root: bytes} for every file under root."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _open_fds():
    """The file descriptors this process holds, or None without /proc."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _verify_cleanly(capsys, *argv):
    """run_cli(capsys, "verify", *argv), checking that it leaves no file
    descriptor open and gives no DeprecationWarning (which os.fork gives in a
    threaded process) or ResourceWarning (a pipe left for the collector to
    close); the warnings are recorded, so the check holds under any filter."""
    fds = _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(capsys, "verify", *argv)
    unwanted = (DeprecationWarning, ResourceWarning)
    assert [w.message for w in caught if issubclass(w.category, unwanted)] == []
    assert _open_fds() == fds
    return result


def _verify_on_one_and_two_cpus(capsys, monkeypatch, tmp_path, *argv):
    """_verify_cleanly(capsys, *argv) as if one CPU, then two CPUs, could be
    used, each in its own directory tmp_path/1 and tmp_path/2: the two
    (code, out, err).  Checks that only the second run forked and that
    neither left a child behind."""
    real_fork, forks = os.fork, []

    def fork():
        pid = real_fork()
        forks.append(pid)  # a child appends to its own copy
        return pid

    monkeypatch.setattr(os, "fork", fork)
    results = []
    for n in (1, 2):
        monkeypatch.setattr(cli, "usable_cpus", lambda n=n: n)
        (tmp_path / str(n)).mkdir()
        monkeypatch.chdir(tmp_path / str(n))
        results.append(_verify_cleanly(capsys, *argv))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 1 and forks[0] > 0
    return results


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_two_process_verify_prints_and_emits_the_one_process_output(
    capsys, monkeypatch, tmp_path
):
    one, two = _verify_on_one_and_two_cpus(
        capsys, monkeypatch, tmp_path, "--json", "--emit", "fixtures"
    )
    assert one == two
    code, out, err = two
    assert code == 0 and err.count("wrote ") == 6
    with open(GOLDEN_REPORT, "rb") as fh:
        assert out.encode("utf-8") == fh.read()
    shipped = _tree(fixtures.DEFAULT_DIR)
    for n in (1, 2):
        assert _tree(tmp_path / str(n) / "fixtures.regenerated") == shipped


def _fail_in_the_child(how):
    """Make a forked child fail: raise, die by a signal, exit 0 having
    written text that is not JSON, or exit 1 having written a JSON report."""
    parent = os.getpid()
    run, dump = verify.run, json.dump

    def child_run(*args, **kwargs):
        if os.getpid() != parent:
            if how == "raises":
                raise RuntimeError("child failed")
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
        return run(*args, **kwargs)

    def child_dump(obj, fh, **kwargs):
        if os.getpid() != parent:
            if how == "not-json":
                fh.write('{"status": "pass", "stag')
                return None
            if how == "json-then-raises":
                fh.write('{"status": "pass", "stages": []}')
                raise RuntimeError("child failed")
        return dump(obj, fh, **kwargs)

    return child_run, child_dump


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("how", ["raises", "killed", "not-json", "json-then-raises"])
def test_two_process_verify_runs_the_stages_itself_when_the_child_fails(
    capsys, monkeypatch, tmp_path, how
):
    child_run, child_dump = _fail_in_the_child(how)
    monkeypatch.setattr(verify, "run", child_run)
    monkeypatch.setattr(json, "dump", child_dump)
    one, two = _verify_on_one_and_two_cpus(capsys, monkeypatch, tmp_path, "--json")
    assert one == two
    _assert_golden(*two)


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_verify_runs_in_one_process_when_fork_fails(capsys, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    _assert_golden(*_verify_cleanly(capsys, "--json"))


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("stage", ["peirce", "local2"])
def test_one_stage_runs_in_one_process(capsys, monkeypatch, stage):
    def forbidden():
        raise AssertionError("forked for one stage")

    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", forbidden)
    code, out, err = run_cli(capsys, "verify", "--stage", stage, "--json")
    assert code == 0 and err == ""
    assert [s["stage"] for s in json.loads(out)["stages"]] == [stage]


def test_the_child_stages_build_no_structure_table():
    # what a forked child runs reads the fixtures, the delta images and the
    # corners, never a structure table
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "from bisetforge import bisets, cli, verify\n"
        "print(verify.run(cli.CHILD_STAGES)['status'])\n"
        "for f in (bisets.structure_cells, bisets.oracle_table, bisets.mackey_table):\n"
        "    print(f.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"pass", b"0", b"0", b"0"]


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_verify_does_not_fork_beside_another_thread(capsys, monkeypatch):
    def forbidden():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", forbidden)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        result = run_cli(capsys, "verify", "--json")
    finally:
        done.set()
        waiter.join()
    _assert_golden(*result)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        (  # read first in this process's stages
            "peirce.json",
            lambda d: d["basis22"]["vectors"].pop("eps2"),
            "error: peirce.json:basis22.vectors: missing 'eps2'",
        ),
        (  # read only in the child's stages
            "presentations/z2_corner.json",
            lambda d: d["vertices"].__setitem__(1, d["vertices"][0]),
            "error: presentations/z2_corner.json:vertices[1]: expected a new vertex name, got 'e3'",
        ),
    ],
    ids=["peirce", "z2_corner"],
)
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_two_process_verify_gives_the_one_process_error(
    capsys, monkeypatch, tmp_path, name, edit, message
):
    dst = _tampered_fixture(tmp_path, name, edit)
    one, two = _verify_on_one_and_two_cpus(capsys, monkeypatch, tmp_path, "--fixture-dir", dst)
    assert one == two == (2, "", message + "\n")


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_two_process_verify_kills_a_running_child_when_its_own_stages_raise(
    capsys, monkeypatch, tmp_path
):
    parent, run = os.getpid(), verify.run

    def slow_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        return run(*args, **kwargs)

    def unreadable(fixture_dir=None):
        raise ValueError("peirce.json: unreadable")

    monkeypatch.setattr(verify, "run", slow_in_the_child)
    monkeypatch.setitem(verify._STAGE_FUNCS, "peirce", unreadable)
    t0 = time.perf_counter()
    one, two = _verify_on_one_and_two_cpus(capsys, monkeypatch, tmp_path, "--json")
    assert time.perf_counter() - t0 < 30
    assert one == two == (2, "", "error: peirce.json: unreadable\n")


def _tampered_fixture(tmp_path, name, edit):
    dst = tmp_path / "fixtures"
    shutil.copytree(fixtures.DEFAULT_DIR, dst)
    path = dst / name
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(fixtures.canonical_dumps(data))
    return str(dst)


def _tampered_peirce(tmp_path, edit):
    return _tampered_fixture(tmp_path, "peirce.json", lambda data: edit(data["table"]))


def _single_error(capsys, stage, dst):
    """Run one verify stage on a tampered copy; the one stderr line of an exit 2."""
    code, out, err = run_cli(capsys, "verify", "--stage", stage, "--fixture-dir", dst)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda d: d["basis22"]["vectors"].pop("eps2"),
            "error: peirce.json:basis22.vectors: missing 'eps2'",
        ),
        (
            lambda d: d["idempotents"].update({"eps9": {}}),
            "error: peirce.json:idempotents: unknown label 'eps9'",
        ),
        (
            lambda d: d["basis22"].update({"vectors": []}),
            "error: peirce.json:basis22.vectors: expected an object",
        ),
        (
            lambda d: d["basis22"]["vectors"].update({"g": 4}),
            "error: peirce.json:basis22.vectors['g']: expected an object",
        ),
        (lambda d: d.pop("idempotents"), "error: peirce.json:idempotents: expected an object"),
        (lambda d: d["idempotents"].pop("h"), "error: peirce.json:idempotents: missing 'h'"),
    ],
    ids=[
        "missing-vector", "unknown-idempotent", "vectors-list", "vector-int", "no-idempotents",
        "missing-idempotent",
    ],
)
def test_malformed_peirce_vectors_exit_2_naming_the_path(capsys, tmp_path, edit, message):
    dst = _tampered_fixture(tmp_path, "peirce.json", edit)
    assert _single_error(capsys, "peirce", dst).startswith(message)


def _set_cell(value):
    def edit(data):
        data["matrix"][3][4] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_cell(1.5), "error: delta_matrix.json:matrix[3][4]: 1.5 is not an integer"),
        (_set_cell(True), "error: delta_matrix.json:matrix[3][4]: True is not an integer"),
        (_set_cell("2"), "error: delta_matrix.json:matrix[3][4]: '2' is not an integer"),
        (_set_cell(None), "error: delta_matrix.json:matrix[3][4]: None is not an integer"),
        (lambda d: d["matrix"].pop(), "error: delta_matrix.json:matrix: expected 22 rows"),
        (lambda d: d["matrix"][5].pop(), "error: delta_matrix.json:matrix[5]: expected 22 cells"),
        (lambda d: d.pop("matrix"), "error: delta_matrix.json:matrix: expected 22 rows"),
        (
            lambda d: d["row_order"].reverse(),
            "error: delta_matrix.json:row_order: differs from COORD_NAMES",
        ),
        (
            lambda d: d["column_classes"].reverse(),
            "error: delta_matrix.json:column_classes: differs from BASIS_LABELS",
        ),
        (
            lambda d: d.pop("stated_column_classes"),
            "error: delta_matrix.json:stated_column_classes: differs from HT_LABELS",
        ),
    ],
    ids=[
        "float", "bool", "str", "null", "short-matrix", "short-row", "no-matrix",
        "row-order", "column-classes", "stated-column-classes",
    ],
)
def test_malformed_delta_matrix_exits_2_naming_the_cell(capsys, tmp_path, edit, message):
    dst = _tampered_fixture(tmp_path, "delta_matrix.json", edit)
    assert _single_error(capsys, "lambda", dst) == message


def test_importing_the_cli_builds_no_structure_table():
    # the tables of every hom-set are built on first use, never at import
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import bisetforge.cli\n"
        "from bisetforge import bisets\n"
        "for f in (bisets._index_tables, bisets._hom, bisets.basis_bisets,\n"
        "          bisets.mackey_table, bisets.oracle_table, bisets.structure_table):\n"
        "    print(f.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"0"] * 6


def test_subgroups_and_mult_never_load_the_verifier():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import contextlib, io, sys\n"
        "import bisetforge.cli as cli\n"
        "def loaded():\n"
        "    names = ('bisetforge.verify', 'bisetforge.orders', 'bisetforge.quivers')\n"
        "    print(sorted(n for n in names if n in sys.modules))\n"
        "loaded()\n"
        "for argv in (['subgroups', 'S3xS3', '--json'], ['subgroups', 'C12', '--json'],\n"
        "             ['mult', 'eps2', 'H_8']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(b"\n") == [b"[]"] * 4 + [b""]


def test_short_peirce_table_exits_2_naming_the_row(capsys, tmp_path):
    dst = _tampered_peirce(tmp_path, lambda table: table.pop())
    code, out, err = run_cli(capsys, "verify", "--stage", "peirce", "--fixture-dir", dst)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: peirce.json:table[21]:"), err


def test_unknown_peirce_label_exits_2_naming_the_cell(capsys, tmp_path):
    dst = _tampered_peirce(tmp_path, lambda table: table[3][5].update({"eps9": 1}))
    code, out, err = run_cli(capsys, "verify", "--stage", "peirce", "--fixture-dir", dst)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: peirce.json:table[3][5]:"), err
    assert "eps9" in lines[0]


def test_singular_delta_matrix_fails_its_checks_and_exits_1(capsys, tmp_path):
    dst = tmp_path / "fixtures"
    shutil.copytree(fixtures.DEFAULT_DIR, dst)
    path = dst / "delta_matrix.json"
    data = json.loads(path.read_text())
    for row in data["matrix"]:
        row[0] = 0
    path.write_text(fixtures.canonical_dumps(data))
    code, out, err = run_cli(
        capsys, "verify", "--stage", "lambda", "--json", "--fixture-dir", str(dst)
    )
    assert code == 1
    assert err == ""
    status = {c["name"]: c["status"] for c in json.loads(out)["stages"][0]["checks"]}
    for name in ("full-rank", "24-inverse-integral", "index-matches-determinant"):
        assert status[name] == "fail", name
    assert status["stated-column-listing"] == "pass"


def _zero_first_column(matrix):
    for row in matrix:
        row[0] = 0


def _quintuple_first_row(matrix):
    matrix[0] = [5 * x for x in matrix[0]]


def _add_s11_row_to_x1_and_later(matrix):
    # row s11 added to rows x1..z3, COORD_NAMES[9:]: a unimodular row operation
    # keeps det and an integral 24 M^-1, but every derived condition gains an
    # s11 term, linking 13 coordinates
    for row in matrix[9:]:
        row[:] = [a + b for a, b in zip(row, matrix[0])]


@pytest.mark.parametrize(
    "edit, detail",
    [
        (_zero_first_column, "cannot be checked: singular at column 0"),
        (
            _quintuple_first_row,
            "no mod-24 conditions to compare: 24 times the inverse matrix is not integral",
        ),
        (
            _add_s11_row_to_x1_and_later,
            "cannot be checked: a component of 13 coordinates, "
            "s11,t1,t2,t3,v,w,x1,x2,x3,y,z1,z2,z3",
        ),
    ],
    ids=["singular", "non-integral-24-inverse", "thirteen-linked-coordinates"],
)
def test_a_matrix_with_no_mod24_conditions_fails_that_check_and_exits_1(
    capsys, tmp_path, edit, detail
):
    dst = _tampered_fixture(tmp_path, "delta_matrix.json", lambda d: edit(d["matrix"]))
    code, out, err = run_cli(capsys, "verify", "--stage", "lambda", "--json", "--fixture-dir", dst)
    assert code == 1
    assert err == ""
    checks = {c["name"]: c for c in json.loads(out)["stages"][0]["checks"]}
    check = checks["congruences-match-mod24-rows"]
    assert (check["status"], check["detail"]) == ("fail", detail)


@pytest.mark.parametrize(
    "stage, attr, name, factor, check, detail",
    [
        (
            "local2", "GAMMA_CORNER_BASIS_2", "b3", "1/16",
            "gamma-corner-span", "basis element b3 is outside the projected order",
        ),
        (
            "local3", "CORNER_BASIS_3", "tau5", "1/2",
            "corner-identities", "fails: tau5 = tau1 tau2",
        ),
    ],
    ids=["b3-over-16", "tau5-over-2"],
)
def test_a_non_integral_corner_basis_fails_its_checks_and_exits_1(
    capsys, monkeypatch, stage, attr, name, factor, check, detail
):
    # a basis element with a denominator is read over its lcm like any other,
    # so the stage reports every check instead of stopping at the first
    basis = tuple((k, x.scale(factor) if k == name else x) for k, x in getattr(verify, attr))
    monkeypatch.setattr(verify, attr, basis)
    code, out, err = run_cli(capsys, "verify", "--stage", stage, "--json")
    assert (code, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(out)["stages"][0]["checks"]}
    assert list(checks) == [name for name, _, _ in verify._stage_checks(stage)]
    assert (checks[check]["status"], checks[check]["detail"]) == ("fail", detail)
    if stage == "local3":  # 1/2 is a unit at 3
        for span in ("basic-corner-span", "loop-corner-span"):
            assert checks[span]["status"] == "pass", span


def test_a_non_integral_delta_image_fails_its_checks_and_blocks_the_emit(
    capsys, tmp_path, monkeypatch
):
    dst = _tampered_fixture(
        tmp_path, "peirce.json", lambda d: d["basis22"]["vectors"]["b_{e,h}"].pop("H_{0,4}")
    )
    code, out, err = run_cli(capsys, "verify", "--json", "--fixture-dir", dst)
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert [s["stage"] for s in report["stages"]] == list(fixtures.STAGE_ORDER)
    checks = {c["name"]: c for s in report["stages"] for c in s["checks"]}
    for name in ("matrix-fixture", "delta-integral"):
        assert checks[name]["status"] == "fail" and "H_{0,4}" in checks[name]["detail"], name
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--json", "--emit", "fixtures", "--fixture-dir", dst)
    assert code == 2
    assert json.loads(out) == report
    assert err.splitlines() == [
        "error: peirce.json: delta_matrix.json cannot be written: "
        "image 5 (H_{0,4}) has non-integer s12 = -55/4"
    ]
    assert not (tmp_path / "fixtures.regenerated").exists()


def test_a_dependent_peirce_basis_fails_the_checks_that_need_gamma_inverse(
    capsys, tmp_path, monkeypatch
):
    # without this coefficient the basis22 vectors are linearly dependent
    dst = _tampered_fixture(
        tmp_path, "peirce.json", lambda d: d["basis22"]["vectors"]["b_{h,eps4}"].pop("H_{4,5}")
    )
    code, out, err = run_cli(capsys, "verify", "--json", "--fixture-dir", dst)
    assert (code, err) == (1, "")
    report = json.loads(out)
    checks = {c["name"]: c for s in report["stages"] for c in s["checks"]}
    assert checks["gamma-bijective"] == {
        "name": "gamma-bijective", "status": "fail", "detail": "change of basis determinant 0"
    }
    assert checks["gamma-unit"]["status"] == "pass"
    for name in ("gamma-roundtrip", "delta-integral", "matrix-fixture", "loop-corner-span"):
        assert checks[name] == {
            "name": name,
            "status": "fail",
            "detail": "cannot be checked: gamma has no inverse: singular at column 17",
        }
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--json", "--emit", "fixtures", "--fixture-dir", dst)
    assert code == 2
    assert json.loads(out) == report
    assert err.splitlines() == [
        "error: peirce.json: delta_matrix.json cannot be written: "
        "gamma has no inverse: singular at column 17"
    ]
    assert not (tmp_path / "fixtures.regenerated").exists()


def _replaced_fixture(tmp_path, name, text):
    dst = tmp_path / "fixtures"
    shutil.copytree(fixtures.DEFAULT_DIR, dst)
    (dst / name).write_text(text)
    return str(dst)


@pytest.mark.parametrize(
    "name, stage", [("peirce.json", "peirce"), ("delta_matrix.json", "lambda")]
)
def test_fixture_that_is_not_an_object_exits_2(capsys, tmp_path, name, stage):
    dst = _replaced_fixture(tmp_path, name, "[]\n")
    assert _single_error(capsys, stage, dst) == "error: %s: expected an object" % name


def test_one_verify_run_reads_peirce_json_once(capsys, tmp_path, monkeypatch):
    reads = []
    load_json = fixtures.load_json

    def counting(name, override=None):
        reads.append(name)
        return load_json(name, override)

    monkeypatch.setattr(fixtures, "load_json", counting)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--json", "--emit", "fixtures")
    assert code == 0
    assert reads.count("peirce.json") == 1
    assert reads.count("delta_matrix.json") == 1


def test_paths_stage_does_not_read_peirce_json(capsys, tmp_path):
    dst = _replaced_fixture(tmp_path, "peirce.json", "{ not json")
    code, out, err = run_cli(capsys, "verify", "--stage", "paths", "--fixture-dir", dst)
    assert code == 0, err
    assert out.splitlines()[-1] == "result: PASS"


def test_exponent_literal_exits_2_at_once():
    # Fraction("1e999999999") would build a billion-digit integer
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bisetforge.cli", "mult", "H_{1,0}:1e999999999", "H_{1,0}", "--ring", "Z"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: exponent notation is not accepted: '1e999999999'"]
    assert elapsed < 5


@pytest.mark.parametrize("operand", ["H_{1,0}:1e3", "H_{1,0}:2E0", "H_{1,0}:1.5e-1"])
def test_exponent_notation_is_refused(capsys, operand):
    code, out, err = run_cli(capsys, "mult", operand, "H_{1,0}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: exponent notation is not accepted")


@pytest.mark.parametrize(
    "spec, degree", [("(1,99999999)", 99999999), ("(1,2000000)", 2000000), ("(1,2); (3,101)", 101)]
)
def test_oversized_degree_refused_with_flat_memory(spec, degree):
    # the refusal comes before any permutation is built, so the peak RSS of
    # the process stays at that of an import
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import resource, sys\n"
        "from bisetforge import cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = cli.main(['subgroups', sys.argv[1]])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, after - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, spec], capture_output=True, text=True, env=env, timeout=60,
    )
    status, grown_kb = map(int, proc.stdout.split())
    assert status == 2
    assert proc.stderr.splitlines() == ["error: degree %d exceeds the capacity of 100 points" % degree]
    assert grown_kb < 2048


def test_largest_advertised_degree_is_admitted(capsys):
    code, out, err = run_cli(capsys, "subgroups", "C30")
    assert code == 0
    code, out, err = run_cli(capsys, "subgroups", "(1,30,2,29)(3,28)")
    assert code == 0
    assert "on 30 points" in out


@pytest.mark.parametrize("spec", ["(,)", "()()", "(1,2)()", "(1,2);( , )"])
def test_cycle_without_points_exits_2_naming_the_input(capsys, spec):
    code, out, err = run_cli(capsys, "subgroups", spec)
    assert code == 2
    assert out == ""
    bad = spec.split(";")[-1].strip()
    assert err.splitlines() == ["error: bad cycle notation: %r" % bad]


@pytest.mark.parametrize(
    "spec, error",
    [
        ("(1, 2", "bad cycle notation: '(1, 2'"),
        ("(1, x)", "bad cycle notation: '(1, x)'"),
        ("(1, 2); ( )( 3 )", "bad cycle notation: '( )( 3 )'"),
        ("(1,,2)", "bad cycle notation: '(1,,2)'"),
        ("(1,2,)", "bad cycle notation: '(1,2,)'"),
        ("(,1,2)", "bad cycle notation: '(,1,2)'"),
        ("(1 , , 2)", "bad cycle notation: '(1 , , 2)'"),
        ("(0, 1)", "cycle notation is 1-based: '(0, 1)'"),
        ("(1, 2)(2, 3)", "cycles are not disjoint: '(1, 2)(2, 3)'"),
        (" (1, 2) ; (3, 4)(4, 5) ", "cycles are not disjoint: '(3, 4)(4, 5)'"),
        # the degree comes from the digit runs 1, 1 and 0, while int() reads
        # 1_0 as the point 10
        ("(1, 1_0)", "degree 1 too small for '(1, 1_0)'"),
    ],
)
def test_cycle_refusals_quote_the_text_as_typed(capsys, spec, error):
    code, out, err = run_cli(capsys, "subgroups", spec)
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % error


def test_spaces_in_cycles_read_as_commas(capsys):
    want = run_cli(capsys, "subgroups", "(1,2)(3,4)", "--json")
    assert want[0] == 0
    for spec in ("(1 2)(3 4)", "(1, 2) (3, 4)", " ( 1 2 )( 3 4 ) ", "(1 2 )( 3, 4)"):
        assert run_cli(capsys, "subgroups", spec, "--json") == want
    # an empty generator between semicolons is skipped, not an empty point
    pair = run_cli(capsys, "subgroups", "(1,2);(3,4)", "--json")
    assert pair[0] == 0
    assert run_cli(capsys, "subgroups", "(1,2);;(3,4)", "--json") == pair


def test_f_p_reads_fractions_through_z_p(capsys):
    code, out, err = run_cli(capsys, "mult", "H_{1,0}:1/2", "H^D_5", "--ring", "F3")
    assert code == 0
    assert "  a = H_{1,0}:2" in out.splitlines()
    code, out, err = run_cli(capsys, "mult", "H_{1,0}:1/3", "H^D_5", "--ring", "F3")
    assert code == 2
    assert err.splitlines() == ["error: coefficient 1/3 has denominator divisible by 3"]


def _set_term(key, value):
    def edit(data):
        data[key][0][0][0] = value

    return edit


def _loops_at_e5(data):
    """The terms 1 * p of the 340 paths p e5 -> e5 of length 1 to 8 of z2_corner."""
    walks, terms = [("e5", [])], []
    for _ in range(8):
        walks = [(t, path + [a]) for v, path in walks for a, s, t in data["arrows"] if s == v]
        terms += [["1", "e5", path] for v, path in walks if v == "e5"]
    return terms


def _set_image(key, value):
    def edit(data):
        data[key][sorted(data[key])[0]] = value

    return edit


@pytest.mark.parametrize(
    "name, edit, message",
    [
        (
            "z3_corner", _set_term("relations", "1/3"),
            "presentations/z3_corner.json:relations[0][0]: coefficient 1/3 has "
            "denominator divisible by 3",
        ),
        (
            "z2_corner", _set_term("long_kernel", "x"),
            "presentations/z2_corner.json:long_kernel[0][0]: Invalid literal",
        ),
        (
            "z2_corner", lambda d: d["mod_p"]["relations"][0][0].__setitem__(0, "1/2"),
            "presentations/z2_corner.json:mod_p.relations[0][0]: coefficient 1/2",
        ),
        (
            "q_corner", lambda d: d["relations"][0][0].__setitem__(1, "v9"),
            "presentations/q_corner.json:relations[0][0]: unknown vertex 'v9'",
        ),
        (
            "q_corner", lambda d: d["relations"][0][0].__setitem__(2, ["t9"]),
            "presentations/q_corner.json:relations[0][0]: unknown arrow 't9'",
        ),
        (
            "q_corner", lambda d: d["arrows"][1].__setitem__(2, "v9"),
            "presentations/q_corner.json:arrows[1]: expected [new name, source vertex, "
            "target vertex]",
        ),
        (
            "q_corner", _set_image("arrow_images", "nosuch"),
            "presentations/q_corner.json:arrow_images['pi']: expected a label of the "
            "corner basis, got 'nosuch'",
        ),
        (
            "z3_corner", _set_image("vertex_images", "tau1x"),
            "presentations/z3_corner.json:vertex_images['e3']: expected a label of the "
            "corner basis, got 'tau1x'",
        ),
        (
            "z2_corner", lambda d: d["mod_p"].update({"p": 3}),
            "presentations/z2_corner.json:mod_p.p: expected the prime of ring Z2",
        ),
        (
            "z3_corner", lambda d: d.update({"ring": "F5"}),
            "presentations/z3_corner.json:ring: unknown ring 'F5'",
        ),
        (
            "q_corner", _set_term("relations", True),
            "presentations/q_corner.json:relations[0][0]: coefficient True is not a string "
            "or an integer",
        ),
        (
            "z2_corner", _set_term("long_kernel", None),
            "presentations/z2_corner.json:long_kernel[0][0]: coefficient None is not a string "
            "or an integer",
        ),
        (
            "q_corner", _set_term("relations", 1.5),
            "presentations/q_corner.json:relations[0][0]: coefficient 1.5 is not a string "
            "or an integer",
        ),
        (
            "z2_corner", lambda d: d["mod_p"]["relations"][0][0].__setitem__(0, 1.0),
            "presentations/z2_corner.json:mod_p.relations[0][0]: coefficient 1.0 is not a "
            "string or an integer",
        ),
        (
            "z2_corner", _set_term("long_kernel", "0"),
            "presentations/z2_corner.json:long_kernel[0]: zero lies in every kernel",
        ),
        (
            "q_corner", lambda d: d["relations"][0][0][2].extend(d["relations"][0][0][2] * 8),
            "presentations/q_corner.json:relations[0][0]: path of length 18 exceeds the bound 8",
        ),
        (
            # 8,000 loops t7 at e5, refused as read: rewriting them takes minutes
            "z2_corner", lambda d: d["long_kernel"].__setitem__(0, [["1", "e5", ["t7"] * 8000]]),
            "presentations/z2_corner.json:long_kernel[0][0]: path of length 8000 exceeds the "
            "bound 8",
        ),
        (
            "z2_corner", lambda d: d["mod_p"]["relations"][0][0][2].extend(["t2", "t1"] * 4),
            "presentations/z2_corner.json:mod_p.relations[0][0]: path of length 10 exceeds the "
            "bound 8",
        ),
        (
            # the 9 relations 8 times: confluence compares every pair of rules
            "z2_corner", lambda d: d["relations"].extend(d["relations"] * 7),
            "presentations/z2_corner.json:relations: 72 relations exceed the bound 64",
        ),
        (
            # each rewriting step sorts every term: this relation took 6 s unbounded
            "z2_corner", lambda d: d["relations"].append(_loops_at_e5(d)),
            "presentations/z2_corner.json:relations[9]: 340 terms exceed the bound 4",
        ),
        (
            "z2_corner", lambda d: d["long_kernel"].append(_loops_at_e5(d)[:5]),
            "presentations/z2_corner.json:long_kernel[15]: 5 terms exceed the bound 4",
        ),
        (
            "z2_corner", lambda d: d["mod_p"]["relations"].append(_loops_at_e5(d)[-5:]),
            "presentations/z2_corner.json:mod_p.relations[9]: 5 terms exceed the bound 4",
        ),
        (
            "q_corner", lambda d: d["vertices"].__setitem__(1, 1),
            "presentations/q_corner.json:vertices[1]: expected a new vertex name, got 1",
        ),
        (
            "z3_corner", lambda d: d["vertices"].__setitem__(2, None),
            "presentations/z3_corner.json:vertices[2]: expected a new vertex name, got None",
        ),
        (
            "z2_corner", lambda d: d["vertices"].__setitem__(1, d["vertices"][0]),
            "presentations/z2_corner.json:vertices[1]: expected a new vertex name, got 'e3'",
        ),
    ],
    ids=[
        "relation-1/3-in-Z3", "kernel-coefficient", "mod-p-coefficient", "unknown-vertex",
        "unknown-arrow", "arrow-endpoint", "arrow-image", "vertex-image", "mod-p-prime",
        "ring", "bool-coefficient", "null-coefficient", "float-coefficient",
        "float-mod-p-coefficient", "zero-kernel-element", "long-relation-path",
        "long-kernel-path", "long-mod-p-relation-path", "relation-count", "relation-terms",
        "kernel-terms", "mod-p-relation-terms", "int-vertex",
        "null-vertex", "repeated-vertex",
    ],
)
def test_malformed_presentation_exits_2_naming_the_path(capsys, tmp_path, name, edit, message):
    dst = _tampered_fixture(tmp_path, "presentations/%s.json" % name, edit)
    assert _single_error(capsys, "paths", dst).startswith("error: " + message)


@pytest.mark.parametrize("text, want", COEFFICIENT_GRAMMAR)
def test_a_presentation_coefficient_reads_the_coefficient_grammar(capsys, tmp_path, text, want):
    # relation 0 of q_corner is the one term 1 pi.rho: any nonzero multiple is the same relation
    dst = _tampered_fixture(tmp_path, "presentations/q_corner.json", _set_term("relations", text))
    if isinstance(want, tuple):
        shipped = run_cli(capsys, "verify", "--stage", "paths")
        assert run_cli(capsys, "verify", "--stage", "paths", "--fixture-dir", dst) == shipped
        assert shipped[0] == 0
    else:
        message = "error: presentations/q_corner.json:relations[0][0]: " + want
        assert _single_error(capsys, "paths", dst) == message


def test_twice_a_lower_path_fails_over_z2_and_vanishes_mod_2(capsys, tmp_path):
    # relation 8 of z2_corner has head t7.t7 at e5; 2 e5 lies below it and vanishes mod 2
    def edit(data):
        data["relations"][8].append(["2", "e5", []])

    dst = _tampered_fixture(tmp_path, "presentations/z2_corner.json", edit)
    code, out, err = run_cli(capsys, "verify", "--stage", "paths", "--fixture-dir", dst)
    assert (code, err) == (1, "")
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith(
        "FAIL paths/presentation-z2_corner: relation 8 does not vanish in the corner;"
    )
    assert "PASS paths/presentation-z2_corner-mod2: " in out


_READER_STAGE = {
    "peirce.json": "peirce",
    "delta_matrix.json": "lambda",
    "errata.json": "lambda",
    "presentations/q_corner.json": "paths",
    "presentations/z2_corner.json": "paths",
    "presentations/z3_corner.json": "paths",
}


def _damaged(raw, damage):
    if damage == "deep":
        return b"[" * 100000 + b"]" * 100000  # a RecursionError in json
    if damage == "long-int":
        return b"[" + b"9" * 5000 + b"]"  # past int's digit limit
    half = len(raw) // 2
    return raw[:half] + (b"" if damage == "truncated" else b"\xff" + raw[half:])


@pytest.mark.parametrize("damage", ["truncated", "0xff", "deep", "long-int"])
def test_a_fixture_that_is_not_json_exits_2_naming_the_file(capsys, tmp_path, damage):
    shipped = fixtures.DEFAULT_DIR
    files = sorted(p.relative_to(shipped).as_posix() for p in shipped.rglob("*.json"))
    assert files == sorted(_READER_STAGE)
    for name in files:
        dst = tmp_path / name.replace("/", "_")
        shutil.copytree(shipped, dst)
        (dst / name).write_bytes(_damaged((dst / name).read_bytes(), damage))
        runs = [("verify", "--stage", _READER_STAGE[name])]
        if name == "peirce.json":
            runs.append(("mult", "H^D_5", "H^D_5"))
        for argv in runs:
            code, out, err = run_cli(capsys, *argv, "--fixture-dir", str(dst))
            assert (code, out) == (2, ""), (name, argv)
            assert len(err.splitlines()) == 1, err
            assert err.startswith("error: %s: not valid JSON: " % name), err


def test_an_integer_coefficient_in_a_presentation_is_read_as_its_text(capsys, tmp_path):
    # the first relation term of q_corner has coefficient "1"
    dst = _tampered_fixture(tmp_path, "presentations/q_corner.json", _set_term("relations", 1))
    code, out, err = run_cli(capsys, "verify", "--stage", "paths", "--fixture-dir", dst)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "name, edit, failures",
    [
        (
            "q_corner", lambda d: d["relations"][0].clear(),
            ["FAIL paths/presentation-q_corner: orientation failed: zero relation cannot "
             "be oriented"],
        ),
        (
            "z2_corner", lambda d: d["relations"][7].pop(0),
            ["FAIL paths/presentation-z2_corner: relation 7 does not vanish in the corner; "
             "orientation failed: leading coefficient -2 is not a unit",
             "FAIL paths/presentation-z2_corner-mod2: quotient rank 12 differs from corner "
             "rank 10"],
        ),
        (
            "z3_corner", lambda d: d["relations"].pop(0),
            ["FAIL paths/presentation-z3_corner: irreducible path of length 8 reaches the "
             "bound 8",
             "FAIL paths/presentation-z3_corner-mod3: irreducible path of length 8 reaches "
             "the bound 8"],
        ),
    ],
    ids=["zero-relation", "non-unit-head", "length-bound"],
)
def test_a_presentation_without_a_basis_fails_naming_the_problem(
    capsys, tmp_path, name, edit, failures
):
    dst = _tampered_fixture(tmp_path, "presentations/%s.json" % name, edit)
    code, out, err = run_cli(capsys, "verify", "--stage", "paths", "--fixture-dir", dst)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == failures
    assert lines[-1] == "result: FAIL"


_MUTATIONS = ("delete", "null", "bool", "float", "huge", "string", "bump", "duplicate")
_LEAF_VALUES = {"null": None, "bool": True, "float": 1.5, "huge": 10**40, "string": "x"}


def _mutate(data, rng):
    """One seeded mutation of the JSON value data, in place: delete a key or
    a list item, set a leaf to null, a bool, a float, a huge int or a string,
    bump an int, or duplicate a list item.  Returns the kind applied."""
    slots = []  # (container, key) of every value below the root
    stack = [data]
    while stack:
        c = stack.pop()
        for k, v in c.items() if isinstance(c, dict) else enumerate(c):
            slots.append((c, k))
            if isinstance(v, (dict, list)):
                stack.append(v)
    kind = rng.choice(_MUTATIONS)
    fits = {
        "bump": lambda c, k: type(c[k]) is int,
        "duplicate": lambda c, k: isinstance(c, list),
        "delete": lambda c, k: True,
    }.get(kind, lambda c, k: not isinstance(c[k], (dict, list)))
    candidates = [(c, k) for c, k in slots if fits(c, k)]
    if not candidates:
        kind, candidates = "delete", slots
    c, k = rng.choice(candidates)
    if kind == "delete":
        del c[k]
    elif kind == "duplicate":
        c.insert(k, c[k])
    elif kind == "bump":
        c[k] += 1
    else:
        c[k] = _LEAF_VALUES[kind]
    return kind


def test_seeded_fixture_mutations_exit_0_1_or_2_and_name_the_file(capsys, monkeypatch, tmp_path):
    # which stages read each fixture file, recorded on the shipped set
    stages_of = {}
    load_json = fixtures.load_json
    for stage in fixtures.STAGE_ORDER:

        def recording(name, override=None, stage=stage):
            stages_of.setdefault(name, [])
            if stage not in stages_of[name]:
                stages_of[name].append(stage)
            return load_json(name, override)

        monkeypatch.setattr(fixtures, "load_json", recording)
        assert run_cli(capsys, "verify", "--stage", stage)[0] == 0
    monkeypatch.undo()
    shipped = fixtures.DEFAULT_DIR
    files = [p.relative_to(shipped).as_posix() for p in shipped.rglob("*.json")]
    assert sorted(stages_of) == sorted(files)

    rng = random.Random(12)
    dst = tmp_path / "fixtures"
    shutil.copytree(shipped, dst)
    codes = set()
    for name, stages in sorted(stages_of.items()):
        path = dst / name
        text = path.read_text()
        for _ in range(10):
            data = json.loads(text)
            kind = _mutate(data, rng)
            path.write_text(fixtures.canonical_dumps(data))
            for stage in stages:
                where = (name, kind, stage)
                try:
                    code, out, err = run_cli(
                        capsys, "verify", "--stage", stage, "--fixture-dir", str(dst)
                    )
                except Exception as exc:
                    pytest.fail("%r raised %r" % (where, exc))
                assert code in (0, 1, 2), where
                codes.add(code)
                if code == 2:
                    assert out == "" and err.count("\n") == 1, where
                    assert err.startswith("error: %s:" % name), (where, err)
                else:
                    assert err == "", (where, err)
        path.write_text(text)
    assert codes == {0, 1, 2}


def test_exponent_literal_in_a_presentation_exits_2_at_once(tmp_path):
    dst = _tampered_fixture(
        tmp_path, "presentations/z3_corner.json", _set_term("relations", "1e999999999")
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bisetforge.cli", "verify", "--stage", "paths", "--fixture-dir", dst],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: presentations/z3_corner.json:relations[0][0]: exponent notation is not "
        "accepted: '1e999999999'"
    ]
    assert time.perf_counter() - t0 < 5


def _float_leaf(data):
    """-0.5 at e's H_{0,0} in basis22.vectors and in idempotents, which still agree."""
    for vectors in (data["basis22"]["vectors"], data["idempotents"]):
        vectors["e"]["H_{0,0}"] = -0.5


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda d: d["basis22"]["vectors"]["b_{e,g}"].update({"H_{9,9}": "1"}),
            "error: peirce.json:basis22.vectors['b_{e,g}']: unknown class label 'H_{9,9}'",
        ),
        (
            lambda d: d["basis22"]["vectors"]["b_{e,g}"].update({"H_{0,0}": "1/x"}),
            "error: peirce.json:basis22.vectors['b_{e,g}']['H_{0,0}']: Invalid literal",
        ),
        (
            lambda d: d["basis22"]["vectors"]["b_{e,g}"].update({"H_{0,0}": "2e3"}),
            "error: peirce.json:basis22.vectors['b_{e,g}']['H_{0,0}']: exponent notation",
        ),
        (
            _float_leaf,
            "error: peirce.json:basis22.vectors['e']['H_{0,0}']: coefficient -0.5 is not a "
            "string or an integer",
        ),
        (
            lambda d: d["basis22"]["vectors"]["b_{e,g}"].update({"H_{0,0}": True}),
            "error: peirce.json:basis22.vectors['b_{e,g}']['H_{0,0}']: coefficient True is not a "
            "string or an integer",
        ),
        (
            lambda d: d["basis22"]["vectors"]["b_{e,g}"].update({"H_{0,0}": None}),
            "error: peirce.json:basis22.vectors['b_{e,g}']['H_{0,0}']: coefficient None is not a "
            "string or an integer",
        ),
    ],
    ids=["class-label", "coefficient", "exponent", "float", "bool", "null"],
)
def test_malformed_peirce_coefficients_exit_2_naming_the_path(capsys, tmp_path, edit, message):
    dst = _tampered_fixture(tmp_path, "peirce.json", edit)
    assert _single_error(capsys, "peirce", dst).startswith(message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]\n", "error: errata.json:[0]: expected an object"),
        ("{}\n", "error: errata.json: expected a list of objects"),
        ("[{}]\n", "error: errata.json:[0].fixture: expected a string"),
        ('[{"fixture": "delta_matrix.json"}]\n', "error: errata.json:[0].id: expected a string"),
        ('[{"fixture": 1, "id": "x"}]\n', "error: errata.json:[0].fixture: expected a string"),
        (
            '[{"fixture": "x", "id": "y"}, {"fixture": "x", "id": "z", "finding": 1}]\n',
            "error: errata.json:[1].finding: expected a string",
        ),
        (
            '[{"fixture": "x", "id": "y", "affects": ["column labels"]}]\n',
            "error: errata.json:[0].affects: expected a string",
        ),
        (
            '[{"fixture": "x", "id": "y", "resolution": null}]\n',
            "error: errata.json:[0].resolution: expected a string",
        ),
    ],
    ids=[
        "entry-int", "object", "entry-empty", "entry-without-id", "fixture-not-a-string",
        "finding-not-a-string", "affects-not-a-string", "resolution-not-a-string",
    ],
)
def test_malformed_errata_exit_2(capsys, tmp_path, text, message):
    dst = _replaced_fixture(tmp_path, "errata.json", text)
    assert _single_error(capsys, "lambda", dst) == message


_OPERAND_PARTS = st.sampled_from(
    ["H_{1,0}", "H^D_5", "H_{0,0}", "H_{9,9}", "eps2", "e", ":", ",", "1", "-1", "/2",
     "/3", "/0", "1/6", "e3", ".5", " ", "{", "}", "x", ""]
)


def _joined(parts, max_size):
    return st.lists(parts, max_size=max_size).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(RINGS),
    _joined(_OPERAND_PARTS, 5),
    _joined(_OPERAND_PARTS, 5),
    _joined(st.sampled_from(["S3", "S3xS3", "C4", "S", "C", "(", ")", ",", ";", " ", "1", "2",
                             "3", "0", "12", "101"]), 6),
)
@example("F3", "H_{1,0}:1/2", "H^D_5", "(,)")
def test_cli_exits_0_or_2_with_error_lines_only(ring, a, b, group):
    # "--" hands operands such as "-1/2" to bisetforge's parsers; without it
    # argparse may read them as flags, which must end the same way
    for argv in (
        ["mult", "--ring", ring, "--", a, b],
        ["mult", "--ring", ring, a, b],
        ["subgroups", "--", group],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        assert all(line.startswith("error: ") for line in err.getvalue().splitlines()), argv
        assert (code == 2) == bool(err.getvalue()), argv


_HINT = " (an operand starting with '-', such as %r, needs '--' before it)"
_REQUIRED = "error: the following arguments are required: "


@pytest.mark.parametrize(
    "argv, message, named",
    [
        (["mult", "--bogus", "H_8", "H_8"], "error: unrecognized arguments: --bogus", None),
        (["mult", "-H_8:1", "H_8"], "error: the following arguments are required: b", "-H_8:1"),
        (["subgroups", "-(1,2)"], "error: the following arguments are required: group", "-(1,2)"),
        (["mult", "H_8", "H_8", "--ring", "F5"], "error: argument --ring: invalid choice: 'F5'", None),
        ([], "error: the following arguments are required: command", None),
        # a negative number, an operand after '--' and an operand with a space
        # are operands to argparse: no hint
        (["mult", "-1"], _REQUIRED + "b", None),
        (["mult", "--", "-1/2"], _REQUIRED + "b", None),
        (["mult", "-H_8:1, H_8:2"], _REQUIRED + "b", None),
        (["mult", "--ring=Z", "-1/2", "--", "H_8"], _REQUIRED + "b", "-1/2"),
        (["mult", "--js", "-x"], _REQUIRED + "a, b", "-x"),
        (["subgroups", "--js", "-(1,2)"], _REQUIRED + "group", "-(1,2)"),
        # a flag before the subcommand is not one of its operands
        (["--bogus"], _REQUIRED + "command", None),
        (["-x", "mult"], _REQUIRED + "a, b", None),
        (["-x", "mult", "-H_8:1"], _REQUIRED + "a, b", "-H_8:1"),
    ],
    ids=[
        "unknown-flag", "dash-operand", "dash-group", "bad-choice", "no-command",
        "negative-number", "after-dashes", "spaced-operand", "before-dashes", "abbreviated-flag",
        "subgroups-flag", "top-level-flag", "flag-before-command", "flag-before-operand",
    ],
)
def test_argparse_usage_errors_exit_2_with_one_error_line(capsys, argv, message, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), err
    if named is not None:
        assert lines[0] == message + _HINT % named
    else:
        assert "needs '--'" not in lines[0]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["mult", "--help"])
    assert info.value.code == 0
    assert "usage: bisetforge mult" in capsys.readouterr().out


@pytest.mark.parametrize(
    "ring, operand", [("Z", "H_{1,0}:1/2,H_{1,0}:1/2"), ("F3", "H_{1,0}:1/3,H_{1,0}:2/3")]
)
def test_each_term_must_lie_in_the_ring(capsys, ring, operand):
    code, out, err = run_cli(capsys, "mult", operand, "H^D_5", "--ring", ring)
    assert code == 2
    assert err.startswith("error: coefficient ")


def test_emit_checks_the_presentations_it_reduces(capsys, tmp_path, monkeypatch):
    dst = _tampered_fixture(
        tmp_path, "presentations/z2_corner.json", lambda d: d["mod_p"].update({"p": None})
    )
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--stage", "gamma", "--emit", "fixtures",
                             "--fixture-dir", dst)
    assert code == 2
    assert err.splitlines()[-1] == (
        "error: presentations/z2_corner.json:mod_p.p: expected the prime of ring Z2"
    )
