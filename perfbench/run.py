"""bisetforge benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):
  verify-full        cold `bisetforge verify --json --emit fixtures` processes
  subgroups-lattice  `subgroups <G> --json` over a fixed list of groups
  mult-stream        parse, multiply and format products in all six rings

With --trace 0 the run measures set-up, then the workload for --seconds, and
reports the end-to-end metrics; each time is scaled by a probe of the host's
speed (see PROBE_REF_S).  With --trace 1 it makes three passes over the same
inputs, each in a fresh process: untraced, traced by module, and counting
Fraction constructions; it reports the per-layer metrics, with the tracing
overhead as the traced wall time minus the untraced one.  Every operation's
output is checked; the last line of stdout is the JSON result, the line before it a
record of the seed, the source and the machine.  Run from a checkout that
holds src/bisetforge; the benchmark reads and writes only inside it.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SPAWNS = 10
MIN_COLD_VERIFY = 2
# The host's speed drifts by up to 2x, in bursts and in spells of seconds to
# minutes.  While a worker runs the workload it times worker.probe(), a fixed
# loop, every 0.25 s, and each time it measures is reported as
# time / mean probe time * PROBE_REF_S: the time at the speed at which the
# probe takes PROBE_REF_S, about the fastest it ran on the reference machine.
PROBE_REF_S = 0.0033
# Passes over the inputs in each pass of a traced run: enough that the
# tracing overhead stands out of the noise of the untraced wall time.
TRACE_PASSES = {"verify-full": 1, "subgroups-lattice": 1, "mult-stream": 10}
clock = time.perf_counter

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "perms.self_s", "perms.calls", "perms.subgroups_found",
    "bisets.self_s", "bisets.calls", "bisets.products", "bisets.tables_s", "bisets.parse_s",
    "blocks.self_s", "blocks.calls", "blocks.products", "blocks.gamma_calls",
    "orders.self_s", "orders.calls", "orders.conjugator_calls", "orders.delta_calls",
    "linalg.self_s", "linalg.calls", "linalg.smith_calls", "linalg.hnf_calls",
    "linalg.in_local_span_calls", "linalg.mat_inverse_calls",
    "quivers.self_s", "quivers.calls", "quivers.normal_form_calls", "quivers.corner_solves",
    "verify.self_s", "verify.stage.peirce_s", "verify.stage.gamma_s", "verify.stage.lambda_s",
    "verify.stage.local2_s", "verify.stage.local3_s", "verify.stage.paths_s", "verify.emit_s",
    "fixtures.self_s", "fixtures.loads",
    "cli.self_s",
    "fraction.new_calls", "trace.overhead_s",
)


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _wait(proc):
    """Reap proc; (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _check_module(path):
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError("bisetforge was imported from %s, not from %s" % (path, SRC))


def _start_worker(cwd):
    return subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=cwd, env=child_env(),
    )


def spawn_worker(job, cwd):
    """Run worker.py on job in a fresh process; (result, wall s, peak RSS MB)."""
    t0 = clock()
    proc = _start_worker(cwd)
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        out = proc.stdout.read()
        code, rss = _wait(proc)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    wall = clock() - t0
    if code != 0:
        raise BenchError("worker for %s exited with %d" % (job["workload"], code))
    result = json.loads(out.decode().splitlines()[-1])
    _check_module(result["module_file"])
    return result, wall, rss


def _scaled(seconds, probes):
    """seconds at the reference speed, given the probe times taken while
    they passed (see PROBE_REF_S)."""
    return seconds / statistics.fmean(probes) * PROBE_REF_S


def measure_setup(workload, cwd):
    """Median seconds from spawn to ready over SETUP_SPAWNS fresh processes,
    each scaled by the probes the process runs once it is ready:
    (scaled median, wall median)."""
    job = json.dumps({"workload": workload, "mode": "ready"}).encode()
    samples, scaled = [], []
    for i in range(SETUP_SPAWNS + 1):
        t0 = clock()
        proc = _start_worker(cwd)
        try:
            proc.stdin.write(job)
            proc.stdin.close()
            line = proc.stdout.readline().decode()
            dt = clock() - t0
            rest = proc.stdout.read().decode()
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("ready ") or not rest.startswith("probe "):
            raise BenchError("set-up process for %s failed" % workload)
        _check_module(line[len("ready "):].strip())
        if i:  # the first spawn only fills the bytecode cache
            samples.append(dt)
            scaled.append(_scaled(dt, [float(x) for x in rest.split()[1:]]))
    return statistics.median(scaled), statistics.median(samples)


# ----------------------------------------------------------------------------
# Each workload has inputs(seed) -> (ops, what the worker is sent),
# check(ops, result, cwd) -> (operations attempted, failure reasons) and,
# except verify-full, stats(ops, result) -> (end-to-end stats, named figures).
# ----------------------------------------------------------------------------


def verify_inputs(seed):
    return None, None  # the shipped fixtures and verify's own seed


def verify_check(ops, result, cwd):
    failure = workloads.check_verify(
        ROOT, result["code"], result["report"].encode(), cwd / "fixtures.regenerated"
    )
    return 1, [failure] if failure else []


def run_verify(seed, seconds):
    """Cold verify processes, one after another, while the next one fits.
    Each is a fresh worker that runs `bisetforge verify --json --emit
    fixtures` through cli.main, timed from spawn to exit."""
    times, scaled, rss, failures = [], [], [], []
    start = clock()
    while len(times) < MIN_COLD_VERIFY or clock() - start + statistics.median(times) <= seconds:
        result, wall, mb, _, fails = one_pass("verify-full", None, None, None, seconds)
        times.append(wall)
        scaled.append(_scaled(wall, result["probes"]))
        rss.append(mb)
        failures += fails
    stats = {"pass_s": statistics.median(scaled), "peak_rss_mb": max(rss)}
    named = {"verify_s": stats["pass_s"], "wall_s": statistics.median(times),
             "samples": len(times)}
    return stats, named, len(times), failures


def subgroups_inputs(seed):
    ops = workloads.subgroup_inputs(seed)
    return ops, ops


def subgroups_check(ops, result, cwd):
    """A repeat fails if its output changed from the group's first run, the
    others if that first run was wrong."""
    failures = []
    for name, times in result["times"].items():
        code, text = result["outputs"][name]
        wrong = "exit code %d" % code if code else workloads.check_subgroups(name, text)
        changed = len(result["changed"][name])
        failures += ["%s: output changed between repeats" % name] * changed
        if wrong is not None:
            failures += ["%s: %s" % (name, wrong)] * (len(times) - changed)
    return sum(len(t) for t in result["times"].values()), failures


def subgroups_stats(ops, result):
    times = result["times"]
    per_group = {name: _scaled(statistics.fmean(t), result["probes"]) for name, t in times.items()}
    stats = {"pass_s": sum(per_group.values())}
    named = {"subgroups_s": stats["pass_s"], "per_group_s": per_group,
             "wall_s": sum(statistics.fmean(t) for t in times.values()),
             "samples": sum(len(t) for t in times.values())}
    return stats, named


def mult_inputs(seed):
    ops = workloads.mult_inputs(seed, workloads.load_peirce_vectors(ROOT))
    return ops, [op[:3] for op in ops]


def mult_check(ops, result, cwd):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bisetforge.bisets import oracle_table

    _check_module(sys.modules["bisetforge"].__file__)
    table = oracle_table()
    passes = len(result["passes"])
    failures = []
    for op, outcome, mism in zip(ops, result["outcomes"], result["mismatches"]):
        failures += ["output changed between passes"] * mism
        first = workloads.check_product(table, op, outcome)
        if first is not None:
            failures += [first] * (passes - mism)
    return passes * len(ops), failures


def mult_stats(ops, result):
    passes = result["passes"]
    wall = statistics.fmean(p[0] for p in passes)
    stats = {"pass_s": _scaled(wall, result["probes"])}
    named = {
        "mult_per_s": len(ops) / stats["pass_s"],
        "wall_s": wall,
        "mult_p50_ms": statistics.median(p[1] for p in passes) * 1e3,
        "mult_p99_ms": statistics.median(p[2] for p in passes) * 1e3,
        "samples": len(passes) * len(ops),
        "samples_per_percentile": len(ops),
    }
    return stats, named


INPUTS = {"verify-full": verify_inputs, "subgroups-lattice": subgroups_inputs,
          "mult-stream": mult_inputs}
CHECK = {"verify-full": verify_check, "subgroups-lattice": subgroups_check,
         "mult-stream": mult_check}
STATS = {"subgroups-lattice": subgroups_stats, "mult-stream": mult_stats}


def one_pass(workload, ops, sent, trace, seconds):
    """One worker process over the inputs, for `seconds` or for TRACE_PASSES
    passes if that is None, and probed for scaling if it is not:
    (result, wall s, RSS MB, attempted, failures)."""
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        job = {"workload": workload, "mode": "run", "trace": trace, "seconds": seconds,
               "passes": TRACE_PASSES[workload], "probe": seconds is not None, "ops": sent}
        result, wall, rss = spawn_worker(job, tmp)
        attempted, failures = CHECK[workload](ops, result, tmp)
    finally:
        shutil.rmtree(tmp)
    return result, wall, rss, attempted, failures


def run_untraced(workload, seed, seconds):
    if workload == "verify-full":
        return run_verify(seed, seconds)
    ops, sent = INPUTS[workload](seed)
    result, _, rss, attempted, failures = one_pass(workload, ops, sent, None, seconds)
    stats, named = STATS[workload](ops, result)
    stats["peak_rss_mb"] = rss
    return stats, named, attempted, failures


def run_traced(workload, seed):
    """Untraced, span-traced and Fraction-counting passes over the same inputs."""
    ops, sent = INPUTS[workload](seed)
    walls, attempted, failures = {}, 0, []
    for trace in (None, "spans", "fractions"):
        result, walls[trace], _, n, fails = one_pass(workload, ops, sent, trace, None)
        attempted += n
        failures += fails
        if trace == "spans":
            summary = result["trace"]
    summary["fraction.new_calls"] = result["fraction.new_calls"]
    summary["trace.overhead_s"] = walls["spans"] - walls[None]
    return summary, walls, attempted, failures


# ----------------------------------------------------------------------------


def source_record():
    """The commit if the checkout has git metadata, and a digest of src/."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()


def machine_record():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def run(workload, seed, seconds, trace):
    """(result, record) of one benchmark run; BenchError if it cannot run."""
    WORK.mkdir(exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(workload, seed, seconds, trace):
    commit, digest = source_record()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "commit": commit, "src_sha256": digest, **machine_record()}
    if trace:
        summary, walls, attempted, failures = run_traced(workload, seed)
        metrics = {name: {"value": summary[name], "unit": "s" if name.endswith("_s") else "count"}
                   for name in PER_LAYER}
        record["wall_s"] = {"untraced": walls[None], "spans": walls["spans"],
                            "fractions": walls["fractions"]}
    else:
        setup, setup_wall = measure_setup(workload, WORK)
        stats, named, attempted, failures = run_untraced(workload, seed, seconds)
        stats["setup_s"] = setup
        metrics = {name: {"value": stats[name], "unit": unit} for name, unit in END_TO_END.items()}
        record["named"] = dict(named, setup_s=setup, setup_wall_s=setup_wall,
                               peak_rss_mb=stats["peak_rss_mb"])
    failed = len(failures)
    record["fail_ratio"] = failed / attempted
    record["failures"] = sorted(set(failures))[:10]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bisetforge" / "__init__.py").is_file():
        print("error: no bisetforge sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
