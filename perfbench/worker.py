"""One workload process.  Reads a job as JSON on stdin and prints one JSON
line of results on stdout; run.py spawns it with src/ on PYTHONPATH.

Job keys: workload, mode ("ready" or "run"), trace (null, "spans" for the
per-module tracer or "fractions" for the Fraction.__new__ count), seconds
(run until then) or passes (run exactly that many passes over the inputs),
probe (time probe() every PROBE_EVERY_S while the workload runs, and return
those times) and ops (the generated inputs).
In "ready" mode the worker prints "ready" once bisetforge is imported and
the fixtures are loaded (and, for mult-stream, the first product is made),
which is the end of set-up, then three probe() times, so that the set-up
time can be scaled to the host's speed like the workload's times are.
"""

import contextlib
import io
import json
import math
import signal
import statistics
import sys
import time

clock = time.perf_counter
WARMUP = ("Q", "H_{1,0}:1", "H_{0,1}:1")  # the first product builds structure_table
PROBE_EVERY_S = 0.25


def probe():
    """Seconds taken by a fixed pure-Python loop (rational sums reduced by
    gcd, dict stores): a sample of the host's speed."""
    t0 = clock()
    num, den, seen = 0, 1, {}
    for k in range(1, 12000):
        a, b = k % 7, k % 5 + 1
        num, den = num * b + a * den, den * b
        g = math.gcd(num, den)
        num, den = num // g, den // g
        seen[k % 97] = (num, den)
    return clock() - t0


def start_probes():
    """Time probe() now and then every PROBE_EVERY_S, on a timer signal, so
    that the samples are spread evenly over the time the workload runs.
    Returns the list the times are appended to."""
    times = [probe()]
    signal.signal(signal.SIGALRM, lambda signum, frame: times.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    return times


def stop_probes():
    signal.setitimer(signal.ITIMER_REAL, 0)


def _nearest_rank(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _load_fixtures():
    from bisetforge import fixtures
    from bisetforge.blocks import PeirceBasis

    peirce = PeirceBasis.load()
    fixtures.load_delta_matrix()
    for name in fixtures.PRESENTATION_NAMES:
        fixtures.load_presentation(name)
    fixtures.load_errata()
    return peirce


def _mult_op(bisets, peirce_labels, peirce, ring, a, b):
    """The outcome of one product: its formatted value or the error raised."""
    try:
        x = peirce.element_by_label(a, ring) if a in peirce_labels else bisets.parse_element(a, ring)
        y = peirce.element_by_label(b, ring) if b in peirce_labels else bisets.parse_element(b, ring)
        return bisets.format_element(x * y)
    except ValueError:
        return "ValueError"
    except Exception as exc:  # any other error is a wrong outcome, reported as data
        return "error:%s: %s" % (type(exc).__name__, exc)


def run_mult(job):
    from bisetforge import bisets
    from bisetforge.blocks import PEIRCE_LABELS

    peirce = _load_fixtures()
    labels = frozenset(PEIRCE_LABELS)
    ops = job["ops"]
    _mult_op(bisets, labels, peirce, *WARMUP)
    outcomes = None
    mismatches = [0] * len(ops)
    passes = []
    lat = [0.0] * len(ops)
    start = clock()
    while True:
        t_pass = clock()
        results = []
        for i, (ring, a, b) in enumerate(ops):
            t0 = clock()
            out = _mult_op(bisets, labels, peirce, ring, a, b)
            lat[i] = clock() - t0
            results.append(out)
        t_end = clock()
        ordered = sorted(lat)
        passes.append((t_end - t_pass, _nearest_rank(ordered, 0.5), _nearest_rank(ordered, 0.99)))
        if outcomes is None:
            outcomes = results
        else:
            for i, out in enumerate(results):
                mismatches[i] += out != outcomes[i]
        if job["seconds"] is None:
            if len(passes) == job["passes"]:
                break
        elif t_end - start >= job["seconds"]:
            break
    return {"passes": passes, "outcomes": outcomes, "mismatches": mismatches}


def run_subgroups(job):
    """Passes over the group list, so that each group's samples spread over
    the whole run; a pass stops short when the next group no longer fits."""
    from bisetforge import cli

    _load_fixtures()
    ops = job["ops"]
    times = {name: [] for name, _ in ops}
    outputs, changed = {}, {name: [] for name, _ in ops}
    start = clock()
    while True:
        for name, spec in ops:
            if job["seconds"] is None:
                if len(times[name]) == job["passes"]:
                    return {"times": times, "outputs": outputs, "changed": changed}
            elif times[name] and clock() - start + statistics.median(times[name]) > job["seconds"]:
                return {"times": times, "outputs": outputs, "changed": changed}
            buf = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["subgroups", spec, "--json"])
            times[name].append(clock() - t0)
            if name not in outputs:
                outputs[name] = (code, buf.getvalue())
            elif (code, buf.getvalue()) != outputs[name]:
                changed[name].append(len(times[name]) - 1)


def run_verify(job):
    from bisetforge import cli

    buf = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--json", "--emit", "fixtures"])
    return {"wall": clock() - t0, "code": code, "report": buf.getvalue()}


RUNNERS = {"verify-full": run_verify, "subgroups-lattice": run_subgroups, "mult-stream": run_mult}


def main():
    job = json.load(sys.stdin)
    out = sys.stdout
    if job["mode"] == "ready":
        import bisetforge

        peirce = _load_fixtures()
        if job["workload"] == "mult-stream":
            from bisetforge import bisets

            _mult_op(bisets, (), peirce, *WARMUP)
        else:
            from bisetforge import cli  # noqa: F401  (imports every layer)
        out.write("ready %s\n" % bisetforge.__file__)
        out.flush()
        out.write("probe %r %r %r\n" % (probe(), probe(), probe()))
        return
    import tracer

    spans = fractions = None
    if job["trace"] == "spans":
        spans = tracer.Tracer()
        spans.install()
    elif job["trace"] == "fractions":
        fractions = tracer.count_fractions()
    import bisetforge

    probes = start_probes() if job["probe"] else None
    result = RUNNERS[job["workload"]](job)
    if probes is not None:
        stop_probes()
        result["probes"] = probes
    result["module_file"] = bisetforge.__file__
    if spans is not None:
        result["trace"] = spans.summary()
    if fractions is not None:
        result["fraction.new_calls"] = fractions[0]
    out.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
