"""Command line front end: subgroup classification, ring products, and the
verification stages.

A `verify` splits its stages into a head and a tail, the stages that never
read the structure table (local2, local3, paths).  When both are non-empty,
fork exists, more than one CPU may be used and no other thread runs, a
forked child runs the tail and sends its report as JSON on a pipe while this
process runs the head.  With no child, or when the child fails in any way,
this process runs the tail itself, so the report, the exit code and any
error line are those of one process.

Exit codes: 0 success, 1 a verification check failed or the two structure
table routes disagree, 2 usage or domain errors (unparsable input, unknown
names, coefficients outside the ring) and unreadable fixture files.
"""

import argparse
import itertools
import json
import os
import re
import sys
import threading
from functools import lru_cache

from . import bisets, fixtures, rings
from .bisets import BASIS_LABELS, TableMismatch, format_element, parse_element
from .blocks import PEIRCE_LABELS, PeirceBasis
from .perms import CapacityError, Perm, PermGroup, cyclic_group, spell_cycles, symmetric_group


class UsageError(Exception):
    flags = ()  # the option strings of the parser that raised it, if argparse did


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and through parser_class its subparsers, whose usage
    errors raise UsageError instead of printing the usage and exiting."""

    def error(self, message):
        exc = UsageError(message)
        exc.flags = [s for action in self._actions for s in action.option_strings]
        raise exc


_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # what argparse reads as a negative number


def dash_hint(exc, argv):
    """For a missing mult or subgroups operand, a hint that names the first
    argument argparse read as an unknown flag, such as '-H_8:1' without '--'."""
    message = str(exc)
    if message.startswith("the following arguments are required") and not message.endswith(": command"):
        args = itertools.dropwhile(lambda a: a[:1] == "-", argv)
        next(args, None)  # the subcommand
        for arg in itertools.takewhile(lambda a: a != "--", args):
            if arg[:1] == "-" and len(arg) > 1 and " " not in arg and not _NUMBER.fullmatch(arg):
                if not any(f.startswith(arg.split("=", 1)[0]) for f in exc.flags):
                    return " (an operand starting with '-', such as %r, needs '--' before it)" % arg
    return ""


def parse_group_spec(spec):
    """A built-in name (S3, S3xS3, Cn, Sn) or ';'-separated cycle notation."""
    text = spec.strip()
    if not text:
        raise UsageError("empty group description")
    compact = text.replace(" ", "")
    if compact.upper() in ("S3XS3", "S3*S3"):
        return bisets.pair_group(), "S3xS3"
    m = re.fullmatch(r"([SCsc])(\d+)", compact)
    if m:
        kind, n = m.group(1).upper(), int(m.group(2))
        if kind == "S":
            if not 1 <= n <= 6:
                raise UsageError("S%d is out of range, use S1..S6" % n)
            return symmetric_group(n), "S%d" % n
        if not 1 <= n <= 30:
            raise UsageError("C%d is out of range, use C1..C30" % n)
        return cyclic_group(n), "C%d" % n
    if "(" not in compact:
        raise UsageError(
            "unknown group %r; use S3, S3xS3, Cn, Sn, or cycle notation" % text
        )
    chunks = [c for c in text.split(";") if c.strip()]
    degree = 1
    for tok in re.findall(r"\d+", text):
        degree = max(degree, int(tok))
    try:
        gens = [Perm.from_cycle_string(c, degree) for c in chunks]
    except ValueError as exc:
        raise UsageError(str(exc))
    return PermGroup(degree, gens), "; ".join(map(spell_cycles, chunks))


def cmd_subgroups(args):
    group, display = parse_group_spec(args.group)
    if display == "S3xS3" or (
        (group.degree, group.order) == (6, 36) and group == bisets.pair_group()
    ):
        classes, assignment = bisets.match_classes(group, bisets.labeled_subgroups())
        labels = [BASIS_LABELS[a] if a is not None else None for a in assignment]
    else:
        classes = group.conjugacy_classes_of_subgroups()
        labels = [None] * len(classes)
    rows, spelled = [], {}  # image tuple -> cycle string: each generator is spelled once
    for i, members in enumerate(classes):
        gens = [
            spelled.get(p.images) or spelled.setdefault(p.images, p.cycle_string())
            for p in group.subgroup_generators(members[0])
        ] or ["()"]
        rows.append(
            {
                "index": i,
                "order": members[0].bit_count(),
                "class_size": len(members),
                "label": labels[i],
                "generators": gens,
            }
        )
    payload = {
        "group": display,
        "degree": group.degree,
        "group_order": group.order,
        "class_count": len(rows),
        "classes": rows,
    }
    if args.json:
        sys.stdout.write(fixtures.canonical_dumps(payload))
        return 0
    print(
        "group %s of order %d on %d points: %d conjugacy classes of subgroups"
        % (display, group.order, group.degree, len(rows))
    )
    print("%5s %6s %6s %-9s %s" % ("index", "order", "class", "label", "generators"))
    for r in rows:
        text = dict(r, label=r["label"] or "-", generators=" ".join(r["generators"]))
        print("%(index)5d %(order)6d %(class_size)6d %(label)-9s %(generators)s" % text)
    return 0


def parse_operand(text, ring, peirce):
    t = text.strip()
    if t in PEIRCE_LABELS:
        return peirce.element_by_label(t, ring)
    if ":" not in t and t != "0":  # a bare label has coefficient 1; "0" is zero
        t += ":1"
    return parse_element(t, ring)


def cmd_mult(args):
    peirce = PeirceBasis.load(args.fixture_dir)
    try:
        a = parse_operand(args.a, args.ring, peirce)
        b = parse_operand(args.b, args.ring, peirce)
    except ValueError as exc:
        raise UsageError(str(exc))
    prod = a * b
    if args.json:
        sys.stdout.write(
            fixtures.canonical_dumps(
                {
                    "ring": args.ring,
                    "a": format_element(a),
                    "b": format_element(b),
                    "product": format_element(prod),
                }
            )
        )
        return 0
    print("ring %s" % args.ring)
    print("  a = %s" % format_element(a))
    print("  b = %s" % format_element(b))
    print("  a * b = %s" % format_element(prod))
    return 0


# the stages a forked child runs, the last three of STAGE_ORDER: they read
# the fixtures, the delta images and the corners, never the structure table
CHILD_STAGES = ("local2", "local3", "paths")


def usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run_stages(verify, fx, stages):
    """verify.run(stages, fx), the tail run by a forked child when the module
    docstring allows, and run here when it does not or the child fails.  The
    child is reaped, or killed and reaped, before this returns or raises."""
    head = [s for s in stages if s not in CHILD_STAGES]
    tail = [s for s in stages if s in CHILD_STAGES]
    pid = tail_report = None
    # a child forked beside other threads may find their locks held for good
    if head and tail and hasattr(os, "fork") and usable_cpus() > 1 and threading.active_count() == 1:
        read_end, write_end = os.pipe()
        pipe = open(read_end, encoding="utf-8")
        try:
            pid = os.fork()
        except OSError:  # no process to be had
            pipe.close()
        if pid == 0:  # the child: report on the pipe, leave without touching stdio
            code = 1
            try:
                pipe.close()
                with open(write_end, "w", encoding="utf-8") as out:
                    json.dump(verify.run(tail, fx), out)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
    try:
        head_report = verify.run(head, fx)
        if pid is not None:
            with pipe:
                text = pipe.read()
            _, status = os.waitpid(pid, 0)
            pid = None
            if status == 0:
                try:
                    tail_report = json.loads(text)
                except ValueError:
                    pass
    finally:
        if pid is not None:  # this process's stages raised
            from signal import SIGKILL  # here, so that a cold start never imports signal

            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    if tail_report is None:
        tail_report = verify.run(tail, fx)
    reports = head_report["stages"] + tail_report["stages"]
    status = "pass" if all(r["status"] == "pass" for r in reports) else "fail"
    return {"status": status, "stages": reports}


def cmd_verify(args):
    from . import verify  # here, so that subgroups and mult never load the verifier

    fx = verify.FixtureSet(args.fixture_dir)
    report = _run_stages(verify, fx, fixtures.STAGE_ORDER if args.stage == "all" else (args.stage,))
    if args.json:
        sys.stdout.write(fixtures.canonical_dumps(report))
    else:
        for st in report["stages"]:
            for c in st["checks"]:
                print("%s %s/%s: %s" % (c["status"].upper(), st["stage"], c["name"], c["detail"]))
        print("result: %s" % report["status"].upper())
    if args.emit == "fixtures":
        out_dir = os.path.join(os.getcwd(), "fixtures.regenerated")
        for p in verify.emit_fixtures(out_dir, fixture_dir=fx):
            print("wrote %s" % os.path.relpath(p), file=sys.stderr)
    return 0 if report["status"] == "pass" else 1


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built on first use and shared by every main() call."""
    ap = _Parser(
        prog="bisetforge",
        description="exact workbench for the double Burnside ring of S3",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sg = sub.add_parser(
        "subgroups", help="classify the subgroups of a group up to conjugacy"
    )
    sg.add_argument(
        "group",
        help="S3, S3xS3, Cn, Sn, or ';'-separated generators in 1-based "
        "cycle notation such as '(1,2)(3,4); (1,2,3)'",
    )
    sg.add_argument("--json", action="store_true", help="canonical JSON output")

    mu = sub.add_parser("mult", help="multiply two ring elements")
    mu.add_argument("a", help="element: 'H_{1,0}', 'eps2', or 'H_{0,0}:-1/2,H_{1,0}:1'")
    mu.add_argument("b", help="element, same syntax as the first")
    mu.add_argument("--ring", choices=rings.RINGS, default="Q")
    mu.add_argument("--json", action="store_true", help="canonical JSON output")
    mu.add_argument("--fixture-dir", default=None, help="alternate fixture directory")

    ve = sub.add_parser("verify", help="run the verification stages")
    ve.add_argument(
        "--stage",
        choices=("all",) + fixtures.STAGE_ORDER,
        default="all",
        help="restrict to one stage (default: all)",
    )
    ve.add_argument(
        "--emit",
        choices=("fixtures",),
        default=None,
        help="regenerate the fixture set into ./fixtures.regenerated for diffing",
    )
    ve.add_argument("--json", action="store_true", help="canonical JSON report")
    ve.add_argument("--fixture-dir", default=None, help="alternate fixture directory")
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        if args.command == "subgroups":
            return cmd_subgroups(args)
        if args.command == "mult":
            return cmd_mult(args)
        return cmd_verify(args)
    except UsageError as exc:
        print("error: %s%s" % (exc, dash_hint(exc, argv)), file=sys.stderr)
        return 2
    except TableMismatch as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, CapacityError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
