"""Command-line runner for the named verification checks.

Subcommands: `list` (registry table), `run` (execute checks, text or JSON
report, exit 0 iff all pass), `bott --weight a,b,c` (acyclicity or
cohomology of one weight), `pencil --dump` (the stored matrices,
bit-exact).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import bott, checks, pencil


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="run named exact-arithmetic verification checks")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered checks")

    run = sub.add_parser("run", help="run checks and report pass/fail")
    run.add_argument("--check", action="append", metavar="NAME",
                     help="run one named check (repeatable)")
    run.add_argument("--all", action="store_true",
                     help="run the whole registry")
    run.add_argument("--section", metavar="N",
                     help="with --all: restrict to one section (1-4)")
    run.add_argument("--slow", action="store_true",
                     help="with --all: include slow checks")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--seed", type=int, default=checks.DEFAULT_SEED,
                     help="seed for the sampled sub-checks")

    bott_cmd = sub.add_parser("bott", help="Borel-Weil-Bott for one weight")
    bott_cmd.add_argument("--weight", required=True, metavar="a,b,c",
                          help="weakly decreasing integer triple; for "
                               "negative entries use --weight=a,b,c")

    pencil_cmd = sub.add_parser("pencil",
                                help="the stored pencil of skew forms")
    pencil_cmd.add_argument("--dump", action="store_true",
                            help="print the 6x6 pencil and 12x12 flattening")
    return parser


def _cmd_list() -> int:
    width = max(len(name) for name in checks.check_names())
    for check in checks.REGISTRY.values():
        pace = "slow" if check.slow else "fast"
        print("%-*s  s%-3s %-4s %s" % (width, check.name, check.section,
                                       pace, check.ref))
    return 0


def _report_text(results, seed: int) -> None:
    print("seed %d" % seed)
    for r in results:
        print("%s %s (s%s, %d ms)" % ("PASS" if r.passed else "FAIL",
                                      r.name, r.section, r.millis))
        for line in r.transcript:
            print("    " + line)
    failed = sum(1 for r in results if not r.passed)
    print("summary: %d passed, %d failed, %d total"
          % (len(results) - failed, failed, len(results)))


def _report_json(results, seed: int) -> None:
    failed = sum(1 for r in results if not r.passed)
    doc = {
        "seed": seed,
        "checks": [r.as_dict() for r in results],
        "summary": {"total": len(results),
                    "passed": len(results) - failed,
                    "failed": failed,
                    "ok": failed == 0},
    }
    print(json.dumps(doc, indent=2))


def _cmd_run(args) -> int:
    if args.all and args.check:
        print("choose either --all or --check, not both", file=sys.stderr)
        return 2
    if not args.all and not args.check:
        print("nothing to run: pass --all or --check NAME", file=sys.stderr)
        return 2
    if args.section is not None and args.check:
        print("--section applies to --all, not to --check", file=sys.stderr)
        return 2
    if args.slow and args.check:
        print("--slow applies to --all, not to --check", file=sys.stderr)
        return 2
    try:
        selected = checks.select_checks(
            names=args.check, section=args.section,
            include_slow=args.slow)
    except checks.UnknownCheckError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    results = checks.run_checks(selected, seed=args.seed)
    report = _report_json if args.format == "json" else _report_text
    try:
        report(results, args.seed)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`verify run --all | head -1`): the rest
        # of the report goes nowhere, and the exit code still gives the
        # verdict of the run
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(r.passed for r in results) else 1


def _cmd_bott(weight_text: str) -> int:
    try:
        parts = [int(x) for x in weight_text.split(",")]
        print(bott.bott_report(parts))
    except ValueError as exc:
        print("bad weight %r: %s" % (weight_text, exc), file=sys.stderr)
        return 2
    return 0


def _cmd_pencil(dump: bool) -> int:
    if not dump:
        report = pencil.constant_rank_certificate(pencil.SkewPencil.built_in())
        print(report)
        return 0 if report.ok else 1
    print("6x6 pencil over Q[u, v]:")
    print(pencil.BETA_TEXT, end="")
    print("12x12 flattening over Q:")
    print(pencil.FLATTENING_TEXT, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "bott":
        return _cmd_bott(args.weight)
    return _cmd_pencil(args.dump)


if __name__ == "__main__":
    sys.exit(main())
