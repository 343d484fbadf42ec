#!/usr/bin/env python3
"""Run the complete claim-verification suite and save the JSON report.

Usage:
    python scripts/reproduce_paper.py [--fast] [--seed SEED] [--out report.json]

Equivalent to ``mabkcert reproduce-paper --format json`` with the report also
written to a file.  Exits with the CLI's code (0 = all verdicts pass, 3 = a
numerical failure, reported as the CLI reports it, with no report file); a
``--seed`` the CLI would refuse, or an ``--out`` that is a directory, lies in a
missing one or is not writable (an existing file the user may not write, or a
new file in a directory the user may not write), exits 2 with a message
before anything runs.  If the report file or stdout still cannot be written
(a full disk, for example), the script exits 1 with one stderr line.
"""

import argparse
import os
import sys
from pathlib import Path

from mabkcert import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--seed", type=cli.int_in(0), default=cli.SEED_DEFAULT)
    parser.add_argument("--out", type=Path, default=Path("reproduction_report.json"))
    args = parser.parse_args()
    if args.out.is_dir():
        parser.error(f"--out must name a file, got the directory {args.out}")
    if not args.out.parent.is_dir():
        parser.error(f"--out: {args.out.parent} is not a directory")
    target = args.out if args.out.exists() else args.out.parent
    if not os.access(target, os.W_OK):
        parser.error(f"--out: {target} is not writable")

    report = cli.timed_run(lambda: cli.cmd_reproduce(args.seed, args.fast))
    if report is None:
        return cli.EXIT_NUMERICAL
    if not cli.write_report(cli.render(report, "json"), args.out):
        return cli.EXIT_WRITE

    n_pass = sum(1 for v in report.verdicts if v["pass"])
    lines = [
        f"report written to {args.out}",
        f"verdicts: {n_pass}/{len(report.verdicts)} pass",
    ]
    for v in report.verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        lines.append(f"  [{status}] {v['claim']}")
    if not cli.write_report("\n".join(lines)):
        return cli.EXIT_WRITE
    return cli.EXIT_OK if report.all_pass() else cli.EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
