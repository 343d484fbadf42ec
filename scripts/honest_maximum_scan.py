#!/usr/bin/env python3
"""Scan the pinned-key Bell maximum against the relevant thresholds.

For each party count, reports the multi-start maximum of the MABK value when
the first party's key observable is pinned to sigma_z, next to 2^((N-3)/2)
(the cap that the halved-terms argument yields for odd N, and which the
transverse strategy attains for even N as well) and the GME-certification
threshold 2^((N-2)/2).  The persistent gap below the threshold is the point:
pinning the key observable makes the violation required for genuine
multipartite entanglement unreachable.

Usage:
    python scripts/honest_maximum_scan.py [--max-n 6] [--restarts 60] [--seed S]

``--max-n`` must lie in [3, cli.MAX_OPTIMIZE_PARTIES], ``--restarts`` in
[1, cli.MAX_RESTARTS] and ``--seed`` must be >= 0; the parser refuses other
values with exit 2 and a message, as the CLI does.  Each row is printed as
soon as its N is done; if stdout cannot take it, the scan stops with exit 1
and one stderr line, as the CLI does.
"""

import argparse
import sys

from mabkcert.blochopt import OptimizerConfig, maximize_honest_mabk
from mabkcert.cli import (
    EXIT_OK,
    EXIT_WRITE,
    MAX_OPTIMIZE_PARTIES,
    MAX_RESTARTS,
    SEED_DEFAULT,
    int_in,
    write_report,
)
from mabkcert.correlators import gme_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int_in(3, MAX_OPTIMIZE_PARTIES), default=6)
    parser.add_argument("--restarts", type=int_in(1, MAX_RESTARTS), default=60)
    parser.add_argument("--seed", type=int_in(0), default=SEED_DEFAULT)
    args = parser.parse_args()

    header = (
        f"{'N':>3} {'pinned-key max':>16} {'2^((N-3)/2)':>13} {'GME threshold':>14}"
    )
    if not write_report(header):
        return EXIT_WRITE
    for n in range(3, args.max_n + 1):
        config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
        result = maximize_honest_mabk(n, config)
        cap = 2.0 ** ((n - 3) / 2)
        threshold = gme_bound(n, n - 1)
        row = (
            f"{n:>3} {result.best_value:>16.9f} {cap:>13.6f} {threshold:>14.6f}"
            f"   ({result.converged_count}/{args.restarts} converged)"
        )
        if not write_report(row):
            return EXIT_WRITE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
