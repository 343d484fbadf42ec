"""Command-line driver: one reproducible command per computational claim.

Every command emits a report echoing the full parameter set, the result
payload, and pass/fail verdicts against the reference targets (Bell-value
bounds, the odd-N vanishing statement, the even-N product formula, and the
certified moment-hierarchy bounds).  Formats: human text (default), one JSON
document (``--format json``), or a flat verdict table (``--format csv``).

Exit codes: 0 all verdicts pass, 1 the report could not be written, 2 usage
error, 3 numerical failure, 4 verdict failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blochopt, correlators, mabk, npa
from .npa import MIN_TOL
from .sdp import SdpSolverError

SEED_DEFAULT = blochopt.OptimizerConfig().seed
# Largest --n for mabk-show and theorem1: the expression mabk-show prints has
# 2^(2*floor(n/2)) terms, fourfold more with every two parties.
MAX_PARTIES = 10
# Largest --n for optimize, whose seesaw sweep is O(n) per restart.  The two
# honest verdicts have a tolerance of HONEST_CAP_RTOL times their target: a
# correct maximum exceeds 2^((n-3)/2) by at most 4.7e-15 of it for n = 41..60
# (100 and 200 restarts, default seed), while the absolute excess grows with
# the cap (1.2e-6 at n = 59).
MAX_OPTIMIZE_PARTIES = 60
HONEST_CAP_RTOL = 1e-12
# Caps sized from the per-unit cost at the largest n: a theorem1 trial takes
# about 1.4 us at n = 10, an optimize restart about 0.29 ms with --honest and
# 0.16 ms without at n = 60 (0.06 and 0.04 ms at n = 10).
MAX_TRIALS = 1_000_000
MAX_RESTARTS = 200
# theorem1 draws and evaluates its trials in blocks of this many; at n = 10 a
# block's arrays take about 8 MB, a single draw of every trial 661 MB.
THEOREM1_BLOCK = 8192
# npa --tol accepts [MIN_TOL, MAX_TOL]; npa owns the floor MIN_TOL.  Largest:
# a bound lies up to about the tolerance above the optimum (9.3e-7 at 1e-6 on
# the level-2 pinned problem), so the verdicts keep a tenfold margin at 1e-6.
# At 1e-5 the level-2 pinned bound is 9.3e-6 from sqrt(2) against a verdict
# tolerance of 1e-5; at 1e-4 both level-2 verdicts and the unpinned level-3
# monotonicity verdict fail; at 0.5 the level-3 pinned report passes with
# bound 1.85, checked against a level-2 bound solved as loosely.
MAX_TOL = 1e-6
EXIT_OK = 0
EXIT_WRITE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERDICT = 4
# Solver trace rows printed on a numerical failure; the full trace runs to
# one row per iteration.
TRACE_TAIL = 3


@dataclass
class RunReport:
    command: str
    params: dict
    results: dict
    verdicts: list[dict] = field(default_factory=list)
    duration_ms: float | None = None  # wall time, set by the caller that times it
    # stderr lines for -vv (solver timings and the like), never in the payload
    diagnostics: list[str] = field(default_factory=list)

    def add_verdict(
        self,
        claim: str,
        target: float,
        observed: float,
        tolerance: float,
        at_most: bool = False,
    ) -> None:
        """Record a verdict; it passes when ``|observed - target| <= tolerance``,
        or with ``at_most`` when ``observed <= target + tolerance``."""
        if at_most:
            ok = observed <= target + tolerance
        else:
            ok = abs(observed - target) <= tolerance
        self.verdicts.append(
            {
                "claim": claim,
                "target": target,
                "observed": observed,
                "tolerance": tolerance,
                "pass": bool(ok),
            }
        )

    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def payload(self) -> dict:
        out = {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "verdicts": self.verdicts,
        }
        if self.duration_ms is not None:
            out["duration_ms"] = round(self.duration_ms, 3)
        return out


def _render_text(report: RunReport) -> str:
    lines = [f"command: {report.command}"]
    lines.append("params: " + ", ".join(f"{k}={v}" for k, v in report.params.items()))
    for key, value in report.results.items():
        lines.append(f"  {key}: {value}")
    for v in report.verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        lines.append(
            f"[{status}] {v['claim']}: observed {v['observed']}"
            f" (target {v['target']}, tolerance {v['tolerance']})"
        )
    if report.duration_ms is not None:
        lines.append(f"duration_ms: {report.duration_ms:.3f}")
    return "\n".join(lines)


def _render_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["command", "claim", "target", "observed", "tolerance", "pass"])
    for v in report.verdicts:
        writer.writerow(
            [
                report.command,
                v["claim"],
                v["target"],
                v["observed"],
                v["tolerance"],
                v["pass"],
            ]
        )
    return buf.getvalue().rstrip("\n")


def render(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload(), indent=2)
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def write_report(text: str, path: Path | None = None) -> bool:
    """Write ``text`` and a newline to ``path``, or print it to stdout.

    On failure, one stderr line and False.  A failed stdout is replaced by
    devnull, so later writes, and the interpreter's flush at exit, do not
    raise again (the Python docs' note on SIGPIPE).
    """
    try:
        if path is None:
            print(text, flush=True)
        else:
            path.write_text(text + "\n")
    except OSError as exc:
        print(f"cannot write the report: {exc}", file=sys.stderr)
        if path is None:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return False
    return True


def cmd_mabk_show(n: int) -> RunReport:
    expr = mabk.mabk_expression(n)
    target_terms = mabk.expected_term_count(n)
    target_norm = mabk.expected_normalization(n)
    terms = [
        {"inputs": "".join(map(str, x)), "coefficient": str(c)}
        for x, c in expr.items()
    ]
    normalization = max((c.denominator for c in expr.values()), default=0)
    total = float(sum(map(abs, expr.values())))
    report = RunReport(
        command="mabk-show",
        params={"n": n},
        results={
            "n_terms": len(expr),
            "normalization": normalization,
            "sum_abs_coefficients": total,
            "terms": terms,
        },
    )
    report.add_verdict(
        "term count equals 2^(2*floor(n/2))", target_terms, len(expr), 0
    )
    report.add_verdict(
        "normalization equals 2^floor(n/2)", target_norm, normalization, 0
    )
    report.add_verdict(
        "sum of |coefficients| equals 2^floor(n/2)", float(target_norm), total, 0.0
    )
    return report


def cmd_theorem1(n: int, trials: int, seed: int) -> RunReport:
    rng = np.random.default_rng(seed)
    max_residual = 0.0
    for start in range(0, trials, THEOREM1_BLOCK):
        size = min(THEOREM1_BLOCK, trials - start)
        bobs = rng.normal(size=(size, n - 1, 3))
        bobs /= np.linalg.norm(bobs, axis=-1, keepdims=True)
        blochs = np.insert(bobs, 0, (0.0, 0.0, 1.0), axis=1)  # sigma_z first
        value = correlators.ghz_expectation(n, blochs)
        if n % 2 == 0:
            value = value - np.prod(bobs[..., 2], axis=-1)
        max_residual = max(max_residual, float(np.abs(value).max()))
    claim = (
        "pinned-key correlators vanish for odd party count"
        if n % 2 == 1
        else "pinned-key correlator equals the product of z-components"
    )
    report = RunReport(
        command="theorem1",
        params={"n": n, "trials": trials, "seed": seed},
        results={"n": n, "trials": trials, "max_residual": max_residual},
    )
    report.add_verdict(claim, 0.0, max_residual, 1e-12)
    return report


def cmd_optimize(n: int, restarts: int, seed: int, honest_flag: bool) -> RunReport:
    config = blochopt.OptimizerConfig(restarts=restarts, seed=seed)
    if honest_flag:
        result = blochopt.maximize_honest_mabk(n, config)
    else:
        result = blochopt.maximize_unconstrained_mabk(n, config)
    report = RunReport(
        command="optimize",
        params={"n": n, "restarts": restarts, "seed": seed, "honest": honest_flag},
        results={
            "best_value": result.best_value,
            "converged_count": result.converged_count,
            "best_settings": {
                "alice": result.best_settings[0].tolist(),
                "bobs": result.best_settings[1:].tolist(),
            },
        },
    )
    value = result.best_value
    if honest_flag:
        if n == 4:
            report.add_verdict(
                "four-party pinned-key maximum equals the classical bound",
                1.0,
                value,
                1e-4,
            )
        elif n % 2 == 1:
            cap = correlators.theorem1_bound(n)
            report.add_verdict(
                "odd-N pinned-key maximum within the halved-terms cap",
                cap,
                value,
                HONEST_CAP_RTOL * cap,
                at_most=True,
            )
        threshold = correlators.gme_bound(n, n - 1)
        report.add_verdict(
            "pinned-key maximum stays below the GME-certification threshold",
            threshold,
            value,
            HONEST_CAP_RTOL * threshold,
            at_most=True,
        )
    else:
        target = correlators.gme_bound(n, n)
        report.add_verdict(
            "unconstrained maximum reaches 2^((n-1)/2)", target, value, 1e-3
        )
    return report


def cmd_npa(
    level: int, with_constraint: bool, tol: float, level2_bound: float | None = None
) -> RunReport:
    """The certified bound at ``level``.  A level-3 report checks monotonicity
    against ``level2_bound``, the level-2 bound of the same problem, and
    solves that problem at ``tol`` itself when none is given."""
    result = npa.npa_upper_bound(level, with_constraint, tol=tol)
    results = {
        "bound": result.bound,
        "certified_bound": result.certified_bound,
        "certificate": {
            "verified": result.verified,
            "gap": result.solution.duality_gap,
        },
        "iterations": result.solution.iterations,
        "basis_size": result.basis_size,
        "reduced_size": result.reduced_size,
        "n_moment_classes": result.n_moment_classes,
    }
    report = RunReport(
        command="npa",
        params={
            "level": level,
            "perfect_correlations": with_constraint,
            "tol": tol,
        },
        results=results,
    )
    if level == 2:
        # pinned, the bound is the depth-2 one: no GME is certified
        depth, claim = (
            (2, "perfect-correlation bound equals sqrt(2)")
            if with_constraint
            else (3, "unconstrained bound equals 2")
        )
        report.add_verdict(claim, correlators.gme_bound(3, depth), result.bound, 1e-5)
    else:
        if level2_bound is None:
            level2_bound = npa.npa_upper_bound(2, with_constraint, tol=tol).bound
        results["level2_bound"] = level2_bound
        report.add_verdict(
            "hierarchy monotonicity: level-3 bound at most the level-2 bound",
            level2_bound,
            result.bound,
            1e-6,
            at_most=True,
        )
    report.add_verdict(
        "dual certificate verified", 1.0, 1.0 if result.verified else 0.0, 0.0
    )
    solution = result.solution
    report.diagnostics.append(
        f"npa level {level}, perfect_correlations={with_constraint}:"
        f" group order {result.group_order}, {result.n_orbits} orbits,"
        f" {result.n_zeroed} zeroed classes,"
        f" blocks {solution.block_sizes}, {solution.iterations} iterations,"
        f" Schur assembly {solution.schur_s:.4f} s,"
        f" factorizations {solution.factor_s:.4f} s,"
        f" step lengths {solution.step_s:.4f} s,"
        f" final dual residual {solution.dual_residual:.3e};"
        " stage seconds: "
        + ", ".join(f"{stage} {s:.4f}" for stage, s in result.stage_s.items())
    )
    return report


def cmd_reproduce(seed: int, fast: bool) -> RunReport:
    restarts = 30 if fast else 100
    sub: list[RunReport] = []
    for n in range(3, 9):
        sub.append(cmd_mabk_show(n))
    for n in (3, 5, 7, 4, 6):
        sub.append(cmd_theorem1(n, 1000, seed))
    sub.append(cmd_optimize(4, restarts, seed, honest_flag=True))
    sub.append(cmd_optimize(3, restarts, seed, honest_flag=True))
    sub.append(cmd_optimize(5, restarts, seed, honest_flag=True))
    for n in (3, 4, 5):
        sub.append(cmd_optimize(n, restarts, seed, honest_flag=False))
    level2 = [cmd_npa(2, pc, 1e-9) for pc in (True, False)]
    sub += level2
    if not fast:
        for r in level2:
            pc, bound = r.params["perfect_correlations"], r.results["bound"]
            sub.append(cmd_npa(3, pc, 1e-8, level2_bound=bound))

    report = RunReport(
        command="reproduce-paper",
        params={"seed": seed, "fast": fast, "restarts": restarts},
        results={
            "n_commands": len(sub),
            "reports": [r.payload() for r in sub],
        },
    )
    for r in sub:
        for v in r.verdicts:
            report.verdicts.append({**v, "claim": f"{r.command}: {v['claim']}"})
        report.diagnostics += r.diagnostics
    return report


def int_in(low: int, high: float = math.inf):
    """argparse ``type`` for an integer in ``[low, high]``; others exit 2."""

    def integer(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            bounds = f"in [{low}, {high}]" if high < math.inf else f">= {low}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return integer


def tolerance(text: str) -> float:
    """argparse ``type`` for ``npa --tol``: in ``[MIN_TOL, MAX_TOL]``."""
    value = float(text)
    if not MIN_TOL <= value <= MAX_TOL:
        raise argparse.ArgumentTypeError(
            f"must be in [{MIN_TOL}, {MAX_TOL}], got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mabkcert",
        description=(
            "MABK Bell expressions on GHZ states: stabilizer correlators,"
            " measurement optimization, and certified moment-hierarchy bounds."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format",
    )
    common.add_argument(
        "--verbose",
        "-v",
        action="count",
        default=0,
        help="repeat for more diagnostics on stderr",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "mabk-show", parents=[common], help="print a Bell expression and its counts"
    )
    p.add_argument("--n", type=int_in(2, MAX_PARTIES), required=True)
    p.set_defaults(run=lambda a: cmd_mabk_show(a.n))

    p = subs.add_parser(
        "theorem1", parents=[common], help="residuals of the pinned-key correlators"
    )
    p.add_argument("--n", type=int_in(3, MAX_PARTIES), required=True)
    p.add_argument("--trials", type=int_in(1, MAX_TRIALS), default=1000)
    p.add_argument("--seed", type=int_in(0), default=SEED_DEFAULT)
    p.set_defaults(run=lambda a: cmd_theorem1(a.n, a.trials, a.seed))

    p = subs.add_parser(
        "optimize", parents=[common], help="multi-start Bell-value maximization"
    )
    p.add_argument("--n", type=int_in(3, MAX_OPTIMIZE_PARTIES), required=True)
    p.add_argument("--restarts", type=int_in(1, MAX_RESTARTS), default=100)
    p.add_argument("--seed", type=int_in(0), default=SEED_DEFAULT)
    p.add_argument("--honest", action="store_true", help="pin A0 to sigma_z")
    p.set_defaults(run=lambda a: cmd_optimize(a.n, a.restarts, a.seed, a.honest))

    p = subs.add_parser(
        "npa", parents=[common], help="certified moment-hierarchy upper bound"
    )
    p.add_argument("--level", type=int, required=True, choices=(2, 3))
    p.add_argument("--perfect-correlations", action="store_true")
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.set_defaults(run=lambda a: cmd_npa(a.level, a.perfect_correlations, a.tol))

    p = subs.add_parser(
        "reproduce-paper",
        parents=[common],
        help="run the complete claim-verification suite",
    )
    p.add_argument("--seed", type=int_in(0), default=SEED_DEFAULT)
    p.add_argument(
        "--fast",
        action="store_true",
        help="fewer restarts and no level-3 solves",
    )
    p.set_defaults(run=lambda a: cmd_reproduce(a.seed, a.fast))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    # each run looks its cmd_* up in the module globals at call time, so a
    # wrapper installed there sees every call
    try:
        report = args.run(args)
    except (SdpSolverError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        diagnostics = dict(getattr(exc, "diagnostics", {}))
        trace = diagnostics.pop("trace", None)
        if trace is not None:
            diagnostics["trace_rows"] = len(trace)
            diagnostics["trace_tail"] = trace[-TRACE_TAIL:]
        if diagnostics:
            print(f"diagnostics: {diagnostics}", file=sys.stderr)
        return EXIT_NUMERICAL
    report.duration_ms = (time.perf_counter() - t0) * 1e3

    if args.verbose:
        print(
            f"[mabkcert] {report.command} finished in {report.duration_ms:.1f} ms",
            file=sys.stderr,
        )
        if args.verbose > 1:
            for v in report.verdicts:
                print(f"[mabkcert] verdict: {v}", file=sys.stderr)
            for line in report.diagnostics:
                print(f"[mabkcert] {line}", file=sys.stderr)

    if not write_report(render(report, args.format)):
        return EXIT_WRITE
    return EXIT_OK if report.all_pass() else EXIT_VERDICT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
