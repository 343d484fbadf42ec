"""CLI: schemas, exit codes, reproducibility."""

import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z, random_bloch
from mabkcert import cli, correlators, mabk, npa
from mabkcert.correlators import ghz_expectation
from mabkcert.sdp import SdpSolverError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("n", range(2, cli.MAX_PARTIES + 1))
def test_mabk_show_text(capsys, n):
    code, out, _ = run(capsys, "mabk-show", "--n", str(n))
    assert code == cli.EXIT_OK
    assert f"n_terms: {4 ** (n // 2)}\n" in out
    assert out.count("[PASS]") == 3 and "[FAIL]" not in out


def test_mabk_show_reports_a_broken_expression_as_fail(capsys, monkeypatch):
    # CHSH with its (1, 1) term dropped and the recursion's halving removed
    broken = {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1)}
    monkeypatch.setattr(mabk, "mabk_expression", lambda n: dict(broken))
    code, out, err = run(capsys, "mabk-show", "--n", "2", "--format", "json")
    assert code == cli.EXIT_VERDICT
    assert "Traceback" not in err
    verdicts = json.loads(out)["verdicts"]
    assert [v["observed"] for v in verdicts] == [3, 1, 3.0]
    assert [v["target"] for v in verdicts] == [4, 2, 2.0]
    assert not any(v["pass"] for v in verdicts)


def test_closed_pipe_on_stdout_exits_1_with_one_stderr_line(capsys, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to write_end raises BrokenPipeError
    with open(write_end, "w") as stdout:
        monkeypatch.setattr("sys.stdout", stdout)
        code = cli.main(["mabk-show", "--n", "10", "--format", "json"])
        # main put devnull in the pipe's place, so a later flush is silent
        print("after the report", file=stdout, flush=True)
    err = capsys.readouterr().err
    assert code == cli.EXIT_WRITE == 1
    assert err == "cannot write the report: [Errno 32] Broken pipe\n"


def test_mabk_show_json_schema(capsys):
    code, out, _ = run(capsys, "mabk-show", "--n", "4", "--format", "json")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"command", "params", "results", "verdicts", "duration_ms"}
    assert payload["params"] == {"n": 4}
    assert payload["results"]["n_terms"] == 16
    assert payload["results"]["normalization"] == 4
    for verdict in payload["verdicts"]:
        assert set(verdict) == {"claim", "target", "observed", "tolerance", "pass"}
        assert verdict["pass"]


def test_mabk_show_rejects_out_of_range_n(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mabk-show", "--n", "11"])
    assert exc.value.code == cli.EXIT_USAGE


def _out_of_range_n(command):
    low = 2 if command == "mabk-show" else 3
    high = cli.MAX_OPTIMIZE_PARTIES if command == "optimize" else cli.MAX_PARTIES
    n = st.one_of(st.integers(max_value=low - 1), st.integers(min_value=high + 1))
    return n.map(lambda v: [command, f"--n={v}"])


# only inputs that parse but must be refused before any work starts
INVALID_ARGV = st.one_of(
    st.sampled_from(["mabk-show", "theorem1", "optimize"]).flatmap(_out_of_range_n),
    st.one_of(
        st.integers(max_value=0), st.integers(min_value=cli.MAX_RESTARTS + 1)
    ).map(lambda r: ["optimize", "--n=3", f"--restarts={r}"]),
    st.one_of(
        st.integers(max_value=0), st.integers(min_value=cli.MAX_TRIALS + 1)
    ).map(lambda t: ["theorem1", "--n=3", f"--trials={t}"]),
    st.one_of(
        st.floats(max_value=cli.MIN_TOL, exclude_max=True),
        st.floats(min_value=cli.MAX_TOL, exclude_min=True),
        st.sampled_from([1e-300, 1e-5, 0.5, float("inf"), float("nan")]),
    ).map(lambda tol: ["npa", "--level=2", f"--tol={tol!r}"]),
    st.tuples(
        st.sampled_from(
            [["theorem1", "--n=3"], ["optimize", "--n=3"], ["reproduce-paper", "--fast"]]
        ),
        st.integers(max_value=-1),
    ).map(lambda cmd_seed: [*cmd_seed[0], f"--seed={cmd_seed[1]}"]),
)


@settings(max_examples=80, deadline=None)
@given(INVALID_ARGV)
def test_invalid_inputs_exit_with_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE


def test_theorem1_zero_trials_is_a_usage_error(capsys):
    # no trials would pass vacuously, so the parser refuses 0 before any work
    with pytest.raises(SystemExit) as exc:
        cli.main(["theorem1", "--n", "5", "--trials", "0", "--format", "json"])
    out = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert out.out == ""
    assert "argument --trials: must be in [1, " in out.err


def test_npa_tol_above_the_cap_is_a_usage_error(capsys):
    # a loose solve would check level 3 against a level-2 bound solved as
    # loosely: at --tol 0.5 both level-3 pinned verdicts passed with bound 1.85
    with pytest.raises(SystemExit) as exc:
        cli.main(["npa", "--level", "3", "--perfect-correlations", "--tol", "0.5"])
    out = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert out.out == ""
    assert (
        f"argument --tol: must be in [{cli.MIN_TOL}, {cli.MAX_TOL}], got 0.5" in out.err
    )


def _passes(verdict, at_most):
    """The pass rule of ``RunReport.add_verdict``, from the reported fields."""
    observed, target, tolerance = (
        verdict["observed"], verdict["target"], verdict["tolerance"]
    )
    if at_most:
        return observed <= target + tolerance
    return abs(observed - target) <= tolerance


def test_equality_verdicts_pass_up_to_the_tolerance_and_no_further():
    report = cli.RunReport("test", {}, {})
    for observed in (0.75, 1.0, 1.25):
        report.add_verdict("at the edge", 1.0, observed, 0.25)
    for observed in (np.nextafter(0.75, -np.inf), np.nextafter(1.25, np.inf)):
        report.add_verdict("just beyond", 1.0, observed, 0.25)
    assert [v["pass"] for v in report.verdicts] == [True] * 3 + [False] * 2


def test_at_most_verdicts_pass_however_far_below():
    report = cli.RunReport("test", {}, {})
    for observed in (-1e300, 0.0, 1.25, np.nextafter(1.25, np.inf)):
        report.add_verdict("at most", 1.0, observed, 0.25, at_most=True)
    assert [v["pass"] for v in report.verdicts] == [True, True, True, False]


def _theorem1_oracle(n, trials, seed):
    """Largest residual and the trials, through the correlator one trial at a time."""
    rng = np.random.default_rng(seed)
    worst, drawn = 0.0, []
    for _ in range(trials):
        blochs = np.array([Z] + [random_bloch(rng) for _ in range(n - 1)])
        value = ghz_expectation(n, blochs)
        if n % 2 == 0:
            value -= np.prod(blochs[1:, 2])
        worst = max(worst, abs(value))
        drawn.append(blochs)
    return worst, np.array(drawn)


def test_theorem1_passes_odd_and_even(capsys, monkeypatch):
    oracle = {n: _theorem1_oracle(n, 50, cli.SEED_DEFAULT) for n in range(3, 7)}
    evaluated = []
    kernel = correlators.ghz_expectation

    def recording_kernel(n, blochs):
        evaluated.append(blochs)
        return kernel(n, blochs)

    monkeypatch.setattr(correlators, "ghz_expectation", recording_kernel)
    monkeypatch.setattr(cli, "THEOREM1_BLOCK", 16)  # 50 trials in four blocks
    for n, (worst, drawn) in oracle.items():
        evaluated.clear()
        code, out, _ = run(
            capsys, "theorem1", "--n", str(n), "--trials", "50", "--format", "json"
        )
        assert code == cli.EXIT_OK
        max_residual = json.loads(out)["results"]["max_residual"]
        assert max_residual < 1e-12
        assert max_residual == worst
        # the oracle's trials, up to the rounding of the vector norm
        assert len(evaluated) == 4
        assert np.allclose(np.concatenate(evaluated), drawn, rtol=0.0, atol=1e-15)


def test_optimize_unconstrained_small(capsys):
    code, out, _ = run(
        capsys,
        "optimize", "--n", "3", "--restarts", "8", "--seed", "5", "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["best_value"] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize(
    "n", [39, 40, cli.MAX_OPTIMIZE_PARTIES - 1, cli.MAX_OPTIMIZE_PARTIES]
)
def test_optimize_honest_at_the_party_cap_passes_its_verdicts(capsys, n):
    # the odd-N maximum meets the cap of 2^((n-3)/2) to a few ulps of it, far
    # inside the verdicts' relative tolerance; its absolute excess grows with
    # the cap (1.2e-6 at n = 59)
    code, out, _ = run(
        capsys,
        "optimize", "--n", str(n), "--honest",
        "--restarts", str(cli.MAX_RESTARTS), "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert len(payload["verdicts"]) == 1 + n % 2
    assert all(v["pass"] for v in payload["verdicts"])
    for v in payload["verdicts"]:
        assert v["tolerance"] == cli.HONEST_CAP_RTOL * v["target"]
    if n % 2:
        cap = correlators.theorem1_bound(n)
        assert payload["results"]["best_value"] == pytest.approx(cap, rel=1e-12)


def test_optimize_honest_four_party_reports_failing_target(capsys):
    # the classical-bound target is kept verbatim; the optimizer provably
    # reaches sqrt(2), so this verdict fails and exit code 4 signals it
    code, out, _ = run(
        capsys,
        "optimize", "--n", "4", "--honest", "--restarts", "20", "--seed", "5",
        "--format", "json",
    )
    assert code == cli.EXIT_VERDICT
    payload = json.loads(out)
    verdicts = {v["claim"]: v for v in payload["verdicts"]}
    classical = verdicts["four-party pinned-key maximum equals the classical bound"]
    assert not classical["pass"]
    assert classical["observed"] == pytest.approx(2.0**0.5, abs=1e-6)
    threshold = verdicts[
        "pinned-key maximum stays below the GME-certification threshold"
    ]
    assert threshold["pass"]


def test_npa_level2_constrained(capsys):
    code, out, _ = run(
        capsys, "npa", "--level", "2", "--perfect-correlations", "--format", "json"
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["bound"] == pytest.approx(2.0**0.5, abs=1e-5)
    assert payload["results"]["certificate"]["verified"]


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("level", ["2", "3"])
def test_every_npa_problem_converges_at_the_smallest_tol(capsys, level, pinned):
    # no --tol the CLI accepts can end in a numerical failure (exit 3)
    argv = ["npa", "--level", level, "--tol", str(cli.MIN_TOL), "--format", "json"]
    if pinned:
        argv.append("--perfect-correlations")
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_OK
    assert json.loads(out)["results"]["certificate"]["verified"]


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("level", ["2", "3"])
def test_every_npa_problem_passes_at_the_largest_tol(capsys, level, pinned):
    # no --tol the CLI accepts is loose enough to fail a verdict
    argv = ["npa", "--level", level, "--tol", str(cli.MAX_TOL), "--format", "json"]
    if pinned:
        argv.append("--perfect-correlations")
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_OK
    assert all(v["pass"] for v in json.loads(out)["verdicts"])


def test_csv_is_a_flat_verdict_table(capsys):
    code, out, _ = run(
        capsys, "theorem1", "--n", "3", "--trials", "10", "--format", "csv"
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "command,claim,target,observed,tolerance,pass"
    assert lines[1].startswith("theorem1,")


def test_reports_are_reproducible_modulo_duration(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys,
            "optimize", "--n", "3", "--restarts", "6", "--seed", "11",
            "--format", "json",
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        payload.pop("duration_ms")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_reproduce_paper_fast(capsys):
    code, out, _ = run(
        capsys, "reproduce-paper", "--fast", "--seed", "3", "--format", "json"
    )
    assert code == cli.EXIT_VERDICT  # the documented four-party verdict fails
    payload = json.loads(out)
    assert payload["params"]["fast"] is True
    failing = [v["claim"] for v in payload["verdicts"] if not v["pass"]]
    assert failing == [
        "optimize: four-party pinned-key maximum equals the classical bound"
    ]
    # each verdict's pass follows from its reported fields: bounds stated as
    # "within", "below" or "at most" by the at_most rule, the rest by equality
    for v in payload["verdicts"]:
        at_most = any(word in v["claim"] for word in ("within", "below", "at most"))
        assert v["pass"] == _passes(v, at_most), v
    # nested reports carry no duration, keeping the payload reproducible
    for sub in payload["results"]["reports"]:
        assert "duration_ms" not in sub


def test_full_reproduce_solves_each_level2_problem_once(monkeypatch):
    # the level-3 monotonicity verdicts reuse the level-2 bounds at 1e-9
    calls = []
    upper_bound = npa.npa_upper_bound

    def counting(level, with_constraint, **kwargs):
        calls.append((level, with_constraint))
        return upper_bound(level, with_constraint, **kwargs)

    monkeypatch.setattr(cli.npa, "npa_upper_bound", counting)
    report = cli.cmd_reproduce(cli.SEED_DEFAULT, fast=False)
    assert sorted(calls) == [(2, False), (2, True), (3, False), (3, True)]
    assert len(report.verdicts) == 40
    npa_reports = [r for r in report.results["reports"] if r["command"] == "npa"]
    bounds = {
        (r["params"]["level"], r["params"]["perfect_correlations"]): r["results"]
        for r in npa_reports
    }
    for pinned in (True, False):
        assert bounds[(3, pinned)]["level2_bound"] == bounds[(2, pinned)]["bound"]
    assert sum("blocks (" in line for line in report.diagnostics) == 4


def test_npa_vv_prints_solver_diagnostics_outside_the_payload(capsys):
    argv = ["npa", "--level", "2", "--perfect-correlations", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    code_v, out_v, err_v = run(capsys, *argv, "-vv")
    assert code_v == code == cli.EXIT_OK
    quiet, loud = json.loads(out), json.loads(out_v)
    quiet.pop("duration_ms")
    loud.pop("duration_ms")
    assert loud == quiet
    assert re.search(
        r"^\[mabkcert\] npa level 2, perfect_correlations=True: group order \d+,"
        r" \d+ orbits, \d+ zeroed classes, blocks \(\d+(, \d+)*,?\),"
        r" \d+ iterations, Schur assembly \d\.\d{4} s, factorizations \d\.\d{4} s,"
        r" step lengths \d\.\d{4} s, final dual residual \d\.\d{3}e[-+]\d+;"
        r" stage seconds: build \d\.\d{4}, reduce \d\.\d{4}, lower \d\.\d{4},"
        r" group \d\.\d{4}, bases \d\.\d{4}, restriction \d\.\d{4},"
        r" sdp \d\.\d{4}, lift \d\.\d{4}, check \d\.\d{4}$",
        err_v,
        re.MULTILINE,
    )
    _, _, err_once = run(capsys, *argv, "-v")
    assert "blocks" not in err_once


NPA_STAGES = (
    "build", "reduce", "lower", "group", "bases", "restriction", "sdp", "lift", "check"
)


@pytest.mark.parametrize("level", ["2", "3"])
def test_npa_vv_names_every_stage_outside_the_payload(capsys, level):
    argv = ["npa", "--level", level, "--format", "json"]
    code, out, _ = run(capsys, *argv)
    code_v, out_v, err_v = run(capsys, *argv, "-vv")
    assert code_v == code == cli.EXIT_OK
    (line,) = [l for l in err_v.splitlines() if f"npa level {level}," in l]
    stages = re.findall(r"(\w+) (\d+\.\d{4})", line.partition("stage seconds: ")[2])
    assert tuple(name for name, _ in stages) == NPA_STAGES
    # the stages lie within the command's wall time, up to their rounding
    total = sum(float(s) for _, s in stages)
    assert total <= json.loads(out_v)["duration_ms"] / 1e3 + len(stages) * 5e-5
    for payload in (json.loads(out), json.loads(out_v)):
        assert list(payload) == ["command", "params", "results", "verdicts", "duration_ms"]
        assert list(payload["results"]) == [
            "bound", "certified_bound", "certificate", "iterations", "basis_size",
            "reduced_size", "n_moment_classes",
        ] + (["level2_bound"] if level == "3" else [])
        assert "stage" not in json.dumps(payload)


def test_numerical_failure_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise SdpSolverError("synthetic breakdown", {"detail": 1})

    monkeypatch.setattr(cli.npa, "npa_upper_bound", boom)
    code, _, err = run(capsys, "npa", "--level", "2")
    assert code == cli.EXIT_NUMERICAL
    assert "synthetic breakdown" in err
    assert "detail" in err


def test_numerical_failure_prints_only_the_trace_tail(capsys, monkeypatch):
    rows = tuple((float(i),) * 7 for i in range(34))

    def boom(*args, **kwargs):
        raise SdpSolverError("synthetic breakdown", {"iteration": 34, "trace": rows})

    monkeypatch.setattr(cli.npa, "npa_upper_bound", boom)
    code, _, err = run(capsys, "npa", "--level", "2")
    assert code == cli.EXIT_NUMERICAL
    assert "'iteration': 34" in err and "'trace_rows': 34" in err
    assert err.count("(3") == 3  # rows 31, 32 and 33 start with their index
    assert "(30.0" not in err and "(0.0" not in err


@pytest.mark.parametrize("verbosity", [1, 2])
@pytest.mark.parametrize(
    "argv",
    [["mabk-show", "--n", "3"], ["theorem1", "--n", "3", "--trials", "10"]],
    ids=["mabk-show", "theorem1"],
)
def test_verbose_adds_only_stderr_lines(capsys, argv, verbosity):
    # -v adds one timing line ahead of the usual stderr, -vv one more line per
    # verdict; the payload is unchanged apart from its duration
    argv = [*argv, "--format", "json"]
    code, out, err = run(capsys, *argv)
    code_v, out_v, err_v = run(capsys, *argv, "-" + "v" * verbosity)
    assert code_v == code == cli.EXIT_OK
    quiet, loud = json.loads(out), json.loads(out_v)
    quiet.pop("duration_ms")
    loud.pop("duration_ms")
    assert loud == quiet
    usual = err.splitlines()
    lines = err_v.splitlines()
    added = lines[: len(lines) - len(usual)]
    assert lines[len(added) :] == usual
    assert len(added) == 1 + (verbosity - 1) * len(quiet["verdicts"])
    assert re.fullmatch(rf"\[mabkcert\] {argv[0]} finished in \d+\.\d ms", added[0])
    assert all(line.startswith("[mabkcert] verdict: {") for line in added[1:])
