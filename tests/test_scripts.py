"""The experiment scripts stay runnable."""

import contextlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from mabkcert import cli
from mabkcert.sdp import SdpSolverError

ROOT = Path(__file__).resolve().parent.parent
NEEDS_DEV_FULL = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full"
)
UNWRITABLE = [pytest.param("dev-full", marks=NEEDS_DEV_FULL), "closed-pipe"]


@contextlib.contextmanager
def unwritable_stdout(kind):
    """A child's stdout on which every write fails."""
    if kind == "dev-full":
        with open("/dev/full", "wb") as full:
            yield full
        return
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to write_end raises BrokenPipeError
    try:
        yield write_end
    finally:
        os.close(write_end)


def assert_one_write_error_line(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in stderr
    assert lines[0].startswith("cannot write the report: [Errno ")


def test_honest_maximum_scan_runs():
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "honest_maximum_scan.py"),
            "--max-n", "4", "--restarts", "6", "--seed", "1",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 3  # header + N=3 + N=4
    assert "pinned-key max" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--restarts", "0"],
        ["--restarts", "201"],
        ["--max-n", "2"],
        ["--max-n", str(cli.MAX_OPTIMIZE_PARTIES + 1)],
        ["--seed", "-1"],
        ["--restarts", "x"],
        ["--seed", "1.5"],
    ],
    ids="=".join,
)
def test_honest_maximum_scan_rejects_unbounded_inputs(argv):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "honest_maximum_scan.py"), *argv],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert argv[0] in out.stderr and "Traceback" not in out.stderr


def test_reproduce_script_writes_report(tmp_path):
    report_path = tmp_path / "report.json"
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "reproduce_paper.py"),
            "--fast", "--seed", "2", "--out", str(report_path),
        ],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 4  # the documented four-party verdict fails
    payload = json.loads(report_path.read_text())
    assert payload["command"] == "reproduce-paper"
    assert "verdicts" in payload


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-1", "--out", "{tmp}/report.json"],
        ["--seed", "1.5", "--out", "{tmp}/report.json"],
        ["--out", "{tmp}/missing/report.json"],
        ["--out", "{tmp}"],
    ],
    ids=["--seed=-1", "--seed=1.5", "--out=missing-dir", "--out=dir"],
)
def test_reproduce_script_rejects_invalid_arguments(tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_paper.py"), "--fast", *argv],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert argv[0] in out.stderr and "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", UNWRITABLE)
@pytest.mark.parametrize(
    "script, argv",
    [
        ("honest_maximum_scan.py", ["--max-n", "3", "--restarts", "1"]),
        ("reproduce_paper.py", ["--fast", "--out", "{tmp}/report.json"]),
    ],
    ids=["scan", "reproduce"],
)
def test_scripts_exit_1_on_unwritable_stdout(tmp_path, script, argv, kind):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with unwritable_stdout(kind) as stdout:
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert out.returncode == 1
    assert_one_write_error_line(out.stderr)


@NEEDS_DEV_FULL
def test_reproduce_script_exits_1_on_unwritable_out():
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "reproduce_paper.py"),
            "--fast", "--out", "/dev/full",
        ],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert_one_write_error_line(out.stderr)


@pytest.mark.parametrize("read_only", ["file", "directory"])
def test_reproduce_script_refuses_a_read_only_out(
    tmp_path, monkeypatch, capsys, read_only
):
    # an existing --out the user may not write, or a new one in a directory
    # the user may not write, is refused before the suite runs
    out = tmp_path / "report.json"
    if read_only == "file":
        out.write_text("old\n")
        locked, mode = out, 0o444
    else:
        locked, mode = tmp_path, 0o555
    locked.chmod(mode)
    if os.access(locked, os.W_OK):
        # root may write any file whatever its mode: check as a user who may not
        real_access = os.access

        def access(path, how, **kwargs):
            if how & os.W_OK and Path(path) == locked:
                return False
            return real_access(path, how, **kwargs)

        monkeypatch.setattr(os, "access", access)

    def run_suite(*args):
        raise AssertionError("the suite ran")

    main = runpy.run_path(str(ROOT / "scripts" / "reproduce_paper.py"))["main"]
    monkeypatch.setattr(cli, "cmd_reproduce", run_suite)
    argv = ["reproduce_paper.py", "--fast", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    try:
        with pytest.raises(SystemExit) as exit_info:
            main()
    finally:
        locked.chmod(0o755 if locked.is_dir() else 0o644)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"--out: {locked} is not writable" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["report.json"] if read_only == "file" else []
    )
    if read_only == "file":
        assert out.read_text() == "old\n"


def test_reproduce_script_exits_3_on_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # a solver breakdown ends as the CLI ends it: exit 3, the failure and the
    # last trace rows on stderr, no traceback and no report file
    rows = tuple((float(i),) * 7 for i in range(34))

    def breakdown(*args):
        raise SdpSolverError("synthetic breakdown", {"iteration": 34, "trace": rows})

    main = runpy.run_path(str(ROOT / "scripts" / "reproduce_paper.py"))["main"]
    monkeypatch.setattr(cli, "cmd_reproduce", breakdown)
    out = tmp_path / "report.json"
    argv = ["reproduce_paper.py", "--fast", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert main() == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "numerical failure: synthetic breakdown" in captured.err
    assert "'trace_rows': 34" in captured.err
    assert captured.err.count("(3") == 3  # rows 31, 32 and 33 start with their index
    assert "(30.0" not in captured.err and "(0.0" not in captured.err
    assert not out.exists()
