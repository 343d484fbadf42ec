"""The experiment scripts stay runnable."""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        ["--max-n", "11"],
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
