"""No command loads scipy: the package, its SDP solver included, needs numpy
alone, and scipy's import would cost more than a warm ``reproduce-paper
--fast`` run.

Each case runs in a fresh interpreter, imports the package, optionally runs
one CLI command with its stdout captured, and reports the exit code and every
loaded ``scipy`` module.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import mabkcert.cli, mabkcert.npa, mabkcert.sdp
argv = json.loads(sys.argv[2])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = mabkcert.cli.main(argv)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": scipy}))
"""


def run_child(argv):
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), json.dumps(argv)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["mabk-show", "--n", "3"],
        ["theorem1", "--n", "3"],
        ["optimize", "--n", "3", "--restarts", "2"],
    ],
    ids=["import", "mabk-show", "theorem1", "optimize"],
)
def test_commands_without_an_sdp_load_no_scipy(argv):
    child = run_child(argv)
    assert child["scipy"] == []
    assert child["code"] in (None, 0)


@pytest.mark.parametrize(
    "argv, codes",
    [
        (["npa", "--level", "2"], {0}),
        # exit 4 is a failed verdict, the four-party pinned-key maximum
        (["reproduce-paper", "--fast"], {0, 4}),
    ],
    ids=["npa", "reproduce-fast"],
)
def test_sdp_commands_load_no_scipy(argv, codes):
    child = run_child(argv)
    assert child["scipy"] == []
    assert child["code"] in codes
