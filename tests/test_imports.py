"""scipy loads only when an SDP is solved.

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


def test_npa_loads_scipy_and_passes():
    child = run_child(["npa", "--level", "2"])
    assert child["code"] == 0
    assert "scipy.linalg" in child["scipy"] and "scipy.sparse" in child["scipy"]
