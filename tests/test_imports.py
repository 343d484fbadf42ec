"""What each command imports: no command loads scipy or ``numpy.ma``, and the
NPA path does not load ``numpy.random`` either.

The SDP solver needs ``numpy.linalg`` alone, and the group-algebra weights of
``npa.symmetry_adapted_bases`` come from a private standard-library
generator, so a fresh ``npa`` process stays on numpy's core: ``numpy.random``
would add ``secrets``, ``hmac`` and ``_hashlib`` and about 6 MB of resident
memory to its first solve, and ``numpy.ma`` (which a bare ``np.unique`` loads
in numpy 2.4) about 15 ms.  ``theorem1``, ``optimize`` and
``reproduce-paper`` draw their trials and starts from ``numpy.random``, whose
streams fix their payloads, so they are held to the rest.

Each case runs in a fresh interpreter, imports the package, optionally runs
one CLI command with its stdout captured, and reports the exit code and every
loaded module of those three packages.
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
loaded = {
    name: sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
    for name in ("scipy", "numpy.random", "numpy.ma")
}
print(json.dumps({"code": code, **loaded}))
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
    "argv, draws",
    [
        ([], False),
        (["mabk-show", "--n", "3"], False),
        (["theorem1", "--n", "3"], True),
        (["optimize", "--n", "3", "--restarts", "2"], True),
    ],
    ids=["import", "mabk-show", "theorem1", "optimize"],
)
def test_commands_without_an_sdp_load_no_scipy(argv, draws):
    child = run_child(argv)
    assert child["scipy"] == child["numpy.ma"] == []
    # the seeded commands draw from numpy.random, and the child reports it
    assert bool(child["numpy.random"]) == draws
    assert child["code"] in (None, 0)


@pytest.mark.parametrize(
    "argv, codes, draws",
    [
        (["npa", "--level", "2"], {0}, False),
        (["npa", "--level", "3", "--perfect-correlations"], {0}, False),
        # exit 4 is a failed verdict, the four-party pinned-key maximum
        (["reproduce-paper", "--fast"], {0, 4}, True),
    ],
    ids=["npa", "npa-level3-pinned", "reproduce-fast"],
)
def test_sdp_commands_load_no_scipy(argv, codes, draws):
    child = run_child(argv)
    assert child["scipy"] == child["numpy.ma"] == []
    assert bool(child["numpy.random"]) == draws
    assert child["code"] in codes
