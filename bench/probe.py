"""Set-up probe: a fresh process that gets one workload ready, then exits.

    python3 bench/probe.py WORKLOAD SEED

``run.py`` times this process from spawn to exit as ``setup_s``: interpreter
start, importing ``mabkcert`` with numpy and scipy, the first BLAS/LAPACK
calls and the workload's one-time caches.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]]().prime(int(sys.argv[2]))
