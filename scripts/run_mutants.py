#!/usr/bin/env python3
"""Check that every seeded mutant of ``tests/mutants.py`` is killed.

Usage:
    python scripts/run_mutants.py [NAME ...]

Each mutant (all of them, or those NAMEd) is applied to a fresh copy of
``src/``, ``tests/``, ``bench/`` and ``pyproject.toml`` in a temporary
directory, and its killers run there under pytest.  The killers first run on
an unmutated copy, so a kill means the edit, not a broken test.  One line per
mutant; exits 1 if a killer fails on the unmutated copy, if a mutant survives
(its killers all pass) or if pytest cannot run them, 2 on an unknown NAME,
else 0.  About 2 minutes for the thirty-two mutants on two cores; not
part of Tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

CACHES = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")


def run_killers(mutant, edit: bool) -> int:
    """pytest's exit code for ``mutant``'s killers, on a copy with or without
    its edit."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=CACHES)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if edit:
            path = Path(tmp, mutant.file)
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src"))}
        return subprocess.run(
            [*command, *mutant.killers],
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = False
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        clean = run_killers(mutant, edit=False)
        if clean:
            verdict = f"killers fail unmutated (exit {clean})"
        else:
            code = run_killers(mutant, edit=True)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        failed |= verdict != "killed"
        print(f"{mutant.name}: {verdict}", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
