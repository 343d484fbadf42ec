"""Every seeded mutant of ``mutants.py`` still applies to the source, and its
killers are tests that pytest collects."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_anchor_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.killers
    for killer in mutant.killers:
        path, _, test = killer.partition("::")
        assert f"\ndef {test.partition('[')[0]}(" in (ROOT / path).read_text()


def test_every_killer_id_collects():
    # a stale parametrized id passes the name check above but makes pytest
    # exit 4 ("not found"), which run_mutants.py reports as failing killers
    killers = sorted({killer for mutant in MUTANTS for killer in mutant.killers})
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
        + killers,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert collected.returncode == 0, collected.stdout[-2000:] + collected.stderr
