"""Every seeded mutant of ``mutants.py`` still applies to the source."""

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
