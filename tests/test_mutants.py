"""The mutation register (tests/mutants.py) still applies to src/."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("entry", MUTANTS, ids=lambda entry: entry[0])
def test_every_mutant_old_text_occurs_once(entry):
    """Each entry's old text occurs exactly once in its file, so that
    python tests/mutants.py plants the fault it names."""
    _, path, old, _, _ = entry
    assert (ROOT / "src" / path).read_text().count(old) == 1
