"""The mutation audit's table (tests/mutants.py): every anchor occurs
exactly once in its file, so each mutant is one well-defined program.
The kill run is a documented command, not a test."""

import pathlib

import pytest

from mutants import MUTANTS

SRC = pathlib.Path(__file__).parents[1] / "src" / "ussd_lab"


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_anchor_occurs_once(mutant):
    text = (SRC / mutant.file).read_text()
    assert text.count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor and mutant.reason
    mutated = text.replace(mutant.anchor, mutant.replacement)
    compile(mutated, mutant.file, "exec")


def test_tier1_killers_exist():
    """Each named killer is a test file of the suite, and its test, if
    named, is defined there."""
    root = SRC.parents[1]
    for m in MUTANTS:
        for node in m.tier1:
            path, *names = node.split("::")
            assert (root / path).is_file(), node
            text = (root / path).read_text()
            assert all(f"class {n}" in text or f"def {n}" in text for n in names), node
