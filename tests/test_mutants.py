"""The mutation list of tools/mutants.py against the current source: each
entry's text must occur exactly once in its file, so that an edit which
moves a precision constant fails here instead of dropping the entry."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutation_applies_to_exactly_one_place():
    mutants.check()
