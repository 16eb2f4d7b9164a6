from pathlib import Path

from mutants import MUTANTS, ROOT


def test_every_mutant_snippet_occurs_once_and_its_tests_exist():
    for file, snippet, replacement, tests in MUTANTS:
        text = (ROOT / "src" / file).read_text(encoding="utf-8")
        assert text.count(snippet) == 1, (file, snippet)
        assert snippet != replacement and tests
        assert all((ROOT / Path(t)).is_file() for t in tests), tests
