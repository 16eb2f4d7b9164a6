"""Line reach: the function-body lines of ``src/ldbig`` the tests never run.

A pytest plugin.  From the repository root, run the tests with it:

    PYTHONPATH=src:tests python -m pytest -p reach -q

It traces, with ``sys.settrace``, only the frames whose code comes from
``src/ldbig``.  At the end of the session it lists each line that holds
bytecode of a function body (lambdas and comprehensions included, ``def``
lines not) and never ran, and fails the session unless ``ALLOWED`` gives
that line a reason.  An ``ALLOWED`` entry that matches no line, or whose
line did run, fails it too, so the list cannot outlive its reasons.

Code run in a child process, and code run at import (the plugin starts
tracing after ``conftest.py`` has imported ``ldbig``), is not seen.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ldbig"

# (file, the line's text without indent) -> why no in-process test runs it
ALLOWED = {
    ("jsontext.py", "super().__init__()"):
        "_PerDepth.__init__ runs at import, before the tracer starts",
    ("jsontext.py", "self.make = make"):
        "_PerDepth.__init__ runs at import, before the tracer starts",
    ("cli.py", "raise  # the reader of stdout left; main handles it"):
        "a closed stdout is tested in a child process only",
    ("cli.py",
     "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "a closed stdout is tested in a child process only",
}

_hits: set[tuple[str, int]] = set()
_problems: list[str] = []
_traced: dict = {}  # code object -> whether its file is in SRC


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _scope(frame, event, arg):
    code = frame.f_code
    traced = _traced.get(code)
    if traced is None:
        traced = _traced[code] = \
            Path(os.path.realpath(code.co_filename)).parent == SRC
    return _local if traced else None


def body_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode of a function body."""
    found: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function's own frame
            found.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return found


def audit(hits: set[tuple[str, int]]) -> list[str]:
    """One line per unreached body line without a reason, and per
    ``ALLOWED`` entry that matches no line or matches one that ran."""
    ran: dict[str, set[int]] = {}
    for filename, line in hits:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    problems = []
    matched = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        reached = ran.get(os.path.realpath(path), set())
        for line in sorted(body_lines(path)):
            key = (path.name, text[line - 1].strip())
            if key in ALLOWED:
                matched.add(key)
                if line in reached:
                    problems.append(f"{path.name}:{line}: runs, though "
                                    f"allowed: {ALLOWED[key]}")
            elif line not in reached:
                problems.append(f"{path.name}:{line}: never runs: {key[1]}")
    problems += [f"{file}: no body line reads {text!r}"
                 for file, text in sorted(ALLOWED.keys() - matched)]
    return problems


def pytest_sessionstart(session):
    sys.settrace(_scope)


def pytest_sessionfinish(session):
    replaced = sys.gettrace() is not _scope
    sys.settrace(None)
    _problems[:] = audit(_hits)
    if replaced:  # a test set a tracer and did not give ours back
        _problems.append("the tracer was replaced; lines run after that "
                         "are not counted")
    if _problems and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line reach of src/ldbig")
    for problem in _problems:
        terminalreporter.write_line(problem)
    if not _problems:
        terminalreporter.write_line("every function-body line runs, or has "
                                    "a reason in ALLOWED")
