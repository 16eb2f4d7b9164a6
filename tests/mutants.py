"""Hand-made mutants of ``src/ldbig`` and the test files that must kill them.

Each row of ``MUTANTS`` names a file under ``src/``, a snippet that occurs in
it exactly once, the snippet's replacement, and the test files that should
fail once the replacement is made.  From the repository root,

    python tests/mutants.py

copies ``src/`` to a temporary directory, makes one mutant at a time there,
runs the row's test files with ``-x`` against it in a child process, and
prints each mutant that survives; it exits 1 if any does.  A tier-1 test
(``tests/test_mutants.py``) checks only that every snippet occurs exactly
once, so that the table cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEARCH = ("tests/test_sorting.py", "tests/test_search_growth.py")
SORTING = "ldbig/sorting.py"
BIGRAPH = "ldbig/bigraph.py"
YAMLLOAD = "ldbig/yamlload.py"
COMPOSEFILE = "ldbig/composefile.py"
JSONTEXT = "ldbig/jsontext.py"
ASSEMBLY = ("tests/test_assembly.py",)
WRITERS = ("tests/test_serialize.py",)

# (file under src/, snippet, replacement, test files that kill it)
MUTANTS = [
    # find_matches' screen: each embedding condition dropped
    (SORTING, "elif isinstance(lp, Edge) and lh in claimed:", "elif False:",
     SEARCH),
    (SORTING, "if u in anchored and not isinstance(host_parent(w), Root):",
     "if False:", SEARCH),
    (SORTING, "if bound[lp] != lh:", "if False:", SEARCH),
    (SORTING, "if lh != lp:", "if False:", SEARCH),
    (SORTING, "if lh != Port(phi.get(lp.node, w), lp.index):", "if False:",
     SEARCH),
    (SORTING, "if host_parent(phi.get(x, w)) != (w if under else None):",
     "if False:", SEARCH),
    (SORTING, "while made and made[-1][0] >= depth:", "while False:", SEARCH),
    # verify_occurrence: the checks that come before the pinned search
    (SORTING, "if set(node_map) != set(pattern.nodes) or any(",
     "if False and any(", ("tests/test_sorting.py",)),
    (SORTING, "host.nodes.get(w) != pattern.nodes[u] for u, w",
     "False for u, w", ("tests/test_sorting.py",)),
    # validate: a link target with an unhashable field is reported
    (BIGRAPH, "except TypeError:\n            lt = nowhere",
     "except ZeroDivisionError:\n            lt = nowhere",
     ("tests/test_bigraph.py",)),
    (BIGRAPH, "if _hashable(x := link.get(cls(i, t)))}",
     "if (x := link.get(cls(i, t))) is not None}",
     ("tests/test_bigraph.py",)),
    # the YAML builder: the depth cap, a recursive alias, a foreign tag
    (YAMLLOAD, "if len(stack) > MAX_DEPTH:", "if len(stack) > MAX_DEPTH + 1:",
     ("tests/test_composefile.py",)),
    (YAMLLOAD, "if value is _OPEN:", "if False:", ("tests/test_yamlload.py",)),
    (YAMLLOAD, "if tag != own_tag:", "if False:", ("tests/test_yamlload.py",)),
    # the wiring's edge numbering
    (COMPOSEFILE, "if net in used:\n            edges.append(top + len(edges) + 1)",
     "if net in used:\n            edges.append(top + len(edges) + 2)", ASSEMBLY),
    # _check_assembled: each fault of the builder's maps goes unreported
    (COMPOSEFILE, "if not edges.isdisjoint(nodes):", "if False:", ASSEMBLY),
    (COMPOSEFILE, "if above is None:", "if False:", ASSEMBLY),
    (COMPOSEFILE, "elif not (above in nodes or above == root):", "elif False:",
     ASSEMBLY),
    (COMPOSEFILE, "if len(b.link) != points:", "if False:", ASSEMBLY),
    (COMPOSEFILE, "if target.ident not in edges:", "if False:", ASSEMBLY),
    (COMPOSEFILE, "if ctrl is None or not 0 <= target.index < ctrl.minus:",
     "if ctrl is None or not 0 <= target.index <= ctrl.minus:", ASSEMBLY),
    # the piece writers' boundaries
    (JSONTEXT, "list(islice(it, _PIECE))", "list(islice(it, _PIECE + 1))",
     WRITERS),
    (JSONTEXT, 'yield _NL[1] + "]" if sep[0] == "," else "[]"',
     'yield _NL[1] + "]" if sep[0] == "[" else "[]"', WRITERS),
]


def survivors() -> list:
    """The rows whose test files all pass against their mutant."""
    alive = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")])}
        # the copy, not an installed ldbig, is what the tests import
        where = subprocess.run(
            [sys.executable, "-c", "import ldbig; print(ldbig.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if not where.stdout.startswith(str(src)):
            sys.exit(f"the tests would import ldbig from {where.stdout}")
        for row in MUTANTS:
            file, snippet, replacement, tests = row
            path = src / file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(snippet, replacement, 1),
                            encoding="utf-8")
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q",
                     "-p", "no:cacheprovider", *tests],
                    env=env, cwd=ROOT, capture_output=True, text=True)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if run.returncode == 0 else 'killed  '} "
                  f"{file}: {snippet!r}", flush=True)
            if run.returncode == 0:
                alive.append(row)
    return alive


if __name__ == "__main__":
    alive = survivors()
    print(f"{len(MUTANTS) - len(alive)} of {len(MUTANTS)} mutants killed")
    sys.exit(1 if alive else 0)
