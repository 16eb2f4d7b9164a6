"""No algorithm fails because its input nests deeply: the searches and the
DOT export keep their own stacks, and no function in ``ldbig`` calls itself."""

import ast
import sys
from pathlib import Path

from ldbig import (
    Bigraph, LocalInterface, Pattern, Root, default_signature,
    find_matches, is_isomorphic, relabel, to_dot, validate,
)

DEPTH = sys.getrecursionlimit() + 200
SRC = Path(__file__).resolve().parent.parent / "src" / "ldbig"


def chain(depth: int):
    """``depth`` containers, each nested in the one before it."""
    sig = default_signature()
    outer = LocalInterface.of((set(), set()), (set(), set()))
    ids = range(1, depth + 1)
    return Bigraph(sig, LocalInterface.of(), outer,
                   dict.fromkeys(ids, sig.lookup("container")), (), {},
                   {v: v - 1 if v > 1 else Root(1) for v in ids}, {})


def test_iso_on_a_deep_chain():
    b = chain(DEPTH)
    assert validate(b) == []
    renamed = relabel(b, {v: 2 * DEPTH - v for v in b.nodes})
    assert is_isomorphic(b, renamed)
    assert not is_isomorphic(b, chain(DEPTH - 1))


def test_anchored_matching_on_a_deep_chain():
    host = chain(DEPTH)
    pattern = relabel(host, {v: v + DEPTH for v in host.nodes})
    (occ,) = find_matches(Pattern("chain", pattern, anchor_at_roots=True), host)
    assert dict(occ.node_map) == {v + DEPTH: v for v in host.nodes}
    assert occ.root_anchors == ((1, Root(1)),)


def test_dot_of_a_deep_chain():
    text = to_dot(chain(DEPTH))
    assert text.count("subgraph cluster_n") == DEPTH - 1
    # the innermost node is a leaf, indented once per enclosing cluster
    assert f'\n{"  " * (DEPTH + 1)}"n{DEPTH}" [label=' in text


def _self_calls(tree):
    """(file line, name) of each function whose body calls it by name."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                yield fn.lineno, fn.name
            if isinstance(callee, ast.Attribute) and callee.attr == fn.name \
                    and isinstance(callee.value, ast.Name) \
                    and callee.value.id in ("self", "cls"):
                yield fn.lineno, fn.name


def test_no_function_calls_itself():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _self_calls(ast.parse(path.read_text()))]
    assert found == []


def test_the_self_call_finder_finds_recursion():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def g(self):\n        return self.g()\n")
    assert list(_self_calls(tree)) == [(1, "f"), (4, "g")]
