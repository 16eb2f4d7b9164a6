"""Fuzz the CLI contract: whatever compose, pattern or order file it reads,
``ldbig.cli.main`` returns 0, 1 or 2 without raising, exits 2 exactly when
its report is an input error, and exits 2 on every document that is broken
by construction."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import yaml
from hypothesis import assume, given, settings, strategies as st

from ldbig.cli import main

DATA = Path(__file__).parent / "data"
WORDPRESS_TEXT = (DATA / "wordpress.yml").read_text(encoding="utf-8")
WORDPRESS = yaml.safe_load(WORDPRESS_TEXT)
PATTERNS = json.loads((DATA / "forbidden.json").read_text(encoding="utf-8"))

FUZZ = settings(derandomize=True, max_examples=60, deadline=None)

scalars = (st.none() | st.booleans() | st.integers(-5, 9000)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=8))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


def _paths(doc, prefix=()):
    """Every position in a nested document, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _kind(value):
    """The JSON kind of a value; a bool counts as an integer, as in Python."""
    if isinstance(value, (bool, int)):
        return int
    return type(value)


def _check_contract(argv):
    """Run one command and check the contract; returns the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    if argv[0] != "export" or code == 2:
        status = json.loads(out.getvalue())["status"]
        assert (status == "inputError") == (code == 2), out.getvalue()
    return code


def _code_on_order(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        order = Path(tmp) / "order.txt"
        order.write_text(text, encoding="utf-8")
        return _check_contract(["check-security", str(DATA / "wordpress.yml"),
                                "--json", "--order", str(order)])


def _compose_commands(compose: Path):
    yield ["validate", str(compose), "--json"]
    yield ["check-links", str(compose), "--json"]
    yield ["check-security", str(compose), "--json",
           "--order", str(DATA / "order.txt")]
    yield ["check-sorts", str(compose), "--json",
           "--forbidden", str(DATA / "forbidden.json")]
    yield ["export", str(compose), "--format", "json", "--json"]


def _codes_on_compose(text: str) -> set[int]:
    with tempfile.TemporaryDirectory() as tmp:
        compose = Path(tmp) / "stack.yml"
        compose.write_text(text, encoding="utf-8")
        return {_check_contract(argv) for argv in _compose_commands(compose)}


def _code_on_patterns(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        patterns = Path(tmp) / "patterns.json"
        patterns.write_text(text, encoding="utf-8")
        return _check_contract(["check-sorts", str(DATA / "wordpress.yml"),
                                "--json", "--forbidden", str(patterns)])


@FUZZ
@given(st.data())
def test_any_compose_edit_keeps_the_contract(data):
    path = data.draw(st.sampled_from(list(_paths(WORDPRESS))))
    doc = _replaced(WORDPRESS, path, data.draw(values))
    _codes_on_compose(yaml.safe_dump(doc))


@FUZZ
@given(st.integers(0, len(WORDPRESS_TEXT)), st.text(max_size=6))
def test_any_compose_text_keeps_the_contract(cut, insert):
    _codes_on_compose(WORDPRESS_TEXT[:cut] + insert + WORDPRESS_TEXT[cut:])


@FUZZ
@given(st.data())
def test_broken_compose_documents_exit_2(data):
    doc = copy.deepcopy(WORDPRESS)
    how = data.draw(st.sampled_from(["section", "key", "repeat"]))
    if how == "section":
        # a top-level section must be a mapping
        key = data.draw(st.sampled_from(["services", "networks", "volumes"]))
        value = data.draw(values.filter(lambda v: v and not isinstance(v, dict)))
        text = yaml.safe_dump(_replaced(doc, (key,), value))
    elif how == "key":
        # a key outside the supported subset, at the top or in a service
        where = data.draw(st.sampled_from([(), ("services", "wp")]))
        key = data.draw(st.text(min_size=1, max_size=6))
        assume(key not in _at(doc, where) and key != "expose")
        _at(doc, where)[key] = data.draw(values)
        text = yaml.safe_dump(doc)
    else:
        # any key line written twice within its mapping
        lines = WORDPRESS_TEXT.splitlines(keepends=True)
        keyed = [i for i, line in enumerate(lines) if ":" in line]
        i = data.draw(st.sampled_from(keyed))
        text = "".join(lines[:i + 1] + lines[i:])
    assert _codes_on_compose(text) == {2}


@FUZZ
@given(st.data())
def test_any_pattern_edit_keeps_the_contract(data):
    path = data.draw(st.sampled_from(list(_paths(PATTERNS))))
    if path and data.draw(st.booleans()):
        doc = copy.deepcopy(PATTERNS)
        del _at(doc, path[:-1])[path[-1]]
    else:
        doc = _replaced(PATTERNS, path, data.draw(values))
    _code_on_patterns(json.dumps(doc))


@FUZZ
@given(st.data())
def test_mistyped_pattern_documents_exit_2(data):
    path = data.draw(st.sampled_from(list(_paths(PATTERNS))))
    old = _at(PATTERNS, path)
    value = data.draw(values.filter(lambda v: _kind(v) is not _kind(old)))
    assert _code_on_patterns(json.dumps(_replaced(PATTERNS, path, value))) == 2


@FUZZ
@given(st.text(max_size=40))
def test_any_pattern_text_keeps_the_contract(text):
    _code_on_patterns(text)


NETWORKS = st.sampled_from(["front", "back"])  # those of the wordpress stack
pairs = st.tuples(NETWORKS, NETWORKS).map(" > ".join)
# no '>' and no '#': a nonblank such line is never an assertion
bare = st.text(alphabet="abfkntz -_.", min_size=1, max_size=12).filter(str.strip)


@FUZZ
@given(st.lists(pairs | bare | st.text(max_size=12), max_size=5))
def test_any_order_text_keeps_the_contract(lines):
    _code_on_order("\n".join(lines))


@FUZZ
@given(st.data())
def test_broken_order_files_exit_2(data):
    lines = data.draw(st.lists(st.sampled_from(["back > front", "# a comment",
                                                ""]), max_size=3))
    how = data.draw(st.sampled_from(["line", "unknown", "cycle"]))
    if how == "line":
        # no '>', an empty side, or a chain of three
        broken = data.draw(bare | st.sampled_from(
            ["back >", "> front", "back > front > back"]))
    elif how == "unknown":
        # a network the stack does not declare
        name = data.draw(bare.map(str.strip).filter(
            lambda n: n not in ("front", "back") and " " not in n))
        broken = data.draw(st.sampled_from([f"{name} > front", f"back > {name}"]))
    else:
        # a network above itself, directly or through another
        a, b = data.draw(NETWORKS), data.draw(NETWORKS)
        broken = f"{a} > {b}\n{b} > {a}"
    at = data.draw(st.integers(0, len(lines)))
    assert _code_on_order("\n".join(lines[:at] + [broken] + lines[at:])) == 2
