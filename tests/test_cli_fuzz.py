"""Fuzz the CLI contract: whatever compose, pattern or order file it reads,
``ldbig.cli.main`` returns 0, 1 or 2 without raising, exits 2 exactly when
its report is an input error, and exits 2 on every document that is broken
by construction.  Each compose document it accepts gives a well-formed
environment and container block, assembles as the one composed over the
other, wires as its model says and exports the text of its document tree,
and on each compose edit it accepts, check_links and the flow graph agree
with the verdicts read off the compose model."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import yaml
from hypothesis import assume, given, settings, strategies as st

from ldbig import (
    assemble, environment_bigraph, parse_compose, stub_block, validate,
)
from ldbig.cli import main
from test_assembly import assert_is_the_formula
from test_serialize import assert_dumps_is_json_dumps
from test_model_reference import assert_agree, assert_wiring_agrees

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


def _codes_on_compose(text: str) -> dict[str, int]:
    """The exit code of each subcommand on the document ``text``; one that
    ``validate`` accepts gives a well-formed environment, block and
    composite, assembles as the paper's formula, wires as its model says,
    and its export is the text of its document tree."""
    with tempfile.TemporaryDirectory() as tmp:
        compose = Path(tmp) / "stack.yml"
        compose.write_text(text, encoding="utf-8")
        codes = {argv[0]: _check_contract(argv)
                 for argv in _compose_commands(compose)}
    if codes["validate"] == 0:
        model = parse_compose(text)
        assert validate(environment_bigraph(model)) == []
        assert validate(stub_block(model)) == []
        composite = assemble(model)
        assert_is_the_formula(model, composite)  # validates it too
        assert_wiring_agrees(model)
        assert_dumps_is_json_dumps(composite)
    return codes


def _code_on_patterns(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        patterns = Path(tmp) / "patterns.json"
        patterns.write_text(text, encoding="utf-8")
        return _check_contract(["check-sorts", str(DATA / "wordpress.yml"),
                                "--json", "--forbidden", str(patterns)])


def test_any_compose_edit_keeps_the_contract():
    compared = []

    @FUZZ
    @given(st.data())
    def edit(data):
        path = data.draw(st.sampled_from(list(_paths(WORDPRESS))))
        text = yaml.safe_dump(_replaced(WORDPRESS, path, data.draw(values)))
        if 2 not in _codes_on_compose(text).values():
            # an accepted document: its flow verdicts match the model's
            assert_agree(parse_compose(text))
            compared.append(path)

    edit()
    assert compared


# explicit scalar tags on texts they can and cannot read, anchors, aliases
# and merges
TAGS = ["!!bool", "!!int", "!!float", "!!null", "!!timestamp", "!!binary"]
tag_texts = st.sampled_from(["x", "0", "0x1f", "1.5", ".inf", "yes", "~", "''",
                             "2001-12-14", "2001-12-14t21:59:43.10-05:00",
                             "aGk=", "a=b"]) \
    | st.text(alphabet="ab019.-:+=T ", max_size=8)
tagged = st.builds("{} {}".format, st.sampled_from(TAGS), tag_texts)
ANCHORS = st.sampled_from(["a", "b"])
aliases = st.sampled_from(["*a", "*a", "*b"])
MERGES = st.sampled_from(["*a", "*a", "*b", "[*a, *b]", "{}", "{image: x}"])
yaml_tokens = (tagged | aliases | MERGES.map("<<: {}".format)
               | st.builds("&{} {}".format, ANCHORS, tagged))


@FUZZ
@given(st.integers(0, len(WORDPRESS_TEXT)), st.text(max_size=6) | yaml_tokens)
def test_any_compose_text_keeps_the_contract(cut, insert):
    _codes_on_compose(WORDPRESS_TEXT[:cut] + insert + WORDPRESS_TEXT[cut:])


@FUZZ
@given(st.data())
def test_tags_anchors_and_merges_keep_the_contract(data):
    """Up to three wordpress lines edited, the first anchored as ``a``: a
    value tagged, anchored or replaced by an alias; a mapping anchored, or
    merged into."""
    lines = WORDPRESS_TEXT.splitlines()
    rows = sorted(data.draw(st.sets(st.sampled_from(range(len(lines))),
                                    min_size=1, max_size=3)))
    merges = {}
    for i in rows:
        key, _, value = lines[i].partition(":")
        anchor = "a" if i == rows[0] else data.draw(ANCHORS)
        if value:  # a key and its value
            anchored = st.builds(f"&{anchor} {{}}".format,
                                 tagged | st.just(value.strip()))
            value = data.draw(anchored if i == rows[0]
                              else tagged | aliases | anchored)
            lines[i] = f"{key}: {value}"
        elif i == rows[0] or data.draw(st.booleans()):  # opens a mapping
            lines[i] += f" &{anchor}"
        else:
            indent = " " * (len(key) - len(key.lstrip()) + 2)
            merges[i] = f"{indent}<<: {data.draw(MERGES)}"
    text = "".join(line + "\n" + (merges[i] + "\n" if i in merges else "")
                   for i, line in enumerate(lines))
    assert _codes_on_compose(text)["validate"] in (0, 2)


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
    assert set(_codes_on_compose(text).values()) == {2}


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
