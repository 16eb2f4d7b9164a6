"""The event builder behind ``parse_compose`` against PyYAML's composer and
safe constructor (``oracles.yaml_load_reference``), on libyaml's events and
on the pure parser's. Two properties hold on every document:

- a document the builder accepts, PyYAML accepts with an equal value, key
  order and shared objects included;
- a document PyYAML refuses, the builder refuses at a line no later.

The builder raises the construction error that comes first in the text,
while PyYAML's constructor works breadth first and may meet a later one
first. So when both refuse with a mark, the builder's line is at most the
reference's. Where the reference raises a scalar constructor's own
exception (``!!bool x`` raises ``KeyError``), the builder raises a YAML
error at a line, which the CLI reports as malformed YAML. Against a value,
the builder refuses only by design: an alias inside the collection it
names, a collection tagged other than its kind's own tag (also as a merge
source, which PyYAML never constructs), a key repeated within a merge
source, and an anchored ``=``. ``FIRST_IN_TEXT`` pins documents on which
the two report different errors."""

from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import ldbig
from ldbig import composefile, parse_compose
from ldbig.errors import ComposeSyntaxError
from ldbig.yamlload import load
from oracles import yaml_load_reference

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

SOURCES = [pytest.param(yaml.SafeLoader, id="pure"),
           pytest.param(yaml.CSafeLoader, id="libyaml", marks=pytest.mark.skipif(
               not yaml.__with_libyaml__,
               reason="PyYAML was built without libyaml"))]

# the problems of the documents the builder refuses and PyYAML reads
_BY_DESIGN = ("found recursive alias ", "could not determine a constructor "
              "for the tag ", "expected a sequence node, but found mapping",
              "expected a mapping node, but found sequence",
              "found duplicate key ", "found an anchored '='")


def _outcome(read, text, source):
    """The value's repr (types, key order and shared objects show in it),
    or the error: PyYAML's problem and line, or any other exception."""
    try:
        return "value", repr(read(text, source))
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        return "error", exc.problem, mark.line if mark else None
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)


def _agree(text, source):
    built = _outcome(load, text, source)
    reference = _outcome(yaml_load_reference, text, source)
    if built[0] != "error" or built == reference:
        assert built == reference, text
    elif reference[0] == "value":
        assert built[1].startswith(_BY_DESIGN), (text, built)
    elif reference[0] == "raised":
        # a scalar its tag cannot read: the reference's exception has no
        # mark, the builder's error names a line
        assert built[2] is not None, (text, built)
    else:
        assert built[2] <= reference[2], (text, built, reference)


@pytest.mark.parametrize("source", SOURCES)
def test_every_data_file_reads_as_before(source):
    paths = sorted(p for p in DATA.rglob("*") if p.is_file())
    assert len(paths) > 10
    for path in paths:
        _agree(path.read_text(encoding="utf-8"), source)


@pytest.fixture(scope="module")
def benchmark_stacks(tmp_path_factory):
    """The compose file of every seed-1 stack of the three compose
    workloads, as the benchmark writes them."""
    import sys
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    texts = []
    for name in ("fleet-small", "monolith-large", "lattice-deep"):
        directory = tmp_path_factory.mktemp(name)
        workloads.build(name, 1, directory, ldbig)
        texts += [p.read_text(encoding="utf-8")
                  for p in sorted(directory.glob("*.yml"))]
    return texts


class _Replay(yaml.constructor.SafeConstructor, yaml.resolver.Resolver):
    """A safe loader whose events are ``events``, parsed beforehand, so
    that both readers take the same events from one pass of a parser."""

    events: list = []

    def __init__(self, stream):
        yaml.constructor.SafeConstructor.__init__(self)
        yaml.resolver.Resolver.__init__(self)
        self._left = self.events[::-1]

    def check_event(self, *choices):
        return bool(self._left) and (not choices
                                     or isinstance(self._left[-1], choices))

    def peek_event(self):
        return self._left[-1]

    def get_event(self):
        return self._left.pop()

    def dispose(self):
        pass


@pytest.mark.parametrize("source", SOURCES)
def test_every_benchmark_stack_reads_as_before(source, benchmark_stacks,
                                               monkeypatch):
    assert len(benchmark_stacks) == 40 + 6 + 12
    for text in benchmark_stacks:
        monkeypatch.setattr(_Replay, "events",
                            list(yaml.parse(text, Loader=source)))
        _agree(text, _Replay)


# -- small documents ------------------------------------------------------

_SCALARS = st.sampled_from([
    "x", "y", "1", "0x1f", "true", "null", "~", "''", "1.5", ".nan",
    "2001-12-14", "=", "'<<'", '"q"', "!!str 1", "!!int 7", "!!int z",
    "!!bool yes", "!!float 2", "!!null ''", "!!binary aGk=", "!!binary '@'",
    "!foo a", "!!seq x", "!!map y", "!!set z", "!!timestamp 2001-01-01",
    "*c", "[*a, *b]", "{x: 7}",
] + ["x", "y", "1", "*a", "*b"] * 4)
# few distinct keys, so that keys repeat and merges meet own keys
_KEYS = st.sampled_from(["x", "y", "x", "y", "1", "true", "=", "<<", "<<",
                         "'<<'", "!!int z", "*a", "*b", "[x]"])
_PROPS = st.tuples(
    st.sampled_from([""] * 10 + ["&c "]),
    st.sampled_from([""] * 20 + ["!!seq ", "!!map ", "!!set ", "!!omap ",
                                 "!foo "])).map("".join)
# the anchors *a and *b name, defined before the rest of a document
_PREAMBLES = st.tuples(
    st.sampled_from(["", "p: &a {x: 1, y: 2}\n", "p: &a [x, {y: 1}]\n",
                     "p: &a =\n", "p: &a {=: 3}\n"]),
    st.sampled_from(["", "q: &b {x: 3, z: 4}\n", "q: &b !!int z\n",
                     "q: &b {<<: {x: 5}, y: 6}\n"])).map("".join)


def _nodes():
    """Node trees: ("leaf", text), or ("seq", props, items, flow) and
    ("map", props, [(key, value)], flow) in flow or block style."""
    leaf = _SCALARS.map(lambda t: ("leaf", t))
    key = _KEYS.map(lambda t: ("leaf", t))

    def grow(children):
        return st.one_of(
            st.tuples(st.just("seq"), _PROPS, st.lists(children, max_size=3),
                      st.booleans()),
            st.tuples(st.just("map"), _PROPS, st.lists(
                st.tuples(st.one_of(key, key, key, children), children),
                max_size=4), st.booleans()))

    return st.recursive(leaf, grow, max_leaves=8)


def _flow(node) -> str:
    if node[0] == "leaf":
        return node[1]
    _, props, body, _ = node
    if node[0] == "seq":
        return props + "[" + ", ".join(_flow(n) for n in body) + "]"
    return props + "{" + ", ".join(f"{_flow(k)} : {_flow(v)}"
                                   for k, v in body) + "}"


def _block(node, indent) -> str:
    """``node`` as the value after a key or a dash, in its style (a
    collection without entries in flow style)."""
    if node[0] == "leaf" or node[3] or not node[2]:
        return " " + _flow(node) + "\n"
    _, props, body, _ = node
    pad = " " * indent
    lines = [" " + props.strip() + "\n" if props.strip() else "\n"]
    if node[0] == "seq":
        lines += [f"{pad}-{_block(n, indent + 2)}" for n in body]
    else:
        lines += [f"{pad}{_flow(k)} :{_block(v, indent + 2)}"
                  for k, v in body]
    return "".join(lines)


@st.composite
def documents(draw):
    """A block mapping: anchors, then the entries of a drawn mapping or
    one entry holding a drawn node; now and then a second document."""
    root = draw(_nodes())
    body = root[2] if root[0] == "map" and not root[3] else [
        (("leaf", "w"), root)]
    text = draw(_PREAMBLES) + "".join(f"{_flow(k)} :{_block(v, 2)}"
                                      for k, v in body)
    if draw(st.integers(0, 9)) == 9:
        text += "---\nz: 1\n"
    return text


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=75, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=documents())
def test_small_documents_read_as_before(source, text):
    _agree(text, source)


# cases the strategy reaches only now and then
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("text", [
    # merges: earlier list entries win, own keys override, errors keep marks
    "x: &a {k: 1, j: 2}\ny: &b {k: 3, z: 4}\nm: {<<: [*a, *b], q: 1}\n"
    "n: {<<: *a, k: 9}",
    "x: &a [1]\nm: {<<: *a}", "m: {<<: 1}", "m: {<<: [{a: 1}, 2]}",
    "x: &s {a: 1, <<: 3}\ny: {<<: *s}", "{<<: !foo {a: 1}}", "[<<]",
    # `=` keys; an anchored one is refused, whether its alias comes before
    # or after the key
    "{=: 1}", "a: =", "{&e =: 1, x: *e}", "{a: {&e =: 1}, b: *e}",
    "{a: {&e =: 1}, b: [*e]}", "{a: &e =, *e : 1}",
    # a key tagged !!value reads as its text
    "{!!value x: 1}",
    # refused by design: a recursive alias, a merge source with a foreign
    # tag or a repeated key, an anchored `=`
    "a: &x [*x]", "{<<: !!seq {a: 1}}", "{<<: {a: 1, a: 2}}", "{&e =: 1}",
    # several errors, PyYAML's breadth-first order meeting a later one
    # first (FIRST_IN_TEXT pins what the builder raises)
    "{a: {b: 1, b: 2}, a: 3}",
    "{a: {b: {z: !!int w, c: &x {d: !!int q}}}, e: *x}",
    "{a: [&x !!int q], b: *x}", "{[a]: 1, a: !!int x}", "{!!seq x : 1}",
    # one error or none
    "a: !!seq {b: 1}", "a: !!map [1]", "a: !!seq x", "a: !foo [1]",
    "{1: a, true: b}", "a: &x 1\nb: &x 2", "", "---\n", "abc", "!!int x",
    # a merge source no value keeps, whose dict is freed before the end
    "w : !!set\n  -\n    << :\n      x : x\n      x : x\n",
])
def test_tricky_documents_read_as_before(source, text):
    _agree(text, source)


# documents with several errors, and the (problem, line) of the first in
# the text, which PyYAML's breadth-first constructor may not meet first
FIRST_IN_TEXT = [
    ("{a: {b: 1, b: 2}, a: 3}", "found duplicate key 'b'", 0),
    ("{a: {b: {z: !!int w, c: &x {d: !!int q}}}, e: *x}",
     "invalid !!int value 'w'", 0),
    ("{a: [&x !!int q], b: *x}", "invalid !!int value 'q'", 0),
    ("{[a]: 1, a: !!int x}", "found unhashable key", 0),
    ("{!!seq x : 1}", "expected a sequence node, but found scalar", 0),
    ("w :\n  - !!seq x\n  - !!int z\n",
     "expected a sequence node, but found scalar", 1),
    ("services: {}\na: {b: !!int x}\na: 1\n", "invalid !!int value 'x'", 1),
    # a recursive alias is an error like the others, not raised at once
    ("a: {b: 1, b: 2}\nc: &x [*x]\n", "found duplicate key 'b'", 0),
]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("text, problem, line", FIRST_IN_TEXT)
def test_the_first_error_in_the_text_is_raised(source, text, problem, line):
    assert _outcome(load, text, source) == ("error", problem, line)
    _agree(text, source)


# each a scalar its tag cannot read: the reference raises KeyError,
# IndexError, AttributeError or ValueError, and the builder a YAML error
TAGGED_SCALARS = ["!!bool x", "!!int ''", '!!float ""', "!!timestamp x",
                  "!!int x", "!!float x", "!!timestamp 2001-13-45", "!!int 0x",
                  "!!bool ''"]


@pytest.mark.parametrize("value", TAGGED_SCALARS)
def test_a_scalar_its_tag_cannot_read_is_malformed_yaml(value, yaml_loader):
    text = f"services: {{}}\na: {value}\n"
    with pytest.raises((KeyError, IndexError, AttributeError, ValueError)):
        yaml_load_reference(text, composefile._EventSource)
    with pytest.raises(ComposeSyntaxError,
                       match=r"^malformed YAML: invalid !!\w+ value ") as info:
        parse_compose(text)
    assert info.value.line == 2
    assert type(info.value.__cause__.__cause__) in (
        KeyError, IndexError, AttributeError, ValueError)
