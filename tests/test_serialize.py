import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ldbig import (
    Bigraph, assemble, bigraph_from_json, bigraph_to_json, build_container,
    dumps, environment_bigraph, is_isomorphic, loads, parse_compose,
    patterns_from_json, to_dot,
)
from ldbig.serialize import json_text
from genrandom import gen_chain, gen_container_spec

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_round_trip_is_exact(wordpress_composite):
    data = bigraph_to_json(wordpress_composite)
    back = bigraph_from_json(json.loads(json.dumps(data)))
    assert back == wordpress_composite


def test_round_trip_random_bigraphs():
    rng = random.Random(71)
    for _ in range(40):
        b = gen_chain(rng, length=1, max_nodes=6)[0]
        assert loads(dumps(b)) == b


def test_round_trip_keeps_attrs():
    rng = random.Random(72)
    b = build_container(gen_container_spec(rng))
    back = loads(dumps(b))
    assert back.node_attrs == b.node_attrs
    assert is_isomorphic(back, b)


def test_an_import_keeps_its_attrs_when_the_document_changes():
    b = build_container(gen_container_spec(random.Random(72)))
    data = bigraph_to_json(b)
    back = bigraph_from_json(data)
    for entry in data["nodes"]:
        entry.get("attrs", {}).clear()
    assert back.node_attrs == b.node_attrs


def test_patterns_file(data_dir):
    patterns = patterns_from_json((data_dir / "forbidden.json").read_text())
    names = [p.name for p in patterns]
    assert names == ["nested-container", "any-container"]
    assert all(not p.anchor_at_roots for p in patterns)


def test_dot_renders_nesting_and_links(wordpress_composite):
    dot = to_dot(wordpress_composite, title="composite")
    assert dot.startswith('digraph "composite" {')
    assert 'subgraph cluster_root_1 {' in dot
    assert dot.count("subgraph cluster_n") == 3  # one cluster per container
    assert " -> " in dot
    assert '"out_1_datavolume" [label="datavolume@1+"' in dot
    # deterministic output
    assert dot == to_dot(wordpress_composite, title="composite")


def test_dot_renders_sites(wordpress_model):
    env = environment_bigraph(wordpress_model)
    dot = to_dot(env, title="environment")
    assert '"site_1"' in dot and '"site_3"' in dot


def test_dot_handles_models_with_edges(wordpress_composite):
    dot = to_dot(wordpress_composite)
    assert "shape=diamond" in dot  # closed network links


def test_dot_strings_close_on_their_own_line():
    # a backslash ending a name must not escape the closing quote
    model = parse_compose("services: {'a\\': {image: x, links: ['b:q\"']}, "
                          "b: {image: y}}")
    env = to_dot(environment_bigraph(model))
    assert '"in_1_c_a\\\\" [label="c_a\\\\@1-"' in env
    composite = to_dot(assemble(model))
    assert 'label="container a\\\\\\n(0+,1-) #' in composite
    for line in (env + composite).splitlines():
        inside = escaped = False
        for c in line:
            if escaped:
                escaped = False
            elif c == "\\":
                assert inside, line
                escaped = True
            elif c == '"':
                inside = not inside
        assert not inside, line


def pattern_file(**bigraph):
    """A one-entry pattern file whose bigraph has ``bigraph``'s keys over
    two empty interfaces of width 1."""
    doc = {"inner": [{}], "outer": [{}, {}], **bigraph}
    return json.dumps([{"name": "p", "bigraph": doc}])


def control(name="container", plus=0, minus=1):
    return {"name": name, "plus": plus, "minus": minus}


def test_name_format_rejected():
    doc = json.loads(dumps(gen_chain(random.Random(73), length=1)[0]))
    for bad, message in (("a b", "may not contain whitespace"),
                         ("", "must be a non-empty string")):
        doc["outer"][0]["plus"] = [bad]
        with pytest.raises(ValueError, match=rf"^bigraph\.outer\[0\]\.plus\[0\]: "
                                             f"name {message}"):
            bigraph_from_json(doc)


@pytest.mark.parametrize("bigraph, message", [
    ({"outer": [{}, {"plus": ["a b"]}]},
     "patterns[0].bigraph.outer[1].plus[0]: name may not contain "
     "whitespace: 'a b'"),
    ({"inner": [{"minus": [""]}]},
     "patterns[0].bigraph.inner[0].minus[0]: name must be a non-empty "
     "string, got ''"),
    ({"outer": []},
     "patterns[0].bigraph.outer: an interface has at least the global "
     "locality"),
    ({"outer": [{}, {"plus": ["a"], "minus": ["a"]}]},
     "patterns[0].bigraph.outer: locality 1: names ['a'] are both positive "
     "and negative"),
    ({"nodes": [{"id": 1, "control": control("a\tb"),
                 "parent": {"root": 1}}]},
     "patterns[0].bigraph.nodes[0].control: name may not contain "
     "whitespace: 'a\\tb'"),
    ({"signature": {"controls": [control(" ")]}},
     "patterns[0].bigraph.signature.controls[0]: name may not contain "
     "whitespace: ' '"),
    ({"nodes": [{"id": 1, "control": control(minus=-1),
                 "parent": {"root": 1}}]},
     "patterns[0].bigraph.nodes[0].control: port counts must be "
     "non-negative"),
    ({"signature": {"controls": [control(), control()]}},
     "patterns[0].bigraph.signature: duplicate control 'container'"),
    ({"signature": {"parametric": ["a b", ""]}},
     "patterns[0].bigraph.signature.parametric[0]: name may not contain "
     "whitespace: 'a b'"),
    ({"signature": {"parametric": ["process", ""]}},
     "patterns[0].bigraph.signature.parametric[1]: name must be a "
     "non-empty string, got ''"),
])
def test_reader_rejections_name_their_path(bigraph, message):
    with pytest.raises(ValueError) as caught:
        patterns_from_json(pattern_file(**bigraph))
    assert str(caught.value) == message


# -- json_text against json.dumps ---------------------------------------------

def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# quotes, backslashes, non-ASCII and control characters, and the text of a
# boundary between two records
texts = st.text(alphabet='ab"\\\x00\x1f\n\t},{ \u00e9\u2603\U0001f600', max_size=6) \
    | st.just("},\n  {")
scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 30, 10 ** 30) | st.floats() | st.just(-0.0)
           | texts)
records = st.dictionaries(texts, scalars, min_size=1, max_size=6)
trees = st.recursive(
    scalars | records,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=6)
                   # record lists, alone or mixed with empty dicts and with
                   # dicts holding nested values
                   | st.lists(records | st.just({})
                              | st.dictionaries(texts, inner, max_size=2),
                              max_size=6)),
    max_leaves=30)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(trees)
def test_json_text_is_json_dumps(value):
    assert json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {1: "a", 2.5: "b"}, {True: "a", False: "b"}, {None: "a"},
    {1: [1], 2.5: {"x": 1}, float("nan"): [2, 3]}, {None: [1, 2]},
    {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}, [{1: "a"}, {2: "b"}],
], ids=["joined", "bool", "null", "nested", "nested-null", "encoded",
        "records"])
def test_json_text_converts_keys_as_json_dumps(value):
    assert json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {1, 2}, {"a": {1}}, [1, {2}], [{"a": 1}, {"b": {3}}],
    [{"a": 1, "b": 2, "c": 3, "d": 4, "e": {5}}], {"a": [b"x"]},
    {(1, 2): "a"}, {"a": {(1, 2): "b"}}, {"a": 1, 2: "b"},
    # a value that is no scalar sends the dict through the walk, whose own
    # key check meets the tuple
    {(1, 2): [[1]]},
])
def test_json_text_raises_what_json_dumps_raises(value):
    with pytest.raises(TypeError) as expected:
        _dumps(value)
    with pytest.raises(TypeError) as caught:
        json_text(value)
    assert str(caught.value) == str(expected.value)


def test_json_text_writes_a_list_nested_5000_deep():
    n = 5000
    value = []
    for _ in range(n - 1):
        value = [value]
    text = json_text(value)  # json.dumps raises RecursionError here
    # line i opens a list at indent 2i, the innermost list is empty, and
    # the closings come back out
    assert len(text) == 2 * n * n
    assert text.count("\n") == 2 * (n - 1)
    assert text.startswith("[\n  [\n    [\n") and text.endswith("\n    ]\n  ]\n]")
    assert f"\n{'  ' * (n - 2)}[\n{'  ' * (n - 1)}[]\n{'  ' * (n - 2)}]\n" in text


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_json_text_writes_the_golden_documents(golden):
    text = (GOLDEN / golden).read_text(encoding="utf-8")
    assert json_text(json.loads(text)) + "\n" == text


def test_a_link_to_no_point_or_link_cannot_be_written(wordpress_composite):
    b = wordpress_composite
    point = next(iter(b.link))
    foreign = Bigraph(b.signature, b.inner, b.outer, b.nodes, b.edges,
                      b.site_parent, b.node_parent, {**b.link, point: "x"})
    with pytest.raises(TypeError, match="not serializable: 'x'"):
        dumps(foreign)
    with pytest.raises(TypeError, match="^x$"):
        to_dot(foreign)
