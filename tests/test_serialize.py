import json
import random

import pytest

from ldbig import (
    assemble, bigraph_from_json, bigraph_to_json, build_container, dumps,
    environment_bigraph, is_isomorphic, loads, parse_compose,
    patterns_from_json, to_dot,
)
from genrandom import gen_chain, gen_container_spec


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
