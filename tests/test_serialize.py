import json
import random

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
