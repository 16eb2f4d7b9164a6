import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ldbig import (
    Bigraph, Control, Edge, InnerName, OuterName, Port, Root, Signature,
    assemble, bigraph_from_json, bigraph_to_json, build_container, dumps,
    environment_bigraph, is_isomorphic, loads, parse_compose,
    patterns_from_json, serialize, stub_block, to_dot,
)
from ldbig.interfaces import LocalInterface
from ldbig.analysis import FlowGraph, FlowNode, SecurityOrder, find_leaks
from ldbig.jsontext import _PIECE
from ldbig.report import Finding, Report, report_json, report_pieces, \
    violations
from ldbig.serialize import json_text
from genrandom import gen_chain, gen_container_spec
from oracles import to_dot_reference
from test_assembly import _models, _monolith
from test_tensor import benchmark_models

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


# -- dumps against json.dumps of bigraph_to_json ------------------------------

def assert_dumps_is_json_dumps(b):
    """``dumps(b)``, written with no document tree, is the text of the
    document ``bigraph_to_json`` builds."""
    assert dumps(b) == _dumps(bigraph_to_json(b))


def test_dumps_is_json_dumps_on_composites_environments_and_blocks():
    for model in _models():
        for b in (assemble(model), environment_bigraph(model), stub_block(model)):
            assert_dumps_is_json_dumps(b)


def test_dumps_is_json_dumps_on_the_benchmark_stacks(monkeypatch):
    # the seed-1 monolith-large and lattice-deep stacks and a 1,600-service
    # monolith
    for model in benchmark_models(monkeypatch):
        assert_dumps_is_json_dumps(assemble(model))


def test_dumps_is_json_dumps_on_random_bigraphs():
    rng = random.Random(74)
    for _ in range(200):
        assert_dumps_is_json_dumps(gen_chain(rng, length=1)[0])


# names json_text must escape: quotes, backslashes, non-ASCII, controls
names = st.text(alphabet='ab"\\\x01\x7f\u00e9\u2603\U0001f600', min_size=1,
                max_size=5)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_dumps_is_json_dumps_on_imports_with_any_attrs(data):
    # attrs of nested lists and dicts, odd text, NaN and infinities, bools,
    # None and ints beyond 2**63, on an imported bigraph whose controls and
    # some linked names are odd text too
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    doc = json.loads(dumps(gen_chain(rng, length=1)[0]))
    for text in data.draw(st.lists(names, max_size=3, unique=True)):
        doc["links"].append({"point": {"kind": "inner", "locality": 99, "text": text},
                             "link": {"kind": "outer", "locality": 1, "text": text}})
    for entry in doc["nodes"]:
        entry["control"]["name"] = data.draw(names)
        entry["attrs"] = data.draw(st.dictionaries(texts, trees | st.just(2 ** 64)
                                                   | st.just(" "), max_size=4))
    assert_dumps_is_json_dumps(bigraph_from_json(doc))


class Text(str):
    pass


def test_dumps_is_json_dumps_on_fields_that_are_no_plain_int_or_str():
    # a bool node id, port, edge and arity, a str subclass, no parent
    b = Bigraph(Signature(), LocalInterface.of(), LocalInterface.of(),
                {True: Control("c", True, 0), 2: Control(Text("d"), 0, 1)},
                {False}, {1: Root(True)}, {True: None, 2: Root(1)},
                {Port(True, 0): Edge(False), Port(2, 0): InnerName(0, Text("x")),
                 OuterName(False, "y"): Port(2, 0)},
                {True: {"a": [1, {"b": None}]}, 2: {Text("k"): True}})
    assert_dumps_is_json_dumps(b)
    assert '"id": true' in dumps(b)


def test_dumps_builds_no_document_tree(monkeypatch, wordpress_composite):
    monolith = assemble(_monolith(200))
    expected = _dumps(bigraph_to_json(monolith))

    def refuse(b):
        raise AssertionError("dumps built the document tree")

    monkeypatch.setattr(serialize, "bigraph_to_json", refuse)
    golden = (GOLDEN / "wordpress.composite.json").read_text(encoding="utf-8")
    assert dumps(wordpress_composite) + "\n" == golden
    assert dumps(monolith) == expected


# -- documents written in pieces ----------------------------------------------

# a list's length on each side of a piece's end, and the empty list
PIECE_COUNTS = [0, 1, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 1]


def sized(count: int, edges: int | None = None) -> Bigraph:
    """A bigraph of ``count`` nodes and links and ``count`` (or ``edges``)
    edges: every third node nested in the one before it, every second with
    attrs that are a record and every third with attrs of a list."""
    edges = count if edges is None else edges
    attrs = {v: {"name": f"s{v}"} if v % 2 else {"tags": [v]}
             for v in range(count) if v % 2 or v % 3 == 0}
    return Bigraph(
        Signature((Control("c", 0, 1),)), LocalInterface.of(),
        LocalInterface.of(((), ()), ((), ())),
        {v: Control("c", 0, 1) for v in range(count)},
        range(count, count + edges), {},
        {v: v - 1 if v % 3 == 2 else Root(1) for v in range(count)},
        {Port(v, 0): Edge(count + v % max(edges, 1)) for v in range(count)},
        attrs)


@pytest.mark.parametrize("count", PIECE_COUNTS)
def test_dumps_is_json_dumps_at_piece_boundaries(count):
    b = sized(count)
    assert dumps(b) == _dumps(bigraph_to_json(b))
    pieces = list(serialize.json_pieces(b))
    assert max(p.count('"control": ') for p in pieces) <= _PIECE
    assert max(p.count('"point": ') for p in pieces) <= _PIECE


@pytest.mark.parametrize("count", PIECE_COUNTS)
def test_to_dot_is_the_reference_at_piece_boundaries(count):
    b = sized(count)
    assert to_dot(b, "t") == to_dot_reference(b, "t")
    # a bigraph of one root and no node or link has seven lines and its edges
    b = sized(0, edges=max(count - 7, 0))
    assert to_dot(b) == to_dot_reference(b)
    lines = [p.count("\n") for p in serialize.dot_pieces(b, "t")]
    assert sum(lines) == max(count, 7)
    assert lines[:-1] == [_PIECE] * (len(lines) - 1) and 0 < lines[-1] <= _PIECE


@pytest.mark.parametrize("count", PIECE_COUNTS)
def test_report_json_is_json_dumps_at_piece_boundaries(count):
    shared = {"kind": "network", "name": "a"}
    report = violations(
        Finding("securityLeak", "warning", f"m{i}",
                {"path": [shared, {"kind": "container", "name": f"c{i}"}]})
        for i in range(count))
    assert_report_is_json_dumps(report)
    pieces = list(report_pieces(report))
    assert max(p.count('"severity": ') for p in pieces) <= _PIECE


# -- report_json against json.dumps of the report's document ------------------

def _report_doc(report: Report) -> dict:
    return {"status": report.status,
            "findings": [{"kind": f.kind, "severity": f.severity,
                          "message": f.message, "payload": f.payload}
                         for f in report.findings]}


def assert_report_is_json_dumps(report: Report):
    assert report_json(report) == _dumps(_report_doc(report))


# the payloads the CLI builds: a leak with its path records (a few nodes
# named again and again, as in a leak report), an unreachable link, the
# occurrences of a forbidden shape, and an input error with or without a
# line; then empty payloads and lists, record lists holding empty or nested
# dicts, keys that are no str, and arbitrary trees
flow_nodes = st.lists(st.fixed_dictionaries({"kind": texts, "name": texts}),
                      min_size=1, max_size=4)
payloads = (
    st.fixed_dictionaries(
        {"kind": texts, "subject": st.lists(texts, min_size=2, max_size=2)},
        optional={"path": flow_nodes.flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=8))})
    | st.fixed_dictionaries({"pattern": texts, "occurrences": st.lists(
        st.dictionaries(texts, st.integers(0, 500), min_size=1, max_size=3),
        max_size=6)})
    | st.fixed_dictionaries({"file": texts},
                            optional={"line": st.none() | st.integers()})
    | st.just({})
    | st.dictionaries(texts, st.just([]) | st.lists(texts, max_size=3)
                      | st.lists(records | st.just({})
                                 | st.dictionaries(texts, trees, max_size=2),
                                 max_size=4), max_size=3)
    | st.dictionaries(st.integers(), scalars, max_size=3)
    | st.dictionaries(texts, st.lists(st.dictionaries(
        st.integers() | st.booleans(), scalars, min_size=1, max_size=2),
        max_size=3), max_size=2)
    | st.dictionaries(texts, trees, max_size=4))
findings = st.builds(Finding, texts, texts, texts, payloads)


@st.composite
def reports(draw):
    found = draw(st.lists(findings, max_size=5))
    status = draw(texts.filter(lambda s: s != "ok")) if found else "ok"
    return Report(status, found)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(reports())
def test_report_json_is_json_dumps(report):
    assert_report_is_json_dumps(report)


@pytest.mark.parametrize("records", [
    # equal records that write differently, after a record of text, whose
    # list is looked up in the cache, and in reverse order, whose is not
    [{"a": "x"}, {"a": 1}, {"a": True}, {"a": 1.0}, {"a": 1}, {"a": True}],
    [{"a": "x"}, {"a": 0.0}, {"a": -0.0}, {"a": 0.0}],
    [{"a": "x"}, {1: "x"}, {1.0: "x"}, {True: "x"}, {1: "x"}],
    [{"a": "x", "b": None}, {"a": "x", "b": None}, {"b": None, "a": "x"}],
    [{"a": "x"}, {"a": float("nan")}, {"a": float("inf")}, {"a": 2 ** 64}],
    # a dict that is no record sends the list through json_text
    [{"a": "x"}, {}], [{"a": "x"}, {"a": (1, 2)}], [{"a": "x"}, {"a": [1]}],
    [{"a": "x"}, "y"],
], ids=["numbers", "zeros", "number-keys", "str-and-none", "odd-numbers",
        "empty", "tuple", "list", "mixed"])
def test_report_json_keeps_each_record_text_apart(records):
    report = Report("violations", [
        Finding("k", "warning", "m", {"r": records}),
        Finding("k", "warning", "m", {"r": records[::-1]}),
        Finding("k", "warning", "m", {"r": records})])
    assert_report_is_json_dumps(report)


def _written(monkeypatch) -> list:
    """The records ``report_json`` writes rather than takes from its cache,
    as it writes them."""
    from ldbig import report
    written = []
    write = report._record_texts

    def counted(records, depth):
        written.extend(records)
        return write(records, depth)

    monkeypatch.setattr(report, "_record_texts", counted)
    return written


def _path_report(*paths) -> Report:
    return Report("violations", [Finding("securityLeak", "warning", "m",
                                         {"kind": "securityLeak",
                                          "path": path}) for path in paths])


def test_report_json_writes_a_record_object_once_per_call(monkeypatch):
    shared = {"kind": "network", "name": "a"}
    equal = [{"kind": "network", "name": "a"} for _ in range(3)]
    report = _path_report([shared, equal[0]], [equal[1], shared],
                          [shared, equal[2]])
    written = _written(monkeypatch)
    assert report_json(report) == _dumps(_report_doc(report))
    # the shared record once, and each equal record of its own dict once
    assert sorted(map(id, written)) == sorted(map(id, [shared, *equal]))
    del written[:]
    assert report_json(report) == _dumps(_report_doc(report))
    assert len(written) == 4  # the cache lives for one call


@pytest.mark.parametrize("value", [1, True, 1.0, -0.0])
def test_report_json_caches_no_record_of_numbers(value, monkeypatch):
    number = {"kind": "network", "name": value}
    report = _path_report([{"kind": "network", "name": "a"}, number, number],
                          [number, {"kind": "network", "name": "a"}],
                          [{"kind": "network", "name": "a"}, number])
    written = _written(monkeypatch)
    assert report_json(report) == _dumps(_report_doc(report))
    # written at each place it is met, first in a list or not
    assert sum(r is number for r in written) == 4


def test_report_json_writes_a_record_as_it_is_at_the_call():
    record = {"kind": "network", "name": "a"}
    report = _path_report([record, record], [record])
    before = report_json(report)
    record["name"] = "b"
    after = report_json(report)
    assert after == _dumps(_report_doc(report)) != before
    assert '"b"' in after and '"a"' not in after


def test_a_leak_payload_is_its_callers_own():
    a, b, d = (FlowNode("network", name) for name in "abd")
    c = FlowNode("container", "c")
    flow = FlowGraph(frozenset({a, b, c, d}),
                     frozenset({(a, c), (c, b), (c, d)}))
    one, two = find_leaks(flow, SecurityOrder.of(("a", "b"), ("a", "d")))
    expected = [one.payload(), two.payload()]
    mine = one.payload()
    for record in mine["path"]:
        record["name"] = "changed"
    mine["path"].append({})
    mine["subject"].clear()
    assert [one.payload(), two.payload()] == expected
    # a report's payloads share one record per flow node
    records: dict = {}
    shared = [one.payload(records), two.payload(records)]
    assert shared == expected and shared[0]["path"][1] is shared[1]["path"][1]
