"""Assembly against the recipe it replaced, ``validate`` against its
verbatim old self on reports with several faults, the error an ill-formed
composite raises, and the growth of parsing, of assembly, of the link and
security checks and of the JSON and DOT exports.

``assemble`` numbers each stub where it is built and the environment past
the block, so neither the tensor's nor ``compose``'s refresh fires.
``oracles.assemble_reference`` keeps the old recipe, in which both fire, and
the two must agree byte for byte.
"""

import collections
import json
import random
import sys
from pathlib import Path

import pytest

import ldbig
from ldbig import (
    Bigraph, Control, Edge, InnerName, OuterName, Port, Root, algebra,
    assemble, check_links, check_security, composefile, environment_bigraph,
    parse_compose, parse_order_file, serialize, stub_block, to_dot, validate,
)
from ldbig.bigraph import Violation
from ldbig.cli import main
from ldbig.errors import LdbError
from genrandom import gen_bigraph, gen_interface, gen_model, gen_signature
from oracles import assemble_reference, validate_reference
from test_tensor import assert_same

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SHARED = {"x0", "l_x0", "p_12"}  # names every kind of gen_model shares


def _models():
    rng = random.Random(16)
    yield gen_model(rng, n_services=0)
    yield gen_model(rng, n_services=1)
    for _ in range(40):
        yield gen_model(rng, max_services=12, max_networks=6, max_volumes=5)


def _generate():
    sys.path.insert(0, str(BENCH))
    try:
        import generate
    finally:
        sys.path.remove(str(BENCH))
    return generate


def _monolith_text(n):
    generate = _generate()
    return generate.compose_yaml(generate.monolith_stack(random.Random(1), 0, n))


def _monolith(n):
    return parse_compose(_monolith_text(n))


def _ordered_monolith(n):
    """The monolith's model and its generated security order."""
    generate = _generate()
    stack = generate.monolith_stack(random.Random(1), 0, n)
    return (parse_compose(generate.compose_yaml(stack)),
            parse_order_file(generate.order_text(stack)))


def _agrees(model):
    assert_same(assemble(model), assemble_reference(model))
    # the environment's edge ids start past the block's largest node id: the
    # shift compose's refresh gives them only while the block's largest id
    # is at least the number of edges, which every user stub ensures
    edges = len(environment_bigraph(model).edges)
    assert edges <= max(stub_block(model).nodes, default=0)
    return edges


def test_assembly_equals_the_reference_recipe():
    sizes, shared, edges = set(), 0, 0
    for model in _models():
        edges += _agrees(model) > 0
        sizes.add(min(len(model.services), 2))
        shared += SHARED <= (model.services.keys() & model.networks.keys()
                             & model.volumes.keys())
    # no services, one, several; the shared-name rows; edges to number
    assert sizes == {0, 1, 2} and shared > 0 and edges > 30


def test_a_200_service_monolith_assembles_as_the_reference():
    assert _agrees(_monolith(200)) > 0


def test_neither_refresh_fires_inside_assembly(monkeypatch):
    seen = []

    def disjoint(*bigraphs):
        ids = [i for b in bigraphs for i in (*b.nodes, *b.edges)]
        assert len(ids) == len(set(ids))
        seen.append(len(bigraphs))

    def tensor(*bigraphs):
        disjoint(*bigraphs)
        return algebra.tensor(*bigraphs)

    def compose(b2, b1):
        disjoint(b2, b1)
        return algebra.compose(b2, b1)

    monkeypatch.setattr(composefile, "tensor", tensor)
    monkeypatch.setattr(composefile, "compose", compose)
    for model in _models():
        assemble(model)
    assemble(_monolith(200))
    assert max(seen) == 200 and 2 in seen


def test_an_ill_formed_composite_is_an_input_error(monkeypatch, capsys,
                                                  wordpress_model, data_dir):
    fault = Violation("parent", "node 99", "no parent")
    monkeypatch.setattr(composefile, "validate", lambda b: [fault])
    message = "assembled bigraph is not well-formed: [parent] node 99: no parent"
    with pytest.raises(LdbError) as caught:
        assemble(wordpress_model)
    assert str(caught.value) == message
    compose = str(data_dir / "wordpress.yml")
    assert main(["validate", compose, "--json"]) == 2
    (finding,) = json.loads(capsys.readouterr().out)["findings"]
    assert finding["message"] == f"{compose}: {message}"


# -- validate ------------------------------------------------------------------

def _faulty(rng: random.Random, b: Bigraph, faults: list[str]) -> Bigraph:
    """``b`` with each named fault injected, where ``b`` has room for it."""
    nodes, link = dict(b.nodes), dict(b.link)
    node_parent, site_parent = dict(b.node_parent), dict(b.site_parent)
    edges = set(b.edges)
    names = sorted(nodes)
    for fault in faults:
        keys = sorted(link, key=str)
        if fault == "dropped-link" and keys:
            del link[rng.choice(keys)]
        elif fault == "stray-key":
            stray = [Port(99, 0), InnerName(rng.randint(0, 3), "zz"),
                     OuterName(rng.randint(0, 3), "zz")]
            stray += [Port(v, nodes[v].plus + 1) for v in names]
            link[rng.choice(stray)] = rng.choice([Edge(98), *link.values()]
                                                 if link else [Edge(98)])
        elif fault == "non-link-target" and keys:
            bad = [Edge(99), Port(99, 0), InnerName(0, "zz"), OuterName(7, "zz")]
            bad += [Port(v, nodes[v].minus) for v in names]
            link[rng.choice(keys)] = rng.choice(bad)
        elif fault == "cross-region":
            # a point of one region onto a link of another: a node's target
            # port or a localized outer name
            targets = [Port(v, k) for v in names for k in range(nodes[v].minus)]
            targets += [OuterName(i, t) for i in range(1, b.outer.width + 1)
                        for t in sorted(b.outer.plus(i))]
            pairs = [(p, t) for p in keys for t in targets
                     if None is not b.region_of(p) != b.region_of(t) is not None]
            if pairs:
                p, t = rng.choice(pairs)
                link[p] = t
        elif fault == "passthrough":
            # two points on one pass-through name: a source name of a
            # locality and one more point target a link name of that locality
            sides = [(InnerName, i, s, t) for i in range(b.inner.width + 1)
                     for s in sorted(b.inner.plus(i))
                     for t in sorted(b.inner.minus(i))]
            sides += [(OuterName, i, s, t) for i in range(b.outer.width + 1)
                      for s in sorted(b.outer.minus(i))
                      for t in sorted(b.outer.plus(i))]
            if sides and len(keys) > 1:
                cls, i, s, t = rng.choice(sides)
                link[cls(i, s)] = cls(i, t)
                link[rng.choice([p for p in keys if p != cls(i, s)])] = cls(i, t)
        elif fault == "unknown-parent" and names:
            v = rng.choice(names)
            node_parent[v] = rng.choice([99, Root(9), Root(None), "x", None])
            if node_parent[v] is None:
                del node_parent[v]
        elif fault == "cyclic-parent" and len(names) > 1:
            u, v = rng.sample(names, 2)
            node_parent[u], node_parent[v] = v, u
        elif fault == "stray-parent":
            node_parent[97] = Root(1)
            site_parent[b.inner.width + 5] = Root(1)
        elif fault == "support" and names:
            edges.add(rng.choice(names))
        elif fault == "control" and names:
            nodes[rng.choice(names)] = Control("K9", 1, 0)
    return Bigraph(b.signature, b.inner, b.outer, nodes, edges, site_parent,
                   node_parent, link, b.node_attrs)


FAULTS = ["dropped-link", "stray-key", "non-link-target", "cross-region",
          "passthrough", "unknown-parent", "cyclic-parent", "stray-parent",
          "support", "control"]


def test_validate_reports_as_the_reference_on_several_faults():
    rng = random.Random(16)
    clauses: collections.Counter = collections.Counter()
    ordered = 0
    for _ in range(400):
        sig = gen_signature(rng)
        inner = gen_interface(rng, rng.randint(0, 2))
        outer = gen_interface(rng, rng.randint(1, 3))
        b = gen_bigraph(rng, sig, inner, outer, max_nodes=8)
        assert validate(b) == validate_reference(b) == []
        faulty = _faulty(rng, b, rng.choices(FAULTS, k=rng.randint(2, 5)))
        report = validate(faulty)
        assert report == validate_reference(faulty)
        clauses.update(v.clause for v in report)
        ordered += sum(v.clause in ("link-target", "link-locality")
                       for v in report) > 1
    assert set(clauses) == {
        "support", "control", "parent", "forest", "link-total", "link-domain",
        "link-target", "link-locality", "passthrough"}, clauses
    # reports in which the order of several link faults is pinned
    assert min(clauses.values()) >= 10 and ordered >= 40, (clauses, ordered)


# -- growth --------------------------------------------------------------------

BOUND = 2.2
FLOOR = 50  # lines at 2n below which a function is too small to judge
SRC = str(Path(ldbig.__file__).resolve().parent)


def _lines(run) -> collections.Counter:
    """Lines executed while ``run()`` runs, per function of ``src/ldbig``."""
    counts: collections.Counter = collections.Counter()

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_code] += 1
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    old = sys.gettrace()
    sys.settrace(scope)
    try:
        run()
    finally:
        sys.settrace(old)
    return counts


def _superlinear(run, make=_monolith) -> dict:
    """The functions whose lines executed in ``run(make(n))`` grow more than
    ``BOUND`` times from a 100- to a 200-service monolith, each named with
    both counts."""
    small, large = (_lines(lambda m=make(n): run(m)) for n in (100, 200))
    assert sum(small.values()) > 0
    return {f"{getattr(code, 'co_qualname', code.co_name)} ({Path(code.co_filename).name}:"
            f"{code.co_firstlineno})": (small[code], lines)
            for code, lines in large.items()
            if lines >= FLOOR and lines > BOUND * small[code]}


def test_assembly_grows_linearly_in_every_function():
    over = _superlinear(assemble)
    assert not over, f"lines at 100 and 200 services: {over}"


def test_json_export_grows_linearly_in_every_function():
    over = _superlinear(lambda model: serialize.dumps(assemble(model)))
    assert not over, f"lines at 100 and 200 services: {over}"


def test_parsing_grows_linearly_in_every_function(yaml_loader):
    over = _superlinear(parse_compose, _monolith_text)
    assert not over, f"lines at 100 and 200 services: {over}"


def test_the_link_check_grows_linearly_in_every_function():
    over = _superlinear(lambda model: check_links(assemble(model)))
    assert not over, f"lines at 100 and 200 services: {over}"


def test_the_security_check_grows_linearly_in_every_function():
    over = _superlinear(lambda given: check_security(assemble(given[0]),
                                                     given[1]),
                        _ordered_monolith)
    assert not over, f"lines at 100 and 200 services: {over}"


def test_dot_export_grows_linearly_in_every_function():
    over = _superlinear(lambda model: to_dot(assemble(model)))
    assert not over, f"lines at 100 and 200 services: {over}"
