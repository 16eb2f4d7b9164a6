"""Assembly against the paper's formula and the recipe it replaced,
``validate`` against its verbatim old self on reports with several faults,
the error an ill-formed composite raises, and the growth of parsing, of
assembly, of the link, security and sort checks and of the JSON and DOT
exports.

``assemble`` builds the composite in one pass, with no environment, block or
``compose`` of its own.  It must equal
``compose(environment_bigraph(model), stub_block(model))``, the formula, and
``oracles.assemble_reference``, the old recipe in which the stubs are built
one by one and both the tensor's and ``compose``'s refresh fire, byte for
byte and in dict order.
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
    assemble, check_links, check_security, check_sorting, composefile,
    environment_bigraph, parse_compose, parse_order_file, patterns_from_json,
    serialize, stub_block, to_dot, validate,
)
from ldbig.cli import main
from ldbig.errors import LdbError
from genrandom import gen_bigraph, gen_interface, gen_model, gen_signature
from oracles import assemble_reference, region, validate_reference
from test_tensor import (
    assert_block_is_the_tensor, assert_same, benchmark_models,
)

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
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return generate, workloads


def _monolith_text(n):
    generate, _ = _generate()
    return generate.compose_yaml(generate.monolith_stack(random.Random(1), 0, n))


def _monolith(n):
    return parse_compose(_monolith_text(n))


def _ordered_monolith(n):
    """The monolith's model and its generated security order."""
    generate, _ = _generate()
    stack = generate.monolith_stack(random.Random(1), 0, n)
    return (parse_compose(generate.compose_yaml(stack)),
            parse_order_file(generate.order_text(stack)))


def _lattice(n):
    """A lattice-deep stack of ``n`` services and its security order."""
    generate, workloads = _generate()
    stack = generate.lattice_stack(random.Random(1), 0, n,
                                   workloads.LATTICE_GROUPS,
                                   workloads.LATTICE_PER_GROUP)
    return (parse_compose(generate.compose_yaml(stack)),
            parse_order_file(generate.order_text(stack)))


def assert_is_the_formula(model, composite=None):
    """``assemble(model)`` (or ``composite``, already assembled from it) is
    well-formed and is the environment composed over the container block.

    ``assemble`` checks only what its builder's maps could get wrong, so
    the full ``validate`` of each composite it builds runs here."""
    if composite is None:
        composite = assemble(model)
    assert validate(composite) == []
    assert_same(composite,
                algebra.compose(environment_bigraph(model), stub_block(model)))


def _agrees(model):
    """Assembly equals the formula and the old recipe; the count of edges."""
    composite = assemble(model)
    assert_is_the_formula(model, composite)
    assert_same(composite, assemble_reference(model))
    return len(composite.edges)


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


def test_the_benchmark_stacks_assemble_as_the_formula(monkeypatch):
    # and a 1,600-service monolith
    models = benchmark_models(monkeypatch)
    for model in models:
        assert_is_the_formula(model)
    assert len(models[-1].services) == 1600


def test_assembly_builds_one_bigraph(monkeypatch):
    # no stub, block, environment or composition of its own: the composite
    made = [0]
    init = Bigraph.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    models = [*_models(), _monolith(200)]
    for model in models:
        with monkeypatch.context() as patch:
            patch.setattr(Bigraph, "__init__", counting)
            made[0] = 0
            composite = assemble(model)
            assert made[0] == 1
        assert_is_the_formula(model, composite)
        assert_block_is_the_tensor(model)
    sizes = {len(model.services) for model in models}
    assert max(sizes) == 200 and 2 in sizes and 0 in sizes


def _overlap(edges, parent, link):
    edges.append(1)


def _orphan(edges, parent, link):
    del parent[2]


def _under_a_missing_node(edges, parent, link):
    parent[2] = 99


def _under_a_missing_root(edges, parent, link):
    parent[5] = Root(2)


def _a_key_too_few(edges, parent, link):
    del link[Port(6, 0)]


def _a_key_too_many(edges, parent, link):
    link[Port(4, 1)] = Edge(13)


def _to_a_missing_edge(edges, parent, link):
    link[Port(6, 0)] = Edge(99)


def _to_a_missing_node(edges, parent, link):
    link[Port(12, 0)] = Port(99, 0)


def _to_a_missing_port(edges, parent, link):
    link[Port(12, 0)] = Port(5, 1)


# each fault the builder's maps could hold, injected into wordpress's
# composite (nodes 1-12, edges 13 and 14), with what assemble says of it
FAULTS = [
    (_overlap, "node and edge ids [1] overlap"),
    (_orphan, "node 2 has no parent"),
    (_under_a_missing_node, "node 2 has an unknown parent 99"),
    (_under_a_missing_root, "node 5 has an unknown parent r2"),
    (_a_key_too_few, "9 linked points for 10 points"),
    (_a_key_too_many, "11 linked points for 10 points"),
    (_to_a_missing_edge, "6:0 links to unknown edge e99"),
    (_to_a_missing_node, "12:0 links to unknown port 99:0"),
    (_to_a_missing_port, "12:0 links to unknown port 5:1"),
]


@pytest.mark.parametrize("fault, problem", FAULTS,
                         ids=[f.__name__.strip("_") for f, _ in FAULTS])
def test_an_ill_formed_composite_is_an_input_error(
        monkeypatch, capsys, wordpress_model, data_dir, fault, problem):
    built = []

    def corrupted(signature, inner, outer, nodes, edges, sites, parent, link,
                  attrs):
        fault(edges, parent, link)  # the maps assemble just built
        built.append(Bigraph(signature, inner, outer, nodes, edges, sites,
                             parent, link, attrs))
        return built[-1]

    monkeypatch.setattr(composefile, "Bigraph", corrupted)
    message = f"assembled bigraph is not well-formed: {problem}"
    with pytest.raises(LdbError) as caught:
        assemble(wordpress_model)
    assert str(caught.value) == message
    assert validate(built[0]) != []  # the full check finds it too
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
                     if None is not region(b, p) != region(b, t) is not None]
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
        elif fault == "odd-field" and keys:
            # a key or a target with a field that is no int: "1" and None
            # are no index, locality or id, and True is 1; a target's field
            # may be unhashable too, as no dict key's can
            p, odd = rng.choice(keys), rng.choice(["1", None, True, [1]])
            if rng.random() < 0.5 or odd == [1]:
                link[p] = _with_field(link[p], odd)
            else:
                link[_with_field(p, odd)] = link.pop(p)
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


def _with_field(x, field):
    """``x`` with ``field`` in place of a port's index, a name's locality or
    an edge's id."""
    kind = type(x)
    if kind is Port:
        return Port(x.node, field)
    return Edge(field) if kind is Edge else kind(field, x.text)


FAULTS = ["dropped-link", "stray-key", "non-link-target", "cross-region",
          "passthrough", "odd-field", "unknown-parent", "cyclic-parent",
          "stray-parent", "support", "control"]


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


def _superlinear(run, make=_monolith, n=100) -> dict:
    """The functions whose lines executed in ``run(make(n))`` grow more than
    ``BOUND`` times from ``n`` to ``2 * n`` services (of a monolith by
    default), each named with both counts."""
    small, large = (_lines(lambda m=make(size): run(m)) for size in (n, 2 * n))
    assert sum(small.values()) > 0
    return {f"{getattr(code, 'co_qualname', code.co_name)} ({Path(code.co_filename).name}:"
            f"{code.co_firstlineno})": (small[code], lines)
            for code, lines in large.items()
            if lines >= FLOOR and lines > BOUND * small[code]}


def test_assembly_grows_linearly_in_every_function():
    over = _superlinear(assemble)
    assert not over, f"lines at 100 and 200 services: {over}"


def test_validate_grows_linearly_in_every_function():
    over = _superlinear(lambda model: validate(assemble(model)))
    assert not over, f"lines at 100 and 200 services: {over}"


def test_validate_grows_linearly_in_every_function_on_faults():
    # a copy with a dropped link, a stray key and a dangling target, so that
    # the missing points are named and the faults sorted
    def faulty(model):
        b = assemble(model)
        link = dict(b.link)
        first, second = list(link)[:2]
        del link[first]
        link[Port(99, 0)] = Edge(98)
        link[second] = Edge(99)
        report = validate(Bigraph(b.signature, b.inner, b.outer, b.nodes,
                                  b.edges, b.site_parent, b.node_parent,
                                  link, b.node_attrs))
        assert [v.clause for v in report] == [
            "link-total", "link-domain", "link-target"]
    over = _superlinear(faulty)
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


def test_the_sort_check_grows_linearly_in_every_function():
    generate, _ = _generate()
    patterns = patterns_from_json(generate.patterns_json(
        [generate.NESTED_CONTAINER, generate.ANY_CONTAINER]))
    over = _superlinear(lambda model: check_sorting(assemble(model),
                                                    patterns))
    assert not over, f"lines at 100 and 200 services: {over}"


def test_lattice_checks_grow_linearly_in_every_function():
    # groups of services on a fixed set of networks, bridged one way, from
    # the workload's largest stack to twice its size
    generate, workloads = _generate()
    n = max(workloads.LATTICE_SIZES)
    patterns = patterns_from_json(generate.patterns_json(
        workloads.LATTICE_PATTERNS))
    for check in (lambda given: assemble(given[0]),
                  lambda given: check_links(assemble(given[0])),
                  lambda given: check_security(assemble(given[0]), given[1]),
                  lambda given: check_sorting(assemble(given[0]), patterns)):
        over = _superlinear(check, _lattice, n)
        assert not over, f"lines at {n} and {2 * n} services: {over}"
