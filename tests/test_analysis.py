import random

import pytest

from ldbig import (
    EMPTY_INTERFACE, Bigraph, Control, LocalInterface, Root, SecurityOrder,
    Signature, assemble, build_flow_graph, check_links,
    check_security, find_leaks, identity, parse_compose, parse_order_file,
    transitive_closure,
)
from ldbig.analysis import FlowGraph, FlowNode, _owners
from ldbig.composefile import ComposeModel, ServiceSpec
from ldbig.errors import CyclicOrder, NotAComposite, UnknownNetwork
from genrandom import gen_chain, gen_dag_order, gen_flow_graph, gen_model
from oracles import (
    closure_matrix, leaks_pairwise, nearest_container, reachable_pairs,
    unreachable_links,
)


def with_service(model, name, **changes):
    svc = model.services[name]
    svc = ServiceSpec(**{**svc.__dict__, **changes})
    services = dict(model.services)
    services[name] = svc
    return ComposeModel(version=model.version, services=services,
                        networks=dict(model.networks),
                        volumes=dict(model.volumes))


# -- link correctness ---------------------------------------------------------

def test_wordpress_links_are_reachable(wordpress_composite):
    assert check_links(wordpress_composite) == []


def test_removing_the_shared_network_breaks_the_link(wordpress_model):
    mutated = with_service(wordpress_model, "db", networks=("back",))
    violations = check_links(assemble(mutated))
    assert [v.subject for v in violations] == [("wp", "db")]
    assert violations[0].kind == "linksUnreachable"


def test_check_links_ignores_support_renaming(wordpress_model):
    from ldbig import relabel

    mutated = with_service(wordpress_model, "db", networks=("back",))
    composite = assemble(mutated)
    renamed = relabel(composite, {v: v + 500 for v in composite.nodes},
                      {e: e + 500 for e in composite.edges})
    assert [v.subject for v in check_links(composite)] \
        == [v.subject for v in check_links(renamed)]


def test_no_links_no_violations(wordpress_model):
    m = wordpress_model
    stripped = m
    for name in m.services:
        stripped = with_service(stripped, name, links=())
    assert check_links(assemble(stripped)) == []


def test_not_a_composite():
    # a model with no services has no unreachable links and no flow
    assert check_links(identity(EMPTY_INTERFACE)) == []
    assert build_flow_graph(identity(EMPTY_INTERFACE)) == FlowGraph(
        frozenset(), frozenset())


@pytest.mark.parametrize("control", ["container", "network", "volume"])
def test_an_unnamed_entity_is_named_by_its_node_id(wordpress_composite, control):
    b = wordpress_composite
    v = min(u for u, c in b.nodes.items() if c.name == control)
    attrs = {**b.node_attrs,
             v: {k: x for k, x in b.attrs(v).items() if k != "name"}}
    unnamed = Bigraph(b.signature, b.inner, b.outer, b.nodes, b.edges,
                      b.site_parent, b.node_parent, b.link, attrs)
    for check in (check_links, build_flow_graph):
        with pytest.raises(NotAComposite, match=f"^{control} node {v} has no name$"):
            check(unnamed)


# -- flow graph ---------------------------------------------------------------

def test_wordpress_flow_arcs(wordpress_composite):
    flow = build_flow_graph(wordpress_composite)

    def n(kind, name):
        return FlowNode(kind, name)

    expected = {
        (n("network", "front"), n("container", "wp")),
        (n("container", "wp"), n("network", "front")),
        (n("network", "front"), n("container", "db")),
        (n("container", "db"), n("network", "front")),
        (n("network", "back"), n("container", "db")),
        (n("container", "db"), n("network", "back")),
        (n("network", "back"), n("container", "pma")),
        (n("container", "pma"), n("network", "back")),
        (n("volume", "datavolume"), n("container", "wp")),
        (n("volume", "datavolume"), n("container", "pma")),
        (n("container", "pma"), n("volume", "datavolume")),
    }
    # wp's mount is read-only, so there is no write arc (wp, datavolume)
    assert flow.arcs == frozenset(expected)


def test_single_container_flow():
    from ldbig.composefile import NetworkDecl

    m = ComposeModel(version="2",
                     services={"app": ServiceSpec(image="x",
                                                  networks=("default",))},
                     networks={"default": NetworkDecl(implicit=True)},
                     volumes={})
    flow = build_flow_graph(assemble(m))
    app = FlowNode("container", "app")
    net = FlowNode("network", "default")
    assert flow.arcs == frozenset({(net, app), (app, net)})


def test_mixed_mounts_of_one_volume_keep_the_write_arc():
    text = """
version: '2'
services:
  app:
    image: x
    volumes: [data:/ro:ro, data:/rw]
volumes:
  data: {}
"""
    flow = build_flow_graph(assemble(
        __import__("ldbig").parse_compose(text)))
    app = FlowNode("container", "app")
    vol = FlowNode("volume", "data")
    assert (vol, app) in flow.arcs and (app, vol) in flow.arcs


def test_check_links_matches_oracle_random():
    rng = random.Random(52)
    reported = 0
    for _ in range(80):
        composite = assemble(gen_model(rng, max_services=8, max_networks=3))
        subjects = [v.subject for v in check_links(composite)]
        assert subjects == unreachable_links(composite)
        reported += len(subjects)
    assert reported > 0


def test_owner_map_matches_a_walk_up_the_parents():
    rng = random.Random(53)
    for _ in range(200):
        b = gen_chain(rng, length=1, max_nodes=8)[0]
        containers = {v for v in b.nodes if rng.random() < 0.4}
        owners = _owners(b, containers)
        for v in b.node_parent:
            assert owners.get(v) == nearest_container(b, v, containers)



def test_a_parent_cycle_holding_a_container_owns_nothing():
    # 1 (a container) and 2 sit on a parent cycle with 3 below them, so
    # none of them is under a root; 5 is under the rooted container 4
    k = Control("K", 0, 0)
    b = Bigraph(Signature(fixed=(k,)), EMPTY_INTERFACE,
                LocalInterface.of((set(), set()), (set(), set())),
                nodes=dict.fromkeys(range(1, 6), k), edges=set(),
                site_parent={}, node_parent={1: 2, 2: 1, 3: 1, 4: Root(1), 5: 4},
                link={})
    owners = _owners(b, {1, 4})
    assert [owners.get(v) for v in range(1, 6)] == [None, None, None, None, 4]

def test_flow_graphs_are_bipartite():
    rng = random.Random(51)
    for _ in range(40):
        flow = build_flow_graph(assemble(gen_model(rng)))
        for src, dst in flow.arcs:
            kinds = {src.kind, dst.kind}
            assert "container" in kinds and len(kinds) == 2


# -- transitive closure -------------------------------------------------------

def test_closure_adds_the_composite_pair():
    out = transitive_closure(SecurityOrder.of(("a", "b"), ("b", "c")))
    assert out.pairs == {("a", "b"), ("b", "c"), ("a", "c")}


def test_closure_of_empty_order():
    assert transitive_closure(SecurityOrder.of()).pairs == frozenset()


def test_cyclic_order_rejected():
    with pytest.raises(CyclicOrder):
        transitive_closure(SecurityOrder.of(("a", "b"), ("b", "a")))


def test_cyclic_order_names_the_smallest_network_above_itself():
    order = SecurityOrder.of(("m", "k"), ("k", "m"), ("z", "c"), ("c", "z"),
                             ("a", "b"))
    with pytest.raises(CyclicOrder, match="network 'c' is above itself"):
        transitive_closure(order)


def test_closure_matches_matrix_oracle():
    rng = random.Random(52)
    for _ in range(100):
        names = [f"n{i}" for i in range(rng.randint(2, 7))]
        order = list(names)
        rng.shuffle(order)
        pairs = {(order[i], order[j])
                 for i in range(len(order)) for j in range(i + 1, len(order))
                 if rng.random() < 0.35}
        ours = transitive_closure(SecurityOrder(frozenset(pairs))).pairs
        assert ours == closure_matrix(pairs, names)


def test_cyclic_orders_name_the_same_network_as_the_matrix_closure():
    rng = random.Random(57)
    cyclic = 0
    for _ in range(300):
        names = [f"n{i}" for i in range(rng.randint(2, 7))]
        pairs = {(a, b) for a in names for b in names if rng.random() < 0.2}
        closed = closure_matrix(pairs, names)
        above_itself = sorted(a for a, b in closed if a == b)
        order = SecurityOrder(frozenset(pairs))
        if not above_itself:
            assert transitive_closure(order).pairs == closed
            continue
        cyclic += 1
        message = f"network {above_itself[0]!r} is above itself in the closure"
        with pytest.raises(CyclicOrder) as caught:
            transitive_closure(order)
        assert str(caught.value) == message
    assert cyclic > 100


# -- security -----------------------------------------------------------------

def test_wordpress_leak_with_back_above_front(wordpress_composite):
    violations = check_security(wordpress_composite,
                                SecurityOrder.of(("back", "front")))
    assert len(violations) == 1
    leak = violations[0]
    assert leak.kind == "securityLeak"
    assert leak.subject == ("back", "front")
    assert FlowNode("container", "db") in leak.path
    assert leak.path[0] == FlowNode("network", "back")
    assert leak.path[-1] == FlowNode("network", "front")


def test_empty_order_reports_nothing(wordpress_composite):
    assert check_security(wordpress_composite, SecurityOrder.of()) == []


def test_leak_through_the_volume_channel(wordpress_model):
    # cut db down to "back" so the only route is back>pma>datavolume>wp>front
    mutated = with_service(wordpress_model, "db", networks=("back",))
    violations = check_security(assemble(mutated),
                                SecurityOrder.of(("back", "front")))
    assert len(violations) == 1
    path = violations[0].path
    assert FlowNode("volume", "datavolume") in path
    assert FlowNode("container", "pma") in path
    assert FlowNode("container", "wp") in path


def test_unknown_network_rejected(wordpress_composite):
    with pytest.raises(UnknownNetwork):
        check_security(wordpress_composite, SecurityOrder.of(("nope", "front")))


def test_bfs_prefers_containers_then_names():
    a, b = FlowNode("network", "a"), FlowNode("network", "b")
    c1, c2 = FlowNode("container", "c1"), FlowNode("container", "c2")
    from ldbig.analysis import FlowGraph
    flow = FlowGraph(
        nodes=frozenset({a, b, c1, c2}),
        arcs=frozenset({(a, c2), (a, c1), (c1, b), (c2, b)}))
    (leak,) = find_leaks(flow, SecurityOrder.of(("a", "b")))
    assert leak.path == (a, c1, b)  # c1 before c2: lexicographic tie-break



TIED = """\
version: '2'
services:
  s1: {image: x, networks: [h, z], volumes: ['a:/data']}
  s2: {image: x, networks: [z, l], volumes: ['a:/data']}
networks: {h: {}, z: {}, l: {}}
volumes: {a: {}}
"""


def test_tied_witnesses_prefer_containers_then_kind_then_name():
    """The README's tie-break: among successors, containers first, then by
    kind, then by name.  In both graphs below, name order alone would pick
    the other tied path, through the volume named ``a``."""
    h, z, l = (FlowNode("network", n) for n in "hzl")
    s1, s2 = FlowNode("container", "s1"), FlowNode("container", "s2")
    # s1 reaches s2 through network z and through volume a
    (leak,) = check_security(assemble(parse_compose(TIED)),
                             SecurityOrder.of(("h", "l")))
    assert leak.path == (h, s1, z, s2, l)
    # a hand-made graph: h reaches l through container z or volume a
    cz, a = FlowNode("container", "z"), FlowNode("volume", "a")
    flow = FlowGraph(nodes=frozenset({h, l, cz, a}),
                     arcs=frozenset({(h, a), (h, cz), (a, l), (cz, l)}))
    (leak,) = find_leaks(flow, SecurityOrder.of(("h", "l")))
    assert leak.path == (h, cz, l)


def test_leaks_match_reachability_oracle():
    rng = random.Random(53)
    for _ in range(80):
        flow = gen_flow_graph(rng)
        order = gen_dag_order(rng, flow)
        try:
            closed = transitive_closure(order)
        except CyclicOrder:
            continue
        leaks = {v.subject for v in find_leaks(flow, order)}
        reach = reachable_pairs(flow)
        expected = {(h, l) for h, l in closed.pairs
                    if (FlowNode("network", h), FlowNode("network", l)) in reach}
        assert leaks == expected


def test_leaks_equal_the_pairwise_search():
    # subjects, witness paths and list order, on ties between equal-length
    # paths too
    rng = random.Random(58)
    leaks = 0
    for i in range(240):
        flow = gen_flow_graph(rng, max_nodes=12 if i % 2 else 24)
        order = gen_dag_order(rng, flow)
        found = find_leaks(flow, order)
        expected = leaks_pairwise(flow, order)
        assert found == expected
        # the texts and records made once per node say what each leak's own
        # path says
        records: dict = {}
        assert [(v.message, v.payload(records)) for v in found] == \
            [(v.message, v.payload()) for v in expected]
        leaks += len(found)
    assert leaks > 150


def test_leak_search_expands_each_node_once_per_high_network(monkeypatch):
    """On a chain order of k networks, successor lists are read at most
    (distinct highs) x (flow nodes) times; one search per ordered pair reads
    them about k/2 times as often."""
    calls = [0]
    original = FlowGraph.successors

    def counting(self, node):
        calls[0] += 1
        return original(self, node)

    monkeypatch.setattr(FlowGraph, "successors", counting)
    k = 12
    nets = [FlowNode("network", f"n{i:02}") for i in range(k)]
    containers = [FlowNode("container", f"c{i}") for i in range(30)]
    volumes = [FlowNode("volume", f"v{i}") for i in range(10)]
    # every network feeds every container, which write only to volumes and
    # to n01, so every search exhausts the pool and n00 > n01 is the one leak
    arcs = {(net, c) for net in nets for c in containers}
    arcs |= {(c, v) for c in containers for v in volumes}
    arcs.add((containers[0], nets[1]))
    flow = FlowGraph(frozenset(nets + containers + volumes), frozenset(arcs))
    order = SecurityOrder(frozenset(
        (nets[i].name, nets[i + 1].name) for i in range(k - 1)))
    (leak,) = find_leaks(flow, order)
    assert leak.path == (nets[0], containers[0], nets[1])
    assert 0 < calls[0] <= (k - 1) * len(flow.nodes), calls


def test_witness_paths_are_real_paths():
    rng = random.Random(54)
    for _ in range(40):
        flow = gen_flow_graph(rng)
        order = gen_dag_order(rng, flow)
        for leak in find_leaks(flow, order):
            path = leak.path
            assert path[0] == FlowNode("network", leak.subject[0])
            assert path[-1] == FlowNode("network", leak.subject[1])
            for a, b in zip(path, path[1:]):
                assert (a, b) in flow.arcs
                assert (a.kind == "container") != (b.kind == "container")


def test_dropping_an_assertion_never_adds_leaks():
    rng = random.Random(55)
    for _ in range(30):
        flow = gen_flow_graph(rng)
        order = gen_dag_order(rng, flow)
        if not order.pairs:
            continue
        base = {v.subject for v in find_leaks(flow, order)}
        smaller = SecurityOrder(frozenset(sorted(order.pairs)[1:]))
        reduced = {v.subject for v in find_leaks(flow, smaller)}
        assert reduced <= base


def test_adding_an_arc_never_removes_leaks():
    from ldbig.analysis import FlowGraph

    rng = random.Random(56)
    for _ in range(30):
        flow = gen_flow_graph(rng)
        order = gen_dag_order(rng, flow)
        base = {v.subject for v in find_leaks(flow, order)}
        containers = sorted(n for n in flow.nodes if n.kind == "container")
        resources = sorted(n for n in flow.nodes if n.kind != "container")
        if not containers or not resources:
            continue
        extra = (rng.choice(containers), rng.choice(resources))
        if rng.random() < 0.5:
            extra = (extra[1], extra[0])
        bigger = FlowGraph(flow.nodes, flow.arcs | {extra})
        grown = {v.subject for v in find_leaks(bigger, order)}
        assert base <= grown


# -- order file ---------------------------------------------------------------

def test_parse_order_file():
    text = """
# comment
back > front

top>middle  # trailing comment
"""
    order = parse_order_file(text)
    assert order.pairs == {("back", "front"), ("top", "middle")}


def test_parse_order_file_bad_line():
    with pytest.raises(ValueError):
        parse_order_file("just one name\n")
