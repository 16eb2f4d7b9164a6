"""The wiring of the environment and of the composite, check_links, the flow
graph and check_security against the same facts read off the compose
model, at sizes the brute-force oracles do not reach."""

import random
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest

from ldbig import (
    Edge, InnerName, OuterName, Port, SecurityOrder, assemble,
    build_flow_graph, check_links, check_security, environment_bigraph,
    parse_compose,
)
from ldbig.composefile import ComposeModel, ServiceSpec
from genrandom import gen_model
from model_reference import flow_arcs, leak_pairs, order_closure, \
    unreachable_links, wiring
from test_assembly import _models
from test_tensor import benchmark_models

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


KINDS = {"n": "network", "v": "volume"}


def _named(targets, on_edge):
    """``targets`` with each edge replaced by the one resource whose points
    it joins; no edge joins two resources and no resource has two edges."""
    named = {}
    for edge, resources in on_edge.items():
        (named[edge],) = resources
    assert len(set(named.values())) == len(named), on_edge
    return {key: named.get(t, t) for key, t in targets.items()}


def environment_wiring(model, env):
    """``wiring(model)`` read back from the environment's link map: site k
    is the k-th service, and an edge is the resource of the inner names it
    joins."""
    services = list(model.services)
    targets, published, on_edge = {}, {}, defaultdict(set)
    for point, link in env.link.items():
        if isinstance(point, OuterName):
            assert point.text[:2] == link.text[:2] == "p_"
            published[point.text[2:]] = (services[link.locality - 1],
                                         link.text[2:])
            continue
        key = (services[point.locality - 1], point.text)
        if isinstance(link, Edge):
            tag, _, name = point.text.partition("_")
            on_edge[link].add((KINDS[tag], name))
            targets[key] = link
        elif isinstance(link, OuterName):
            targets[key] = ("external", link.text)
        else:
            target = services[link.locality - 1]
            assert isinstance(link, InnerName) and link.text == "c_" + target
            targets[key] = ("service", target)
    return _named(targets, on_edge), published


def composite_wiring(model, b):
    """``wiring(model)`` read back from the composite: the link of each
    network, volume and process port, with each box mapped back to the
    service it names.  A process's i-th port is the i-th link alias of its
    service, and its i-th offered port the i-th distinct container port,
    exposed ones first."""
    service_of = {v: b.attrs(v)["name"] for v, control in b.nodes.items()
                  if control.name == "container"}

    def target(link):
        if isinstance(link, Port):
            assert link.index == 0
            return ("service", service_of[link.node])
        if isinstance(link, OuterName):
            return ("external", link.text)
        return link

    targets, published, on_edge = {}, {}, defaultdict(set)
    for v, control in b.nodes.items():
        if control.name == "container":
            continue
        service = service_of[b.node_parent[v]]
        if control.name == "process":
            links = model.services[service].links
            assert control.plus == len(links)
            for i, (_, alias) in enumerate(links):
                targets[service, "l_" + alias] = target(b.link[Port(v, i)])
            continue
        name = b.attrs(v)["name"]
        link = b.link[Port(v, 0)]
        if isinstance(link, Edge):
            on_edge[link].add((control.name, name))
        key = (service, control.name[0] + "_" + name)
        assert targets.setdefault(key, target(link)) == target(link)
    for point, link in b.link.items():
        if isinstance(point, OuterName):
            service = service_of[b.node_parent[link.node]]
            svc = model.services[service]
            offers = list(dict.fromkeys([*svc.expose,
                                         *(c for _, c in svc.ports)]))
            assert point.text[:2] == "p_"
            published[point.text[2:]] = (service, offers[link.index])
    return _named(targets, on_edge), published


def assert_wiring_agrees(model):
    """The wiring read off the model is the wiring of the environment and of
    the composite; returns it."""
    expected = wiring(model)
    assert environment_wiring(model, environment_bigraph(model)) == expected
    assert composite_wiring(model, assemble(model)) == expected
    return expected


def test_the_wiring_matches_the_model(wordpress_model, monkeypatch):
    kinds, published = set(), 0
    for model in [*_models(), wordpress_model, *benchmark_models(monkeypatch)]:
        targets, ports = assert_wiring_agrees(model)
        kinds |= {kind for kind, _ in targets.values()}
        published += len(ports)
    # every kind of target, and published ports, are compared
    assert kinds == {"network", "volume", "external", "service"}
    assert published > 0


def assert_agree(model):
    composite = assemble(model)
    links = unreachable_links(model)
    assert [v.subject for v in check_links(composite)] == links
    arcs = flow_arcs(model)
    assert build_flow_graph(composite).arcs == arcs
    return links, arcs


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_links_and_arcs_match_the_model_at_scale(n):
    model = gen_model(random.Random(7), n_services=n, max_networks=6,
                      max_volumes=4)
    links, arcs = assert_agree(model)
    # the comparison covers reported pairs and dropped write arcs
    dropped = {(r, c) for r, c in arcs if r[0] == "volume" and (c, r) not in arcs}
    assert len(links) > n // 2 and len(dropped) > n // 10


def test_wordpress_links_and_arcs_match_the_model(wordpress_model,
                                                   wordpress_text):
    assert assert_agree(wordpress_model)[0] == []
    broken = parse_compose(wordpress_text.replace("networks: [front, back]",
                                                  "networks: [back]"))
    assert assert_agree(broken)[0] == [("wp", "db")]


def test_a_service_linking_itself_forms_no_pair():
    # neither service joins a network; a links itself, b links a
    model = ComposeModel(version="2", services={
        "a": ServiceSpec(image="x", links=(("a", "a"),)),
        "b": ServiceSpec(image="y", links=(("a", "a"),))})
    assert assert_agree(model)[0] == [("b", "a")]


def beside(model, other):
    """One stack holding ``model`` and a copy of ``other`` whose services,
    networks and volumes are renamed apart and whose ports are dropped, so
    that no flow joins the two."""
    def moved(name):
        return f"{name}_b"

    services = dict(model.services)
    for name, svc in other.services.items():
        services[moved(name)] = replace(
            svc, ports=(), networks=tuple(map(moved, svc.networks)),
            links=tuple((moved(target), alias) for target, alias in svc.links),
            volumes=tuple(v._replace(name=moved(v.name)) for v in svc.volumes))
    return ComposeModel(
        "2", services,
        {**model.networks, **{moved(n): d for n, d in other.networks.items()}},
        {**model.volumes, **{moved(v): d for v, d in other.volumes.items()}})


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_leaks_match_the_model_at_scale(n):
    rng = random.Random(11)
    model = beside(*(gen_model(rng, n_services=n // 2, max_networks=6,
                               max_volumes=4) for _ in range(2)))
    nets = sorted({net for svc in model.services.values()
                   for net in svc.networks})
    rng.shuffle(nets)
    order = SecurityOrder.of(*((nets[i], nets[j]) for i in range(len(nets))
                               for j in range(i + 1, len(nets))
                               if rng.random() < 0.5))
    leaks = check_security(assemble(model), order)
    expected = leak_pairs(model, order.pairs)
    assert [v.subject for v in leaks] == expected
    # the comparison covers both verdicts
    assert expected and order_closure(order.pairs) - set(expected)

    arcs = flow_arcs(model)
    graph = nx.DiGraph(list(arcs))
    for v in leaks:
        high, low = (("network", name) for name in v.subject)
        assert (v.path[0], v.path[-1]) == (high, low)
        assert all(step in arcs for step in zip(v.path, v.path[1:]))
        assert len(v.path) - 1 == nx.shortest_path_length(graph, high, low)


def test_lattice_stacks_match_the_model(monkeypatch):
    """The benchmark's lattice stacks, whose one-way bridges between groups
    of networks give both leaking pairs and pairs the closure holds safe."""
    monkeypatch.syspath_prepend(str(BENCH))
    import generate
    import workloads

    rng = random.Random(3)
    leaking = safe = 0
    for i, n in enumerate((60, 96, 132)):
        stack = generate.lattice_stack(rng, i, n, workloads.LATTICE_GROUPS,
                                       workloads.LATTICE_PER_GROUP)
        model = parse_compose(generate.compose_yaml(stack))
        assert len(model.services) == n
        assert_agree(model)
        order = SecurityOrder.of(*stack.order)
        leaks = check_security(assemble(model), order)
        expected = leak_pairs(model, order.pairs)
        assert [v.subject for v in leaks] == expected
        leaking += len(expected)
        safe += len(order_closure(order.pairs) - set(expected))
    assert leaking > 0 and safe > 0, (leaking, safe)
