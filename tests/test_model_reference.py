"""check_links, the flow graph and check_security against verdicts read off
the compose model, at sizes the brute-force oracles do not reach."""

import random
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest

from ldbig import (
    SecurityOrder, assemble, build_flow_graph, check_links, check_security,
    parse_compose,
)
from ldbig.composefile import ComposeModel, ServiceSpec
from genrandom import gen_model
from model_reference import flow_arcs, leak_pairs, order_closure, \
    unreachable_links

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
            volumes=tuple(replace(v, name=moved(v.name)) for v in svc.volumes))
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
