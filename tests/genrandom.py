"""Seeded random generators for property and acceptance tests.

All generators take an explicit random.Random so every test run is
reproducible.  Generated bigraphs keep each *name* link to at most one point
(edges and ports fan in freely), which keeps composition closed under the
well-formedness rules.
"""

from __future__ import annotations

import random

from ldbig import (
    Bigraph, Control, Edge, InnerName, LocalInterface, OuterName, Port, Root,
    Signature, ComposeModel, SecurityOrder,
)
from ldbig.analysis import FlowGraph, FlowNode
from ldbig.composefile import NetworkDecl, ServiceSpec, ServiceVolume, VolumeDecl
from ldbig.containers import ContainerSpec, ProcessSpec, VolumeMount

NAME_POOL = ["a", "b", "c", "d", "k", "m", "u", "w", "x", "y", "z"]


def gen_signature(rng: random.Random, max_controls: int = 4) -> Signature:
    n = rng.randint(2, max_controls)
    controls = tuple(
        Control(f"K{i}", rng.randint(0, 2), rng.randint(0, 2))
        for i in range(n))
    return Signature(fixed=controls)


def gen_interface(rng: random.Random, width: int,
                  max_names: int = 2, globals_ok: bool = True) -> LocalInterface:
    locs = []
    for i in range(width + 1):
        if i == 0 and not globals_ok:
            locs.append((frozenset(), frozenset()))
            continue
        budget = max_names if i else 1  # keep global sets small
        pool = rng.sample(NAME_POOL, k=min(len(NAME_POOL), 2 * budget))
        n_plus = rng.randint(0, budget)
        n_minus = rng.randint(0, budget)
        plus = frozenset(pool[:n_plus])
        minus = frozenset(pool[n_plus:n_plus + n_minus])
        locs.append((plus, minus))
    return LocalInterface(tuple(locs))


def gen_bigraph(rng: random.Random, signature: Signature,
                inner: LocalInterface, outer: LocalInterface,
                max_nodes: int = 8) -> Bigraph:
    """A random well-formed bigraph between the given interfaces."""
    next_id = [0]

    def fresh() -> int:
        next_id[0] += 1
        return next_id[0]

    roots = [Root(r) for r in range(1, outer.width + 1)]
    nodes: dict[int, Control] = {}
    node_parent: dict = {}
    controls = list(signature.fixed)

    if roots:
        for _ in range(rng.randint(0, max_nodes)):
            parents = roots + list(nodes)
            v = fresh()
            nodes[v] = rng.choice(controls)
            node_parent[v] = rng.choice(parents)

    site_parent = {}
    for s in range(1, inner.width + 1):
        site_parent[s] = rng.choice(roots + list(nodes))

    edges: set[int] = {fresh() for _ in range(rng.randint(0, 2))}

    draft = Bigraph(signature, inner, outer, nodes, edges, site_parent,
                    node_parent, {})

    # candidate links per region; name links are single-use
    name_links: list[tuple[object, int]] = []
    for i in range(inner.width + 1):
        for t in inner.minus(i):
            name_links.append((InnerName(i, t), draft.region_of(InnerName(i, t))))
    for i in range(outer.width + 1):
        for t in outer.plus(i):
            name_links.append((OuterName(i, t), draft.region_of(OuterName(i, t))))
    port_links = []
    for v, ctrl in nodes.items():
        for k in range(ctrl.minus):
            port_links.append((Port(v, k), draft.node_region(v)))

    used_names: set = set()
    link: dict = {}

    def wire(point, region):
        # global points stay on global links; localized points may also use
        # links of their own region
        options: list = [Edge(e) for e in edges]
        for target, treg in name_links:
            if target in used_names:
                continue
            if treg == 0 or treg == region:
                options.append(target)
        for target, treg in port_links:
            if treg == region:
                options.append(target)
        if not options or rng.random() < 0.15:
            e = fresh()
            edges.add(e)
            options = [Edge(e)]
        choice = rng.choice(options)
        if isinstance(choice, (InnerName, OuterName)):
            used_names.add(choice)
        link[point] = choice

    for i in range(inner.width + 1):
        for t in sorted(inner.plus(i)):
            p = InnerName(i, t)
            wire(p, draft.region_of(p))
    for i in range(outer.width + 1):
        for t in sorted(outer.minus(i)):
            p = OuterName(i, t)
            wire(p, draft.region_of(p))
    for v, ctrl in nodes.items():
        for k in range(ctrl.plus):
            wire(Port(v, k), draft.node_region(v))

    return Bigraph(signature, inner, outer, nodes, edges, site_parent,
                   node_parent, link)


def gen_chain(rng: random.Random, length: int = 3, max_nodes: int = 8,
              signature: Signature | None = None):
    """Composable bigraphs b[0]: I0 -> I1, b[1]: I1 -> I2, ...

    Interfaces with localized width 0 cannot host sites, so a zero width
    forces the whole chain to zero width (globals only).
    """
    signature = signature or gen_signature(rng)
    if rng.random() < 0.05:
        widths = [0] * (length + 1)
    else:
        widths = [rng.randint(1, 2) for _ in range(length + 1)]
    ifaces = [gen_interface(rng, w) for w in widths]
    return [gen_bigraph(rng, signature, ifaces[i], ifaces[i + 1], max_nodes)
            for i in range(length)]


def gen_interchange_quad(rng: random.Random, max_nodes: int = 6):
    """(A, B, C, D) with C: -> inner(A) and D: -> inner(B)."""
    sig = gen_signature(rng)
    i_a = gen_interface(rng, rng.randint(1, 2))
    i_b = gen_interface(rng, rng.randint(1, 2))
    a = gen_bigraph(rng, sig, i_a, gen_interface(rng, rng.randint(1, 2)), max_nodes)
    b = gen_bigraph(rng, sig, i_b, gen_interface(rng, rng.randint(1, 2)), max_nodes)
    c = gen_bigraph(rng, sig, gen_interface(rng, rng.randint(1, 2)), i_a, max_nodes)
    d = gen_bigraph(rng, sig, gen_interface(rng, rng.randint(1, 2)), i_b, max_nodes)
    return a, b, c, d


# -- compose models -----------------------------------------------------------

def gen_model(rng: random.Random, max_services: int = 6,
              max_networks: int = 4, max_volumes: int = 3,
              n_services: int | None = None) -> ComposeModel:
    """A random model; ``n_services`` fixes the service count, which is
    otherwise drawn from 1..max_services."""
    nets = [f"net{i}" for i in range(rng.randint(0, max_networks))]
    vols = {f"vol{i}": VolumeDecl(external=rng.random() < 0.5)
            for i in range(rng.randint(0, max_volumes))}
    if n_services is None:
        n_services = rng.randint(1, max_services)
    names = [f"svc{i}" for i in range(n_services)]

    networks = {n: NetworkDecl() for n in nets}
    services: dict[str, ServiceSpec] = {}
    next_host = [8000]
    wants_default = False
    for name in names:
        if nets and rng.random() < 0.8:
            attached = tuple(rng.sample(nets, k=rng.randint(0, len(nets))))
            if not attached and rng.random() < 0.5:
                attached = ("default",)
                wants_default = True
        else:
            attached = ("default",)
            wants_default = True

        links = []
        others = [t for t in names if t != name]
        for target in rng.sample(others, k=min(len(others), rng.randint(0, 2))):
            alias = target if rng.random() < 0.7 else f"{target}x"
            links.append((target, alias))

        ports = []
        for _ in range(rng.randint(0, 2)):
            next_host[0] += 1
            ports.append((str(next_host[0]), str(rng.randint(10, 99))))
        expose = tuple(sorted({str(rng.randint(10, 99))
                               for _ in range(rng.randint(0, 2))}))

        mounts = []
        for vol in rng.sample(sorted(vols), k=min(len(vols), rng.randint(0, 2))):
            mounts.append(ServiceVolume(vol, f"/mnt/{vol}",
                                        read_only=rng.random() < 0.4))
        if mounts and rng.random() < 0.15:
            again = mounts[0]
            mounts.append(ServiceVolume(again.name, f"/alt/{again.name}",
                                        read_only=not again.read_only))

        services[name] = ServiceSpec(
            image=f"img/{name}", links=tuple(links), ports=tuple(ports),
            expose=expose, networks=attached, volumes=tuple(mounts))

    if wants_default and "default" not in networks:
        networks["default"] = NetworkDecl(implicit=True)
    return ComposeModel(version="2", services=services, networks=networks,
                        volumes=vols)


def permute_services(rng: random.Random, model: ComposeModel) -> ComposeModel:
    order = list(model.services)
    rng.shuffle(order)
    return ComposeModel(version=model.version,
                        services={n: model.services[n] for n in order},
                        networks=dict(model.networks),
                        volumes=dict(model.volumes))


def retarget_one_link(b: Bigraph) -> Bigraph:
    """A copy with one port moved from an outer name to an edge; an outer
    name keeps its identity under support equivalence, so the copy is not
    support-equivalent to ``b``."""
    point = min((p for p, t in b.link.items()
                 if isinstance(p, Port) and isinstance(t, OuterName)), key=str)
    return Bigraph(b.signature, b.inner, b.outer, b.nodes, b.edges,
                   b.site_parent, b.node_parent,
                   {**b.link, point: Edge(min(b.edges))}, b.node_attrs)


# -- container specs ----------------------------------------------------------

def gen_container_spec(rng: random.Random) -> ContainerSpec:
    nets = tuple(f"n{i}" for i in range(rng.randint(0, 3)))
    vols = tuple(VolumeMount(f"v{i}", host_path=f"/srv/v{i}",
                             read_only=rng.random() < 0.5)
                 for i in range(rng.randint(0, 2)))

    offer_pool = [f"s{i}" for i in range(4)]
    rng.shuffle(offer_pool)
    processes = []
    taken = 0
    for _ in range(rng.randint(0, 3)):
        n_offers = rng.randint(0, min(2, len(offer_pool) - taken))
        offers = tuple(offer_pool[taken:taken + n_offers])
        taken += n_offers
        # resources, handles offered so far, or names from outside
        consumable = list(nets) + [v.name for v in vols] \
            + offer_pool[:taken] + [f"ext{i}" for i in range(2)]
        consumes = tuple(rng.sample(consumable,
                                    k=min(len(consumable), rng.randint(0, 3))))
        processes.append(ProcessSpec(offers=offers, consumes=consumes))

    offered = [n for p in processes for n in p.offers]
    exposed = tuple(rng.sample(offered, k=rng.randint(0, len(offered)))) \
        if offered else ()
    return ContainerSpec(
        name="box", processes=tuple(processes), networks=nets, volumes=vols,
        exposed_ports=exposed)


# -- flow graphs and orders ---------------------------------------------------

def gen_flow_graph(rng: random.Random, max_nodes: int = 12) -> FlowGraph:
    n_net = rng.randint(1, 4)
    n_con = rng.randint(1, max(1, max_nodes - n_net - 2))
    n_vol = rng.randint(0, max(0, max_nodes - n_net - n_con))
    containers = [FlowNode("container", f"c{i}") for i in range(n_con)]
    resources = [FlowNode("network", f"n{i}") for i in range(n_net)]
    resources += [FlowNode("volume", f"v{i}") for i in range(n_vol)]
    arcs = set()
    for c in containers:
        for r in resources:
            roll = rng.random()
            if roll < 0.35:
                arcs.add((r, c))
                arcs.add((c, r))
            elif roll < 0.5:
                arcs.add((r, c))
            elif roll < 0.6:
                arcs.add((c, r))
    return FlowGraph(frozenset(containers + resources), frozenset(arcs))


def gen_dag_order(rng: random.Random, flow: FlowGraph) -> SecurityOrder:
    nets = sorted(n.name for n in flow.nodes if n.kind == "network")
    rng.shuffle(nets)
    pairs = {(nets[i], nets[j])
             for i in range(len(nets)) for j in range(i + 1, len(nets))
             if rng.random() < 0.4}
    return SecurityOrder(frozenset(pairs))


# -- matching corpus ----------------------------------------------------------

def gen_host(rng: random.Random, signature: Signature,
             max_nodes: int = 6) -> Bigraph:
    outer = gen_interface(rng, rng.randint(1, 2), globals_ok=False)
    return gen_bigraph(rng, signature, LocalInterface.of(), outer, max_nodes)


def gen_pattern(rng: random.Random, signature: Signature,
                max_nodes: int = 4) -> Bigraph:
    """A small open pattern: its outer names act as wildcards in matching."""
    width = rng.randint(1, 2)
    locs = [(frozenset(), frozenset())]
    for i in range(width):
        plus = frozenset(f"w{i}{j}" for j in range(rng.randint(0, 2)))
        locs.append((plus, frozenset()))
    outer = LocalInterface(tuple(locs))
    return gen_bigraph(rng, signature, LocalInterface.of(), outer,
                       max_nodes)
