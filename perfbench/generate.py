"""Seeded inputs for the ldbig benchmark.

Each workload is drawn from ``random.Random(f"{workload}:{seed}")``, so one
seed always gives byte-identical compose, order and pattern files.  Stacks are
kept as plain descriptions (:class:`Stack`); the files handed to ldbig are
rendered from them, and :mod:`reference` derives the expected verdicts from the
same descriptions without calling ldbig.

Sizes come from fixed ladders and only the structure is random, so every seed
gives a workload of the same shape and cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

DEFAULT_NETWORK = "default"

# The kinds of rejection the README documents, one planted per rejected file.
REJECTIONS = ("unsupported-key", "unquoted-port", "bind-mount",
              "dangling-link", "version")

CONTAINER_PORTS = ("80", "443", "8080", "3000", "5000")
EXPOSED_PORTS = ("3306", "5432", "6379", "9000", "11211")


@dataclass
class Service:
    name: str
    networks: list[str] | None      # None: no networks key, joins "default"
    links: list[tuple[str, str]] = field(default_factory=list)  # (target, alias)
    ports: list[tuple[str, str]] = field(default_factory=list)  # (host, container)
    expose: list[str] = field(default_factory=list)
    mounts: list[tuple[str, str, bool]] = field(default_factory=list)  # (volume, path, ro)

    def attached(self) -> list[str]:
        return list(self.networks) if self.networks is not None \
            else [DEFAULT_NETWORK]


@dataclass
class Stack:
    name: str
    services: dict[str, Service]
    networks: list[str]                 # declared networks
    volumes: dict[str, bool]            # declared volume -> external
    order: list[tuple[str, str]] = field(default_factory=list)  # high > low
    rejection: str | None = None        # README-documented mistake planted in the file

    def used_networks(self) -> list[str]:
        used = {n for s in self.services.values() for n in s.attached()}
        declared = self.networks + [DEFAULT_NETWORK]
        return [n for n in declared if n in used]


# -- rendering ----------------------------------------------------------------

def _flow(items) -> str:
    return "[" + ", ".join(f'"{i}"' for i in items) + "]"


def compose_yaml(stack: Stack) -> str:
    """The docker-compose file of a stack, with its planted rejection."""
    version = "3" if stack.rejection == "version" else "2"
    lines = [f"version: '{version}'", "services:"]
    for i, svc in enumerate(stack.services.values()):
        lines += [f"  {svc.name}:", f"    image: img/{svc.name}"]
        if svc.networks is not None:
            lines.append(f"    networks: {_flow(svc.networks)}")
        if svc.links:
            lines.append("    links: " + _flow(
                t if a == t else f"{t}:{a}" for t, a in svc.links))
        if svc.ports:
            lines.append("    ports: " + _flow(f"{h}:{c}" for h, c in svc.ports))
        if svc.expose:
            lines.append(f"    expose: {_flow(svc.expose)}")
        if svc.mounts:
            lines.append("    volumes: " + _flow(
                f"{v}:{p}:ro" if ro else f"{v}:{p}" for v, p, ro in svc.mounts))
        if i == 0:
            lines += _planted(stack.rejection)
    if stack.networks:
        lines.append("networks:")
        lines += [f"  {n}:\n    driver: bridge" for n in stack.networks]
    if stack.volumes:
        lines.append("volumes:")
        lines += [f"  {v}:\n    external: {'true' if ext else 'false'}"
                  for v, ext in stack.volumes.items()]
    return "\n".join(lines) + "\n"


def _planted(rejection: str | None) -> list[str]:
    # the first service is generated without the key each line adds
    return {
        "unsupported-key": ["    restart: always"],
        "unquoted-port": ["    ports: [7999]"],
        "bind-mount": ['    volumes: ["./data:/srv/data"]'],
        "dangling-link": ["    links: [ghost]"],
    }.get(rejection, [])


def order_text(stack: Stack) -> str:
    return "# generated security order\n" + "".join(
        f"{h} > {l}\n" for h, l in stack.order)


# -- forbidden patterns ---------------------------------------------------------

SIGNATURE = {
    "controls": [{"name": "container", "plus": 0, "minus": 1},
                 {"name": "network", "plus": 1, "minus": 1},
                 {"name": "request", "plus": 1, "minus": 1},
                 {"name": "volume", "plus": 1, "minus": 1}],
    "parametric": ["process"],
}
_ARITY = {c["name"]: (c["plus"], c["minus"]) for c in SIGNATURE["controls"]}


def pattern_doc(name: str, nodes: list[tuple[str, object]],
                links: dict[int, str] | None = None) -> dict:
    """A pattern entry; ``nodes`` are (control, parent) with parent a root
    index (int >= 1, written as ``("root", i)``) or a 1-based node id, and
    ``links`` wires a node's source port to a named outer link."""
    links = links or {}
    roots = max(p[1] for _, p in nodes if isinstance(p, tuple))
    entries = []
    for ident, (control, parent) in enumerate(nodes, start=1):
        plus, minus = _ARITY[control]
        entries.append({
            "id": ident,
            "control": {"name": control, "plus": plus, "minus": minus},
            "parent": {"root": parent[1]} if isinstance(parent, tuple)
            else {"node": parent}})
    outer = [{"plus": [], "minus": []} for _ in range(roots + 1)]
    outer[1]["plus"] = sorted(set(links.values()))
    return {"name": name, "bigraph": {
        "signature": SIGNATURE,
        "inner": [{"plus": [], "minus": []}],
        "outer": outer,
        "nodes": entries,
        "edges": [],
        "sites": [],
        "links": [{"point": {"kind": "port", "node": v, "index": 0},
                   "link": {"kind": "outer", "locality": 1, "text": t}}
                  for v, t in sorted(links.items())],
    }}


ROOT = ("root", 1)
# The repository's two example patterns ...
NESTED_CONTAINER = pattern_doc("nested-container",
                               [("container", ROOT), ("container", 1)])
ANY_CONTAINER = pattern_doc("any-container", [("container", ROOT)])
# ... and multi-node shapes.  Both wire their ports to outer names, which bind
# non-injectively: twin-networks needs two networks of one container on one
# link, which never happens, so its search reaches leaves that all fail.
NETWORK_AND_VOLUME = pattern_doc(
    "network-and-volume",
    [("container", ROOT), ("network", 1), ("volume", 1)], {2: "x", 3: "y"})
TWIN_NETWORKS = pattern_doc(
    "twin-networks",
    [("container", ROOT), ("network", 1), ("network", 1)], {2: "x", 3: "x"})


def patterns_json(patterns: list[dict]) -> str:
    return json.dumps(patterns, indent=2, sort_keys=True) + "\n"


# -- stack generators -----------------------------------------------------------

def _services(rng: random.Random, names: list[str], networks_of, *,
              max_links: int, port_rate: float, max_expose: int,
              volumes: list[str], max_mounts: int, ro_rate: float,
              host_ports) -> dict[str, Service]:
    services = {}
    for name in names:
        others = [t for t in names if t != name]
        links = []
        for target in rng.sample(others, k=min(len(others),
                                               rng.randint(0, max_links))):
            alias = target if rng.random() < 0.7 else f"{target}_alias"
            links.append((target, alias))
        ports = []
        if rng.random() < port_rate:
            ports.append((str(next(host_ports)), rng.choice(CONTAINER_PORTS)))
        expose = sorted(rng.sample(EXPOSED_PORTS, k=rng.randint(0, max_expose)))
        mounts = [(v, f"/data/{v}", rng.random() < ro_rate)
                  for v in rng.sample(volumes, k=min(len(volumes),
                                                     rng.randint(0, max_mounts)))]
        services[name] = Service(name, networks_of(name), links, ports,
                                 expose, mounts)
    return services


def _chain(nets: list[str]) -> list[tuple[str, str]]:
    return list(zip(nets, nets[1:]))


def fleet_stack(rng: random.Random, index: int) -> Stack:
    """A small stack (3-15 services, 1-4 networks); every tenth file carries
    one rejection the README documents."""
    n_services = 3 + index % 13
    networks = [f"net{i}" for i in range(1 + index % 4)]
    volumes = {f"vol{i}": rng.random() < 0.5 for i in range(rng.randint(0, 2))}
    names = [f"svc{i:02d}" for i in range(n_services)]

    def networks_of(_name):
        if rng.random() < 0.1:
            return None
        return rng.sample(networks, k=rng.randint(1, min(2, len(networks))))

    services = _services(
        rng, names, networks_of, max_links=2, port_rate=0.3, max_expose=1,
        volumes=sorted(volumes), max_mounts=1, ro_rate=0.4,
        host_ports=iter(range(8000, 9000)))
    stack = Stack(f"fleet{index:03d}", services, networks, volumes)
    used = stack.used_networks()
    stack.order = _chain(rng.sample(used, k=min(3, len(used))))
    if index % 10 == 9:
        stack.rejection = REJECTIONS[rng.randrange(len(REJECTIONS))]
        first = next(iter(services.values()))
        first.ports, first.mounts, first.links = [], [], []
    return stack


def monolith_stack(rng: random.Random, index: int, n_services: int) -> Stack:
    """A large stack on 12 networks with a short order."""
    networks = [f"net{i:02d}" for i in range(12)]
    volumes = {f"vol{i:02d}": rng.random() < 0.5 for i in range(16)}
    names = [f"svc{i:04d}" for i in range(n_services)]
    services = _services(
        rng, names, lambda _n: rng.sample(networks, k=rng.randint(1, 3)),
        max_links=2, port_rate=0.2, max_expose=2, volumes=sorted(volumes),
        max_mounts=2, ro_rate=0.3, host_ports=iter(range(10000, 20000)))
    stack = Stack(f"monolith{index}", services, networks, volumes)
    stack.order = _chain(rng.sample(stack.used_networks(), k=4))
    return stack


def lattice_stack(rng: random.Random, index: int, n_services: int,
                  groups: int, per_group: int) -> Stack:
    """Services in groups that each own a block of networks and volumes.

    In each group the first services chain its networks together, so a group
    is one component.  Groups are isolated except through one bridge volume
    per neighbouring pair, written by a service of group ``g`` and mounted
    read-only by one of group ``g + 1``, so information flows down the chain
    of groups and never back.  The order chains every network in a random
    order, so its closure holds all pairs, and about half the pairs that
    cross groups leak.
    """
    nets_of = [[f"g{g}n{i}" for i in range(per_group)] for g in range(groups)]
    vols_of = [[f"g{g}v{i}" for i in range(2)] for g in range(groups)]
    volumes = {v: rng.random() < 0.5 for vs in vols_of for v in vs}
    names = [f"svc{i:04d}" for i in range(n_services)]
    group = {name: i % groups for i, name in enumerate(names)}
    services = {}
    for g in range(groups):
        members = [n for n in names if group[n] == g]
        chain = iter(zip(nets_of[g], nets_of[g][1:]))
        services.update(_services(
            rng, members,
            lambda _n: list(next(chain, ()))
            or rng.sample(nets_of[g], k=rng.randint(1, 2)),
            max_links=1, port_rate=0.0, max_expose=1, volumes=vols_of[g],
            max_mounts=1, ro_rate=0.3, host_ports=iter(())))
    for g in range(groups - 1):
        bridge = f"bridge{g}"
        volumes[bridge] = False
        for side, read_only in ((g, False), (g + 1, True)):
            svc = services[rng.choice([n for n in names if group[n] == side])]
            svc.mounts.append((bridge, f"/bridge/{bridge}", read_only))
    services = {n: services[n] for n in names}
    networks = [n for ns in nets_of for n in ns]
    stack = Stack(f"lattice{index}", services, networks, volumes)
    used = stack.used_networks()
    stack.order = _chain(rng.sample(used, k=len(used)))
    return stack


def iso_stack(rng: random.Random, index: int, n_services: int) -> Stack:
    """A small stack with at least one link, for the isomorphism pairs."""
    networks = [f"net{i}" for i in range(rng.randint(1, 3))]
    volumes = {f"vol{i}": rng.random() < 0.5 for i in range(rng.randint(0, 2))}
    names = [f"svc{i:02d}" for i in range(n_services)]
    services = _services(
        rng, names, lambda _n: rng.sample(networks, k=rng.randint(1, len(networks))),
        max_links=2, port_rate=0.3, max_expose=1, volumes=sorted(volumes),
        max_mounts=1, ro_rate=0.4, host_ports=iter(range(8000, 9000)))
    if not any(s.links for s in services.values()):
        first, second = names[0], names[1]
        services[first].links.append((second, second))
    return Stack(f"iso{index:03d}", services, networks, volumes)


def peer_ring(rng: random.Random, index: int, n_peers: int,
              networks_each: int) -> Stack:
    """A cluster of peers that each link the next one round a ring and join
    their own draw of networks, as in a replicated database.

    The peers agree on every count (children, links in and out), so an
    isomorphism search cannot tell them apart by local shape alone; the size
    of the ring and the networks per peer fix how far it has to search.
    """
    networks = [f"net{i}" for i in range(n_peers + 1)]
    names = [f"peer{i}" for i in range(n_peers)]
    rng.shuffle(names)
    services = {}
    for i, name in enumerate(names):
        nxt = names[(i + 1) % n_peers]
        services[name] = Service(name, rng.sample(networks, k=networks_each),
                                 links=[(nxt, nxt)])
    return Stack(f"ring{index:03d}", dict(sorted(services.items())),
                 networks, {})


def permuted(rng: random.Random, stack: Stack) -> Stack:
    """The same stack with services and networks declared in another order;
    its composite is isomorphic to the original's."""
    names = list(stack.services)
    rng.shuffle(names)
    networks = list(stack.networks)
    rng.shuffle(networks)
    return replace(stack, name=stack.name + "-perm",
                   services={n: stack.services[n] for n in names},
                   networks=networks)


def retargeted(rng: random.Random, stack: Stack) -> Stack:
    """The stack with one link moved to another target, or None when no
    move changes the multiset of container in-degrees.

    Moving a link takes the old target from ``a`` to ``a - 1`` incoming links
    and the new one from ``b`` to ``b + 1``; unless ``b == a - 1`` the multiset
    of in-degrees changes, so no isomorphism exists, while node, edge and link
    counts stay the same.
    """
    indeg = {n: 0 for n in stack.services}
    for svc in stack.services.values():
        for target, _ in svc.links:
            indeg[target] += 1
    moves = []
    for svc in stack.services.values():
        linked = {t for t, _ in svc.links}
        for k, (old, _) in enumerate(svc.links):
            moves += [(svc.name, k, new) for new in stack.services
                      if new != svc.name and new not in linked
                      and indeg[new] != indeg[old] - 1]
    if not moves:
        return None
    name, k, new = rng.choice(moves)
    services = {n: replace(s, links=list(s.links))
                for n, s in stack.services.items()}
    services[name].links[k] = (new, new)
    return replace(stack, name=stack.name + "-retarget", services=services)
