"""Static checks over assembled container bigraphs.

Two checks: link reachability (every linked pair of containers shares a
network) and security-level safety (no directed read/write channel from a
higher network to a lower one, through any chain of containers, networks and
volumes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .bigraph import Bigraph, Port, Root, place_order
from .containers import CONTAINER, NETWORK, VOLUME
from .errors import CyclicOrder, NotAComposite, UnknownNetwork

__all__ = [
    "FlowNode", "FlowGraph", "SecurityOrder", "Violation",
    "check_links", "build_flow_graph", "transitive_closure", "find_leaks",
    "check_security", "parse_order_file",
]


class FlowNode(NamedTuple):
    kind: str  # "container" | "network" | "volume"
    name: str

    def __str__(self):
        return f"{self.kind}:{self.name}"


@dataclass(frozen=True)
class FlowGraph:
    """Bipartite read/write graph: arcs join containers and resources."""

    nodes: frozenset[FlowNode]
    arcs: frozenset[tuple[FlowNode, FlowNode]]

    @cached_property
    def _adjacency(self) -> dict[FlowNode, tuple[FlowNode, ...]]:
        out: dict[FlowNode, list[FlowNode]] = {}
        for src, dst in self.arcs:
            out.setdefault(src, []).append(dst)
        # deterministic expansion: a FlowNode sorts by kind, then name, and
        # "container" sorts before "network" and "volume"
        return {src: tuple(sorted(dsts)) for src, dsts in out.items()}

    def successors(self, node: FlowNode) -> tuple[FlowNode, ...]:
        return self._adjacency.get(node, ())

    def network(self, name: str) -> FlowNode | None:
        node = FlowNode("network", name)
        return node if node in self.nodes else None


@dataclass(frozen=True)
class SecurityOrder:
    """Strict ordering assertions ``high > low`` over network names."""

    pairs: frozenset[tuple[str, str]]

    @classmethod
    def of(cls, *pairs) -> "SecurityOrder":
        return cls(frozenset((h, l) for h, l in pairs))

    def networks(self) -> set[str]:
        return {n for pair in self.pairs for n in pair}


@dataclass(frozen=True)
class Violation:
    """A finding: an unreachable link target or a security leak."""

    kind: str  # "linksUnreachable" | "securityLeak"
    subject: tuple[str, str]
    path: tuple[FlowNode, ...] = ()
    # the path as text, which find_leaks joins from each node's text
    trail: str = field(default="", compare=False, repr=False)

    @property
    def message(self) -> str:
        a, b = self.subject
        if self.kind == "linksUnreachable":
            return (f"service {a!r} links {b!r} but they share no network")
        trail = self.trail or " -> ".join(map(str, self.path))
        return f"possible leak from {a!r} to {b!r} via {trail}"

    def payload(self, records: dict | None = None) -> dict:
        """The finding's data, each path node a ``{"kind", "name"}`` record
        taken from ``records``, which the payloads of one report share, or
        else made for this payload alone."""
        out = {"kind": self.kind, "subject": list(self.subject)}
        if self.path:
            records = {} if records is None else records
            out["path"] = [records.get(n) or records.setdefault(
                n, {"kind": n.kind, "name": n.name}) for n in self.path]
        return out


def _owners(b: Bigraph, containers) -> dict[int, int | None]:
    """Nearest container strictly above each node under a root, in one pass
    over the place order, parents first."""
    owner: dict[int, int | None] = {}
    for v in place_order(b):
        # a node is under a root when its parent is a root or a node
        # already found under one
        parent = b.node_parent.get(v)
        if isinstance(parent, Root):
            owner[v] = None
        elif parent in owner:
            owner[v] = parent if parent in containers else owner[parent]
    return owner


def _composite(b: Bigraph):
    """The compose entities of ``b``, read once for both flow checks: each
    container's name, each network or volume under a container as (holding
    container, flow node, read-only), and the pairs of distinct containers
    where a port under the first links the handle of the second."""
    named = []
    for v, ctrl in b.nodes.items():
        if ctrl.name in (CONTAINER, NETWORK, VOLUME):
            if "name" not in b.attrs(v):
                raise NotAComposite(f"{ctrl.name} node {v} has no name")
            named.append((v, FlowNode(ctrl.name, b.attrs(v)["name"])))
    containers = {v: node.name for v, node in named if node.kind == CONTAINER}
    owners = _owners(b, containers)
    resources = [(owners[v], node, b.attrs(v).get("read_only", False))
                 for v, node in named
                 if node.kind != CONTAINER and owners.get(v) is not None]
    links = {(owners[p.node], t.node) for p, t in b.link.items()
             if isinstance(p, Port) and isinstance(t, Port) and t.index == 0
             and t.node in containers
             and owners.get(p.node) not in (None, t.node)}
    return containers, resources, links


def check_links(b: Bigraph) -> list[Violation]:
    """Report linked container pairs that share no network."""
    names, resources, links = _composite(b)
    networks: dict[int, set[str]] = {c: set() for c in names}
    for c, resource, _ in resources:
        if resource.kind == NETWORK:
            networks[c].add(resource.name)
    return sorted((Violation("linksUnreachable", (names[src], names[dst]))
                   for src, dst in links if not networks[src] & networks[dst]),
                  key=lambda v: v.subject)


def build_flow_graph(b: Bigraph) -> FlowGraph:
    """One node per container, network and volume; read arcs point into the
    container, write arcs out of it.  Networks are read-write; volume writes
    are dropped for read-only mounts."""
    names, resources, _ = _composite(b)
    nodes = {FlowNode(CONTAINER, n) for n in names.values()}
    arcs: set[tuple[FlowNode, FlowNode]] = set()
    for c, resource, read_only in resources:
        container = FlowNode(CONTAINER, names[c])
        nodes.add(resource)
        arcs.add((resource, container))
        if resource.kind == NETWORK or not read_only:
            arcs.add((container, resource))
    return FlowGraph(frozenset(nodes), frozenset(arcs))


def transitive_closure(order: SecurityOrder) -> SecurityOrder:
    """Close the assertions under transitivity, one depth-first search per
    network; a reflexive pair is an error naming the smallest network above
    itself."""
    below: dict[str, set[str]] = {}
    for high, low in order.pairs:
        below.setdefault(high, set()).add(low)
    closed = set()
    for high, lows in below.items():
        seen: set[str] = set()
        stack = list(lows)
        while stack:
            low = stack.pop()
            if low not in seen:
                seen.add(low)
                stack.extend(below.get(low, ()))
        closed.update((high, low) for low in seen)
    cyclic = sorted(n for n, m in closed if n == m)
    if cyclic:
        raise CyclicOrder(f"network {cyclic[0]!r} is above itself in the closure")
    return SecurityOrder(frozenset(closed))


def _bfs_parents(flow: FlowGraph, start: FlowNode, goals: set[FlowNode]) -> dict:
    """Breadth-first parents of the nodes found from ``start`` (which maps
    to None), searching until every goal is found or none is left to find.
    A node's parent is fixed when it is first found, so the tree path to a
    goal is the path a search stopping at that goal would give."""
    parent = {start: None}
    unfound = set(goals)
    queue = deque([start])
    while queue and unfound:
        node = queue.popleft()
        for nxt in flow.successors(node):
            if nxt not in parent:
                parent[nxt] = node
                unfound.discard(nxt)
                queue.append(nxt)
    return parent


def find_leaks(flow: FlowGraph, order: SecurityOrder) -> list[Violation]:
    """Order-violating directed paths between network nodes of a flow graph:
    one search from each high network serves all the networks below it, and
    each witness is a shortest path."""
    closed = transitive_closure(order)
    missing = sorted(n for n in closed.networks() if flow.network(n) is None)
    if missing:
        raise UnknownNetwork(f"networks not present in the model: {missing}")
    violations = []
    texts: dict = {}  # each flow node's text, made once per check
    for high, pairs in groupby(sorted(closed.pairs), key=itemgetter(0)):
        lows = [low for _, low in pairs]
        parent = _bfs_parents(flow, FlowNode("network", high),
                              {FlowNode("network", low) for low in lows})
        for low in lows:
            node = FlowNode("network", low)
            if node not in parent:
                continue
            path = []
            while node is not None:
                path.append(node)
                node = parent[node]
            path.reverse()
            trail = " -> ".join([texts.get(n) or texts.setdefault(n, str(n))
                                 for n in path])
            violations.append(Violation("securityLeak", (high, low),
                                        tuple(path), trail))
    return violations


def check_security(b: Bigraph, order: SecurityOrder) -> list[Violation]:
    """Build the flow graph of ``b`` and report order-violating channels."""
    return find_leaks(build_flow_graph(b), order)


def parse_order_file(text: str) -> SecurityOrder:
    """One assertion per line: ``HIGH > LOW``; '#' comments and blank lines
    are ignored."""
    pairs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(">")]
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"order file line {lineno}: expected "
                             f"\"HIGH > LOW\", got {raw.strip()!r}")
        pairs.add((parts[0], parts[1]))
    return SecurityOrder(frozenset(pairs))
