"""Static checks over assembled container bigraphs.

Two checks: link reachability (every linked pair of containers shares a
network) and security-level safety (no directed read/write channel from a
higher network to a lower one, through any chain of containers, networks and
volumes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
        # deterministic expansion: containers first, then by kind and name
        return {src: tuple(sorted(dsts, key=lambda n: (
                    n.kind != "container", n.kind, n.name)))
                for src, dsts in out.items()}

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

    @property
    def message(self) -> str:
        a, b = self.subject
        if self.kind == "linksUnreachable":
            return (f"service {a!r} links {b!r} but they share no network")
        trail = " -> ".join(str(n) for n in self.path)
        return f"possible leak from {a!r} to {b!r} via {trail}"

    def payload(self) -> dict:
        out = {"kind": self.kind, "subject": list(self.subject)}
        if self.path:
            out["path"] = [{"kind": n.kind, "name": n.name} for n in self.path]
        return out


def _containers(b: Bigraph) -> dict[int, str]:
    found = {v: b.attrs(v).get("name", f"container_{v}")
             for v, ctrl in b.nodes.items() if ctrl.name == CONTAINER}
    if not found:
        raise NotAComposite("the bigraph contains no container nodes")
    return found


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


def check_links(b: Bigraph) -> list[Violation]:
    """Report linked container pairs that share no network."""
    containers = _containers(b)
    owners = _owners(b, containers)
    handles = {Port(c, 0): c for c in containers}

    pairs = set()
    for point, target in b.link.items():
        if target in handles and isinstance(point, Port):
            src = owners.get(point.node)
            dst = handles[target]
            if src is not None and src != dst:
                pairs.add((src, dst))

    # the link targets of each container's network nodes
    networks: dict[int, set] = {c: set() for c in containers}
    for v, ctrl in b.nodes.items():
        if ctrl.name == NETWORK and owners.get(v) is not None:
            target = b.link.get(Port(v, 0))
            if target is not None:
                networks[owners[v]].add(target)

    violations = []
    for src, dst in pairs:
        if not networks[src] & networks[dst]:
            violations.append(Violation("linksUnreachable",
                                        (containers[src], containers[dst])))
    return sorted(violations, key=lambda v: v.subject)


def build_flow_graph(b: Bigraph) -> FlowGraph:
    """One node per container, network and volume; read arcs point into the
    container, write arcs out of it.  Networks are read-write; volume writes
    are dropped for read-only mounts."""
    containers = _containers(b)
    owners = _owners(b, containers)
    nodes: set[FlowNode] = {FlowNode("container", n) for n in containers.values()}
    arcs: set[tuple[FlowNode, FlowNode]] = set()

    for v, ctrl in b.nodes.items():
        if ctrl.name not in (NETWORK, VOLUME):
            continue
        owner = owners.get(v)
        if owner is None:
            continue
        c_node = FlowNode("container", containers[owner])
        kind = "network" if ctrl.name == NETWORK else "volume"
        r_node = FlowNode(kind, b.attrs(v).get("name", f"{kind}_{v}"))
        nodes.add(r_node)
        arcs.add((r_node, c_node))
        if kind == "network" or not b.attrs(v).get("read_only", False):
            arcs.add((c_node, r_node))
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
            violations.append(
                Violation("securityLeak", (high, low), tuple(reversed(path))))
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
