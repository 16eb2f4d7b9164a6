"""Brute-force reference implementations the fast paths are checked against.

Each oracle re-implements its condition from scratch: isomorphism by
enumerating control-respecting bijections, matching by enumerating injective
node maps, transitive closure by boolean matrix powers, reachability by a
dense closure, a node's root by walking up its parents, leak witnesses by
one breadth-first search per ordered pair that rescans every arc at each
step, the tensor product by a pairwise fold that copies and relabels at
every step.  Keep them dumb.
"""

from __future__ import annotations

import itertools

import numpy as np

from ldbig import Bigraph, Edge, InnerName, OuterName, Port, Root, relabel
from ldbig.analysis import FlowNode, Violation
from ldbig.interfaces import juxtapose_with_renames


def _groups_by_control(b: Bigraph):
    groups: dict = {}
    for v, ctrl in b.nodes.items():
        groups.setdefault(ctrl, []).append(v)
    return {c: sorted(vs) for c, vs in groups.items()}


def _map_point(phi: dict[int, int], p):
    return Port(phi[p.node], p.index) if isinstance(p, Port) else p


def _bijection_commutes(b1: Bigraph, b2: Bigraph, phi: dict[int, int]) -> bool:
    for s, p in b1.site_parent.items():
        q = b2.site_parent.get(s)
        if isinstance(p, Root):
            if q != p:
                return False
        elif q != phi.get(p):
            return False
    for v, p in b1.node_parent.items():
        q = b2.node_parent.get(phi[v])
        if isinstance(p, Root):
            if q != p:
                return False
        elif q != phi.get(p):
            return False
    edge_map: dict[int, int] = {}
    hit: set[int] = set()
    for p1, t1 in b1.link.items():
        t2 = b2.link.get(_map_point(phi, p1))
        if isinstance(t1, Edge):
            if not isinstance(t2, Edge):
                return False
            if t1.ident in edge_map:
                if edge_map[t1.ident] != t2.ident:
                    return False
            else:
                if t2.ident in hit:
                    return False
                edge_map[t1.ident] = t2.ident
                hit.add(t2.ident)
        elif isinstance(t1, Port):
            if t2 != Port(phi[t1.node], t1.index):
                return False
        else:
            if t2 != t1:
                return False
    return True


def iso_bruteforce(b1: Bigraph, b2: Bigraph) -> bool:
    """Enumerate every control-respecting node bijection."""
    if b1.inner != b2.inner or b1.outer != b2.outer:
        return False
    if len(b1.edges) != len(b2.edges) or len(b1.link) != len(b2.link):
        return False
    g1, g2 = _groups_by_control(b1), _groups_by_control(b2)
    if set(g1) != set(g2):
        return False
    if any(len(g1[c]) != len(g2[c]) for c in g1):
        return False
    controls = sorted(g1, key=lambda c: (c.name, c.plus, c.minus))
    pools = [itertools.permutations(g2[c]) for c in controls]
    for perm_choice in itertools.product(*pools):
        phi: dict[int, int] = {}
        for ctrl, perm in zip(controls, perm_choice):
            phi.update(zip(g1[ctrl], perm))
        if _bijection_commutes(b1, b2, phi):
            return True
    return False


def matches_bruteforce(pattern: Bigraph, host: Bigraph,
                       anchor_at_roots: bool = False) -> set:
    """All embeddings as sets of sorted (pattern node, host node) tuples."""
    p_nodes = sorted(pattern.nodes)
    candidates = [sorted(w for w, c in host.nodes.items()
                         if c == pattern.nodes[u]) for u in p_nodes]
    found = set()
    for choice in itertools.product(*candidates) if p_nodes else [()]:
        if len(set(choice)) != len(choice):
            continue
        phi = dict(zip(p_nodes, choice))
        if _embedding_ok(pattern, host, phi, anchor_at_roots):
            found.add(tuple(sorted(phi.items())))
    return found


def _embedding_ok(pattern: Bigraph, host: Bigraph, phi: dict[int, int],
                  anchor_at_roots: bool) -> bool:
    anchor: dict[int, object] = {}
    for u, w in phi.items():
        pp = pattern.node_parent.get(u)
        hp = host.node_parent.get(w)
        if isinstance(pp, Root):
            if anchor_at_roots and not isinstance(hp, Root):
                return False
            if anchor.setdefault(pp.index, hp) != hp:
                return False
        elif phi.get(pp) != hp:
            return False
    edge_bind: dict = {}
    name_bind: dict = {}
    claimed: set = set()
    for u, w in phi.items():
        for k in range(pattern.nodes[u].plus):
            lp = pattern.link.get(Port(u, k))
            lh = host.link.get(Port(w, k))
            if lp is None or lh is None:
                return False
            if isinstance(lp, Port):
                if lp.node not in phi or lh != Port(phi[lp.node], lp.index):
                    return False
            elif isinstance(lp, InnerName):
                if lh != lp:
                    return False
            elif isinstance(lp, Edge):
                if lp in edge_bind:
                    if edge_bind[lp] != lh:
                        return False
                else:
                    if lh in claimed:
                        return False
                    edge_bind[lp] = lh
                    claimed.add(lh)
            elif isinstance(lp, OuterName):
                if name_bind.setdefault(lp, lh) != lh:
                    return False
    return True


def closure_matrix(pairs: set, names: list[str]) -> set:
    """Transitive closure by boolean matrix powers."""
    n = len(names)
    idx = {name: i for i, name in enumerate(names)}
    m = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        m[idx[a], idx[b]] = True
    reach = m.copy()
    for _ in range(n):
        reach = reach | (reach @ m)
    return {(names[i], names[j]) for i in range(n) for j in range(n)
            if reach[i, j]}


def reachable_pairs(flow) -> set:
    """All (src, dst) with a directed path of length >= 1, densely."""
    nodes = sorted(flow.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    m = np.zeros((n, n), dtype=bool)
    for a, b in flow.arcs:
        m[idx[a], idx[b]] = True
    reach = m.copy()
    for _ in range(n):
        reach = reach | (reach @ m)
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n)
            if reach[i, j]}


def _bfs_path(flow, start, goal):
    parent = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            path = []
            while node is not None:
                path.append(node)
                node = parent[node]
            return tuple(reversed(path))
        # containers first, then by kind and name
        for nxt in sorted((dst for src, dst in flow.arcs if src == node),
                          key=lambda n: (n.kind != "container", n.kind, n.name)):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def leaks_pairwise(flow, order) -> list:
    """One shortest-path search per ordered pair of the closed order, in
    pair order; the order must be acyclic."""
    names = sorted(order.networks())
    leaks = []
    for high, low in sorted(closure_matrix(set(order.pairs), names)):
        path = _bfs_path(flow, FlowNode("network", high), FlowNode("network", low))
        if path is not None:
            leaks.append(Violation("securityLeak", (high, low), path))
    return leaks


def node_root(b: Bigraph, node: int) -> int | None:
    """Walk up the parent map from ``node`` to the index of the root it
    reaches; None when some parent is not a node or the walk comes round."""
    seen = set()
    cur = node
    while cur in b.nodes and cur not in seen:
        seen.add(cur)
        parent = b.node_parent.get(cur)
        if isinstance(parent, Root):
            return parent.index
        cur = parent
    return None


def nearest_container(b: Bigraph, node: int, containers) -> int | None:
    """Walk up the parent map from ``node`` to the first container."""
    cur = b.node_parent.get(node)
    while isinstance(cur, int):
        if cur in containers:
            return cur
        cur = b.node_parent.get(cur)
    return None


def unreachable_links(b: Bigraph) -> list[tuple[str, str]]:
    """(source, target) names of linked container pairs that share no
    network, rescanning every node per container."""
    containers = {v: b.node_attrs[v]["name"] for v, c in b.nodes.items()
                  if c.name == "container"}

    def networks(c):
        return {b.link.get(Port(v, 0)) for v, ctrl in b.nodes.items()
                if ctrl.name == "network"
                and nearest_container(b, v, containers) == c} - {None}

    pairs = set()
    for point, target in b.link.items():
        if (isinstance(point, Port) and isinstance(target, Port)
                and target.index == 0 and target.node in containers):
            src = nearest_container(b, point.node, containers)
            if src is not None and src != target.node:
                pairs.add((src, target.node))
    return sorted((containers[s], containers[d]) for s, d in pairs
                  if not networks(s) & networks(d))


def tensor_fold(*bigraphs: Bigraph) -> Bigraph:
    """The tensor product as a left fold of the binary product: each step
    juxtaposes two interfaces, relabels the right operand's support past
    the left one's on collision, and copies both operands."""
    def pair(b1: Bigraph, b2: Bigraph) -> Bigraph:
        inner, (_, (in_plus, in_minus)) = juxtapose_with_renames(b1.inner, b2.inner)
        outer, (_, (out_plus, out_minus)) = juxtapose_with_renames(b1.outer, b2.outer)
        ids1 = set(b1.nodes) | set(b1.edges)
        ids2 = set(b2.nodes) | set(b2.edges)
        if ids1 & ids2:
            offset = max(ids1 | ids2)
            b2 = relabel(b2, {v: v + offset for v in b2.nodes},
                         {e: e + offset for e in b2.edges})
        d_in, d_out = b1.inner.width, b1.outer.width

        def place(p):
            return Root(p.index + d_out) if isinstance(p, Root) else p

        def shift(x, in_map, out_map):
            if isinstance(x, InnerName):
                if x.locality == 0:
                    return InnerName(0, in_map.get(x.text, x.text))
                return InnerName(x.locality + d_in, x.text)
            if isinstance(x, OuterName):
                if x.locality == 0:
                    return OuterName(0, out_map.get(x.text, x.text))
                return OuterName(x.locality + d_out, x.text)
            return x

        site_parent = dict(b1.site_parent)
        site_parent.update({s + d_in: place(p) for s, p in b2.site_parent.items()})
        node_parent = dict(b1.node_parent)
        node_parent.update({v: place(p) for v, p in b2.node_parent.items()})
        link = dict(b1.link)
        link.update({shift(p, in_plus, out_minus): shift(t, in_minus, out_plus)
                     for p, t in b2.link.items()})
        return Bigraph(b1.signature.union(b2.signature), inner, outer,
                       {**b1.nodes, **b2.nodes}, b1.edges | b2.edges,
                       site_parent, node_parent, link,
                       {**b1.node_attrs, **b2.node_attrs})

    out = bigraphs[0]
    for b in bigraphs[1:]:
        out = pair(out, b)
    return out
