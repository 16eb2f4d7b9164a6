"""Brute-force reference implementations the fast paths are checked against.

Each oracle re-implements its condition from scratch: isomorphism by
enumerating control-respecting bijections, matching by enumerating injective
node maps, transitive closure by boolean matrix powers, reachability by a
dense closure, a node's root by walking up its parents, leak witnesses by
one breadth-first search per ordered pair that rescans every arc at each
step, the tensor product by a pairwise fold that copies and relabels at
every step, assembly by that fold over stubs numbered from 1, well-formedness
by building every point and link and sorting the points, a YAML document by
PyYAML's own composer and safe constructor, a DOT export by one list of
every line joined at the end. Keep them dumb.
"""

from __future__ import annotations

import itertools

import numpy as np
import yaml
from yaml.composer import Composer

from ldbig import (
    EMPTY_INTERFACE, Bigraph, Edge, InnerName, OuterName, Port, Root,
    WellFormednessViolation, compose, container_stub, default_signature,
    environment_bigraph, identity, relabel,
)
from ldbig.analysis import FlowNode, Violation
from ldbig.interfaces import juxtapose
from ldbig.serialize import _dot_id, _quote


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


def region(b: Bigraph, x) -> int | None:
    """The root region of a point or link: a port's node's, an inner
    name's site's (0 when global), an outer name's locality; None for an
    edge or a place that reaches no root."""
    if isinstance(x, Port):
        return node_root(b, x.node)
    if isinstance(x, OuterName):
        return x.locality
    if not isinstance(x, InnerName):
        return None
    if x.locality == 0:
        return 0
    parent = b.site_parent.get(x.locality)
    if isinstance(parent, Root):
        return parent.index
    return node_root(b, parent) if isinstance(parent, int) else None


def points(b: Bigraph) -> set:
    """Every point: the positive inner names, the negative outer names and
    the nodes' source ports."""
    return ({InnerName(i, t) for i, (plus, _) in enumerate(b.inner.localities)
             for t in plus}
            | {OuterName(i, t) for i, (_, minus) in enumerate(b.outer.localities)
               for t in minus}
            | {Port(v, k) for v, ctrl in b.nodes.items() for k in range(ctrl.plus)})


def links(b: Bigraph) -> set:
    """Every link: the negative inner names, the positive outer names, the
    nodes' target ports and the edges."""
    return ({InnerName(i, t) for i, (_, minus) in enumerate(b.inner.localities)
             for t in minus}
            | {OuterName(i, t) for i, (plus, _) in enumerate(b.outer.localities)
               for t in plus}
            | {Port(v, k) for v, ctrl in b.nodes.items() for k in range(ctrl.minus)}
            | {Edge(e) for e in b.edges})


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
        inner = juxtapose(b1.inner, b2.inner)
        outer = juxtapose(b1.outer, b2.outer)
        ids1 = set(b1.nodes) | set(b1.edges)
        ids2 = set(b2.nodes) | set(b2.edges)
        if ids1 & ids2:
            offset = max(ids1 | ids2)
            b2 = relabel(b2, {v: v + offset for v in b2.nodes},
                         {e: e + offset for e in b2.edges})
        d_in, d_out = b1.inner.width, b1.outer.width

        def place(p):
            return Root(p.index + d_out) if isinstance(p, Root) else p

        def shift(x):
            if isinstance(x, InnerName) and x.locality:
                return InnerName(x.locality + d_in, x.text)
            if isinstance(x, OuterName) and x.locality:
                return OuterName(x.locality + d_out, x.text)
            return x

        site_parent = dict(b1.site_parent)
        site_parent.update({s + d_in: place(p) for s, p in b2.site_parent.items()})
        node_parent = dict(b1.node_parent)
        node_parent.update({v: place(p) for v, p in b2.node_parent.items()})
        link = dict(b1.link)
        link.update({shift(p): shift(t) for p, t in b2.link.items()})
        return Bigraph(b1.signature.union(b2.signature), inner, outer,
                       {**b1.nodes, **b2.nodes}, b1.edges | b2.edges,
                       site_parent, node_parent, link,
                       {**b1.node_attrs, **b2.node_attrs})

    out = bigraphs[0]
    for b in bigraphs[1:]:
        out = pair(out, b)
    return out


def assemble_reference(model):
    """The composite as assembly built it before stubs were numbered where
    they are built: every stub numbered from 1, the stubs folded pairwise
    (each step refreshing the right operand's ids on collision), and the
    environment, whose edges are numbered from 1, refreshed by ``compose``."""
    stubs = [container_stub(name, model) for name in model.services]
    block = (tensor_fold(*stubs) if stubs
             else identity(EMPTY_INTERFACE, default_signature()))
    result = compose(environment_bigraph(model), block)
    assert validate_reference(result) == []
    return result


def _hashable(x) -> bool:
    try:
        hash(x)
        return True
    except TypeError:
        return False


def validate_reference(b: Bigraph) -> list[WellFormednessViolation]:
    """``validate`` from the definitions alone: it builds every point and
    every link, sorts the points by ``str``, walks up the parents for each
    region and counts the preimage of every link.  It calls no query of
    ``Bigraph``, so it shares no code with ``validate``, and it pins a
    report's order."""
    Violation = WellFormednessViolation
    out: list[Violation] = []

    if set(b.nodes) & {e for e in b.edges}:
        shared = sorted(set(b.nodes) & set(b.edges))
        out.append(Violation("support", f"ids {shared}",
                             "node and edge identifiers overlap"))

    for v, ctrl in sorted(b.nodes.items()):
        if not b.signature.admits(ctrl):
            out.append(Violation("control", f"node {v}",
                                 f"control {ctrl.name}:({ctrl.plus}+,{ctrl.minus}-) "
                                 "not in signature"))

    # parent map: totality and range
    sites = set(range(1, b.inner.width + 1))
    roots = set(range(1, b.outer.width + 1))

    def check_parent(kind, key, parent):
        if parent is None:
            out.append(Violation("parent", f"{kind} {key}", "no parent"))
        elif isinstance(parent, Root):
            if parent.index not in roots:
                out.append(Violation("parent", f"{kind} {key}",
                                     f"unknown root {parent.index}"))
        elif isinstance(parent, int):
            if parent not in b.nodes:
                out.append(Violation("parent", f"{kind} {key}",
                                     f"unknown node {parent}"))
        else:
            out.append(Violation("parent", f"{kind} {key}",
                                 f"bad parent {parent!r}"))

    for s in sorted(sites):
        check_parent("site", s, b.site_parent.get(s))
    for s in sorted(set(b.site_parent) - sites):
        out.append(Violation("parent", f"site {s}", "not a site of the inner interface"))
    for v in sorted(b.nodes):
        check_parent("node", v, b.node_parent.get(v))
    for v in sorted(set(b.node_parent) - set(b.nodes)):
        out.append(Violation("parent", f"node {v}", "not a node of this bigraph"))

    for v in sorted(b.nodes):
        if v in b.node_parent and node_root(b, v) is None:
            out.append(Violation("forest", f"node {v}",
                                 "never reaches a root (cycle or dangling parent)"))

    # link map: totality, targets, locality; a point or link is found by
    # equality, so True is 1 and "1" is no locality
    pts, lks = points(b), links(b)
    for p in sorted(pts - set(b.link), key=str):
        out.append(Violation("link-total", str(p), "point has no link"))
    for p in sorted(set(b.link) - pts, key=str):
        out.append(Violation("link-domain", str(p), "not a point of this bigraph"))

    for p in sorted((p for p in b.link if p in pts), key=str):
        target = b.link[p]
        if type(target) not in (InnerName, OuterName, Port, Edge) \
                or not _hashable(target) or target not in lks:
            out.append(Violation("link-target", str(p),
                                 f"target {target} is not a link of this bigraph"))
            continue
        if isinstance(target, Edge):
            continue
        lp, lt = region(b, p), region(b, target)
        if lp is None or lt is None:
            continue  # unresolvable region already reported via forest/parent
        # a link is reachable from its own region or, when global, from all;
        # a global point crossing into one region would break composition
        if lt != 0 and lp != lt:
            out.append(Violation("link-locality", str(p),
                                 f"point in region {lp} targets {target} in region {lt}"))

    # pass-through names must have exactly one point
    preimage: dict[Link, int] = {}
    for p in pts:
        t = b.link.get(p)
        if t is not None and _hashable(t):
            preimage[t] = preimage.get(t, 0) + 1
    # inner names are points when positive, outer names when negative
    for cls, localities, side in (
            (InnerName, b.inner.localities, "inner"),
            (OuterName, [(m, p) for p, m in b.outer.localities], "outer")):
        for i, (sources, targets) in enumerate(localities):
            hit = {b.link[cls(i, t)] for t in sources
                   if cls(i, t) in b.link and _hashable(b.link[cls(i, t)])}
            for x in sorted(hit, key=str):
                if (isinstance(x, cls) and x.locality == i
                        and x.text in targets and preimage.get(x, 0) != 1):
                    out.append(Violation("passthrough", str(x),
                                         f"{preimage.get(x, 0)} points target "
                                         f"a pass-through {side} name"))
    return out


class _UniqueKeyComposer(Composer):
    """Mixed in before a safe loader: PyYAML's Python composer builds the
    nodes from the loader's events, and a key repeated within one mapping
    is rejected (merged ``<<`` keys may still be overridden)."""

    def construct_mapping(self, node, deep=False):
        own = node.value  # merging deletes the << entries from this list
        count = len(own)
        mapping = super().construct_mapping(node, deep=deep)
        if len(mapping) < count or node.value is not own:
            seen = set()
            for key_node, _ in own:
                key = self.construct_object(key_node)  # already constructed
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return mapping


def yaml_load_reference(text: str, source):
    """``yaml.load`` with the repeated-key check: PyYAML's composer builds a
    node graph from the events of the loader class ``source``, recursing
    once per level, and ``SafeConstructor`` walks that graph again."""

    class Loader(_UniqueKeyComposer, source):
        def __init__(self, stream):
            source.__init__(self, stream)
            Composer.__init__(self)

    return yaml.load(text, Loader=Loader)


def to_dot_reference(b: Bigraph, title: str = "bigraph") -> str:
    """``to_dot`` as it was before it was written in pieces: every line
    appended to one list, the link map's items sorted by the point's text,
    and one join at the end."""
    lines = [f"digraph {_quote(title)} {{", "  rankdir=TB;",
             "  node [shape=box, fontsize=10];"]

    def label(v: int) -> str:
        ctrl = b.nodes[v]
        name = b.attrs(v).get("name")
        base = f"{ctrl.name} {name}" if name else ctrl.name
        return f"{base}\n({ctrl.plus}+,{ctrl.minus}-) #{v}"

    def open_place(place, indent: str):
        for s in b.sites_under(place):
            lines.append(f"{indent}\"site_{s}\" [label=\"site {s}\", "
                         "shape=box, style=dotted];")
        return iter(b.children(place)), indent

    def emit_place(place, indent: str):
        stack = [open_place(place, indent)]
        while stack:
            children, indent = stack[-1]
            for v in children:
                if b.children(v) or b.sites_under(v):
                    lines.append(f"{indent}subgraph cluster_n{v} {{")
                    lines.append(f"{indent}  label={_quote(label(v))};")
                    lines.append(f"{indent}  \"n{v}\" [label=\"\", shape=point];")
                    stack.append(open_place(v, indent + "  "))
                    break
                lines.append(f"{indent}\"n{v}\" [label={_quote(label(v))}];")
            else:
                stack.pop()
                if stack:
                    lines.append(f"{stack[-1][1]}}}")

    for r in range(1, b.outer.width + 1):
        lines.append(f"  subgraph cluster_root_{r} {{")
        lines.append(f"    label=\"root {r}\"; style=dashed;")
        emit_place(Root(r), "    ")
        lines.append("  }")

    for interface, cls in ((b.inner, InnerName), (b.outer, OuterName)):
        for i, sides in enumerate(interface.localities):
            for texts, sign in zip(sides, "+-"):
                for t in sorted(texts):
                    lines.append(f"  {_dot_id(cls(i, t))} [label="
                                 f"{_quote(f'{t}@{i}{sign}')}, shape=plaintext];")
    for e in sorted(b.edges):
        lines.append(f"  {_dot_id(Edge(e))} [label=\"e{e}\", shape=diamond, "
                     "fontsize=8];")

    for p, t in sorted(b.link.items(), key=lambda kv: str(kv[0])):
        extras = []
        if isinstance(p, Port):
            extras.append(f"taillabel=\"{p.index}\"")
        if isinstance(t, Port):
            extras.append(f"headlabel=\"{t.index}\"")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        lines.append(f"  {_dot_id(p)} -> {_dot_id(t)}{suffix};")

    lines.append("}")
    return "\n".join(lines) + "\n"
