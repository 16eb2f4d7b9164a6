"""Categorical operations on bigraphs: composition, tensor product, identity,
support relabelling, and support equivalence (isomorphism), whose node-map
search pattern matching shares."""

from __future__ import annotations

import math
from collections import Counter

from .bigraph import (
    Bigraph, Edge, InnerName, OuterName, Port, Root, Signature,
    EMPTY_SIGNATURE, place_order,
)
from .errors import GlobalNameClash, InterfaceMismatch, LdbError
from .interfaces import LocalInterface, juxtapose_with_renames

__all__ = ["compose", "tensor", "identity", "relabel", "is_isomorphic",
           "place_order", "node_maps"]


def relabel(b: Bigraph, node_map: dict[int, int] | None = None,
            edge_map: dict[int, int] | None = None) -> Bigraph:
    """Rename support identifiers; both maps must be injective."""
    nm = node_map or {}
    em = edge_map or {}

    def n(v):
        return nm.get(v, v)

    def place(p):
        return p if isinstance(p, Root) else n(p)

    def ref(x):
        if isinstance(x, Port):
            return Port(n(x.node), x.index)
        if isinstance(x, Edge):
            return Edge(em.get(x.ident, x.ident))
        return x

    return Bigraph(
        b.signature, b.inner, b.outer,
        {n(v): c for v, c in b.nodes.items()},
        {em.get(e, e) for e in b.edges},
        {s: place(p) for s, p in b.site_parent.items()},
        {n(v): place(p) for v, p in b.node_parent.items()},
        {ref(p): ref(t) for p, t in b.link.items()},
        {n(v): a for v, a in b.node_attrs.items()},
    )


def _support_disjoint(b1: Bigraph, b2: Bigraph) -> Bigraph:
    """Relabel b2 so its node/edge ids avoid b1's (refresh on collision)."""
    ids1 = set(b1.nodes) | set(b1.edges)
    ids2 = set(b2.nodes) | set(b2.edges)
    if not ids1 & ids2:
        return b2
    offset = max(ids1 | ids2, default=0)
    return relabel(b2, {v: v + offset for v in b2.nodes},
                   {e: e + offset for e in b2.edges})


def identity(interface: LocalInterface,
             signature: Signature = EMPTY_SIGNATURE) -> Bigraph:
    """The identity bigraph: each site under its root, every name wired to its
    counterpart on the other interface."""
    link = {}
    for i in range(len(interface.localities)):
        for t in interface.plus(i):
            link[InnerName(i, t)] = OuterName(i, t)
        for t in interface.minus(i):
            link[OuterName(i, t)] = InnerName(i, t)
    site_parent = {i: Root(i) for i in range(1, interface.width + 1)}
    return Bigraph(signature, interface, interface, {}, set(), site_parent,
                   {}, link)


def compose(b2: Bigraph, b1: Bigraph) -> Bigraph:
    """b2 o b1: plug b1's roots into b2's sites and chain the link maps
    through the shared interface.

    Requires b1.outer == b2.inner (same widths and name sets per locality);
    raises InterfaceMismatch otherwise.  Colliding support ids are refreshed
    on b2's side.
    """
    if b1.outer != b2.inner:
        raise InterfaceMismatch(
            f"cannot compose: {b1.outer.pretty()} != {b2.inner.pretty()}")
    b2 = _support_disjoint(b1, b2)
    signature = b1.signature.union(b2.signature)

    def through(parent):
        # a parent inside b1 stays put; a root of b1 lands in b2's site
        if isinstance(parent, Root):
            landing = b2.site_parent.get(parent.index)
            if landing is None:
                raise LdbError(f"b2 has no site {parent.index}")
            return landing
        return parent

    site_parent = {s: through(p) for s, p in b1.site_parent.items()}
    node_parent = {v: through(p) for v, p in b1.node_parent.items()}
    node_parent.update(b2.node_parent)

    # Chasing: a b1 target that is an outer name is a shared-interface name,
    # i.e. a point of b2; a b2 target that is an inner name is a point of b1.
    limit = len(b1.link) + len(b2.link) + 2

    def chase(side: int, val):
        for _ in range(limit):
            if side == 1 and isinstance(val, OuterName):
                nxt = b2.link.get(InnerName(val.locality, val.text))
                if nxt is None:
                    raise LdbError(f"shared name {val} has no link in b2")
                side, val = 2, nxt
            elif side == 2 and isinstance(val, InnerName):
                nxt = b1.link.get(OuterName(val.locality, val.text))
                if nxt is None:
                    raise LdbError(f"shared name {val} has no link in b1")
                side, val = 1, nxt
            else:
                return val
        raise LdbError("link chase through the shared interface did not terminate")

    link = {}
    for p, t in b1.link.items():
        if isinstance(p, (InnerName, Port)):
            link[p] = chase(1, t)
    for p, t in b2.link.items():
        if isinstance(p, (OuterName, Port)):
            link[p] = chase(2, t)

    attrs = {**b1.node_attrs, **b2.node_attrs}
    return Bigraph(signature, b1.inner, b2.outer,
                   {**b1.nodes, **b2.nodes}, b1.edges | b2.edges,
                   site_parent, node_parent, link, attrs)


def tensor(*bigraphs: Bigraph, tag_globals: bool = True) -> Bigraph:
    """b1 (x) ... (x) bn: side-by-side juxtaposition, built in one pass.

    Each operand's localized names, sites and roots shift past those of the
    operands before it; its colliding global names are renamed unless
    ``tag_globals`` is False, in which case GlobalNameClash is raised.  Its
    support ids are refreshed (shifted by the largest id in play) when they
    collide with earlier ones.  The result equals the left fold of the
    binary product, dict order included; no operands give the unit.
    """
    inner, in_renames = juxtapose_with_renames(*(b.inner for b in bigraphs))
    outer, out_renames = juxtapose_with_renames(*(b.outer for b in bigraphs))
    signature = bigraphs[0].signature if bigraphs else EMPTY_SIGNATURE
    nodes: dict = {}
    edges: set[int] = set()
    site_parent: dict = {}
    node_parent: dict = {}
    link: dict = {}
    attrs: dict = {}
    top = -math.inf         # the largest support id so far
    d_in = d_out = 0        # sites and roots so far

    for b, (in_plus, in_minus), (out_plus, out_minus) in zip(
            bigraphs, in_renames, out_renames):
        if not tag_globals and (in_plus or in_minus or out_plus or out_minus):
            clashes = sorted(set(in_plus) | set(in_minus)
                             | set(out_plus) | set(out_minus))
            raise GlobalNameClash(f"global names collide: {clashes}")
        if b.signature != signature:
            signature = signature.union(b.signature)
        ids = b.nodes.keys() | b.edges
        offset = 0
        if any(i in nodes or i in edges for i in ids):
            offset = max(top, max(ids))
        nm = {v: v + offset for v in b.nodes}
        em = {e: e + offset for e in b.edges}
        if ids:
            top = max(top, max(ids) + offset)

        def place(p):
            return Root(p.index + d_out) if isinstance(p, Root) else nm.get(p, p)

        def ref(x, in_map, out_map):
            # points take the plus renames of inner names and the minus
            # renames of outer names; links take the other two
            if isinstance(x, Port):
                return Port(nm.get(x.node, x.node), x.index)
            if isinstance(x, Edge):
                return Edge(em.get(x.ident, x.ident))
            if isinstance(x, InnerName):
                if x.locality == 0:
                    return InnerName(0, in_map.get(x.text, x.text))
                return InnerName(x.locality + d_in, x.text)
            if isinstance(x, OuterName):
                if x.locality == 0:
                    return OuterName(0, out_map.get(x.text, x.text))
                return OuterName(x.locality + d_out, x.text)
            return x

        for v, c in b.nodes.items():
            nodes[nm[v]] = c
        edges.update(em.values())
        for s, p in b.site_parent.items():
            site_parent[s + d_in] = place(p)
        for v, p in b.node_parent.items():
            node_parent[nm.get(v, v)] = place(p)
        for p, t in b.link.items():
            link[ref(p, in_plus, out_minus)] = ref(t, in_minus, out_plus)
        for v, a in b.node_attrs.items():
            attrs[nm.get(v, v)] = a
        d_in += b.inner.width
        d_out += b.outer.width

    return Bigraph(signature, inner, outer, nodes, edges, site_parent,
                   node_parent, link, attrs)


# -- support equivalence ----------------------------------------------------

def node_maps(b: Bigraph, image: Bigraph, order: tuple[int, ...],
              candidates: dict, fits=None):
    """Yield each injective map ``phi`` of ``order`` (nodes of ``b``,
    parents first) into their ``candidates`` (nodes of ``image``) in which
    a node under a mapped node lands under that node's image, and
    ``fits(u, w, phi)`` holds for each node u mapped to w, given the map of
    the nodes before u.

    The search keeps its own stack, so ``b`` may nest to any depth.  The
    yielded dict is the search's state: use it before resuming.
    """
    phi: dict[int, int] = {}
    used: set[int] = set()
    if not order:
        yield phi
        return
    parents = [b.node_parent.get(u) for u in order]
    image_parent = image.node_parent.get
    stack = [iter(candidates[order[0]])]  # per level, the candidates left
    wants = [None]  # per level, its parent's image if mapped
    while stack:
        i = len(stack) - 1
        u, want = order[i], wants[i]
        if u in phi:
            used.discard(phi.pop(u))
        for w in stack[i]:
            if w in used or want is not None and image_parent(w) != want:
                continue
            if fits is None or fits(u, w, phi):
                break
        else:
            stack.pop()
            wants.pop()
            continue
        phi[u] = w
        used.add(w)
        if i + 1 == len(order):
            yield phi
        else:
            stack.append(iter(candidates[order[i + 1]]))
            wants.append(phi.get(parents[i + 1]))


def _fingerprints(b: Bigraph) -> dict:
    """Iso-invariant node summaries used to cut the candidate sets, built in
    one pass over the link map."""
    incoming: dict[int, Counter] = {v: Counter() for v in b.nodes}
    for p, t in b.link.items():
        if isinstance(t, Port) and t.node in incoming:
            kind = "port" if isinstance(p, Port) else "name"
            incoming[t.node][(t.index, kind)] += 1
    out = {}
    for v, ctrl in b.nodes.items():
        parent = b.node_parent.get(v)
        pkind = parent if isinstance(parent, Root) else ("node",)
        targets = []
        for k in range(ctrl.plus):
            t = b.link.get(Port(v, k))
            if isinstance(t, (InnerName, OuterName)):
                targets.append(t)
            elif isinstance(t, Edge):
                targets.append("edge")
            elif isinstance(t, Port):
                name = b.nodes[t.node].name if t.node in b.nodes else "?"
                targets.append(("port", name, t.index))
            else:
                targets.append(None)
        out[v] = (ctrl, pkind, tuple(targets),
                  tuple(sorted(incoming[v].items())),
                  len(b.children(v)), tuple(b.sites_under(v)))
    return out


def _mapped_point(phi: dict[int, int], p):
    return Port(phi[p.node], p.index) if isinstance(p, Port) else p


def _verify_iso(b1: Bigraph, b2: Bigraph, phi: dict[int, int]) -> bool:
    for v, p in b1.node_parent.items():
        q = b2.node_parent.get(phi[v])
        want = p if isinstance(p, Root) else phi.get(p)
        if q != want:
            return False
    for s, p in b1.site_parent.items():
        q = b2.site_parent.get(s)
        want = p if isinstance(p, Root) else phi.get(p)
        if q != want:
            return False
    emap: dict[int, int] = {}
    bound: set[int] = set()
    for p1, t1 in b1.link.items():
        t2 = b2.link.get(_mapped_point(phi, p1))
        if isinstance(t1, Edge):
            if not isinstance(t2, Edge):
                return False
            if t1.ident in emap:
                if emap[t1.ident] != t2.ident:
                    return False
            elif t2.ident in bound:
                return False
            else:
                emap[t1.ident] = t2.ident
                bound.add(t2.ident)
        elif isinstance(t1, Port):
            if t2 != Port(phi[t1.node], t1.index):
                return False
        elif t2 != t1:
            return False
    return True


def is_isomorphic(b1: Bigraph, b2: Bigraph) -> bool:
    """Support equivalence: a control-preserving node bijection and an edge
    bijection commuting with the parent and link maps, fixing both
    interfaces name-for-name.  Node attributes are not compared.
    """
    if b1.inner != b2.inner or b1.outer != b2.outer:
        return False
    if len(b1.nodes) != len(b2.nodes) or len(b1.edges) != len(b2.edges):
        return False
    if len(b1.link) != len(b2.link):
        return False
    fp1, fp2 = _fingerprints(b1), _fingerprints(b2)
    if Counter(fp1.values()) != Counter(fp2.values()):
        return False

    by_key: dict = {}
    for w, key in fp2.items():
        by_key.setdefault(key, []).append(w)
    classes = {v: by_key[key] for v, key in fp1.items()}
    # the classes fix root parents; the search keeps the rest
    return any(_verify_iso(b1, b2, phi)
               for phi in node_maps(b1, b2, place_order(b1), classes))
