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
from .errors import InterfaceMismatch, LdbError
from .interfaces import LocalInterface, juxtapose

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


def _refresh(b: Bigraph, nodes, edges, top) -> Bigraph:
    """``b``, or when its ids meet the ``nodes`` or ``edges`` taken (none
    above ``top``), ``b`` with every id shifted by the largest id in play:
    the refresh of both ``compose`` and ``tensor``."""
    ids = b.nodes.keys() | b.edges
    if nodes.isdisjoint(ids) and edges.isdisjoint(ids):
        return b
    offset = max(top, max(ids))
    return relabel(b, {v: v + offset for v in b.nodes},
                   {e: e + offset for e in b.edges})


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
    b2 = _refresh(b2, b1.nodes.keys(), b1.edges,
                  max((*b1.nodes, *b1.edges), default=0))
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
    # Those points are looked up by (locality, text).
    limit = len(b1.link) + len(b2.link) + 2
    into2 = {(p.locality, p.text): t for p, t in b2.link.items()
             if isinstance(p, InnerName)}
    into1 = {(p.locality, p.text): t for p, t in b1.link.items()
             if isinstance(p, OuterName)}

    def chase(side: int, val):
        for _ in range(limit):
            if side == 1 and isinstance(val, OuterName):
                nxt = into2.get((val.locality, val.text))
                if nxt is None:
                    raise LdbError(f"shared name {val} has no link in b2")
                side, val = 2, nxt
            elif side == 2 and isinstance(val, InnerName):
                nxt = into1.get((val.locality, val.text))
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


def tensor(*bigraphs: Bigraph) -> Bigraph:
    """b1 (x) ... (x) bn: side-by-side juxtaposition, built in one pass.

    Defined only when no global name belongs to two operands' inner (or two
    operands' outer) interfaces; ``juxtapose`` raises LdbError otherwise.
    Each operand's localized names, sites and roots shift past those of the
    operands before it.  Its support ids are refreshed as ``compose``
    refreshes them when they collide with earlier ones.  The result
    equals the left fold of the binary product, dict order included; no
    operands give the unit.
    """
    inner = juxtapose(*(b.inner for b in bigraphs))
    outer = juxtapose(*(b.outer for b in bigraphs))
    signature = bigraphs[0].signature if bigraphs else EMPTY_SIGNATURE
    nodes: dict = {}
    edges: set[int] = set()
    site_parent: dict = {}
    node_parent: dict = {}
    link: dict = {}
    attrs: dict = {}
    top = -math.inf         # the largest support id so far
    d_in = d_out = 0        # sites and roots so far

    for b in bigraphs:
        if b.signature != signature:
            signature = signature.union(b.signature)
        b = _refresh(b, nodes.keys(), edges, top)
        top = max((top, *b.nodes, *b.edges))

        def place(p):
            return Root(p.index + d_out) if isinstance(p, Root) else p

        def ref(x):
            # global names are disjoint across operands, so stay as they are
            if isinstance(x, OuterName):
                return OuterName(x.locality + d_out, x.text) if x.locality else x
            if isinstance(x, InnerName):
                return InnerName(x.locality + d_in, x.text) if x.locality else x
            return x

        for s, p in b.site_parent.items():
            site_parent[s + d_in] = place(p)
        nodes.update(b.nodes)
        edges.update(b.edges)
        attrs.update(b.node_attrs)
        for v, p in b.node_parent.items():
            node_parent[v] = place(p)
        for p, t in b.link.items():
            link[ref(p)] = ref(t)
        d_in += b.inner.width
        d_out += b.outer.width

    return Bigraph(signature, inner, outer, nodes, edges, site_parent,
                   node_parent, link, attrs)


# -- support equivalence ----------------------------------------------------

def node_maps(b: Bigraph, image: Bigraph, kind: dict, image_kind: dict,
              fits=None):
    """Yield each injective map ``phi`` of ``place_order(b)`` into the nodes
    of ``image`` that keeps kinds (``kind[u] == image_kind[phi[u]]``) and
    places: a node under a mapped node lands under that node's image, and
    the later nodes under a root of ``b`` land beside the image of that
    root's first node.  ``fits(u, w, phi)`` must hold for each node u
    mapped to w, given the map of the nodes before u.

    The nodes of ``image`` are grouped once by kind and by (kind, parent),
    in ``image_kind``'s order, and each node of ``b`` draws from one group.
    The search keeps its own stack, so ``b`` may nest to any depth.  The
    yielded dict is the search's state: use it before resuming.
    """
    order = place_order(b)
    ids: dict = {}  # each kind of b as a small int, so group keys hash fast
    # per node: its kind, and the node whose image (``up``: whose image's
    # parent) it lands under once that node is mapped; else anywhere
    draws = []
    first: dict = {}  # per root of b, its first node
    for u in order:
        k, p = ids.setdefault(kind[u], len(ids)), b.node_parent.get(u)
        if isinstance(p, Root):
            draws.append((k, first.setdefault(p.index, u), True))
        else:
            draws.append((k, p, False))
    image_parent = image.node_parent.get
    groups: dict = {}  # kind i: its nodes; (i, p): those of them under p
    for w, k in image_kind.items():
        i = ids.get(k)
        if i is not None:
            groups.setdefault(i, []).append(w)
            groups.setdefault((i, image_parent(w)), []).append(w)
    phi: dict[int, int] = {}
    used: set[int] = set()
    if not order:
        yield phi
        return
    stack = [iter(groups.get(draws[0][0], ()))]  # per level, candidates left
    while stack:
        i = len(stack) - 1
        u = order[i]
        if u in phi:
            used.discard(phi.pop(u))
        for w in stack[i]:
            if w not in used and (fits is None or fits(u, w, phi)):
                break
        else:
            stack.pop()
            continue
        phi[u] = w
        used.add(w)
        if i + 1 == len(order):
            yield phi
            continue
        k, at, up = draws[i + 1]
        place = phi.get(at)
        if place is not None:
            k = (k, image_parent(place) if up else place)
        stack.append(iter(groups.get(k, ())))


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


def _off_nodes(b: Bigraph) -> set[int]:
    """The ids b's maps name that are no node of b (``validate`` reports
    them); a node map leaves them as they are."""
    off = {x.node for x in (*b.link, *b.link.values()) if isinstance(x, Port)}
    off.update(b.node_parent, (p for p in (*b.node_parent.values(),
                                           *b.site_parent.values())
                               if isinstance(p, int)))
    return off - b.nodes.keys()


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
    sizes = [(len(b.edges), len(b.link), len(b.node_parent), len(b.site_parent))
             for b in (b1, b2)]
    if b1.inner != b2.inner or b1.outer != b2.outer or sizes[0] != sizes[1]:
        return False
    fp1, fp2 = _fingerprints(b1), _fingerprints(b2)
    if Counter(fp1.values()) != Counter(fp2.values()):
        return False
    off = _off_nodes(b1)
    if off != _off_nodes(b2):
        return False

    # the fingerprints fix root parents, the search the rest; off ids stay
    fixed = {x: x for x in off}
    return any(_verify_iso(b1, b2, {**fixed, **phi} if fixed else phi)
               for phi in node_maps(b1, b2, fp1, fp2))
