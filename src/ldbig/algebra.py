"""Categorical operations on bigraphs: composition, tensor product, identity,
support relabelling, and support equivalence (isomorphism), whose node-map
search pattern matching shares."""

from __future__ import annotations

import math
from collections import defaultdict

from .bigraph import (
    Bigraph, Edge, InnerName, OuterName, Port, Root, Signature,
    EMPTY_SIGNATURE, node_groups, place_order,
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
    operands give the unit.  Assembly does not call it: ``stub_block``
    builds the tensor of the container stubs directly, and equals it.
    """
    # lists, not generators: CPython builds a tuple from a generator at a
    # guessed size and resizes it, which moves blocks between its tuple
    # free lists and fills them until the next full collection
    inner = juxtapose(*[b.inner for b in bigraphs])
    outer = juxtapose(*[b.outer for b in bigraphs])
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

def node_maps(b: Bigraph, image: Bigraph, kind: dict, groups: dict,
              fits=None):
    """Yield each injective map ``phi`` of ``place_order(b)`` into the nodes
    of ``image`` that keeps kinds (``phi[u]`` is in ``groups[kind[u]]``)
    and places: a node under a mapped node lands under that node's image,
    and the later nodes under a root of ``b`` land beside the image of
    that root's first node.  ``fits(u, w, phi)`` must hold for each node
    u mapped to w; ``phi`` then holds exactly the nodes before u, so a
    caller may keep state per depth ``len(phi)``.

    ``groups`` holds the nodes of ``image`` by kind and by (kind, parent),
    as ``node_groups`` makes them, and each node of ``b`` draws from one
    group.  The search keeps its own stack, so ``b`` may nest to any
    depth.  The yielded dict is the search's state: use it before
    resuming.
    """
    order = place_order(b)
    # per node: its kind, and the node whose image (``up``: whose image's
    # parent) it lands under once that node is mapped; else anywhere
    draws = []
    first: dict = {}  # per root of b, its first node
    for u in order:
        p = b.node_parent.get(u)
        if isinstance(p, Root):
            draws.append((kind[u], first.setdefault(p.index, u), True))
        else:
            draws.append((kind[u], p, False))
    image_parent = image.node_parent.get
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


def _vertices(b: Bigraph, code: dict, start: list, seen: list) -> None:
    """Append b's nodes, then the edges its points reach, as vertices: to
    ``start`` the parts of each one's start colour, and to ``seen`` the
    vertices that see it, each with the relation it is seen by.

    The start parts are what an isomorphism fixes: a node's control, its
    parent when that is a root or an id of no node, the sites under it,
    the names and off-node ports it links with, and an edge's names and
    off-node ports; and the relations the vertex sees others by.  Those
    are parent and child, a port onto a port (both indices) either way,
    and a port into an edge (its index) either way.  ``code`` numbers
    every part, for both sides of a refinement alike; a relation's number
    is a multiple of ``_KEY``.  No edge id enters a colour."""
    c = code.setdefault
    base = len(start)
    index = {v: base + i for i, v in enumerate(b.nodes)}
    start += [[c((k.name, k.plus, k.minus), len(code))] for k in b.nodes.values()]
    seen += [[] for _ in index]
    child = c("child", len(code)) * _KEY
    parent = c("parent", len(code)) * _KEY
    for v, x in index.items():
        p = b.node_parent.get(v)
        y = index.get(p) if isinstance(p, int) else None
        if y is not None:
            seen[y].append((x, parent))
            seen[x].append((y, child))
            start[x].append(parent)
            start[y].append(child)
        else:
            start[x].append(c(("up", p if isinstance(p, (Root, int)) else None),
                              len(code)))
    for s, p in b.site_parent.items():
        x = index.get(p) if isinstance(p, int) else None
        if x is not None:
            start[x].append(c(("site", s), len(code)))
    edges: dict[int, int] = {}
    for p, t in b.link.items():
        x = index.get(p.node) if type(p) is Port else None
        kind = type(t)
        y = index.get(t.node) if kind is Port else None
        if y is not None:
            if x is None:
                start[y].append(c(("in", t.index, p), len(code)))
                continue
            out = c(("out", p.index, t.index), len(code)) * _KEY
            into = c(("in", t.index, p.index), len(code)) * _KEY
        elif kind is Edge:
            y = edges.get(t.ident)
            if y is None:
                y = edges[t.ident] = len(start)
                start.append([c("edge", len(code))])
                seen.append([])
            if x is None:
                start[y].append(c(("point", p), len(code)))
                continue
            out = c(("joins", p.index), len(code)) * _KEY
            into = c(("member", p.index), len(code)) * _KEY
        else:
            if x is not None:
                start[x].append(c(("out", p.index, t if kind in (
                    InnerName, OuterName, Port) else None), len(code)))
            continue
        seen[y].append((x, out))
        seen[x].append((y, into))
        start[x].append(out)
        start[y].append(into)


# a relation's number times _KEY plus a colour is one int; no input that
# fits in memory has 2**32 colours
_KEY = 1 << 32


def _refine(b1: Bigraph, b2: Bigraph):
    """The coarsest colouring of b1's and b2's nodes and edges, together,
    that refines their start colours and in which two vertices of one
    colour see as many vertices of each colour by each relation: 1-WL
    colour refinement to its fixed point.  An isomorphism keeps every
    colour, so the result is None as soon as a colour holds more vertices
    of one side than of the other; else the colours of b1's nodes and of
    b2's, in node order.

    Each round refines every colour by what its vertices see of the
    splitters, the colours the last round made.  A colour that splits
    makes splitters of its parts, all but the largest, so a vertex is in
    a splitter O(log n) times (Hopcroft's rule), and a round costs what
    the splitters' vertices see."""
    code: dict = {}
    start: list[list[int]] = []
    seen: list[list] = []
    _vertices(b1, code, start, seen)
    n1 = len(start)
    _vertices(b2, code, start, seen)
    cells: dict = {}
    for x, parts in enumerate(start):
        parts.sort()
        cells.setdefault(tuple(parts), []).append(x)
    colour = [0] * len(start)
    members: list[set] = []
    for k, cell in enumerate(cells.values()):
        if 2 * sum(x < n1 for x in cell) != len(cell):
            return None
        for x in cell:
            colour[x] = k
        members.append(set(cell))
    # a start colour counts its vertex's relations, so what a vertex sees
    # of the largest colour follows from what it sees of the others
    splitters = sorted(range(len(members)), key=lambda k: len(members[k]))[:-1]
    while splitters:
        sees: dict[int, list] = defaultdict(list)
        for s in splitters:
            for y in members[s]:
                for x, rel in seen[y]:
                    sees[x].append(rel + s)
        splits: dict[int, dict] = {}
        for x, keys in sees.items():
            keys.sort()
            splits.setdefault(colour[x], {}).setdefault(tuple(keys), []).append(x)
        splitters = []
        for k, split in splits.items():
            cell = members[k]
            if len(split) == 1 and len(next(iter(split.values()))) == len(cell):
                continue
            # the vertices no splitter reaches keep colour k; the others move
            parts = [k]
            for part in split.values():
                if 2 * sum(x < n1 for x in part) != len(part):
                    return None
                cell.difference_update(part)
                for x in part:
                    colour[x] = len(members)
                parts.append(len(members))
                members.append(set(part))
            parts.remove(max(parts, key=lambda j: len(members[j])))
            splitters += parts
    return ({v: colour[i] for i, v in enumerate(b1.nodes)},
            {w: colour[n1 + i] for i, w in enumerate(b2.nodes)})


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
    off = _off_nodes(b1)
    if off != _off_nodes(b2):
        return False
    colours = _refine(b1, b2)
    if colours is None:
        return False

    # the colours fix root parents, the search the rest; off ids stay
    fixed = {x: x for x in off}
    kind, image_kind = colours
    groups = node_groups(image_kind.items(), b2.node_parent)
    return any(_verify_iso(b1, b2, {**fixed, **phi} if fixed else phi)
               for phi in node_maps(b1, b2, kind, groups))
