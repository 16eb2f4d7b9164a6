"""The local directed bigraph structure and its well-formedness check.

A bigraph couples a place forest (nodes and sites nested under roots) with a
directed link map from points to links.  Points are positive inner names,
negative outer names, and positive node ports; links are negative inner
names, positive outer names, edges, and negative node ports.  The classes
``InnerName``/``OuterName``/``Port`` play both roles: polarity follows from
the position (key = point, value = link).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Union

from .interfaces import LocalInterface


# Points, links and roots are tuples whose first item is a tag, one per
# class, so that hashing and equality run in C and an inner and an outer name
# with the same locality and text stay different points, and different dict
# keys.  Fields are read-only properties over the items that follow the tag.
_new = tuple.__new__


class InnerName(tuple):
    """Inner-interface name at a locality (0 = global).

    As a point it is positive; as a link target it is negative.
    """

    __slots__ = ()

    def __new__(cls, locality: int, text: str):
        return _new(cls, (0, locality, text))

    locality = property(itemgetter(1))
    text = property(itemgetter(2))

    def __repr__(self):
        return f"InnerName(locality={self[1]!r}, text={self[2]!r})"

    def __str__(self):
        return f"{self[2]}@{self[1]}i"


class OuterName(tuple):
    """Outer-interface name at a locality (0 = global).

    As a point it is negative; as a link target it is positive.
    """

    __slots__ = ()

    def __new__(cls, locality: int, text: str):
        return _new(cls, (1, locality, text))

    locality = property(itemgetter(1))
    text = property(itemgetter(2))

    def __repr__(self):
        return f"OuterName(locality={self[1]!r}, text={self[2]!r})"

    def __str__(self):
        return f"{self[2]}@{self[1]}o"


class Port(tuple):
    """A node port: positive (source) as a point, negative (target) as a link."""

    __slots__ = ()

    def __new__(cls, node: int, index: int):
        return _new(cls, (2, node, index))

    node = property(itemgetter(1))
    index = property(itemgetter(2))

    def __repr__(self):
        return f"Port(node={self[1]!r}, index={self[2]!r})"

    def __str__(self):
        return f"{self[1]}:{self[2]}"


class Edge(tuple):
    """A closed link; edges may receive points from any locality."""

    __slots__ = ()

    def __new__(cls, ident: int):
        return _new(cls, (3, ident))

    ident = property(itemgetter(1))

    def __repr__(self):
        return f"Edge(ident={self[1]!r})"

    def __str__(self):
        return f"e{self[1]}"


class Root(tuple):
    """A root region of the outer interface (index >= 1)."""

    __slots__ = ()

    def __new__(cls, index: int):
        return _new(cls, (4, index))

    index = property(itemgetter(1))

    def __repr__(self):
        return f"Root(index={self[1]!r})"

    def __str__(self):
        return f"r{self[1]}"


Point = Union[InnerName, OuterName, Port]
Link = Union[InnerName, OuterName, Port, Edge]
Place = Union[int, Root]  # parent: a node id or a root


@dataclass(frozen=True)
class Control:
    """A node type with a polarized arity: ``plus`` source ports, ``minus``
    target ports."""

    name: str
    plus: int
    minus: int

    def __post_init__(self):
        if self.plus < 0 or self.minus < 0:
            raise ValueError("port counts must be non-negative")


@dataclass(frozen=True)
class Signature:
    """The set of admissible controls.

    ``fixed`` maps a control name to its single arity; names in
    ``parametric`` admit any arity (each node records its own).
    """

    fixed: tuple[Control, ...] = ()
    parametric: frozenset[str] = frozenset()

    def __post_init__(self):
        by_name = {}
        for c in self.fixed:
            if c.name in by_name:
                raise ValueError(f"duplicate control {c.name!r}")
            by_name[c.name] = c
        if set(by_name) & self.parametric:
            raise ValueError("a control cannot be both fixed and parametric")
        object.__setattr__(self, "fixed", tuple(sorted(self.fixed, key=lambda c: c.name)))
        object.__setattr__(self, "parametric", frozenset(self.parametric))
        object.__setattr__(self, "_by_name", by_name)

    def lookup(self, name: str) -> Control | None:
        return self._by_name.get(name)

    def admits(self, control: Control) -> bool:
        if control.name in self.parametric:
            return True
        found = self.lookup(control.name)
        return found == control

    def union(self, other: "Signature") -> "Signature":
        """Merge two signatures; same-name fixed controls must agree."""
        mine = {c.name: c for c in self.fixed}
        for c in other.fixed:
            if c.name in mine and mine[c.name] != c:
                raise ValueError(f"conflicting arities for control {c.name!r}")
            mine[c.name] = c
        return Signature(tuple(mine.values()), self.parametric | other.parametric)


EMPTY_SIGNATURE = Signature()


@dataclass(frozen=True)
class Violation:
    """One failed well-formedness clause, naming the offending element."""

    clause: str
    subject: str
    detail: str = ""

    def __str__(self):
        msg = f"[{self.clause}] {self.subject}"
        return f"{msg}: {self.detail}" if self.detail else msg


class Bigraph:
    """An immutable local directed bigraph from ``inner`` to ``outer``.

    Construction is permissive: structurally broken values can be built so
    that :func:`validate` can report on them.  The container and
    environment builders pass plain dicts that are well-formed by
    construction, and the algebra operations keep a value well-formed.

    The maps passed in are copied, but each node's attribute dict is held
    as given and shared, read-only, with every value built from this one:
    a caller hands over attribute dicts it no longer changes.
    """

    __slots__ = (
        "signature", "inner", "outer", "nodes", "edges",
        "site_parent", "node_parent", "link", "node_attrs", "_child_cache",
        "_place_cache", "_control_cache",
    )

    def __init__(self, signature: Signature, inner: LocalInterface,
                 outer: LocalInterface, nodes: dict[int, Control],
                 edges, site_parent: dict[int, Place],
                 node_parent: dict[int, Place], link: dict[Point, Link],
                 node_attrs: dict[int, dict] | None = None):
        self.signature = signature
        self.inner = inner
        self.outer = outer
        self.nodes = dict(nodes)
        self.edges = frozenset(edges)
        self.site_parent = dict(site_parent)
        self.node_parent = dict(node_parent)
        self.link = dict(link)
        self.node_attrs = {v: a for v, a in (node_attrs or {}).items() if a}
        self._child_cache = None
        self._place_cache = None
        self._control_cache = None

    def __eq__(self, other):
        if not isinstance(other, Bigraph):
            return NotImplemented
        return (self.signature == other.signature
                and self.inner == other.inner and self.outer == other.outer
                and self.nodes == other.nodes and self.edges == other.edges
                and self.site_parent == other.site_parent
                and self.node_parent == other.node_parent
                and self.link == other.link
                and self.node_attrs == other.node_attrs)

    __hash__ = None

    def __repr__(self):
        return (f"<Bigraph {self.inner.pretty()} -> {self.outer.pretty()} "
                f"nodes={len(self.nodes)} edges={len(self.edges)}>")

    # -- derived structure -------------------------------------------------

    def attrs(self, node: int) -> dict:
        return self.node_attrs.get(node, {})

    def children(self, place: Place) -> tuple[int, ...]:
        """Nodes whose parent is ``place``, in increasing order."""
        return self._children()[0].get(place, ())

    def sites_under(self, place: Place) -> tuple[int, ...]:
        """Sites whose parent is ``place``, in increasing order."""
        return self._children()[1].get(place, ())

    def _children(self):
        """Per place, its child nodes and its child sites, each sorted."""
        if self._child_cache is None:
            self._child_cache = (_invert(self.node_parent),
                                 _invert(self.site_parent))
        return self._child_cache

    def _places(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """The one walk of the place forest: breadth-first from the roots
        over the child index, giving the nodes parent-first and the root
        index each reached node lies under.

        Nodes on a parent cycle or under a dangling parent are never
        reached: they follow in id order and have no root.
        """
        if self._place_cache is None:
            nodes, under = self.nodes, self._children()[0]
            order = [v for v in sorted(nodes)
                     if isinstance(self.node_parent.get(v), Root)]
            root_of = {v: self.node_parent[v].index for v in order}
            for v in order:  # a queue: the walk appends as it goes
                for u in under.get(v, ()):
                    if u in nodes:
                        order.append(u)
                        root_of[u] = root_of[v]
            order.extend(sorted(nodes.keys() - root_of.keys()))
            self._place_cache = (tuple(order), root_of)
        return self._place_cache

    def _by_control(self) -> dict:
        """The ``node_groups`` of the nodes by control: the index every
        pattern matched in this bigraph draws its candidates from."""
        if self._control_cache is None:
            self._control_cache = node_groups(self.nodes.items(),
                                              self.node_parent)
        return self._control_cache


def place_order(b: Bigraph) -> tuple[int, ...]:
    """Nodes in parent-before-child order; those not under a root last."""
    return b._places()[0]


def node_groups(kinds, parent: dict) -> dict:
    """The nodes of each kind and of each (kind, parent), in the order of
    ``kinds``, its (node, kind) pairs: the groups ``algebra.node_maps``
    draws a node's candidates from."""
    groups: dict = {}
    for w, k in kinds:
        groups.setdefault(k, []).append(w)
        groups.setdefault((k, parent.get(w)), []).append(w)
    return groups


def _invert(parent: dict) -> dict:
    """Map each parent to the sorted tuple of the keys placed under it."""
    under: dict = {}
    for x, p in parent.items():
        try:
            under.setdefault(p, []).append(x)
        except TypeError:  # an unhashable parent is no place to look up
            pass
    return {p: tuple(sorted(xs)) for p, xs in under.items()}


def _hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


def validate(b: Bigraph) -> list[Violation]:
    """Check every well-formedness clause; an empty list means ok.

    Clauses are reported in a fixed order, and within one clause by node,
    site or point; only the faults found are sorted."""
    out: list[Violation] = []
    nodes, node_parent, link = b.nodes, b.node_parent, b.link

    shared = nodes.keys() & b.edges
    if shared:
        out.append(Violation("support", f"ids {sorted(shared)}",
                             "node and edge identifiers overlap"))

    admits = b.signature.admits
    if not all(map(admits, {id(c): c for c in nodes.values()}.values())):
        for v, ctrl in sorted(nodes.items()):
            if not admits(ctrl):
                out.append(Violation(
                    "control", f"node {v}",
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
            if parent not in nodes:
                out.append(Violation("parent", f"{kind} {key}",
                                     f"unknown node {parent}"))
        else:
            out.append(Violation("parent", f"{kind} {key}",
                                 f"bad parent {parent!r}"))

    for s in sorted(sites):
        check_parent("site", s, b.site_parent.get(s))
    for s in sorted(b.site_parent.keys() - sites):
        out.append(Violation("parent", f"site {s}", "not a site of the inner interface"))
    # a node under a node or a known root is fine; check_parent words the rest
    odd = [v for v, p in node_parent.items()
           if not (p in nodes if type(p) is int
                   else type(p) is Root and p.index in roots)]
    for v in sorted(nodes.keys() - (node_parent.keys() - odd)):
        check_parent("node", v, node_parent.get(v))
    for v in sorted(node_parent.keys() - nodes.keys()):
        out.append(Violation("parent", f"node {v}", "not a node of this bigraph"))

    root_of = b._places()[1]
    for v in sorted(v for v in node_parent.keys() & nodes.keys()
                    if root_of.get(v) is None):
        out.append(Violation("forest", f"node {v}",
                             "never reaches a root (cycle or dangling parent)"))

    # link map: totality, targets, locality, in one pass over its items. A
    # key is a point, and a target a link, when it equals one, as in a set
    # of them: "0" is no index and True is 1. Fields are read by position:
    # a port's node and index, a name's locality, an edge's id
    inner, outer, edges = b.inner.localities, b.outer.localities, b.edges
    nowhere = object()  # the region of what is no point or link
    # each inner locality's region: global, or that of its site's parent
    site = {s: p.index if isinstance(p, Root) else
            root_of.get(p) if isinstance(p, int) else None
            for s, p in b.site_parent.items()} | {0: 0}
    # the names that are points (positive inner, negative outer) and links
    points, links = (
        {InnerName(i, t) for i, loc in enumerate(inner) for t in loc[side]}
        | {OuterName(i, t) for i, loc in enumerate(outer) for t in loc[1 - side]}
        for side in (0, 1))
    strays = []   # keys that are no point
    faults = []   # at most one per point
    preimage: dict[Link, int] = {}   # points per inner or outer name target
    for p, target in link.items():
        kind = type(p)
        if kind is Port:
            ctrl, i = nodes.get(p[1]), p[2]
            lp = (root_of.get(p[1]) if ctrl is not None and (
                type(i) is int and 0 <= i < ctrl.plus or i in range(ctrl.plus))
                else nowhere)
        elif kind is OuterName:
            lp = p[1] if p in points else nowhere
        else:
            lp = site.get(p[1]) if kind is InnerName and p in points else nowhere
        if lp is nowhere:
            strays.append(p)
            continue
        kind = type(target)
        try:  # a field that is unhashable names no link
            if kind is Edge:
                if target[1] in edges:
                    continue
                lt = nowhere
            elif kind is Port:
                ctrl, i = nodes.get(target[1]), target[2]
                lt = (root_of.get(target[1]) if ctrl is not None and (
                    type(i) is int and 0 <= i < ctrl.minus
                    or i in range(ctrl.minus)) else nowhere)
            elif kind is OuterName or kind is InnerName:
                preimage[target] = preimage.get(target, 0) + 1
                lt = (nowhere if target not in links else
                      target[1] if kind is OuterName else site.get(target[1]))
            else:
                lt = nowhere
        except TypeError:
            lt = nowhere
        if lt is nowhere:
            faults.append(Violation(
                "link-target", str(p),
                f"target {target} is not a link of this bigraph"))
        # an unresolvable region is already reported via forest/parent; a
        # link is reachable from its own region or, when global, from all;
        # a global point crossing into one region would break composition
        elif lp is not None and lt is not None and lt != 0 and lp != lt:
            faults.append(Violation(
                "link-locality", str(p),
                f"point in region {lp} targets {target} in region {lt}"))
    if len(link) - len(strays) != len(points) + sum(
            map(attrgetter("plus"), nodes.values())):
        missing = chain(points, (Port(v, k) for v, c in nodes.items()
                                 for k in range(c.plus)))
        for p in sorted((p for p in missing if p not in link), key=str):
            out.append(Violation("link-total", str(p), "point has no link"))
    for p in sorted(strays, key=str):
        out.append(Violation("link-domain", str(p), "not a point of this bigraph"))
    faults.sort(key=attrgetter("subject"))
    out.extend(faults)

    # pass-through names must have exactly one point
    # inner names are points when positive, outer names when negative
    for cls, localities, side in (
            (InnerName, inner, "inner"),
            (OuterName, [(m, p) for p, m in outer], "outer")):
        for i, (sources, targets) in enumerate(localities):
            hit = {x for t in sources if _hashable(x := link.get(cls(i, t)))}
            bad = [x for x in hit
                   if isinstance(x, cls) and x.locality == i
                   and x.text in targets and preimage.get(x, 0) != 1]
            for x in sorted(bad, key=str):
                out.append(Violation("passthrough", str(x),
                                     f"{preimage.get(x, 0)} points target "
                                     f"a pass-through {side} name"))
    return out

