"""Match sorting: hunt for occurrences of forbidden bigraphs in a host.

An occurrence is an injective, control-preserving embedding of the pattern's
nodes that commutes with the parent map (each pattern root anchoring at a
single host place) and with the link map on the pattern's ports.  Pattern
edges bind injectively to arbitrary host links; pattern outer positive names
bind to host links non-injectively; negative-port and inner-name targets must
match on the nose.  Pattern sites and name points impose nothing, so a host
node may always carry extra children and extra wiring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import node_maps
from .bigraph import Bigraph, Edge, InnerName, Port, Root
from .errors import SignatureMismatch

__all__ = [
    "Pattern", "Occurrence", "SortingResult",
    "find_matches", "check_sorting", "verify_occurrence",
]


@dataclass(frozen=True)
class Pattern:
    """A forbidden shape; must share the host's signature.

    By default a pattern root anchors at any host place, so the shape is
    found wherever it is nested.  With ``anchor_at_roots`` the pattern's
    top-level nodes must sit directly under a host root.
    """

    name: str
    bigraph: Bigraph
    anchor_at_roots: bool = False


@dataclass(frozen=True)
class Occurrence:
    """One embedding, fully determined by its node map."""

    node_map: tuple[tuple[int, int], ...]
    root_anchors: tuple[tuple[int, object], ...]


@dataclass(frozen=True)
class SortingResult:
    well_sorted: bool
    counterexamples: tuple[tuple[str, tuple[Occurrence, ...]], ...] = ()


def verify_occurrence(pattern: Bigraph, host: Bigraph,
                      node_map: dict[int, int],
                      anchor_at_roots: bool = False) -> Occurrence | None:
    """Check the embedding conditions for a complete node map; returns the
    Occurrence with its root anchors, or None."""
    if set(node_map) != set(pattern.nodes):
        return None
    if len(set(node_map.values())) != len(node_map):
        return None
    for u, w in node_map.items():
        if host.nodes.get(w) != pattern.nodes[u]:
            return None

    anchors: dict[int, object] = {}
    for u, w in node_map.items():
        pp = pattern.node_parent.get(u)
        hp = host.node_parent.get(w)
        if isinstance(pp, Root):
            if anchor_at_roots and not isinstance(hp, Root):
                return None
            if pp.index in anchors:
                if anchors[pp.index] != hp:
                    return None
            else:
                anchors[pp.index] = hp
        else:
            if hp != node_map.get(pp):
                return None

    bindings: dict[object, object] = {}
    edge_targets: set = set()
    for u, w in node_map.items():
        for k in range(pattern.nodes[u].plus):
            lp = pattern.link.get(Port(u, k))
            lh = host.link.get(Port(w, k))
            if lp is None or lh is None:
                return None
            if isinstance(lp, Port):
                if lp.node not in node_map:
                    return None
                if lh != Port(node_map[lp.node], lp.index):
                    return None
            elif isinstance(lp, InnerName):
                if lh != lp:
                    return None
            elif isinstance(lp, Edge):
                if lp in bindings:
                    if bindings[lp] != lh:
                        return None
                elif lh in edge_targets:
                    return None
                else:
                    bindings[lp] = lh
                    edge_targets.add(lh)
            else:  # OuterName: widening, non-injective
                if bindings.setdefault(lp, lh) != lh:
                    return None

    return Occurrence(
        node_map=tuple(sorted(node_map.items())),
        root_anchors=tuple(sorted(anchors.items())),
    )


def find_matches(pattern: Pattern, host: Bigraph) -> list[Occurrence]:
    """All occurrences of the pattern in the host."""
    pb = pattern.bigraph
    if pb.signature != host.signature:
        raise SignatureMismatch(
            f"pattern {pattern.name!r} uses a different signature")

    def fits(u: int, w: int, node_map: dict[int, int]) -> bool:
        if pattern.anchor_at_roots and isinstance(pb.node_parent.get(u), Root) \
                and not isinstance(host.node_parent.get(w), Root):
            return False
        # partial link screen; the full conditions run at the leaf
        for k in range(pb.nodes[u].plus):
            lp = pb.link.get(Port(u, k))
            lh = host.link.get(Port(w, k))
            if lh is None:
                return False
            if isinstance(lp, InnerName) and lh != lp:
                return False
            if isinstance(lp, Port) and lp.node in node_map \
                    and lh != Port(node_map[lp.node], lp.index):
                return False
        return True

    occs = (verify_occurrence(pb, host, node_map, pattern.anchor_at_roots)
            for node_map in node_maps(pb, host, pb.nodes, host.nodes, fits))
    return sorted((o for o in occs if o is not None), key=lambda o: o.node_map)


def check_sorting(host: Bigraph, forbidden: list[Pattern]) -> SortingResult:
    """Well-sorted iff no forbidden pattern occurs in the host."""
    hits = []
    for pattern in forbidden:
        occs = find_matches(pattern, host)
        if occs:
            hits.append((pattern.name, tuple(occs)))
    return SortingResult(well_sorted=not hits, counterexamples=tuple(hits))
