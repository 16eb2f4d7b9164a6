"""Match sorting: hunt for occurrences of forbidden bigraphs in a host.

An occurrence is an injective, control-preserving embedding of the pattern's
nodes that commutes with the parent map (each pattern root anchoring at a
single host place) and with the link map on the pattern's ports.  Pattern
edges bind injectively to arbitrary host links; pattern outer positive names
bind to host links non-injectively; negative-port and inner-name targets must
match on the nose.  Pattern sites and name points impose nothing, so a host
node may always carry extra children and extra wiring.

``find_matches`` draws each node's candidates from the host's index by
control and checks each condition as soon as the nodes it names are mapped,
so every complete map it reaches is an occurrence; ``verify_occurrence``
runs the same search with each node pinned to its image.  The tests check
both against the brute-force matcher in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import node_maps
from .bigraph import (
    Bigraph, Edge, InnerName, Port, Root, node_groups, place_order,
)
from .errors import SignatureMismatch

__all__ = [
    "Pattern", "Occurrence", "SortingResult",
    "find_matches", "check_sorting", "verify_occurrence",
]


class Pattern(NamedTuple):
    """A forbidden shape; must share the host's signature.

    By default a pattern root anchors at any host place, so the shape is
    found wherever it is nested.  With ``anchor_at_roots`` the pattern's
    top-level nodes must sit directly under a host root.
    """

    name: str
    bigraph: Bigraph
    anchor_at_roots: bool = False


class Occurrence(NamedTuple):
    """One embedding, fully determined by its node map."""

    node_map: tuple[tuple[int, int], ...]
    root_anchors: tuple[tuple[int, object], ...]


class SortingResult(NamedTuple):
    well_sorted: bool
    counterexamples: tuple[tuple[str, tuple[Occurrence, ...]], ...] = ()


def verify_occurrence(pattern: Bigraph, host: Bigraph,
                      node_map: dict[int, int],
                      anchor_at_roots: bool = False) -> Occurrence | None:
    """The Occurrence a complete node map is, or None: ``find_matches``'
    search with each node pinned to its image."""
    if set(node_map) != set(pattern.nodes) or any(
            host.nodes.get(w) != pattern.nodes[u] for u, w in node_map.items()):
        return None
    groups = node_groups([(w, u) for u, w in node_map.items()],
                         host.node_parent)
    return next(_occurrences(pattern, host, {u: u for u in node_map}, groups,
                             anchor_at_roots), None)


def find_matches(pattern: Pattern, host: Bigraph) -> list[Occurrence]:
    """All occurrences of the pattern in the host."""
    pb = pattern.bigraph
    if pb.signature != host.signature:
        raise SignatureMismatch(
            f"pattern {pattern.name!r} uses a different signature")
    # distinct maps, so the occurrences sort by their node maps
    return sorted(_occurrences(pb, host, pb.nodes, host._by_control(),
                               pattern.anchor_at_roots))


def _occurrences(pb: Bigraph, host: Bigraph, kind: dict, groups: dict,
                 anchor_at_roots: bool):
    """Yield each occurrence of ``pb`` in ``host``, as ``node_maps`` draws it."""
    host_link, host_parent = host.link.get, host.node_parent.get
    order = place_order(pb)
    at = {u: i for i, u in enumerate(order)}
    # what mapping u settles about u and the nodes before it: the nodes x
    # whose image's parent is u's image (True) or none (False), and the
    # ports (x, k) and their links lp; the search places the other nodes
    placed: dict = {u: [] for u in order}
    links: dict = {u: [] for u in order}
    firsts: dict = {}  # per pattern root, its first node
    for u in order:
        p = pb.node_parent.get(u)
        if isinstance(p, Root):
            firsts.setdefault(p.index, u)
        elif p not in at or at[p] >= at[u]:  # no pattern node, or a cycle
            placed[p if p in at else u].append((u, p in at))
        for k in range(pb.nodes[u].plus):
            lp = pb.link.get(Port(u, k))
            if lp is None or isinstance(lp, Port) and lp.node not in at:
                return
            # a port onto a port is settled by the later of the two nodes
            later = max(u, lp.node, key=at.get) if isinstance(lp, Port) else u
            links[later].append((u, k, lp))
    anchored = set(firsts.values()) if anchor_at_roots else set()
    bound: dict = {}      # each pattern edge and outer name bound: its host link
    claimed: set = set()  # the host links pattern edges are bound to
    made: list = []       # (depth, pattern edge or outer name), as bound

    def fits(u: int, w: int, phi: dict[int, int]) -> bool:
        # phi holds exactly the nodes before u, so the image of u or of a
        # node before it is phi.get(x, w); what was bound at u's depth or
        # deeper belongs to maps the search has left
        depth = len(phi)
        while made and made[-1][0] >= depth:
            lp = made.pop()[1]
            if isinstance(lp, Edge):
                claimed.discard(bound[lp])
            del bound[lp]
        if u in anchored and not isinstance(host_parent(w), Root):
            return False
        for x, under in placed[u]:
            if host_parent(phi.get(x, w)) != (w if under else None):
                return False
        for x, k, lp in links[u]:
            lh = host_link(Port(phi.get(x, w), k))
            if lh is None:
                return False
            if isinstance(lp, Port):
                if lh != Port(phi.get(lp.node, w), lp.index):
                    return False
            elif isinstance(lp, InnerName):
                if lh != lp:
                    return False
            elif lp in bound:
                if bound[lp] != lh:
                    return False
            elif isinstance(lp, Edge) and lh in claimed:  # edges bind injectively
                return False
            else:
                bound[lp] = lh
                made.append((depth, lp))
                if isinstance(lp, Edge):
                    claimed.add(lh)
        return True

    anchors = sorted(firsts.items())
    for phi in node_maps(pb, host, kind, groups, fits):
        yield Occurrence(tuple(sorted(phi.items())),
                         tuple((r, host_parent(phi[u])) for r, u in anchors))


def check_sorting(host: Bigraph, forbidden: list[Pattern]) -> SortingResult:
    """Well-sorted iff no forbidden pattern occurs in the host."""
    hits = tuple((pattern.name, tuple(occs)) for pattern in forbidden
                 if (occs := find_matches(pattern, host)))
    return SortingResult(well_sorted=not hits, counterexamples=hits)
