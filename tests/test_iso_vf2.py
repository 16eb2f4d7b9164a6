"""Support equivalence on a composite of a thousand nodes, checked against
networkx's VF2 matcher on a digraph encoding of the same structure.

networkx's ``DiGraphMatcher`` rebuilds its terminal sets from every mapped
vertex at each search state, so one match costs time quadratic in the
vertex count (about 6 s at 1,091 nodes and 40 s at 2,600 on a 2-vCPU VM
with CPython 3.11); the cross-check therefore stays at about a thousand
nodes.
"""

import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher

from ldbig import Edge, InnerName, OuterName, Port, Root, assemble, \
    is_isomorphic, relabel
from genrandom import gen_chain, gen_model, gen_signature, retarget_one_link
from oracles import iso_bruteforce


def digraph(b) -> nx.DiGraph:
    """Nodes, edges, roots, sites and names as vertices.  An arc joins a
    parent to its child, and a point's node (or inner name) to its target's
    node (or link); it is labelled with every parent relation and every
    (point port, target port) pair it carries.  Roots, sites and names have
    unique labels, so an isomorphism fixes both interfaces."""
    g = nx.DiGraph()
    for v, ctrl in b.nodes.items():
        g.add_node(v, label=repr(ctrl))
    for e in b.edges:
        g.add_node(Edge(e), label="edge")
    names = [cls(i, t) for cls, face in ((InnerName, b.inner), (OuterName, b.outer))
             for i, (plus, minus) in enumerate(face.localities)
             for t in plus | minus]
    for x in names + [Root(r) for r in range(1, b.outer.width + 1)]:
        g.add_node(x, label=repr(x))
    carried: dict = {}  # (source, target) -> what the arc between them carries
    for s, p in b.site_parent.items():
        g.add_node(("site", s), label=repr(("site", s)))
        carried.setdefault((p, ("site", s)), []).append(("place",))
    for v, p in b.node_parent.items():
        carried.setdefault((p, v), []).append(("place",))
    for p, t in b.link.items():
        key = (p.node if isinstance(p, Port) else p,
               t.node if isinstance(t, Port) else t)
        carried.setdefault(key, []).append(
            ("link", p.index if isinstance(p, Port) else -1,
             t.index if isinstance(t, Port) else -1))
    for (src, dst), labels in carried.items():
        g.add_edge(src, dst, arcs=repr(sorted(labels)))
    # refine the labels by their neighbourhoods, as any isomorphism must
    # preserve them, so that VF2 meets few false candidates
    hashes = nx.weisfeiler_lehman_subgraph_hashes(
        g, edge_attr="arcs", node_attr="label", iterations=3)
    for v, h in hashes.items():
        g.nodes[v]["refined"] = h[-1]
    return g


class _LabelsFirst(DiGraphMatcher):
    """VF2 that rejects a pair on its refined labels before counting
    terminal sets; the answer is that of the plain matcher."""

    def syntactic_feasibility(self, n1, n2):
        return (self.G1.nodes[n1]["refined"] == self.G2.nodes[n2]["refined"]
                and super().syntactic_feasibility(n1, n2))


def vf2_isomorphic(b1, b2) -> bool:
    if b1.inner != b2.inner or b1.outer != b2.outer:
        return False
    return _LabelsFirst(
        digraph(b1), digraph(b2),
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["arcs"] == b["arcs"]).is_isomorphic()


pytestmark = pytest.mark.filterwarnings(
    "ignore:The hashes produced for directed graphs")


def test_the_encoding_agrees_with_bruteforce_on_small_bigraphs():
    rng = random.Random(22)
    outcomes = []
    for _ in range(80):
        sig = gen_signature(rng)
        b1 = gen_chain(rng, length=1, max_nodes=6, signature=sig)[0]
        if rng.random() < 0.5:
            b2 = relabel(b1, {v: 60 - v for v in b1.nodes},
                         {e: 60 - e for e in b1.edges})
        else:
            b2 = gen_chain(rng, length=1, max_nodes=6, signature=sig)[0]
        outcomes.append(vf2_isomorphic(b1, b2))
        assert outcomes[-1] == iso_bruteforce(b1, b2)
    assert 20 <= sum(outcomes) <= 60


def test_agrees_with_vf2_on_a_composite_of_a_thousand_nodes():
    b = assemble(gen_model(random.Random(7), n_services=280, max_networks=6,
                           max_volumes=4))
    assert len(b.nodes) >= 1000
    copy = relabel(b, {v: 10**6 - v for v in b.nodes},
                   {e: 10**6 - e for e in b.edges})
    for other, truth in ((copy, True), (retarget_one_link(copy), False)):
        assert vf2_isomorphic(b, other) is truth
        assert is_isomorphic(b, other) is truth
