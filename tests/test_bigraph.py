import random

import pytest

from ldbig import (
    Bigraph, Control, Edge, InnerName, LocalInterface,
    OuterName, Port, Root, Signature, identity, validate,
)
from ldbig.bigraph import Violation, place_order
from genrandom import gen_chain
from oracles import node_root


SIG = Signature(fixed=(Control("A", 1, 1), Control("B", 2, 0)))


def clauses(b):
    return {v.clause for v in validate(b)}


def test_identity_is_well_formed():
    i = LocalInterface.of((set(), set()), ({"a"}, {"b"}))
    ident = identity(i)
    assert validate(ident) == []
    assert ident.site_parent == {1: Root(1)}
    assert ident.link[InnerName(1, "a")] == OuterName(1, "a")
    assert ident.link[OuterName(1, "b")] == InnerName(1, "b")


def test_parent_cycle_is_a_forest_violation():
    b = Bigraph(SIG, LocalInterface.of(), LocalInterface.of((set(), set()), (set(), set())),
                nodes={1: Control("A", 1, 1), 2: Control("A", 1, 1)},
                edges=set(), site_parent={},
                node_parent={1: 2, 2: 1},
                link={Port(1, 0): Port(2, 0), Port(2, 0): Port(1, 0)})
    assert "forest" in clauses(b)


def test_cross_region_port_link_is_a_locality_violation():
    # node under root 1 pointing at a localized name of root 2
    outer = LocalInterface.of((set(), set()), (set(), set()), ({"x"}, set()))
    b = Bigraph(SIG, LocalInterface.of(), outer,
                nodes={1: Control("A", 1, 0)}, edges=set(), site_parent={},
                node_parent={1: Root(1)},
                link={Port(1, 0): OuterName(2, "x")})
    assert b.region_of(Port(1, 0)) == 1
    assert b.region_of(OuterName(2, "x")) == 2
    assert "link-locality" in clauses(b)


def test_edges_and_globals_cross_regions_freely():
    outer = LocalInterface.of(({"g"}, set()), (set(), set()), (set(), set()))
    # an A under root 1 and a B under root 2 share edge 3
    b = Bigraph(SIG, LocalInterface.of(), outer,
                {1: SIG.lookup("A"), 2: SIG.lookup("B")}, {3}, {},
                {1: Root(1), 2: Root(2)},
                {Port(1, 0): Edge(3), Port(2, 0): Edge(3),
                 Port(2, 1): OuterName(0, "g")})
    assert validate(b) == []


def test_missing_point_is_reported():
    inner = LocalInterface.of((set(), set()), ({"a"}, set()))
    outer = LocalInterface.of((set(), set()), (set(), set()))
    b = Bigraph(SIG, inner, outer, nodes={}, edges=set(),
                site_parent={1: Root(1)}, node_parent={}, link={})
    assert "link-total" in clauses(b)


def test_unknown_target_is_reported():
    outer = LocalInterface.of((set(), set()), (set(), set()))
    b = Bigraph(SIG, LocalInterface.of(), outer,
                nodes={1: Control("A", 1, 0)}, edges=set(), site_parent={},
                node_parent={1: Root(1)}, link={Port(1, 0): Edge(99)})
    assert "link-target" in clauses(b)


def test_passthrough_needs_exactly_one_point():
    inner = LocalInterface.of((set(), set()), ({"a"}, {"b"}))
    outer = LocalInterface.of((set(), set()), (set(), set()))

    def build(extra_point: bool) -> Bigraph:
        nodes = {1: Control("A", 1, 0)} if extra_point else {}
        link = {InnerName(1, "a"): InnerName(1, "b")}
        node_parent = {}
        if extra_point:
            link[Port(1, 0)] = InnerName(1, "b")
            node_parent = {1: Root(1)}
        return Bigraph(SIG, inner, outer, nodes, set(),
                       {1: Root(1)}, node_parent, link)

    assert validate(build(extra_point=False)) == []
    assert "passthrough" in clauses(build(extra_point=True))


def test_control_must_be_admitted():
    outer = LocalInterface.of((set(), set()), (set(), set()))
    b = Bigraph(SIG, LocalInterface.of(), outer,
                nodes={1: Control("Z", 0, 0)}, edges=set(), site_parent={},
                node_parent={1: Root(1)}, link={})
    assert "control" in clauses(b)


def test_overlapping_node_and_edge_ids():
    outer = LocalInterface.of((set(), set()), (set(), set()))
    b = Bigraph(SIG, LocalInterface.of(), outer,
                nodes={1: Control("A", 0, 0)}, edges={1}, site_parent={},
                node_parent={1: Root(1)}, link={})
    assert "support" in clauses(b)


ONE_SITE = LocalInterface.of((set(), set()), (set(), set()))


@pytest.mark.parametrize("b, violation", [
    pytest.param(Bigraph(SIG, ONE_SITE, ONE_SITE, {}, set(), {}, {}, {}),
                 Violation("parent", "site 1", "no parent"), id="no parent"),
    pytest.param(Bigraph(SIG, ONE_SITE, ONE_SITE, {}, set(), {1: "r1"}, {},
                         {}),
                 Violation("parent", "site 1", "bad parent 'r1'"),
                 id="bad parent"),
    pytest.param(Bigraph(SIG, LocalInterface.of(), ONE_SITE, {}, set(),
                         {2: Root(1)}, {}, {}),
                 Violation("parent", "site 2",
                           "not a site of the inner interface"),
                 id="not a site"),
    pytest.param(Bigraph(SIG, LocalInterface.of(), ONE_SITE, {}, set(), {},
                         {7: Root(1)}, {}),
                 Violation("parent", "node 7", "not a node of this bigraph"),
                 id="not a node"),
    pytest.param(Bigraph(SIG, LocalInterface.of(), ONE_SITE, {}, {3}, {}, {},
                         {InnerName(0, "z"): Edge(3)}),
                 Violation("link-domain", "z@0i",
                           "not a point of this bigraph"),
                 id="link-domain"),
])
def test_each_clause_names_its_subject(b, violation):
    assert validate(b) == [violation]


def test_an_unhashable_parent_is_reported_not_raised():
    # the child index cannot key a list, so it leaves node 2 out
    leaf = Control("C", 0, 0)
    b = Bigraph(Signature(fixed=(leaf,)), LocalInterface.of(), ONE_SITE,
                {1: leaf, 2: leaf}, set(), {}, {1: Root(1), 2: [1]}, {})
    assert [str(v) for v in validate(b)] == [
        "[parent] node 2: bad parent [1]",
        "[forest] node 2: never reaches a root (cycle or dangling parent)"]


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: Control("A", -1, 0),
                 "port counts must be non-negative", id="negative ports"),
    pytest.param(lambda: Signature(fixed=(Control("A", 0, 0),
                                          Control("A", 1, 1))),
                 "duplicate control 'A'", id="duplicate"),
    pytest.param(lambda: Signature(fixed=(Control("A", 0, 0),),
                                   parametric=frozenset({"A"})),
                 "a control cannot be both fixed and parametric",
                 id="fixed and parametric"),
    pytest.param(lambda: SIG.union(Signature(fixed=(Control("A", 0, 0),))),
                 "conflicting arities for control 'A'", id="union arities"),
    pytest.param(lambda: SIG.union(Signature(parametric=frozenset({"A"}))),
                 "a control cannot be both fixed and parametric",
                 id="union fixed and parametric"),
])
def test_signature_errors(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_attrs_and_parametric_arities():
    # box 1 holds two procs of different arities; proc 2 reaches edge 4
    sig = Signature(fixed=(Control("box", 0, 1),),
                    parametric=frozenset({"proc"}))
    outer = LocalInterface.of((set(), set()), (set(), {"c"}))
    b = Bigraph(sig, LocalInterface.of(), outer,
                {1: sig.lookup("box"), 2: Control("proc", 2, 1),
                 3: Control("proc", 0, 0)}, {4}, {},
                {1: Root(1), 2: 1, 3: 1},
                {Port(2, 0): Edge(4), Port(2, 1): Port(1, 0),
                 OuterName(1, "c"): Port(2, 0)},
                {1: {"name": "it"}})
    assert validate(b) == []
    assert b.attrs(1) == {"name": "it"}
    assert b.attrs(2) == b.attrs(3) == {}


def test_random_bigraphs_validate():
    rng = random.Random(7)
    for _ in range(60):
        for b in gen_chain(rng, length=2, max_nodes=6):
            assert validate(b) == [], validate(b)


def test_child_index_matches_a_scan_of_the_parent_maps():
    rng = random.Random(54)
    for _ in range(200):
        b = gen_chain(rng, length=1, max_nodes=8)[0]
        for place in [Root(r) for r in range(1, b.outer.width + 1)] + list(b.nodes):
            kids = b.children(place)
            assert kids == tuple(sorted(v for v, p in b.node_parent.items()
                                        if p == place))
            assert b.sites_under(place) == tuple(sorted(
                s for s, p in b.site_parent.items() if p == place))
            assert b.children(place) is kids  # built once, then shared


def with_broken_forest(rng, b):
    """``b`` with a parent cycle, a dangling parent and a parent entry for an
    id that is not a node, each planted at random."""
    parent = dict(b.node_parent)
    nodes = sorted(b.nodes)
    places = [Root(r) for r in range(1, b.outer.width + 1)] + nodes
    stranger = max(nodes, default=0) + 100  # no node of b
    if nodes and rng.random() < 0.5:
        ring = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
        for u, w in zip(ring, ring[1:] + ring[:1]):
            parent[u] = w
    if nodes and rng.random() < 0.5:
        v = rng.choice(nodes)
        if rng.random() < 0.5:
            parent[v] = stranger
        else:
            del parent[v]
    if places and rng.random() < 0.5:
        parent[stranger + 1] = rng.choice(places)
        if nodes and rng.random() < 0.5:
            parent[rng.choice(nodes)] = stranger + 1
    return Bigraph(b.signature, b.inner, b.outer, b.nodes, b.edges,
                   b.site_parent, parent, b.link)


def test_regions_and_place_order_match_a_walk_up_the_parents():
    rng = random.Random(55)
    rootless = 0
    for _ in range(300):
        b = with_broken_forest(rng, gen_chain(rng, length=1, max_nodes=8)[0])
        roots = {v: node_root(b, v) for v in b.nodes}
        rootless += sum(r is None for r in roots.values())
        for v in b.nodes:
            assert b.node_region(v) == roots[v]
        for s, p in b.site_parent.items():
            want = p.index if isinstance(p, Root) else node_root(b, p)
            assert b.site_region(s) == want

        order = place_order(b)
        assert sorted(order) == sorted(b.nodes)  # every node, once
        pos = {v: i for i, v in enumerate(order)}
        # the nodes under a root come first, each after its parent
        unrooted = [roots[v] is None for v in order]
        assert unrooted == sorted(unrooted)
        for v in order:
            p = b.node_parent.get(v)
            if roots[v] is not None and not isinstance(p, Root):
                assert pos[p] < pos[v]
        assert place_order(b) is order  # walked once, then shared
    assert rootless > 100


def test_foreign_keys_and_targets_are_reported_not_raised():
    outer = LocalInterface.of((set(), set()), (set(), set()))

    def one_node(link):
        return Bigraph(SIG, LocalInterface.of(), outer,
                       {1: Control("A", 1, 1)}, set(), {}, {1: Root(1)}, link)

    # a key in place of the one point, and a target that is no link
    assert [(v.clause, v.subject) for v in validate(one_node(
        {"y": Port(1, 0)}))] == [("link-total", "1:0"), ("link-domain", "y")]
    assert [(v.clause, v.subject) for v in validate(one_node(
        {Port(1, 0): "x"}))] == [("link-target", "1:0")]


def test_regions_of_edges_and_of_what_is_no_point_or_link():
    b = Bigraph(SIG, LocalInterface.of(), LocalInterface.of(), {}, {1}, {},
                {}, {})
    assert b.region_of(Edge(1)) is None
    with pytest.raises(TypeError, match="not a point or link: 'x'"):
        b.region_of("x")


def test_repr_equality_and_names():
    outer = LocalInterface.of(({"g"}, set()), (set(), set()))
    b = Bigraph(SIG, LocalInterface.of(), outer, {1: Control("A", 1, 1)},
                {2}, {}, {1: Root(1)}, {Port(1, 0): Edge(2)})
    assert repr(b) == \
        "<Bigraph <({},{})> -> <({g},{}),({},{})> nodes=1 edges=1>"
    assert b.__eq__(repr(b)) is NotImplemented and b != repr(b)
    assert b == Bigraph(SIG, b.inner, b.outer, b.nodes, b.edges,
                        b.site_parent, b.node_parent, b.link)
    assert [str(x) for x in (Root(2), Edge(3), Port(1, 0), InnerName(1, "a"),
                             OuterName(0, "b"))] == \
        ["r2", "e3", "1:0", "a@1i", "b@0o"]
