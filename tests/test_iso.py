import random

import pytest

from ldbig import (
    Bigraph, Control, Edge, InnerName, LocalInterface,
    OuterName, Port, Root, Signature, assemble, default_signature,
    is_isomorphic, relabel, validate,
)
from ldbig.algebra import _refine, _verify_iso
from genrandom import (
    gen_chain, gen_model, gen_signature, permute_services, retarget_one_link,
)
from oracles import iso_bruteforce

SIG = Signature(fixed=(Control("A", 1, 1), Control("B", 0, 1)))


def small(extra_node: bool):
    outer = LocalInterface.of((set(), set()), ({"x"}, set()))
    nodes = {1: SIG.lookup("B"), 2: SIG.lookup("A")}
    parent = {1: Root(1), 2: 1}
    link = {Port(2, 0): Port(1, 0)}
    if extra_node:
        nodes[3], parent[3] = SIG.lookup("A"), 1
        link[Port(3, 0)] = OuterName(1, "x")
    return Bigraph(SIG, LocalInterface.of(), outer, nodes, (), {}, parent,
                   link)


def test_reflexive():
    b = small(True)
    assert is_isomorphic(b, b)


def test_support_renaming_is_invisible():
    b = small(True)
    renamed = relabel(b, {v: v + 7 for v in b.nodes},
                      {e: e + 7 for e in b.edges})
    assert is_isomorphic(b, renamed)


def test_deleting_a_node_breaks_isomorphism():
    assert not is_isomorphic(small(True), small(False))


def test_attrs_are_not_identity():
    b1 = small(True)
    b2 = Bigraph(SIG, b1.inner, b1.outer, b1.nodes, b1.edges, b1.site_parent,
                 b1.node_parent, b1.link, {1: {"name": "decorated"}})
    assert b2.attrs(1) and not b1.attrs(1)
    assert is_isomorphic(b1, b2)


def test_interfaces_must_match_exactly():
    outer1 = LocalInterface.of((set(), set()), ({"x"}, set()))
    outer2 = LocalInterface.of((set(), set()), ({"y"}, set()))
    b1, b2 = (Bigraph(SIG, LocalInterface.of(), outer, {}, (), {}, {}, {})
              for outer in (outer1, outer2))
    assert not is_isomorphic(b1, b2)


def test_sites_under_swapped_roots_break_isomorphism():
    inner = LocalInterface.of((set(), set()), (set(), set()), (set(), set()))
    outer = LocalInterface.of((set(), set()), (set(), set()), (set(), set()))
    built = []
    for first, second in ((Root(1), Root(2)), (Root(2), Root(1))):
        built.append(Bigraph(
            SIG, inner, outer, dict.fromkeys((1, 2), SIG.lookup("B")), (),
            {1: first, 2: second}, {1: Root(1), 2: Root(2)}, {}))
    # every node fits its twin, so only the sites' parents tell them apart
    assert not is_isomorphic(*built)
    assert not iso_bruteforce(*built)
    assert is_isomorphic(built[0], built[0])


def test_parent_cycles_of_two_shapes_are_not_isomorphic():
    # nodes off the place forest: two 2-cycles of parents against one
    # 4-cycle; every node has the same control and one child, so only the
    # node-parent check of the iso search tells them apart
    sig = Signature(fixed=(Control("K", 0, 0),))
    outer = LocalInterface.of((set(), set()), (set(), set()))
    cycles = [
        Bigraph(sig, LocalInterface.of(), outer,
                dict.fromkeys(parents, sig.lookup("K")), set(), {}, parents, {})
        for parents in ({1: 2, 2: 1, 3: 4, 4: 3}, {1: 2, 2: 3, 3: 4, 4: 1})]
    assert not is_isomorphic(*cycles)
    assert not iso_bruteforce(*cycles)
    assert is_isomorphic(cycles[1], cycles[1])


def test_agrees_with_bruteforce_on_random_corpus():
    rng = random.Random(21)
    cases = positives = 0
    while cases < 120:
        sig = gen_signature(rng)
        b1 = gen_chain(rng, length=1, max_nodes=6, signature=sig)[0]
        if rng.random() < 0.5:
            shift = rng.randint(1, 50)
            b2 = relabel(b1, {v: v + shift for v in b1.nodes},
                         {e: e + shift for e in b1.edges})
        else:
            b2 = gen_chain(rng, length=1, max_nodes=6, signature=sig)[0]
        fast = is_isomorphic(b1, b2)
        slow = iso_bruteforce(b1, b2)
        assert fast == slow
        cases += 1
        positives += fast
    assert positives >= 40  # the corpus must exercise both outcomes


def test_large_composite_against_relabelled_and_retargeted_copies():
    b = assemble(gen_model(random.Random(3), n_services=300))
    assert len(b.nodes) == 1090
    copy = relabel(b, {v: 5000 - v for v in b.nodes},
                   {e: 5000 - e for e in b.edges})
    assert is_isomorphic(b, copy)
    assert not is_isomorphic(b, retarget_one_link(copy))


# -- service order: the colour refinement decides, the search does not branch --

@pytest.mark.parametrize("n", [30, 80, 300])
def test_a_copy_with_its_services_reordered(n):
    # same-shaped services get one colour only until their links split
    # them, so the search's first choice is right; without refinement the
    # search tried exponentially many maps already at 30 services
    model = gen_model(random.Random(3), n_services=n)
    b = assemble(model)
    copy = assemble(permute_services(random.Random(4), model))
    assert list(copy.nodes) != list(b.nodes) or copy.link != b.link
    assert is_isomorphic(b, copy)
    assert not is_isomorphic(b, retarget_one_link(copy))


def test_small_reordered_copies_agree_with_bruteforce():
    rng = random.Random(23)
    outcomes = []
    while len(outcomes) < 60:
        models = [gen_model(rng, n_services=rng.randint(2, 3), max_networks=2,
                            max_volumes=1) for _ in range(2)]
        b, other = (assemble(m) for m in models)
        if len(b.nodes) > 8:  # the oracle tries every bijection
            continue
        # a reordered copy, and a reordered copy of another model
        for m in models:
            copy = assemble(permute_services(rng, m))
            outcomes.append(is_isomorphic(b, copy))
            assert outcomes[-1] == iso_bruteforce(b, copy)
    assert all(outcomes[::2]) and outcomes.count(False) >= 20


# -- leaf rejections: bigraphs without nodes, linked through names ------------

NAMES = LocalInterface.of(({"x", "y"}, set()))
TO = LocalInterface.of(({"o", "p"}, set()))


def names_only(edges, link):
    return Bigraph(SIG, NAMES, TO, {}, edges, {}, {}, link)


IN_X, IN_Y = InnerName(0, "x"), InnerName(0, "y")
OUT_O, OUT_P = OuterName(0, "o"), OuterName(0, "p")


@pytest.mark.parametrize("b1, b2", [
    # an edge of b1 meets a name of b2
    pytest.param(names_only({1}, {IN_X: Edge(1)}),
                 names_only({1}, {IN_X: OUT_O}), id="edge against a name"),
    # two edges of b1 onto the one edge of b2, and the other way round
    pytest.param(names_only({1, 2}, {IN_X: Edge(1), IN_Y: Edge(2)}),
                 names_only({1, 2}, {IN_X: Edge(1), IN_Y: Edge(1)}),
                 id="two edges onto one"),
    pytest.param(names_only({1, 2}, {IN_X: Edge(1), IN_Y: Edge(1)}),
                 names_only({1, 2}, {IN_X: Edge(1), IN_Y: Edge(2)}),
                 id="one edge onto two"),
    pytest.param(names_only(set(), {IN_X: OUT_O}),
                 names_only(set(), {IN_X: OUT_P}), id="another name"),
    # every point of b1 is linked alike in b2, which links one more
    pytest.param(names_only({1}, {}), names_only({1}, {IN_X: Edge(1)}),
                 id="one link more"),
    pytest.param(names_only({1, 2}, {IN_X: Edge(1)}),
                 names_only({1}, {IN_X: Edge(1)}), id="an idle edge more"),
])
def test_each_leaf_rejection_decides(b1, b2):
    assert not iso_bruteforce(b1, b2)
    assert not is_isomorphic(b1, b2)
    assert is_isomorphic(b1, b1) and is_isomorphic(b2, b2)


def test_a_port_onto_the_other_twin_breaks_isomorphism():
    # each of two twin targets holds a source; the sources link to their own
    # parents in one bigraph and across in the other, so every node keeps
    # its colour (refinement sees counts, not that the port a source
    # links to is its parent's) and only the port targets at the leaf differ
    sig = Signature(fixed=(Control("T", 0, 1), Control("S", 1, 0)))
    built = []
    for across in (False, True):
        # targets 1 and 2 under the root hold sources 3 and 4
        built.append(Bigraph(
            sig, LocalInterface.of(),
            LocalInterface.of((set(), set()), (set(), set())),
            {1: sig.lookup("T"), 2: sig.lookup("T"),
             3: sig.lookup("S"), 4: sig.lookup("S")}, (), {},
            {1: Root(1), 2: Root(1), 3: 1, 4: 2},
            {Port(3, 0): Port(1 + across, 0),
             Port(4, 0): Port(2 - across, 0)}))
    assert not iso_bruteforce(*built)
    assert not is_isomorphic(*built)
    assert is_isomorphic(built[1], built[1])


# -- ids off the nodes: answers for malformed bigraphs ------------------------

def test_a_port_on_no_node_is_its_own_image():
    b = Bigraph(default_signature(), LocalInterface.of(), LocalInterface.of(),
                {}, {1}, {}, {}, {Port(99, 0): Edge(1)})
    assert [v.clause for v in validate(b)] == ["link-domain"]
    assert is_isomorphic(b, b)
    moved = Bigraph(b.signature, b.inner, b.outer, {}, {1}, {}, {},
                    {Port(98, 0): Edge(1)})
    assert not is_isomorphic(b, moved)


def test_ports_of_no_node_are_fixed_points_of_the_colours():
    # a port of node 3, which is no node, links to a port of node 1 and
    # into an edge; ports of nodes 1 and 2 link to it.  Swapping nodes 1
    # and 2 keeps every link but the ones that name node 3's ports
    sig = Signature(fixed=(Control("P", 2, 1),))
    out = LocalInterface.of((set(), set()), (set(), set()))

    def build(first, second, far):
        return Bigraph(sig, LocalInterface.of(), out,
                       dict.fromkeys((first, second), sig.lookup("P")), {9},
                       {}, {1: Root(1), 2: Root(1)},
                       {Port(3, 0): Port(first, 0), Port(3, 1): Edge(9),
                        Port(first, 0): Port(3, far), Port(first, 1): Edge(9),
                        Port(second, 0): Port(first, 0),
                        Port(second, 1): Edge(9)})

    b = build(1, 2, 0)
    assert is_isomorphic(b, build(2, 1, 0)) and is_isomorphic(build(2, 1, 0), b)
    assert not is_isomorphic(b, build(1, 2, 1))
    assert not is_isomorphic(b, build(2, 1, 1))


ROOTED = LocalInterface.of(({"o"}, set()), (set(), set()))
K = Control("K", 1, 0)


def rooted(nodes, node_parent, link, site_parent=None):
    return Bigraph(Signature(fixed=(K,)), LocalInterface.of(), ROOTED,
                   dict.fromkeys(nodes, K), set(), site_parent or {},
                   node_parent, link)


@pytest.mark.parametrize("b1, b2", [
    # node 1 onto node 2 would send b1's dangling port 2:0 onto b2's
    # real one, and leave b2's dangling 3:0 unmatched
    pytest.param(
        rooted({1}, {1: Root(1)}, {Port(1, 0): OUT_O, Port(2, 0): OUT_O}),
        rooted({2}, {2: Root(1)}, {Port(2, 0): OUT_O, Port(3, 0): OUT_O}),
        id="a dangling id that is a node of the other"),
    pytest.param(rooted((), {}, {Port(5, 0): OUT_O}),
                 rooted((), {5: Root(1)}, {Port(5, 0): OUT_O}),
                 id="a parent more for a dangling id"),
    pytest.param(rooted((), {}, {}), rooted((), {}, {}, {1: Root(1)}),
                 id="a site beyond the inner interface"),
])
def test_malformed_pairs_get_one_answer_both_ways(b1, b2):
    assert not is_isomorphic(b1, b2)
    assert not is_isomorphic(b2, b1)
    assert is_isomorphic(b1, b1) and is_isomorphic(b2, b2)


# -- the certificate: pairs the colour refinement leaves to the leaf ----------

ONE_ROOT = LocalInterface.of((set(), set()), (set(), set()))


def under_root(sig, nodes, edges, link):
    """A bigraph from ``nodes`` (id to control), each under root 1."""
    return Bigraph(sig, LocalInterface.of(), ONE_ROOT, nodes, edges, {},
                   dict.fromkeys(nodes, Root(1)), link)


K2 = Control("K", 2, 0)


def cycles(*lengths):
    """Rings of K2 nodes, numbered from 1 across the rings: node v puts
    port 1 on edge 100 + v, which takes port 0 of the next node."""
    nodes, link = {}, {}
    for n in lengths:
        ring = range(len(nodes) + 1, len(nodes) + n + 1)
        for v in ring:
            after = ring[(v - ring[0] + 1) % n]
            link[Port(v, 1)] = link[Port(after, 0)] = Edge(100 + v)
        nodes.update(dict.fromkeys(ring, K2))
    return under_root(Signature(fixed=(K2,)), nodes,
                      {100 + v for v in nodes}, link)


def one_colour(b1, b2):
    colours = _refine(b1, b2)
    return colours is not None and \
        len({*colours[0].values(), *colours[1].values()}) == 1


def test_a_six_cycle_is_not_two_triangles():
    # every node and every edge keeps one colour, so only the leaf's edge
    # bindings can tell the two apart: each map sends some edge of one
    # side to two edges of the other
    six, two = cycles(6), cycles(3, 3)
    assert one_colour(six, two)
    assert not iso_bruteforce(six, two) and not iso_bruteforce(two, six)
    assert not is_isomorphic(six, two) and not is_isomorphic(two, six)
    assert is_isomorphic(six, cycles(6)) and is_isomorphic(two, cycles(3, 3))


def pairs(order, ports):
    """K nodes 1 and 2 on edge 5, 3 and 4 on edge 6, added in ``order``
    to the nodes and in ``ports`` to the link map."""
    return under_root(Signature(fixed=(K,)), dict.fromkeys(order, K), {5, 6},
                      {Port(v, 0): Edge(5 if v < 3 else 6) for v in ports})


def test_a_first_guess_that_joins_two_edges_is_refused():
    # the search's first map follows the copy's node order, 2 onto 3 and
    # 3 onto 2, so it sends edges 5 and 6 both onto edge 5
    b1 = pairs((1, 2, 3, 4), (1, 3, 2, 4))
    b2 = pairs((1, 3, 2, 4), (1, 2, 3, 4))
    assert not _verify_iso(b1, b2, {1: 1, 2: 3, 3: 2, 4: 4})
    assert iso_bruteforce(b1, b2) and is_isomorphic(b1, b2)


def test_the_certificate_refuses_each_edge_binding_fault():
    # hand-made maps the search never offers: the colours already separate
    # an edge from a port and two linked edges from one
    p = Control("P", 1, 1)
    sig = Signature(fixed=(p,))
    on_edge = under_root(sig, {1: p}, {2}, {Port(1, 0): Edge(2)})
    on_itself = under_root(sig, {1: p}, {2}, {Port(1, 0): Port(1, 0)})
    assert not _verify_iso(on_edge, on_itself, {1: 1})
    apart = under_root(sig, {1: p, 2: p}, {3, 4},
                       {Port(1, 0): Edge(3), Port(2, 0): Edge(4)})
    shared = under_root(sig, {1: p, 2: p}, {3, 4},
                        {Port(1, 0): Edge(3), Port(2, 0): Edge(3)})
    assert not _verify_iso(apart, shared, {1: 1, 2: 2})
    assert not _verify_iso(shared, apart, {1: 1, 2: 2})
    for b1, b2 in ((on_edge, on_itself), (apart, shared)):
        assert not iso_bruteforce(b1, b2) and not is_isomorphic(b1, b2)
    assert _verify_iso(apart, apart, {1: 2, 2: 1})


def successors(*succ):
    """P nodes 1..n under root 1; node v's port links to node succ[v - 1]."""
    p = Control("P", 1, 1)
    ids = range(1, len(succ) + 1)
    return under_root(Signature(fixed=(p,)), dict.fromkeys(ids, p), (),
                      {Port(v, 0): Port(w, 0) for v, w in zip(ids, succ)})


def test_refinement_refuses_a_colour_split_unevenly_after_a_round():
    # the start colours (links out and in per node) balance; what the
    # nodes see of them one step on does not
    b1, b2 = successors(3, 2, 1, 5, 3), successors(5, 5, 2, 3, 1)
    assert _refine(b1, b2) is None
    assert not iso_bruteforce(b1, b2) and not is_isomorphic(b1, b2)
