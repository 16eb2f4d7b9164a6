import random

import pytest

from ldbig import (
    Bigraph, BigraphBuilder, Control, Edge, InnerName, LocalInterface,
    OuterName, Port, Root, Signature, assemble, default_signature,
    is_isomorphic, relabel, validate,
)
from genrandom import (
    gen_chain, gen_model, gen_signature, permute_services, retarget_one_link,
)
from oracles import iso_bruteforce

SIG = Signature(fixed=(Control("A", 1, 1), Control("B", 0, 1)))


def small(extra_node: bool):
    outer = LocalInterface.of((set(), set()), ({"x"}, set()))
    b = BigraphBuilder(SIG, outer=outer)
    v = b.node("B", parent=Root(1))
    a = b.node("A", parent=v)
    b.connect(Port(a, 0), Port(v, 0))
    if extra_node:
        c = b.node("A", parent=v)
        b.connect(Port(c, 0), OuterName(1, "x"))
    return b.build()


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
    b2 = BigraphBuilder(SIG, outer=b1.outer)
    v = b2.node("B", parent=Root(1), name="decorated")
    a = b2.node("A", parent=v)
    b2.connect(Port(a, 0), Port(v, 0))
    c = b2.node("A", parent=v)
    b2.connect(Port(c, 0), OuterName(1, "x"))
    assert is_isomorphic(b1, b2.build())


def test_interfaces_must_match_exactly():
    outer1 = LocalInterface.of((set(), set()), ({"x"}, set()))
    outer2 = LocalInterface.of((set(), set()), ({"y"}, set()))
    b1 = BigraphBuilder(SIG, outer=outer1)
    b2 = BigraphBuilder(SIG, outer=outer2)
    assert not is_isomorphic(b1.build(), b2.build())


def test_sites_under_swapped_roots_break_isomorphism():
    inner = LocalInterface.of((set(), set()), (set(), set()), (set(), set()))
    outer = LocalInterface.of((set(), set()), (set(), set()), (set(), set()))
    built = []
    for first, second in ((Root(1), Root(2)), (Root(2), Root(1))):
        b = BigraphBuilder(SIG, inner=inner, outer=outer)
        b.node("B", parent=Root(1))
        b.node("B", parent=Root(2))
        b.site(1, parent=first)
        b.site(2, parent=second)
        built.append(b.build())
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
        b = BigraphBuilder(sig, outer=LocalInterface.of((set(), set()),
                                                        (set(), set())))
        targets = [b.node("T", parent=Root(1)) for _ in range(2)]
        for i, t in enumerate(targets):
            s = b.node("S", parent=t)
            b.connect(Port(s, 0), Port(targets[(i + across) % 2], 0))
        built.append(b.build())
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
