import random

from ldbig import (
    BigraphBuilder, Control, LocalInterface, OuterName, Port, Root, Signature,
    assemble, is_isomorphic, relabel,
)
from genrandom import gen_chain, gen_model, gen_signature, retarget_one_link
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
