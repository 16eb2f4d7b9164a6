import random
import re

import pytest

from ldbig import (
    Bigraph, Control, EMPTY_INTERFACE, InnerName,
    LocalInterface, OuterName, Root, Signature, compose, identity,
    is_isomorphic, relabel, tensor, validate,
)
from ldbig.errors import InterfaceMismatch, LdbError
from genrandom import gen_chain, gen_signature

SIG = Signature(fixed=(Control("A", 1, 1), Control("B", 0, 1)))


def test_identity_of_empty_interface():
    b = identity(EMPTY_INTERFACE)
    assert b.inner.width == b.outer.width == 0
    assert not b.nodes and not b.edges and not b.link


def test_identity_wiring():
    i = LocalInterface.of((set(), set()), ({"a"}, {"b"}))
    b = identity(i)
    assert b.link == {InnerName(1, "a"): OuterName(1, "a"),
                      OuterName(1, "b"): InnerName(1, "b")}


def test_compose_requires_matching_interfaces():
    i = LocalInterface.of((set(), set()), ({"a"}, set()))
    j = LocalInterface.of((set(), set()), ({"zzz"}, set()))
    with pytest.raises(InterfaceMismatch):
        compose(identity(i), identity(j))


def test_compose_identity_laws_random():
    rng = random.Random(11)
    for _ in range(40):
        b = gen_chain(rng, length=1, max_nodes=6)[0]
        assert is_isomorphic(compose(identity(b.outer), b), b)
        assert is_isomorphic(compose(b, identity(b.inner)), b)


def test_compose_associativity_random():
    rng = random.Random(12)
    for _ in range(40):
        b1, b2, b3 = gen_chain(rng, length=3, max_nodes=5)
        left = compose(b3, compose(b2, b1))
        right = compose(compose(b3, b2), b1)
        assert is_isomorphic(left, right)


def test_compose_chases_through_the_shared_interface():
    # b1 wires its inner x out to p and receives q back down to w;
    # b2 bounces p straight into q; the composite must map x to w.
    y = LocalInterface.of((set(), set()), ({"p"}, {"q"}))
    x = LocalInterface.of((set(), set()), ({"x"}, {"w"}))
    z = LocalInterface.of((set(), set()), (set(), set()))
    b1 = Bigraph(SIG, x, y, {}, set(), {1: Root(1)}, {},
                 {InnerName(1, "x"): OuterName(1, "p"),
                  OuterName(1, "q"): InnerName(1, "w")})
    b2 = Bigraph(SIG, y, z, {}, set(), {1: Root(1)}, {},
                 {InnerName(1, "p"): InnerName(1, "q")})
    assert validate(b1) == [] and validate(b2) == []
    out = compose(b2, b1)
    assert out.link == {InnerName(1, "x"): InnerName(1, "w")}
    assert validate(out) == []



WIDTH_1 = LocalInterface.of((set(), set()), (set(), set()))
SHARED = LocalInterface.of((set(), set()), ({"x"}, {"y"}))
OWN_A = LocalInterface.of((set(), set()), ({"a"}, set()))
OWN_Z = LocalInterface.of((set(), set()), (set(), {"z"}))


def _names(inner, outer, link) -> Bigraph:
    """No nodes; each site that has a root of the same index sits in it."""
    sites = range(1, min(inner.width, outer.width) + 1)
    return Bigraph(SIG, inner, outer, {}, set(), {s: Root(s) for s in sites},
                   {}, link)


@pytest.mark.parametrize("b2, b1, clause, message", [
    # b2's inner interface has a site that b2 never places
    pytest.param(_names(WIDTH_1, EMPTY_INTERFACE, {}),
                 Bigraph(SIG, EMPTY_INTERFACE, WIDTH_1,
                         {1: Control("B", 0, 1)}, set(), {}, {1: Root(1)}, {}),
                 "parent", "b2 has no site 1", id="missing site"),
    pytest.param(_names(SHARED, WIDTH_1, {}),
                 _names(OWN_A, SHARED, {InnerName(1, "a"): OuterName(1, "x")}),
                 "link-total",
                 f"shared name {OuterName(1, 'x')} has no link in b2",
                 id="no link in b2"),
    pytest.param(_names(SHARED, OWN_Z, {OuterName(1, "z"): InnerName(1, "y")}),
                 _names(OWN_A, SHARED, {}),
                 "link-total",
                 f"shared name {InnerName(1, 'y')} has no link in b1",
                 id="no link in b1"),
    # x passes down through b2 to y, and y back up through b1 to x
    pytest.param(_names(SHARED, WIDTH_1,
                        {InnerName(1, "x"): InnerName(1, "y")}),
                 _names(OWN_A, SHARED, {InnerName(1, "a"): OuterName(1, "x"),
                                        OuterName(1, "y"): OuterName(1, "x")}),
                 "passthrough",
                 "link chase through the shared interface did not terminate",
                 id="link cycle"),
])
def test_compose_rejects_ill_formed_operands(b2, b1, clause, message):
    """Each pair breaks one well-formedness clause, and ``compose`` says so.

    Well-formed operands cannot make the link cycle.  To enter it, a point
    must reach a name that passes straight through the other operand, and
    ``validate``'s pass-through clause allows such a name only one point:
    the name that passes through.  Here b1's x has two, a and y."""
    assert {v.clause for v in validate(b1) + validate(b2)} == {clause}
    with pytest.raises(LdbError, match=re.escape(message)):
        compose(b2, b1)


def test_compose_refreshes_colliding_support():
    def box(inner_sites: int) -> Bigraph:
        outer = LocalInterface.of((set(), set()), (set(), set()))
        inner = LocalInterface.of(*([(set(), set())] * (inner_sites + 1)))
        return Bigraph(SIG, inner, outer, {1: SIG.lookup("B")}, (),
                       dict.fromkeys(range(1, inner_sites + 1), 1),
                       {1: Root(1)}, {})

    b1 = box(0)
    b2 = box(1)
    # both boxes hold node 1
    assert set(b1.nodes) & set(b2.nodes)
    out = compose(b2, b1)
    assert len(out.nodes) == 2
    assert validate(out) == []


def test_tensor_unit_is_exact():
    rng = random.Random(13)
    b = gen_chain(rng, length=1, max_nodes=5)[0]
    unit = identity(EMPTY_INTERFACE)
    assert tensor(b, unit) == b
    assert tensor(unit, b) == b


def test_tensor_shifts_sites_roots_and_localities():
    i = LocalInterface.of((set(), set()), ({"a"}, set()))
    b1 = identity(i)
    b2 = identity(i)
    out = tensor(b1, b2)
    assert out.inner.width == out.outer.width == 2
    assert out.site_parent == {1: Root(1), 2: Root(2)}
    assert out.link[InnerName(2, "a")] == OuterName(2, "a")


def test_tensor_preserves_validity_random():
    rng = random.Random(14)
    for _ in range(500):
        sig = gen_signature(rng)
        b1 = gen_chain(rng, length=1, max_nodes=4, signature=sig, owner="l.")[0]
        b2 = gen_chain(rng, length=1, max_nodes=4, signature=sig, owner="r.")[0]
        assert validate(b1) == [] and validate(b2) == []
        assert validate(tensor(b1, b2)) == []


def test_compose_preserves_validity_random():
    rng = random.Random(15)
    for _ in range(200):
        b1, b2 = gen_chain(rng, length=2, max_nodes=6)
        assert validate(compose(b2, b1)) == []


def test_width_zero_compose_merges_global_names():
    x = LocalInterface.of(({"a"}, set()))
    y = LocalInterface.of(({"b"}, set()))
    z = LocalInterface.of(({"c"}, set()))
    b1 = Bigraph(SIG, x, y, {}, set(), {}, {},
                 {InnerName(0, "a"): OuterName(0, "b")})
    b2 = Bigraph(SIG, y, z, {}, set(), {}, {},
                 {InnerName(0, "b"): OuterName(0, "c")})
    assert validate(b1) == [] and validate(b2) == []
    out = compose(b2, b1)
    assert out.inner.width == out.outer.width == 0
    assert out.link == {InnerName(0, "a"): OuterName(0, "c")}
    assert validate(out) == []


def test_relabel_gives_isomorphic_bigraph():
    rng = random.Random(16)
    b = gen_chain(rng, length=1, max_nodes=6)[0]
    renamed = relabel(b, {v: v + 100 for v in b.nodes},
                      {e: e + 100 for e in b.edges})
    assert renamed is not b and is_isomorphic(b, renamed)
