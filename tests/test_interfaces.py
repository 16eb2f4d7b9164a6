import random

import pytest

from ldbig import EMPTY_INTERFACE, LocalInterface, interfaces, juxtapose
from ldbig.errors import LdbError
from ldbig.interfaces import check_name
from genrandom import gen_interface


def iface(*locs):
    return LocalInterface.of((frozenset(), frozenset()), *locs)


def test_unit_left_and_right():
    y = iface(({"a"}, {"b"}))
    assert juxtapose(EMPTY_INTERFACE, y) == y
    assert juxtapose(y, EMPTY_INTERFACE) == y
    assert juxtapose(y) == y
    assert juxtapose() == EMPTY_INTERFACE


def test_juxtapose_appends_localities():
    x = iface(({"a"}, set()))
    y = iface((set(), {"b"}))
    assert juxtapose(x, y) == LocalInterface.of(
        (set(), set()), ({"a"}, set()), (set(), {"b"}))


def test_width_and_accessors():
    x = iface(({"a"}, {"b"}), ({"c"}, set()))
    assert x.width == 2
    assert x.plus(1) == {"a"} and x.minus(1) == {"b"}
    assert x.plus(0) == frozenset()


def test_same_text_at_different_localities_is_fine():
    x = iface(({"a"}, set()), ({"a"}, set()))
    assert x.plus(1) == x.plus(2) == {"a"}


def test_polarity_overlap_rejected():
    with pytest.raises(ValueError):
        iface(({"a"}, {"a"}))


def test_every_whitespace_character_is_rejected():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for c in spaces:
        for name in (f"a{c}b", c, f"{c}a", f"a{c}"):
            with pytest.raises(ValueError, match="may not contain whitespace"):
                check_name(name)


def test_globals_merge_keeps_localities():
    x = LocalInterface.of(({"g"}, {"h"}), ({"a"}, set()))
    y = LocalInterface.of(({"k"}, set()), (set(), {"b"}))
    out = juxtapose(x, y)
    assert out.plus(0) == {"g", "k"}
    assert out.minus(0) == {"h"}
    assert out.localities[1:] == x.localities[1:] + y.localities[1:]


def test_associativity_random_corpus():
    rng = random.Random(2024)
    for _ in range(150):
        x, y, z = (gen_interface(rng, rng.randint(0, 2), owner=owner)
                   for owner in ("x.", "y.", "z."))
        assert juxtapose(juxtapose(x, y), z) == juxtapose(x, juxtapose(y, z))
        assert juxtapose(x, y, z) == juxtapose(juxtapose(x, y), z)


@pytest.mark.parametrize("first, second", [
    (({"g"}, set()), ({"g"}, set())),
    (({"g"}, set()), (set(), {"g"})),
    ((set(), {"g"}), ({"g"}, set())),
    ((set(), {"g"}), (set(), {"g"})),
])
def test_a_shared_global_name_leaves_the_product_undefined(first, second):
    # among four operands, the name sits on the second and the fourth
    ops = [LocalInterface.of(({"a"}, {"b"}), ({"g"}, {"h"})),
           LocalInterface.of(first), LocalInterface.of(({"c"}, set())),
           LocalInterface.of(second, ({"g"}, set()))]
    with pytest.raises(LdbError, match=r"global name 'g' is shared by "
                                       r"operands 2 and 4$"):
        juxtapose(*ops)
    with pytest.raises(LdbError, match="operands 1 and 2$"):
        juxtapose(ops[1], ops[3])


def test_disjoint_globals_and_shared_localized_names_are_defined():
    x = LocalInterface.of(({"g"}, set()), ({"a"}, {"b"}))
    y = LocalInterface.of((set(), {"h"}), ({"a"}, {"b"}))
    out = juxtapose(x, y, EMPTY_INTERFACE)
    assert out.localities[0] == ({"g"}, {"h"})
    assert out.localities[1] == out.localities[2] == ({"a"}, {"b"})


def test_the_traced_name_is_the_product():
    assert interfaces.juxtapose_with_renames is interfaces.juxtapose
