import random

import pytest

from ldbig import EMPTY_INTERFACE, LocalInterface, juxtapose
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


def test_name_format_rejected():
    with pytest.raises(ValueError):
        iface(({"a b"}, set()))
    with pytest.raises(ValueError):
        iface(({""}, set()))


def test_every_whitespace_character_is_rejected():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for c in spaces:
        for name in (f"a{c}b", c, f"{c}a", f"a{c}"):
            with pytest.raises(ValueError, match="may not contain whitespace"):
                check_name(name)


def test_global_collision_renames_right_operand():
    x = LocalInterface.of(({"g"}, set()))
    y = LocalInterface.of(({"g"}, set()))
    merged = juxtapose(x, y)
    assert merged.plus(0) == {"g", "g~1"}
    again = juxtapose(merged, y)
    assert again.plus(0) == {"g", "g~1", "g~2"}


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
        x = gen_interface(rng, rng.randint(0, 2))
        y = gen_interface(rng, rng.randint(0, 2))
        z = gen_interface(rng, rng.randint(0, 2))
        assert juxtapose(juxtapose(x, y), z) == juxtapose(x, juxtapose(y, z))
        assert juxtapose(x, y, z) == juxtapose(juxtapose(x, y), z)


def test_associativity_with_forced_global_collisions():
    a = LocalInterface.of(({"g"}, {"m"}))
    for x, y, z in [(a, a, a),
                    (LocalInterface.of(({"g~1"}, set())), a, a),
                    (a, LocalInterface.of(({"g", "g~2"}, set())), a)]:
        assert juxtapose(juxtapose(x, y), z) == juxtapose(x, juxtapose(y, z))


def test_associativity_under_heavy_collision_pressure():
    # a two-name pool forces constant collisions, including cross-polarity
    rng = random.Random(99)
    pool = ["g", "h"]
    for _ in range(500):
        def iface():
            chosen = rng.sample(pool, k=rng.randint(0, 2))
            cut = rng.randint(0, len(chosen))
            return LocalInterface.of((chosen[:cut], chosen[cut:]))

        x, y, z = iface(), iface(), iface()
        assert juxtapose(juxtapose(x, y), z) == juxtapose(x, juxtapose(y, z))
        assert juxtapose(x, y, z) == juxtapose(juxtapose(x, y), z)
