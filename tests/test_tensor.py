"""The n-ary tensor product: agreement with the binary left fold, its unit,
global-name tagging, byte-identical exports, and linear-size assembly."""

import itertools
import random
from functools import reduce
from pathlib import Path

import pytest

from ldbig import (
    EMPTY_INTERFACE, LocalInterface, assemble, container_stub, dumps,
    identity, stub_block, tensor, validate,
)
from ldbig import bigraph, interfaces
from ldbig.cli import main
from genrandom import gen_chain, gen_model, gen_signature
from oracles import tensor_fold

GOLDEN = Path(__file__).parent / "data" / "golden"


def assert_same(x, y):
    """Equal bigraphs, equal interfaces, equal JSON bytes and the same dict
    insertion order."""
    assert x == y
    assert x.inner == y.inner and x.outer == y.outer
    assert dumps(x) == dumps(y)
    for field in ("nodes", "site_parent", "node_parent", "link", "node_attrs"):
        assert list(getattr(x, field).items()) == list(getattr(y, field).items())


def support(b):
    return b.nodes.keys() | b.edges


def global_names(b):
    return {t for i in (b.inner, b.outer) for side in i.localities[0]
            for t in side}


def test_n_operands_equal_the_left_fold():
    # one operand: tensor(a) is a; three: tensor(tensor(a, b), c); any
    # count: the fold of the copying binary product
    rng = random.Random(31)
    tagged = refreshed = 0
    for _ in range(400):
        sig = gen_signature(rng)
        ops = [gen_chain(rng, length=1, max_nodes=5, signature=sig)[0]
               for _ in range(rng.randint(1, 5))]
        out = tensor(*ops)
        assert_same(out, reduce(tensor, ops))
        assert_same(out, tensor_fold(*ops))
        assert validate(out) == []
        tagged += any("~" in t for t in global_names(out))
        refreshed += max(support(out), default=0) > max(
            max(support(b), default=0) for b in ops)
    # both kinds of collision are exercised, not just the easy case
    assert tagged > 100 and refreshed > 250


def test_forced_global_collisions_follow_the_fold():
    # one name on every operand, in either polarity, with hand-made tags
    pool = [LocalInterface.of(({"g"}, set())), LocalInterface.of((set(), {"g"})),
            LocalInterface.of(({"g~1"}, {"h"})), LocalInterface.of(({"g", "g~2"}, set()))]
    for ops in itertools.product(pool, repeat=3):
        bs = [identity(i) for i in ops]
        out = tensor(*bs)
        assert_same(out, tensor(tensor(bs[0], bs[1]), bs[2]))
        assert_same(out, tensor_fold(*bs))
        assert validate(out) == []


def test_stub_block_equals_the_fold_of_its_stubs():
    rng = random.Random(35)
    for _ in range(20):
        model = gen_model(rng, max_services=12)
        stubs = [container_stub(name, model) for name in model.services]
        assert_same(stub_block(model), tensor_fold(*stubs))


def test_no_operands_give_the_unit():
    assert tensor() == identity(EMPTY_INTERFACE)


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("stage", ["environment", "stubs", "composite"])
def test_export_matches_golden_bytes(stage, fmt, data_dir, tmp_path):
    target = tmp_path / f"out.{fmt}"
    code = main(["export", str(data_dir / "wordpress.yml"), "--format", fmt,
                 "--stage", stage, "--output", str(target)])
    assert code == 0
    assert target.read_bytes() == (GOLDEN / f"wordpress.{stage}.{fmt}").read_bytes()


def test_assembly_checks_a_linear_number_of_names(monkeypatch):
    """Doubling the services at most ~doubles the name checks; a pairwise
    fold that re-checks every interface built so far quadruples them."""
    calls = [0]
    original = interfaces.check_name

    def counting(text):
        calls[0] += 1
        return original(text)

    monkeypatch.setattr(interfaces, "check_name", counting)
    monkeypatch.setattr(bigraph, "check_name", counting)
    counts = []
    for n in (60, 120):
        model = gen_model(random.Random(34), max_networks=6, max_volumes=4,
                          n_services=n)
        calls[0] = 0
        assemble(model)
        counts.append(calls[0])
    assert counts[0] > 0
    assert counts[1] / counts[0] <= 2.2, counts


def test_shared_global_names_are_tagged_in_linear_probes(monkeypatch):
    """Doubling the operands that share one global name at most ~doubles
    the name-set lookups; searching each tag tower from ~1 quadruples
    them."""
    probes = [0]

    class CountingSet(set):
        def __contains__(self, item):
            probes[0] += 1
            return super().__contains__(item)

    monkeypatch.setattr(interfaces, "set", CountingSet, raising=False)
    X = LocalInterface.of(({"g"}, set()))
    counts = []
    for n in (200, 400):
        probes[0] = 0
        out = tensor(*[identity(X)] * n)
        counts.append(probes[0])
    assert out.outer.plus(0) == {"g", *(f"g~{k}" for k in range(1, 400))}
    assert counts[0] > 0
    assert counts[1] / counts[0] <= 2.2, counts
