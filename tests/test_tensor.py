"""The n-ary tensor product: agreement with the binary left fold, its unit,
its partiality on shared global names, byte-identical exports, and
linear-size assembly."""

import itertools
import random
from functools import reduce
from pathlib import Path

import pytest

from ldbig import (
    EMPTY_INTERFACE, Bigraph, Edge, InnerName, LocalInterface, OuterName,
    Root, assemble, build_container, container_stub, default_signature,
    dumps, identity, parse_compose, stub_block, tensor, validate,
)
from ldbig.bigraph import EMPTY_SIGNATURE
from ldbig.errors import LdbError
from ldbig.cli import main
from genrandom import gen_chain, gen_container_spec, gen_model, gen_signature
from oracles import tensor_fold

GOLDEN = Path(__file__).parent / "data" / "golden"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    with_globals = refreshed = 0
    for _ in range(400):
        sig = gen_signature(rng)
        ops = [gen_chain(rng, length=1, max_nodes=5, signature=sig,
                         owner=f"o{k}.")[0]
               for k in range(rng.randint(1, 5))]
        out = tensor(*ops)
        assert_same(out, reduce(tensor, ops))
        assert_same(out, tensor_fold(*ops))
        assert validate(out) == []
        with_globals += sum(bool(global_names(b)) for b in ops)
        refreshed += max(support(out), default=0) > max(
            max(support(b), default=0) for b in ops)
    # global names and support collisions are both exercised
    assert with_globals > 1000 and refreshed > 250


def assert_block_is_the_tensor(model):
    """``stub_block``, built in one pass, is the tensor of the stubs built
    one by one."""
    stubs = [container_stub(name, model) for name in model.services]
    assert_same(stub_block(model), tensor(*stubs) if stubs
                else identity(EMPTY_INTERFACE, default_signature()))


def test_stub_block_equals_the_fold_of_its_stubs():
    rng = random.Random(35)
    for _ in range(20):
        model = gen_model(rng, max_services=12)
        stubs = [container_stub(name, model) for name in model.services]
        assert_same(stub_block(model), tensor_fold(*stubs))
        assert_block_is_the_tensor(model)


def benchmark_models(monkeypatch):
    """The seed-1 stacks of the monolith-large and lattice-deep workloads, as
    perfbench/workloads.py draws them, and a 1,600-service monolith, parsed."""
    monkeypatch.syspath_prepend(str(BENCH))
    import generate
    import workloads
    rng = random.Random("monolith-large:1")
    stacks = [generate.monolith_stack(rng, i, n)
              for i, n in enumerate(workloads.MONOLITH_SIZES)]
    rng = random.Random("lattice-deep:1")
    stacks += [generate.lattice_stack(rng, i, n, workloads.LATTICE_GROUPS,
                                      workloads.LATTICE_PER_GROUP)
               for i, n in enumerate(workloads.LATTICE_SIZES)]
    stacks.append(generate.monolith_stack(random.Random(1), 0, 1600))
    assert len(stacks) == 19 and len(stacks[-1].services) == 1600
    return [parse_compose(generate.compose_yaml(stack)) for stack in stacks]


def test_stub_block_equals_the_tensor_on_the_benchmark_stacks(monkeypatch):
    for model in benchmark_models(monkeypatch):
        assert_block_is_the_tensor(model)


def test_build_container_is_the_tensor_of_its_one_spec_builds():
    rng = random.Random(36)
    unit = identity(EMPTY_INTERFACE, default_signature())
    assert_same(build_container(), unit)
    assert validate(build_container()) == []
    for _ in range(100):
        a, b = gen_container_spec(rng), gen_container_spec(rng)
        pair = build_container(a, b)
        assert_same(pair, tensor(build_container(a), build_container(b)))
        assert validate(pair) == []
        assert pair.node_parent[min(pair.nodes)] == Root(1)


def test_names_shift_past_the_sites_of_an_operand_without_roots():
    # ill-formed (its site has no root to sit under), but still an operand
    sites = LocalInterface.of((set(), set()), ({"a"}, set()))
    sited = Bigraph(EMPTY_SIGNATURE, sites, EMPTY_INTERFACE, {}, {1},
                    {1: Root(1)}, {}, {InnerName(1, "a"): Edge(1)})
    named = identity(LocalInterface.of((set(), set()), ({"b"}, set())))
    out = tensor(sited, named)
    assert_same(out, tensor_fold(sited, named))
    assert out.link[InnerName(2, "b")] == OuterName(1, "b")


def test_no_operands_give_the_unit():
    assert tensor() == identity(EMPTY_INTERFACE)


def one_global(side, sign):
    """A bigraph whose one name is the global ``g``, on ``side`` with
    polarity ``sign``; a point is linked to an edge."""
    iface = LocalInterface.of(({"g"}, set()) if sign == "+" else (set(), {"g"}))
    inner, outer = ((iface, EMPTY_INTERFACE) if side == "inner"
                    else (EMPTY_INTERFACE, iface))
    point = {("inner", "+"): InnerName(0, "g"),
             ("outer", "-"): OuterName(0, "g")}.get((side, sign))
    link = {point: Edge(1)} if point else {}
    return Bigraph(EMPTY_SIGNATURE, inner, outer, {}, set(link and [1]), {},
                   {}, link)


@pytest.mark.parametrize("side", ["inner", "outer"])
@pytest.mark.parametrize("first, second", itertools.product("+-", repeat=2))
def test_a_shared_global_name_leaves_the_tensor_undefined(side, first, second):
    ops = [identity(LocalInterface.of((set(), set()), ({"g"}, {"h"}))),
           one_global(side, first), identity(EMPTY_INTERFACE),
           one_global(side, second)]
    assert all(validate(b) == [] for b in ops)
    with pytest.raises(LdbError, match=r"global name 'g' is shared by "
                                       r"operands 2 and 4$"):
        tensor(*ops)
    with pytest.raises(LdbError, match="operands 1 and 2$"):
        tensor_fold(ops[3], ops[1])


def test_a_name_global_on_one_side_of_each_operand_is_no_clash():
    out = tensor(one_global("inner", "+"), one_global("outer", "+"))
    assert out.inner.plus(0) == out.outer.plus(0) == {"g"}
    assert validate(out) == []


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("stage", ["environment", "stubs", "composite"])
def test_export_matches_golden_bytes(stage, fmt, data_dir, tmp_path):
    target = tmp_path / f"out.{fmt}"
    code = main(["export", str(data_dir / "wordpress.yml"), "--format", fmt,
                 "--stage", stage, "--output", str(target)])
    assert code == 0
    assert target.read_bytes() == (GOLDEN / f"wordpress.{stage}.{fmt}").read_bytes()


def test_assembly_checks_a_linear_number_of_names(monkeypatch):
    """Doubling the services at most ~doubles the names held by the
    interfaces assembly builds; a pairwise fold, which builds an interface
    for every partial product, quadruples them."""
    held = [0]
    original = LocalInterface.__post_init__

    def counting(self):
        original(self)
        held[0] += sum(len(p) + len(m) for p, m in self.localities)

    monkeypatch.setattr(LocalInterface, "__post_init__", counting)
    counts = []
    for n in (60, 120):
        model = gen_model(random.Random(34), max_networks=6, max_volumes=4,
                          n_services=n)
        held[0] = 0
        assemble(model)
        counts.append(held[0])
    assert counts[0] > 0
    assert counts[1] / counts[0] <= 2.2, counts
