"""The node-map search and the colour refinement before it grow about
linearly with their input.

Each case counts the lines ``algebra.node_maps``, ``algebra._refine`` and
``algebra._vertices`` execute, traced with ``sys.settrace`` and filtered
to their code objects, at a size n and at 2n.  Lines, not seconds, so the
count is deterministic.  A search that scans a node's whole kind where the
group under its place would do grows about 4x per doubling on these
inputs, and so does a refinement that recolours every vertex in each of
the n/2 rounds a chain of n nodes takes.
"""

import random
import sys
from pathlib import Path

import pytest

from ldbig import (
    Pattern, assemble, find_matches, is_isomorphic, parse_compose,
    patterns_from_json, relabel,
)
from ldbig import algebra
from genrandom import gen_model, permute_services
from test_depth import chain

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BOUND = 2.2


def _lines(run) -> int:
    """Lines of the search and the refinement executed while ``run()``
    runs."""
    codes = {f.__code__ for f in (algebra.node_maps, algebra._refine,
                                  algebra._vertices)}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def scope(frame, event, arg):
        return local if frame.f_code in codes else None

    old = sys.gettrace()
    sys.settrace(scope)
    try:
        run()
    finally:
        sys.settrace(old)
    return count


@pytest.mark.parametrize("name", ["nested-container", "any-container",
                                  "network-and-volume", "twin-networks"])
def test_matching_a_benchmark_pattern_grows_linearly(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import generate
    docs = [generate.NESTED_CONTAINER, generate.ANY_CONTAINER,
            generate.NETWORK_AND_VOLUME, generate.TWIN_NETWORKS]
    (pattern,) = [p for p in patterns_from_json(generate.patterns_json(docs))
                  if p.name == name]
    hosts = [assemble(parse_compose(generate.compose_yaml(
        generate.monolith_stack(random.Random(1), 0, n)))) for n in (100, 200)]
    small, large = (_lines(lambda: find_matches(pattern, host))
                    for host in hosts)
    assert small > 0 and large / small <= BOUND, (small, large)


def _anchored_chain(depth: int):
    host = chain(depth)
    pattern = Pattern("chain", relabel(host, {v: v + depth for v in host.nodes}),
                      anchor_at_roots=True)
    return lambda: find_matches(pattern, host)


def _iso_chain(depth: int):
    b = chain(depth)
    renamed = relabel(b, {v: 2 * depth - v for v in b.nodes})
    return lambda: is_isomorphic(b, renamed)


@pytest.mark.parametrize("case", [_anchored_chain, _iso_chain],
                         ids=["anchored-chain", "iso-chain"])
def test_searching_a_chain_grows_linearly(case):
    small, large = (_lines(case(depth)) for depth in (300, 600))
    assert small > 0 and large / small <= BOUND, (small, large)


def _iso_copy(n: int, permuted: bool):
    model = gen_model(random.Random(3), n_services=n)
    b = assemble(model)
    if permuted:
        other = assemble(permute_services(random.Random(4), model))
    else:
        other = relabel(b, {v: 10 * n - v for v in b.nodes},
                        {e: 10 * n - e for e in b.edges})
    return lambda: is_isomorphic(b, other)


@pytest.mark.parametrize("permuted", [False, True],
                         ids=["relabelled", "permuted"])
def test_deciding_a_copy_of_a_composite_grows_linearly(permuted):
    small, large = (_lines(_iso_copy(n, permuted)) for n in (150, 300))
    assert small > 0 and large / small <= BOUND, (small, large)
