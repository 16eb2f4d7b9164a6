"""check_links and the flow graph against verdicts read off the compose
model, at sizes the brute-force oracles do not reach."""

import random

import pytest

from ldbig import assemble, build_flow_graph, check_links, parse_compose
from ldbig.composefile import ComposeModel, ServiceSpec
from genrandom import gen_model
from model_reference import flow_arcs, unreachable_links


def assert_agree(model):
    composite = assemble(model)
    links = unreachable_links(model)
    assert [v.subject for v in check_links(composite)] == links
    arcs = flow_arcs(model)
    assert build_flow_graph(composite).arcs == arcs
    return links, arcs


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_links_and_arcs_match_the_model_at_scale(n):
    model = gen_model(random.Random(7), n_services=n, max_networks=6,
                      max_volumes=4)
    links, arcs = assert_agree(model)
    # the comparison covers reported pairs and dropped write arcs
    dropped = {(r, c) for r, c in arcs if r[0] == "volume" and (c, r) not in arcs}
    assert len(links) > n // 2 and len(dropped) > n // 10


def test_wordpress_links_and_arcs_match_the_model(wordpress_model,
                                                   wordpress_text):
    assert assert_agree(wordpress_model)[0] == []
    broken = parse_compose(wordpress_text.replace("networks: [front, back]",
                                                  "networks: [back]"))
    assert assert_agree(broken)[0] == [("wp", "db")]


def test_a_service_linking_itself_forms_no_pair():
    # neither service joins a network; a links itself, b links a
    model = ComposeModel(version="2", services={
        "a": ServiceSpec(image="x", links=(("a", "a"),)),
        "b": ServiceSpec(image="y", links=(("a", "a"),))})
    assert assert_agree(model)[0] == [("b", "a")]
