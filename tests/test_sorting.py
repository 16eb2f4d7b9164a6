import random

import pytest

from ldbig import (
    Bigraph, Control, Edge, InnerName, LocalInterface,
    Occurrence, OuterName, Pattern, Port, Root, Signature, assemble,
    check_sorting, default_signature, find_matches, parse_compose,
    patterns_from_json, relabel, validate, verify_occurrence,
)
from ldbig.bigraph import place_order
from ldbig.errors import SignatureMismatch
from genrandom import gen_host, gen_pattern, gen_signature
from oracles import _embedding_ok, matches_bruteforce
from test_tensor import benchmark_models


def node_pattern(*controls, nested=False, anchor_at_roots=False) -> Pattern:
    """A pattern of bare nodes, side by side or nested in a chain."""
    sig = default_signature()
    outer = LocalInterface.of((set(), set()), (set(), set()))
    ids = range(1, len(controls) + 1)
    parent = {v: v - 1 if nested and v > 1 else Root(1) for v in ids}
    b = Bigraph(sig, LocalInterface.of(), outer,
                {v: sig.lookup(name) for v, name in zip(ids, controls)}, (),
                {}, parent, {})
    return Pattern("-".join(controls), b, anchor_at_roots=anchor_at_roots)


def test_single_container_occurs_three_times(wordpress_composite):
    occs = find_matches(node_pattern("container"), wordpress_composite)
    assert len(occs) == 3
    assert all(anchor == (1, Root(1)) for occ in occs
               for anchor in occ.root_anchors)


def test_nested_containers_do_not_occur(wordpress_composite):
    pattern = node_pattern("container", "container", nested=True)
    assert find_matches(pattern, wordpress_composite) == []


def test_check_sorting_vacuous(wordpress_composite):
    assert check_sorting(wordpress_composite, []).well_sorted


def test_check_sorting_reports_counterexamples(wordpress_composite):
    result = check_sorting(wordpress_composite, [node_pattern("container")])
    assert not result.well_sorted
    ((name, occs),) = result.counterexamples
    assert name == "container" and len(occs) == 3


def test_process_at_top_level_absent_when_anchored(wordpress_composite):
    # all processes live inside containers, so anchored at roots: well-sorted
    pattern = Pattern("top-level-process", _bare_process(),
                      anchor_at_roots=True)
    assert check_sorting(wordpress_composite, [pattern]).well_sorted
    # floating, the same shape matches every same-arity process
    floating = Pattern("process-anywhere", _bare_process())
    occs = find_matches(floating, wordpress_composite)
    assert len(occs) == 2
    assert all(not isinstance(a, Root)
               for occ in occs for _, a in occ.root_anchors)


def _bare_process() -> Bigraph:
    outer = LocalInterface.of((set(), set()), ({"feed"}, set()))
    return Bigraph(default_signature(), LocalInterface.of(), outer,
                   {1: Control("process", 1, 1)}, (), {}, {1: Root(1)},
                   {Port(1, 0): OuterName(1, "feed")})


def test_bare_process_pattern_matches_only_matching_arity(wordpress_composite):
    # db's process has no source port, wp's and pma's have one
    occs = find_matches(Pattern("p", _bare_process()), wordpress_composite)
    assert len(occs) == 2


def test_self_match_on_an_asymmetric_host():
    composite = assemble(parse_compose(
        "version: '2'\nservices:\n  app:\n    image: x\n"))
    copy = relabel(composite, {v: v + 50 for v in composite.nodes},
                   {e: e + 50 for e in composite.edges})
    occs = find_matches(Pattern("self", copy), composite)
    assert len(occs) == 1


def test_self_match_may_widen_on_symmetric_hosts(wordpress_composite):
    # wp's and pma's subtrees are interchangeable once the pattern's outer
    # names and edges are treated as wildcards, so the renamed copy embeds
    # twice: identity and the wp/pma swap.
    copy = relabel(wordpress_composite,
                   {v: v + 100 for v in wordpress_composite.nodes},
                   {e: e + 100 for e in wordpress_composite.edges})
    occs = find_matches(Pattern("self", copy), wordpress_composite)
    assert len(occs) == 2
    oracle = matches_bruteforce(copy, wordpress_composite)
    assert {occ.node_map for occ in occs} == oracle


def test_signature_mismatch():
    other = Signature(fixed=(Control("container", 0, 1),))
    outer = LocalInterface.of((set(), set()), (set(), set()))
    host_sig_pattern = Pattern("p", Bigraph(
        other, LocalInterface.of(), outer, {1: other.lookup("container")}, (),
        {}, {1: Root(1)}, {}))
    host = Bigraph(default_signature(), LocalInterface.of(), outer, {}, (),
                   {}, {}, {})
    with pytest.raises(SignatureMismatch):
        find_matches(host_sig_pattern, host)


A, B, W = Control("A", 3, 1), Control("B", 1, 1), Control("W", 0, 0)


def _shape(ids, edge, node_parent):
    """Node a, an A, holds the site and a B, node b, whose port it reaches;
    a also reaches the inner name ``i`` and, like b, the outer name ``o``;
    a second B, node c, reaches an edge.  Other parents are W nodes."""
    a, b, c = ids
    return Bigraph(
        Signature(fixed=(A, B, W)),
        LocalInterface.of((set(), set()), (set(), {"i"})),
        LocalInterface.of((set(), set()), ({"o"}, set())),
        {**{v: W for v in node_parent}, a: A, b: B, c: B}, {edge}, {1: b},
        node_parent,
        {Port(a, 0): Port(b, 0), Port(a, 1): InnerName(1, "i"),
         Port(a, 2): OuterName(1, "o"), Port(b, 0): OuterName(1, "o"),
         Port(c, 0): Edge(edge)})


EMBED_PATTERN = _shape((1, 2, 3), 10, {1: Root(1), 2: 1, 3: Root(1)})
# the same shape under a W node, 20
EMBED_HOST = _shape((11, 12, 13), 30, {20: Root(1), 11: 20, 12: 11, 13: 20})
EMBED_MAP = {1: 11, 2: 12, 3: 13}


def _changed(b, nodes=None, node_parent=None, link=None):
    """A copy of ``b`` with these entries set; a value of None deletes."""
    def updated(old, new):
        merged = {**old, **(new or {})}
        return {k: v for k, v in merged.items() if v is not None}

    return Bigraph(b.signature, b.inner, b.outer, updated(b.nodes, nodes),
                   b.edges, b.site_parent, updated(b.node_parent, node_parent),
                   updated(b.link, link))


@pytest.mark.parametrize("pattern, host, node_map, anchor", [
    pytest.param(EMBED_PATTERN, EMBED_HOST, {1: 11, 2: 12}, False,
                 id="node set"),
    # node 3 made a twin of node 2, so both fit host node 12
    pytest.param(_changed(EMBED_PATTERN, node_parent={3: 1},
                          link={Port(3, 0): OuterName(1, "o")}),
                 EMBED_HOST, {1: 11, 2: 12, 3: 12}, False, id="injectivity"),
    pytest.param(EMBED_PATTERN, _changed(EMBED_HOST, nodes={13: W}),
                 EMBED_MAP, False, id="control"),
    pytest.param(EMBED_PATTERN, EMBED_HOST, EMBED_MAP, True,
                 id="anchor_at_roots"),
    pytest.param(EMBED_PATTERN,
                 _changed(EMBED_HOST, node_parent={13: Root(1)}),
                 EMBED_MAP, False, id="one root at two places"),
    pytest.param(EMBED_PATTERN, _changed(EMBED_HOST, node_parent={12: 20}),
                 EMBED_MAP, False, id="parent"),
    pytest.param(EMBED_PATTERN, _changed(EMBED_HOST, link={Port(13, 0): None}),
                 EMBED_MAP, False, id="unlinked port"),
    pytest.param(_changed(EMBED_PATTERN, link={Port(1, 0): Port(99, 0)}),
                 EMBED_HOST, EMBED_MAP, False,
                 id="port linked to no pattern node"),
    pytest.param(EMBED_PATTERN,
                 _changed(EMBED_HOST, link={Port(11, 0): Port(13, 0)}),
                 EMBED_MAP, False, id="port target"),
    pytest.param(EMBED_PATTERN,
                 _changed(EMBED_HOST, link={Port(11, 1): Edge(30)}),
                 EMBED_MAP, False, id="inner-name target"),
    pytest.param(EMBED_PATTERN,
                 _changed(EMBED_HOST, link={Port(12, 0): Edge(30)}),
                 EMBED_MAP, False, id="outer name bound to two host links"),
    pytest.param(_changed(EMBED_PATTERN, link={Port(2, 0): Edge(10)}),
                 EMBED_HOST, EMBED_MAP, False,
                 id="edge bound to two host links"),
    pytest.param(_changed(EMBED_PATTERN, link={Port(2, 0): Edge(11)}),
                 _changed(EMBED_HOST, link={Port(12, 0): Edge(30)}),
                 EMBED_MAP, False, id="two edges bound to one host link"),
])
def test_each_broken_embedding_condition_rejects(pattern, host, node_map,
                                                 anchor):
    assert verify_occurrence(pattern, host, node_map, anchor) is None


def test_the_unbroken_embedding_is_an_occurrence():
    assert validate(EMBED_PATTERN) == [] and validate(EMBED_HOST) == []
    assert verify_occurrence(EMBED_PATTERN, EMBED_HOST, EMBED_MAP) == \
        Occurrence(node_map=((1, 11), (2, 12), (3, 13)),
                   root_anchors=((1, 20),))
    found = find_matches(Pattern("p", EMBED_PATTERN), EMBED_HOST)
    assert {o.node_map for o in found} == \
        matches_bruteforce(EMBED_PATTERN, EMBED_HOST) == \
        {((1, 11), (2, 12), (3, 13))}


def _reference(pattern: Bigraph, host: Bigraph, phi: dict,
               anchor_at_roots: bool = False) -> Occurrence | None:
    """The occurrence a node map is by the oracle's conditions, or None."""
    if set(phi) != set(pattern.nodes) or len(set(phi.values())) != len(phi) \
            or any(host.nodes.get(w) != pattern.nodes[u] for u, w in phi.items()) \
            or not _embedding_ok(pattern, host, phi, anchor_at_roots):
        return None
    anchors = {p.index: host.node_parent.get(phi[u])
               for u, p in pattern.node_parent.items() if isinstance(p, Root)}
    return Occurrence(tuple(sorted(phi.items())), tuple(sorted(anchors.items())))


def test_occurrences_pass_the_independent_validator():
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        sig = gen_signature(rng)
        host = gen_host(rng, sig, max_nodes=6)
        pattern = gen_pattern(rng, sig, max_nodes=3)
        for occ in find_matches(Pattern("p", pattern), host):
            assert _reference(pattern, host, dict(occ.node_map)) == occ
            checked += 1
    assert checked > 10


def test_matching_agrees_with_bruteforce_sample():
    rng = random.Random(62)
    for _ in range(60):
        sig = gen_signature(rng)
        host = gen_host(rng, sig, max_nodes=6)
        pattern = gen_pattern(rng, sig, max_nodes=4)
        ours = {o.node_map for o in find_matches(Pattern("p", pattern), host)}
        assert ours == matches_bruteforce(pattern, host)


def test_removing_host_nodes_never_creates_occurrences():
    rng = random.Random(63)
    tried = 0
    while tried < 25:
        sig = gen_signature(rng)
        host = gen_host(rng, sig, max_nodes=6)
        control = rng.choice(sig.fixed)
        pattern = _wildcarded_node(sig, control)
        removable = [v for v in host.nodes
                     if not host.children(v)
                     and not any(isinstance(t, Port) and t.node == v
                                 for t in host.link.values())]
        if not removable:
            continue
        tried += 1
        gone = rng.choice(removable)
        smaller = Bigraph(
            sig, host.inner, host.outer,
            {v: c for v, c in host.nodes.items() if v != gone},
            host.edges, host.site_parent,
            {v: p for v, p in host.node_parent.items() if v != gone},
            {p: t for p, t in host.link.items()
             if not (isinstance(p, Port) and p.node == gone)})
        before = len(find_matches(pattern, host))
        after = len(find_matches(pattern, smaller))
        assert after <= before


def test_a_host_port_without_a_link_takes_no_pattern_node():
    # of two networks, only node 2 links its port
    sig = default_signature()
    outer = LocalInterface.of((set(), set()), ({"n"}, set()))
    net = sig.lookup("network")
    pattern = Bigraph(sig, LocalInterface.of(), outer, {1: net}, (), {},
                      {1: Root(1)}, {Port(1, 0): OuterName(1, "n")})
    host = Bigraph(sig, LocalInterface.of(), outer, {1: net, 2: net}, (), {},
                   {1: Root(1), 2: Root(1)}, {Port(2, 0): OuterName(1, "n")})
    assert [v.clause for v in validate(host)] == ["link-total"]
    found = {o.node_map for o in find_matches(Pattern("p", pattern), host)}
    assert found == matches_bruteforce(pattern, host) == {((1, 2),)}


def _wildcarded_node(sig, control) -> Pattern:
    locs = [(frozenset(), frozenset()),
            (frozenset(f"w{k}" for k in range(control.plus)), frozenset())]
    outer = LocalInterface(tuple(locs))
    return Pattern("one-node", Bigraph(
        sig, LocalInterface.of(), outer, {1: control}, (), {}, {1: Root(1)},
        {Port(1, k): OuterName(1, f"w{k}") for k in range(control.plus)}))


def _counting(monkeypatch):
    """Count the complete maps the search yields to ``find_matches``: its
    leaves."""
    from ldbig import sorting
    leaves = [0]
    search = sorting.node_maps

    def counted(*args):
        for phi in search(*args):
            leaves[0] += 1
            yield phi

    monkeypatch.setattr(sorting, "node_maps", counted)
    return leaves


def _siblings() -> Pattern:
    """A network and a volume side by side under one pattern root, with no
    container above them; their ports reach wildcard outer names."""
    sig = default_signature()
    outer = LocalInterface.of((set(), set()), ({"x", "y"}, set()))
    return Pattern("siblings", Bigraph(
        sig, LocalInterface.of(), outer,
        {1: sig.lookup("network"), 2: sig.lookup("volume")}, (), {},
        {1: Root(1), 2: Root(1)},
        {Port(1, 0): OuterName(1, "x"), Port(2, 0): OuterName(1, "y")}))


def test_root_level_siblings_agree_with_bruteforce_on_random_hosts():
    rng = random.Random(64)
    sig = default_signature()
    pattern = _siblings()
    found = apart = 0
    for _ in range(80):
        host = gen_host(rng, sig, max_nodes=8)
        ours = {o.node_map for o in find_matches(pattern, host)}
        assert ours == matches_bruteforce(pattern.bigraph, host)
        pairs = sum(c.name == "network" for c in host.nodes.values()) * \
            sum(c.name == "volume" for c in host.nodes.values())
        found += len(ours)
        apart += pairs > len(ours)
    # some pairs sit side by side and some do not
    assert found > 10 and apart > 10


def test_root_level_siblings_are_drawn_from_the_anchors_place(
        wordpress_composite, monkeypatch):
    leaves = _counting(monkeypatch)
    occs = find_matches(_siblings(), wordpress_composite)
    assert occs and leaves[0] == len(occs)
    assert {o.node_map for o in occs} == \
        matches_bruteforce(_siblings().bigraph, wordpress_composite)


P = Control("P", 1, 1)


def _row(inner: LocalInterface, outer: LocalInterface, link: dict) -> Bigraph:
    """P nodes side by side under root 1, one per port in ``link``, with the
    edges ``link`` reaches; site 1, if ``inner`` has one, sits beside them."""
    nodes = {p.node: P for p in link if isinstance(p, Port)}
    edges = {t.ident for t in link.values() if isinstance(t, Edge)}
    return Bigraph(Signature(fixed=(P,)), inner, outer, nodes, edges,
                   {s: Root(1) for s in range(1, inner.width + 1)},
                   {v: Root(1) for v in nodes}, link)


NO_NAMES = LocalInterface.of((set(), set()), (set(), set()))
INNER_I = LocalInterface.of((set(), set()), (set(), {"i"}))
OUTER_O = LocalInterface.of((set(), set()), ({"o"}, set()))


@pytest.mark.parametrize("pattern, host, occurrences", [
    # the pattern's port reaches inner name i; host node 1 reaches an edge
    pytest.param(_row(INNER_I, NO_NAMES, {Port(1, 0): InnerName(1, "i")}),
                 _row(INNER_I, NO_NAMES, {Port(1, 0): Edge(9),
                                          Port(2, 0): InnerName(1, "i")}),
                 {((1, 2),)}, id="inner name"),
    # pattern node 2 reaches node 1's port; only host maps that keep it pass
    pytest.param(_row(NO_NAMES, OUTER_O, {Port(1, 0): OuterName(1, "o"),
                                          Port(2, 0): Port(1, 0)}),
                 _row(NO_NAMES, OUTER_O, {Port(1, 0): OuterName(1, "o"),
                                          Port(2, 0): Port(1, 0),
                                          Port(3, 0): Port(2, 0)}),
                 {((1, 1), (2, 2)), ((1, 2), (2, 3))}, id="mapped port"),
    # pattern edges bind injectively: two may not share the one host edge
    pytest.param(_row(NO_NAMES, NO_NAMES, {Port(1, 0): Edge(8),
                                           Port(2, 0): Edge(9)}),
                 _row(NO_NAMES, NO_NAMES, {Port(1, 0): Edge(9),
                                           Port(2, 0): Edge(9)}),
                 set(), id="two pattern edges on one host link"),
    # the twin-networks shape: one outer name binds one host link
    pytest.param(_row(NO_NAMES, OUTER_O, {Port(1, 0): OuterName(1, "o"),
                                          Port(2, 0): OuterName(1, "o")}),
                 _row(NO_NAMES, NO_NAMES, {Port(1, 0): Edge(8),
                                           Port(2, 0): Edge(9),
                                           Port(3, 0): Edge(9)}),
                 {((1, 2), (2, 3)), ((1, 3), (2, 2))},
                 id="one outer name on two host links"),
    # pattern node 1 reaches node 2's port, and node 2 is mapped after it
    pytest.param(_row(NO_NAMES, OUTER_O, {Port(1, 0): Port(2, 0),
                                          Port(2, 0): OuterName(1, "o")}),
                 _row(NO_NAMES, OUTER_O, {Port(1, 0): Port(2, 0),
                                          Port(2, 0): OuterName(1, "o"),
                                          Port(3, 0): Port(2, 0)}),
                 {((1, 1), (2, 2)), ((1, 3), (2, 2))},
                 id="port onto a later node"),
])
def test_the_link_screen_cuts_every_failing_leaf(pattern, host, occurrences,
                                                  monkeypatch):
    assert validate(pattern) == [] and validate(host) == []
    leaves = _counting(monkeypatch)
    occs = find_matches(Pattern("p", pattern), host)
    assert {o.node_map for o in occs} == occurrences == \
        matches_bruteforce(pattern, host)
    # without the screen, the search reaches leaves that are no occurrence
    assert leaves[0] == len(occs)
    assert all(_reference(pattern, host, dict(o.node_map)) == o for o in occs)


def _rewired(rng, b: Bigraph) -> Bigraph:
    """``b`` with each port linked anew to one of its outer names, one of
    two edges or a target port, so that links are shared."""
    names = [OuterName(i, t) for i in range(b.outer.width + 1)
             for t in sorted(b.outer.plus(i))]
    ports = [Port(v, k) for v, c in b.nodes.items() for k in range(c.minus)]
    targets = names + [Edge(90), Edge(91)] + ports
    link = {p: rng.choice(targets) for p in b.link if isinstance(p, Port)}
    return Bigraph(b.signature, b.inner, b.outer, b.nodes, {90, 91},
                   b.site_parent, b.node_parent, link)


def _cut(rng, host: Bigraph) -> Bigraph:
    """A pattern cut from up to three host nodes, placed and wired as in
    the host: a node under no cut node goes under a root per host place, a
    port onto a cut node stays, and each other host link becomes one outer
    name or one edge; sometimes one port is then linked elsewhere."""
    cut = rng.sample(sorted(host.nodes), k=min(len(host.nodes),
                                               rng.randint(1, 3)))
    new = {w: i + 1 for i, w in enumerate(cut)}
    roots: dict = {}
    parent = {}
    for w in cut:
        p = host.node_parent.get(w)
        parent[new[w]] = new[p] if p in new else \
            roots.setdefault(p, Root(len(roots) + 1))
    stand_ins: dict = {}

    def stand_in(lh):
        if isinstance(lh, Port) and lh.node in new:
            return Port(new[lh.node], lh.index)
        if lh not in stand_ins:
            k = len(stand_ins)
            stand_ins[lh] = rng.choice([OuterName(1, f"n{k}"), Edge(80 + k)])
        return stand_ins[lh]

    link = {Port(new[w], k): stand_in(host.link.get(Port(w, k)))
            for w in cut for k in range(host.nodes[w].plus)}
    if link and rng.random() < 0.4:
        link[rng.choice(sorted(link))] = rng.choice(
            [*stand_ins.values(), *(Port(v, 0) for v in new.values())])
    texts = {t.text for t in link.values() if isinstance(t, OuterName)}
    outer = LocalInterface.of((set(), set()), (texts, set()),
                              *[(set(), set())] * (len(roots) - 1))
    return Bigraph(host.signature, LocalInterface.of(), outer,
                   {new[w]: host.nodes[w] for w in cut},
                   {t.ident for t in link.values() if isinstance(t, Edge)},
                   {}, parent, link)


def test_every_leaf_is_an_occurrence_on_random_cut_patterns(monkeypatch):
    rng = random.Random(65)
    leaves = _counting(monkeypatch)
    found, shapes = 0, {Edge: 0, OuterName: 0, Port: 0}
    for _ in range(300):
        sig = gen_signature(rng, max_controls=3)
        host = _rewired(rng, gen_host(rng, sig, max_nodes=7))
        if not host.nodes:
            continue
        pattern = _cut(rng, host)
        anchor = rng.random() < 0.3
        before = leaves[0]
        occs = find_matches(Pattern("p", pattern, anchor), host)
        assert {o.node_map for o in occs} == \
            matches_bruteforce(pattern, host, anchor)
        assert leaves[0] - before == len(occs)
        for o in occs:
            assert _reference(pattern, host, dict(o.node_map), anchor) == o
        found += len(occs)
        # a shared edge or outer name, or a port onto a later node
        at = {u: i for i, u in enumerate(place_order(pattern))}
        targets = list(pattern.link.values())
        for p, t in pattern.link.items() if occs else ():
            if targets.count(t) > 1 and not isinstance(t, Port) or \
                    isinstance(t, Port) and at[t.node] > at[p.node]:
                shapes[type(t)] += 1
    assert found > 100 and min(shapes.values()) > 10, (found, shapes)


def _random_maps(rng, pattern: Bigraph, host: Bigraph, occs, k: int):
    """``k`` node maps of the pattern into the host, most of them no
    occurrence: an occurrence from ``occs`` or a map that draws each image
    from the host nodes of its control, then, unless the fault drawn is
    "none", broken once: a key dropped or added, two nodes on one image, an
    image of another control or of no node, or two images swapped."""
    nodes, hosts = sorted(pattern.nodes), sorted(host.nodes)
    same = {u: [w for w in hosts if host.nodes[w] == c]
            for u, c in pattern.nodes.items()}
    for _ in range(k):
        if occs and rng.random() < 0.5:
            phi = dict(rng.choice(occs).node_map)
        else:
            phi = {u: rng.choice(same[u] or [99]) for u in nodes}
        fault = rng.choice(["none", "drop", "add", "twin", "control", "swap"])
        if fault == "drop" and phi:
            del phi[rng.choice(nodes)]
        elif fault == "add":
            phi[max(nodes, default=0) + 1] = rng.choice(hosts or [99])
        elif fault in ("twin", "swap") and len(nodes) > 1:
            u, v = rng.sample(nodes, 2)
            if fault == "swap":
                phi[u], phi[v] = phi[v], phi[u]
            else:
                phi[u] = phi[v]
        elif fault == "control" and nodes:
            u = rng.choice(nodes)
            phi[u] = rng.choice([w for w in hosts if w not in same[u]] or [99])
        yield phi


def test_verify_occurrence_agrees_with_the_oracle_on_random_maps():
    # random patterns and patterns cut from the host, each with maps that
    # break keys, injectivity, controls, parents, links and anchors
    rng = random.Random(66)
    seen = {True: 0, False: 0}
    for _ in range(150):
        sig = gen_signature(rng, max_controls=3)
        host = _rewired(rng, gen_host(rng, sig, max_nodes=7))
        pattern = _cut(rng, host) if host.nodes and rng.random() < 0.7 \
            else gen_pattern(rng, sig, max_nodes=3)
        occs = find_matches(Pattern("p", pattern), host)
        for phi in _random_maps(rng, pattern, host, occs, 8):
            anchor = rng.random() < 0.3
            expected = _reference(pattern, host, phi, anchor)
            assert verify_occurrence(pattern, host, dict(phi), anchor) == \
                expected, (phi, anchor)
            seen[expected is not None] += 1
    assert seen[True] > 150 and seen[False] > 2 * seen[True], seen


W2 = Signature(fixed=(W, B))
# a host whose nodes sit off the place forest: 11 and 12 on a parent cycle,
# 14 its own parent, 15 with no parent; 13 is under the root
ODD_HOST = Bigraph(W2, LocalInterface.of(), OUTER_O,
                   {11: W, 12: W, 13: W, 14: W, 15: W, 16: B}, {9}, {},
                   {11: 12, 12: 11, 13: Root(1), 14: 14, 16: 13},
                   {Port(16, 0): Edge(9)})


def _odd(node_parent, nodes=None, link=None) -> Bigraph:
    nodes = nodes or {v: W for v in node_parent}
    return Bigraph(W2, LocalInterface.of(), OUTER_O, nodes, {9}, {},
                   node_parent, link or {})


@pytest.mark.parametrize("pattern, occurrences", [
    pytest.param(_odd({1: 2, 2: 1}), {((1, 11), (2, 12)), ((1, 12), (2, 11))},
                 id="parent cycle"),
    pytest.param(_odd({1: 1}), {((1, 14),)}, id="own parent"),
    pytest.param(_odd({1: 99}), {((1, 15),)}, id="parent no node"),
    pytest.param(_odd({}, nodes={1: W}), {((1, 15),)}, id="no parent"),
    pytest.param(_odd({1: Root(1)}, nodes={1: B}), set(), id="unlinked port"),
    pytest.param(_odd({1: Root(1)}, nodes={1: B},
                      link={Port(1, 0): Port(99, 0)}),
                 set(), id="port onto no pattern node"),
])
def test_pattern_nodes_off_the_place_forest_are_screened(pattern, occurrences,
                                                         monkeypatch):
    leaves = _counting(monkeypatch)
    occs = find_matches(Pattern("p", pattern), ODD_HOST)
    assert {o.node_map for o in occs} == occurrences == \
        matches_bruteforce(pattern, ODD_HOST)
    assert leaves[0] == len(occs)


def test_the_benchmark_patterns_reach_only_occurrences(monkeypatch):
    # the twelve seed-1 lattice-deep stacks, with the workload's patterns
    hosts = [assemble(m) for m in benchmark_models(monkeypatch)[6:18]]
    import generate
    import workloads
    patterns = {p.name: p for p in patterns_from_json(
        generate.patterns_json(workloads.LATTICE_PATTERNS))}
    leaves = _counting(monkeypatch)
    found = {}
    for name, pattern in patterns.items():
        before = leaves[0]
        found[name] = sum(len(find_matches(pattern, host)) for host in hosts)
        assert leaves[0] - before == found[name], name
    # every leaf of twin-networks failed at the leaf check before the screen
    assert found["twin-networks"] == 0
    assert found["network-and-volume"] > 0
