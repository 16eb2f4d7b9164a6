import random

import pytest

from ldbig import (
    InnerName, OuterName, Port, assemble, census, container_stub, compose,
    environment_bigraph, is_isomorphic, parse_compose, tensor, validate,
)
from ldbig.composefile import (
    ComposeModel, NetworkDecl, ServiceSpec, ServiceVolume, VolumeDecl,
)
from ldbig.errors import (
    ComposeSyntaxError, DanglingReference, UnsupportedKey,
)
from genrandom import gen_model, permute_services


MINIMAL = """
version: '2'
services:
  app:
    image: busybox
"""


# -- parsing ------------------------------------------------------------------

def test_parse_wordpress_stack(wordpress_model):
    m = wordpress_model
    assert list(m.services) == ["wp", "db", "pma"]
    assert set(m.networks) == {"front", "back"}
    assert m.volumes["datavolume"].external

    wp = m.services["wp"]
    assert wp.image == "wordpress"
    assert wp.links == (("db", "db"),)
    assert wp.ports == (("8080", "80"),)
    assert wp.networks == ("front",)
    assert wp.volumes[0].name == "datavolume"
    assert wp.volumes[0].read_only

    db = m.services["db"]
    assert db.expose == ("3306",)
    assert db.networks == ("front", "back")

    pma = m.services["pma"]
    assert pma.links == (("db", "mysql"),)
    assert not pma.volumes[0].read_only


def test_minimal_document_gets_default_network():
    m = parse_compose(MINIMAL)
    assert m.services["app"].networks == ("default",)
    assert m.networks["default"].implicit


def test_declared_networks_suppress_default(wordpress_model):
    assert "default" not in wordpress_model.networks


def test_dangling_link_reference(wordpress_text):
    text = wordpress_text.replace("links: [db]", "links: [nosuch]")
    with pytest.raises(DanglingReference) as err:
        parse_compose(text)
    assert err.value.path == "wp.links.nosuch"


def test_dangling_network_and_volume(wordpress_text):
    bad_net = wordpress_text.replace("networks: [front]\n", "networks: [mid]\n", 1)
    with pytest.raises(DanglingReference) as err:
        parse_compose(bad_net)
    assert err.value.path == "wp.networks.mid"

    bad_vol = wordpress_text.replace("datavolume:/data", "missing:/data")
    with pytest.raises(DanglingReference) as err:
        parse_compose(bad_vol)
    assert err.value.path == "pma.volumes.missing"


def test_unsupported_keys_report_their_path(wordpress_text):
    with_health = wordpress_text.replace(
        "    image: mariadb\n", "    image: mariadb\n    healthcheck: {}\n")
    with pytest.raises(UnsupportedKey) as err:
        parse_compose(with_health)
    assert err.value.path == "db.healthcheck"

    with pytest.raises(UnsupportedKey) as err:
        parse_compose(MINIMAL + "secrets: {}\n")
    assert err.value.path == "secrets"

    with pytest.raises(UnsupportedKey) as err:
        parse_compose(wordpress_text.replace(
            "    driver: bridge\n", "    driver: bridge\n    ipam: {}\n", 1))
    assert err.value.path == "networks.front.ipam"

    with pytest.raises(UnsupportedKey) as err:
        parse_compose(MINIMAL.replace("'2'", "'3.8'"))
    assert err.value.path == "version"


def test_syntax_errors():
    with pytest.raises(ComposeSyntaxError):
        parse_compose("services: [what\n  :")  # malformed YAML
    with pytest.raises(ComposeSyntaxError):
        parse_compose("version: '2'\n")  # no services section
    with pytest.raises(ComposeSyntaxError):
        parse_compose(MINIMAL.replace("image: busybox", "image: [1]"))
    with pytest.raises(ComposeSyntaxError):
        # unquoted sexagesimal port
        parse_compose(MINIMAL + "    ports: [8080:50]\n")
    with pytest.raises(ComposeSyntaxError):
        parse_compose(MINIMAL + "    ports: [\"8080\"]\n")
    with pytest.raises(ComposeSyntaxError):
        parse_compose(MINIMAL + "    volumes: [v:/x:rw:extra]\n")


def test_repeated_keys_rejected_with_their_line():
    with pytest.raises(ComposeSyntaxError, match="duplicate key 'image'") as err:
        parse_compose(MINIMAL + "    image: other\n")
    assert err.value.line == 6
    with pytest.raises(ComposeSyntaxError, match="duplicate key 'app'"):
        parse_compose(MINIMAL + "  app:\n    image: other\n")
    # a key merged in with << may still be overridden, but not repeated
    merged = MINIMAL.replace("app:", "app: &base") \
        + "  b:\n    <<: *base\n    image: y\n"
    assert parse_compose(merged).services["b"].image == "y"
    with pytest.raises(ComposeSyntaxError, match="duplicate key 'image'"):
        parse_compose(merged + "    image: z\n")


def test_duplicate_host_port_rejected():
    text = """
version: '2'
services:
  a:
    image: x
    ports: ["8080:80"]
  b:
    image: y
    ports: ["8080:81"]
"""
    with pytest.raises(ComposeSyntaxError):
        parse_compose(text)


# -- environment --------------------------------------------------------------

def test_environment_shape(wordpress_model):
    env = environment_bigraph(wordpress_model)
    assert validate(env) == []
    assert env.inner.width == 3
    assert env.outer.width == 1
    assert not env.nodes
    assert env.outer.plus(1) == {"datavolume"}
    assert env.outer.minus(1) == {"p_8080", "p_8181"}
    # one closed link per declared network in use; default is absent
    assert len(env.edges) == 2

    # wp is site 1, db site 2, pma site 3 (declaration order)
    assert env.inner.plus(1) == {"front", "datavolume", "l_db"}
    assert env.inner.minus(1) == {"p_80", "wp"}
    assert env.inner.minus(2) == {"p_3306", "db"}

    # a link alias points at the target service's identity handle
    assert env.link[InnerName(3, "l_mysql")] == InnerName(2, "db")
    # publishing renames the host port onto the container port
    assert env.link[OuterName(1, "p_8080")] == InnerName(1, "p_80")
    # the two attachments of "front" share one closed link
    assert env.link[InnerName(1, "front")] == env.link[InnerName(2, "front")]
    assert env.link[InnerName(1, "front")] != env.link[InnerName(2, "back")]
    # the external volume shows through to the outer interface
    assert env.link[InnerName(1, "datavolume")] == OuterName(1, "datavolume")
    assert env.link[InnerName(3, "datavolume")] == OuterName(1, "datavolume")


def test_environment_single_service():
    from ldbig import Edge

    m = parse_compose(MINIMAL)
    env = environment_bigraph(m)
    assert env.inner.width == 1
    assert len(env.edges) == 1  # the implicit default network
    assert isinstance(env.link[InnerName(1, "default")], Edge)
    assert validate(env) == []



def test_environment_looks_each_service_up_a_bounded_number_of_times():
    """Doubling the services, each with its own network and volume, at most
    ~doubles the lookups in ``model.services``; rescanning every service
    per network and per volume quadruples them."""
    lookups = [0]

    class CountingDict(dict):
        def __getitem__(self, key):
            lookups[0] += 1
            return super().__getitem__(key)

    counts = []
    for n in (200, 400):
        services = CountingDict(
            (f"s{i}", ServiceSpec(image="busybox", networks=(f"n{i}",),
                                  volumes=(ServiceVolume(f"v{i}", "/data"),)))
            for i in range(n))
        model = ComposeModel(version="2", services=services,
                             networks={f"n{i}": NetworkDecl() for i in range(n)},
                             volumes={f"v{i}": VolumeDecl() for i in range(n)})
        lookups[0] = 0
        env = environment_bigraph(model)
        counts.append(lookups[0])
    assert len(env.edges) == 800
    assert counts[0] > 0
    assert counts[1] / counts[0] <= 2.2, counts


# -- stubs --------------------------------------------------------------------

def test_db_stub(wordpress_model):
    stub = container_stub("db", wordpress_model)
    assert census(stub) == {"container": 1, "process": 1, "network": 2}
    assert stub.outer.plus(1) == {"front", "back"}
    assert stub.outer.minus(1) == {"p_3306", "db"}
    assert stub.inner.width == 0
    assert validate(stub) == []


def test_wp_stub(wordpress_model):
    stub = container_stub("wp", wordpress_model)
    assert census(stub) == {"container": 1, "process": 1, "network": 1,
                            "volume": 1}
    assert stub.outer.plus(1) == {"front", "datavolume", "l_db"}
    assert stub.outer.minus(1) == {"p_80", "wp"}
    (vol,) = [v for v, c in stub.nodes.items() if c.name == "volume"]
    assert stub.attrs(vol)["read_only"] is True
    (proc,) = [v for v, c in stub.nodes.items() if c.name == "process"]
    # the single source port demands the link alias from outside
    assert stub.link[Port(proc, 0)] == OuterName(1, "l_db")


def test_stub_interfaces_match_environment_sites(wordpress_model):
    env = environment_bigraph(wordpress_model)
    stubs = [container_stub(n, wordpress_model) for n in wordpress_model.services]
    block = stubs[0]
    for stub in stubs[1:]:
        block = tensor(block, stub)
    assert block.outer == env.inner
    assert block.inner.width == 0
    composed = compose(env, block)
    assert validate(composed) == []


# -- assembly -----------------------------------------------------------------

def test_assemble_wordpress(wordpress_composite):
    counts = census(wordpress_composite)
    assert counts == {"container": 3, "process": 3, "network": 4, "volume": 2}
    assert wordpress_composite.outer.plus(1) == {"datavolume"}
    assert wordpress_composite.outer.minus(1) == {"p_8080", "p_8181"}


def test_assemble_minimal():
    composite = assemble(parse_compose(MINIMAL))
    assert census(composite) == {"container": 1, "process": 1, "network": 1}


def test_link_chain_reaches_the_identity_port(wordpress_composite):
    b = wordpress_composite
    by_name = {b.attrs(v).get("name"): v for v, c in b.nodes.items()
               if c.name == "container"}
    procs = {b.attrs(b.node_parent[v]).get("name"): v
             for v, c in b.nodes.items() if c.name == "process"}
    # wp's process and pma's process both end on db's single handle port
    assert b.link[Port(procs["wp"], 0)] == Port(by_name["db"], 0)
    assert b.link[Port(procs["pma"], 0)] == Port(by_name["db"], 0)


def test_two_aliases_to_one_target_are_fine(wordpress_text):
    text = wordpress_text.replace("expose: [\"3306\"]",
                                  "expose: [\"3306\"]\n    links: [wp]")
    composite = assemble(parse_compose(text))
    assert census(composite)["container"] == 3


def test_reordering_services_gives_isomorphic_composites(wordpress_model):
    m = wordpress_model
    reordered = ComposeModel(
        version=m.version,
        services={n: m.services[n] for n in ["pma", "db", "wp"]},
        networks=dict(m.networks), volumes=dict(m.volumes))
    assert is_isomorphic(assemble(m), assemble(reordered))


def test_random_models_assemble_and_validate():
    rng = random.Random(41)
    for _ in range(60):
        model = gen_model(rng)
        assert validate(environment_bigraph(model)) == []
        composite = assemble(model)  # assemble validates internally
        assert composite.inner.width == 0
        permuted = permute_services(rng, model)
        assert is_isomorphic(composite, assemble(permuted))


def test_composite_outer_interface_is_ports_and_external_volumes():
    rng = random.Random(42)
    for _ in range(40):
        model = gen_model(rng)
        composite = assemble(model)
        published = {f"p_{host}" for svc in model.services.values()
                     for host, _ in svc.ports}
        external = {v for v, decl in model.volumes.items() if decl.external}
        assert composite.outer.minus(1) == published
        assert composite.outer.plus(1) == external


def _network_links_by_service(composite):
    """Map service name -> set of links its network nodes point at."""
    out = {}
    for v, ctrl in composite.nodes.items():
        if ctrl.name != "network":
            continue
        owner = composite.node_parent[v]
        service = composite.attrs(owner).get("name")
        out.setdefault(service, set()).add(composite.link[Port(v, 0)])
    return out


def test_shared_network_names_mean_shared_links():
    rng = random.Random(43)
    for _ in range(30):
        model = gen_model(rng)
        composite = assemble(model)
        net_links = _network_links_by_service(composite)
        names = list(model.services)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                shares_name = bool(set(model.services[a].networks)
                                   & set(model.services[b].networks))
                shares_link = bool(net_links.get(a, set())
                                   & net_links.get(b, set()))
                assert shares_name == shares_link, (a, b)


def test_every_link_entry_reaches_the_target_handle():
    rng = random.Random(44)
    for _ in range(30):
        model = gen_model(rng)
        composite = assemble(model)
        containers = {composite.attrs(v).get("name"): v
                      for v, c in composite.nodes.items()
                      if c.name == "container"}
        procs = {composite.attrs(composite.node_parent[v]).get("name"): v
                 for v, c in composite.nodes.items() if c.name == "process"}
        for name, svc in model.services.items():
            for k, (target, _alias) in enumerate(svc.links):
                assert composite.link[Port(procs[name], k)] \
                    == Port(containers[target], 0)
