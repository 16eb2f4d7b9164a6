import random
import subprocess
import sys

import pytest
import yaml

from ldbig import (
    InnerName, OuterName, Port, VolumeMount, assemble, census, composefile,
    container_stub, compose, environment_bigraph, is_isomorphic,
    parse_compose, tensor, validate,
)
from ldbig.cli import main
from ldbig.composefile import (
    ComposeModel, NetworkDecl, ServiceSpec, VolumeDecl,
)
from ldbig.errors import (
    ComposeSyntaxError, DanglingReference, UnsupportedKey,
)
from ldbig.yamlload import MAX_DEPTH
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


# -- libyaml and the pure-Python loader ---------------------------------------

MERGED = MINIMAL.replace("app:", "app: &base") \
    + "  b:\n    <<: *base\n    image: y\n"


@pytest.mark.parametrize("with_libyaml", [True, False])
def test_the_loader_follows_pyyamls_build(with_libyaml):
    if with_libyaml and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    # PyYAML's composer and mapping constructor refuse to run, so the
    # values come from the events alone, merge and repeated-key check too
    probe = (f"import yaml; yaml.__with_libyaml__ = {with_libyaml}; "
             "from ldbig import composefile, parse_compose\n"
             "def refuse(*args, **kwargs): raise AssertionError(args)\n"
             "yaml.composer.Composer.compose_node = refuse\n"
             "yaml.constructor.SafeConstructor.construct_mapping = refuse\n"
             "print(composefile._EventSource.get_event.__qualname__)\n"
             f"print(parse_compose({MERGED!r}).services['b'].image)\n"
             "try: parse_compose('a: 1\\na: 2\\n')\n"
             "except Exception as exc: print(exc)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={"PYTHONPATH": ":".join(sys.path)})
    source = "CParser" if with_libyaml else "Parser"
    assert out.stdout == (f"{source}.get_event\ny\n"
                          "malformed YAML: found duplicate key 'a'\n")


def test_each_document_is_parsed_once(yaml_loader, monkeypatch,
                                      wordpress_text):
    events = len(list(yaml.parse(wordpress_text)))
    drawn = []

    class Counted(composefile._EventSource):
        def get_event(self):
            drawn.append(None)
            return super().get_event()

    def refuse(*args, **kwargs):
        raise AssertionError("a second pass over the document")

    monkeypatch.setattr(composefile, "_EventSource", Counted)
    for name in ("parse", "compose", "scan"):
        monkeypatch.setattr(yaml, name, refuse)
    assert list(parse_compose(wordpress_text).services) == ["wp", "db", "pma"]
    assert len(drawn) == events


def test_both_loaders_read_accepted_documents_alike(yaml_loader,
                                                    wordpress_text):
    default = ServiceSpec(image="busybox", networks=("default",))
    assert parse_compose(MINIMAL).services == {"app": default}
    assert parse_compose(MERGED).services == {
        "app": default, "b": ServiceSpec(image="y", networks=("default",))}
    m = parse_compose(wordpress_text)
    assert list(m.services) == ["wp", "db", "pma"]
    assert m.services["pma"].links == (("db", "mysql"),)
    assert m.volumes["datavolume"].external


@pytest.mark.parametrize("text, line, key", [
    pytest.param(MINIMAL + "    image: other\n", 6, "image", id="service key"),
    pytest.param(MINIMAL + "services:\n  b:\n    image: y\n", 6, "services",
                 id="top-level key"),
    pytest.param(MERGED + "    image: z\n", 9, "image", id="after a merge"),
])
def test_both_loaders_reject_repeated_keys_at_their_line(yaml_loader, text,
                                                         line, key):
    with pytest.raises(ComposeSyntaxError) as err:
        parse_compose(text)
    assert str(err.value) == f"malformed YAML: found duplicate key {key!r}"
    assert err.value.line == line


def test_a_key_repeated_within_a_merge_source_is_refused(yaml_loader,
                                                        tmp_path, capsys):
    # PyYAML merges the source's entries without constructing the source
    stack = tmp_path / "dup.yml"
    stack.write_text("services:\n  a:\n    <<: {image: x, image: y}\n")
    assert main(["validate", str(stack)]) == 2
    assert capsys.readouterr().out == (
        f"error [inputError] {stack}:3: malformed YAML: "
        "found duplicate key 'image'\n")


def test_a_key_tagged_value_reads_as_its_text(yaml_loader, tmp_path, capsys):
    text = "services:\n  a:\n    !!value image: x\n"
    assert parse_compose(text).services["a"].image == "x"
    stack = tmp_path / "value.yml"
    stack.write_text(text)
    assert main(["validate", str(stack)]) == 0
    assert capsys.readouterr().out == "ok: no findings\n"


# each loader's own words and line mark for the same broken text
@pytest.mark.parametrize("text, libyaml, pure", [
    pytest.param("services: [what\n  :",
                 (2, "did not find expected ',' or ']'"),
                 (2, "expected ',' or ']', but got ':'"), id="open flow"),
    pytest.param("a: [1\n  b",
                 (3, "did not find expected ',' or ']'"),
                 (2, "expected ',' or ']', but got '<stream end>'"),
                 id="unclosed flow"),
    # the composer's error comes first, though a syntax error follows it
    pytest.param("a: *nosuch\nb: [\n", (1, "found undefined alias 'nosuch'"),
                 (1, "found undefined alias 'nosuch'"), id="undefined alias"),
    # a second document is refused, however deep it nests
    pytest.param("a: 1\n---\nb: " + "[" * 2000,
                 (2, "but found another document"),
                 (2, "but found another document"), id="two documents"),
    # an alias inside the collection it names, and a set, which PyYAML read
    pytest.param("services: {}\na: &x [1, *x]\n",
                 (2, "found recursive alias 'x'"),
                 (2, "found recursive alias 'x'"), id="recursive alias"),
    pytest.param("services: {}\na: !!set {b, c}\n",
                 (2, "could not determine a constructor for the tag "
                     "'tag:yaml.org,2002:set'"),
                 (2, "could not determine a constructor for the tag "
                     "'tag:yaml.org,2002:set'"), id="set"),
])
def test_malformed_yaml_keeps_each_loaders_line_mark(yaml_loader, text,
                                                     libyaml, pure):
    line, problem = libyaml if yaml_loader == "libyaml" else pure
    with pytest.raises(ComposeSyntaxError) as err:
        parse_compose(text)
    assert (err.value.line, str(err.value)) == (line,
                                                f"malformed YAML: {problem}")


def test_a_tab_after_a_colon_divides_the_loaders(yaml_loader):
    text = "services:\n  app:\n    image:\tbusybox\n"
    if yaml_loader == "libyaml":
        assert parse_compose(text).services["app"].image == "busybox"
        return
    with pytest.raises(ComposeSyntaxError) as err:
        parse_compose(text)
    assert str(err.value) == \
        "malformed YAML: found character '\\t' that cannot start any token"
    assert err.value.line == 3


def test_a_lone_surrogate_is_malformed_yaml(yaml_loader):
    text = MINIMAL.replace("busybox", "busy\ud800box")
    problem = ("'utf-8' codec can't encode character '\\ud800'"
               if yaml_loader == "libyaml" else
               "unacceptable character #xd800")
    with pytest.raises(ComposeSyntaxError) as err:
        parse_compose(text)
    assert str(err.value).startswith(f"malformed YAML: {problem}")


def test_nesting_is_capped_at_max_depth(yaml_loader):
    # one check on the builder's stack, the top mapping counted as the first
    deepest = "services: " + "[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1)
    with pytest.raises(ComposeSyntaxError,
                       match="^services: expected a mapping$"):
        parse_compose(deepest)
    # a value nested to the cap still fits an error message
    image = "[" * (MAX_DEPTH - 3) + "]" * (MAX_DEPTH - 3)
    with pytest.raises(ComposeSyntaxError, match=r"^a\.image: expected a "
                       r"non-empty string, got \[\[\["):
        parse_compose(f"services:\n  a:\n    image: {image}\n")
    for depth in (MAX_DEPTH, 100_000):
        with pytest.raises(ComposeSyntaxError) as err:
            parse_compose("services: " + "[" * depth + "]" * depth)
        assert (str(err.value), err.value.line) == \
            ("malformed YAML: nested too deeply", None)


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


@pytest.mark.parametrize("text, message", [
    pytest.param(MINIMAL + '    links: ["a:b:c"]\n',
                 'app.links: expected "service" or "service:alias", '
                 "got 'a:b:c'", id="link"),
    pytest.param(MINIMAL + '    volumes: ["v:/x:rx"]\n',
                 "app.volumes: unknown volume flag 'rx'", id="volume flag"),
    pytest.param(MINIMAL + '    volumes: [":/x"]\n',
                 "app.volumes: empty volume name or path in ':/x'",
                 id="volume name"),
    pytest.param(MINIMAL + '    volumes: ["v:"]\n',
                 "app.volumes: empty volume name or path in 'v:'",
                 id="volume path"),
    pytest.param(MINIMAL + '    links: ["b:x", "c:x"]\n'
                 "  b:\n    image: y\n  c:\n    image: z\n",
                 "app.links: duplicate alias", id="alias"),
    pytest.param(MINIMAL.replace("app:", "a b:"),
                 "services: name may not contain whitespace: 'a b'",
                 id="service name"),
    pytest.param(MINIMAL + "    networks: [n m]\nnetworks: {n m: }\n",
                 "networks: name may not contain whitespace: 'n m'",
                 id="network name"),
    pytest.param(MINIMAL + "    networks: [n m]\n",
                 "app.networks: name may not contain whitespace: 'n m'",
                 id="network entry"),
    pytest.param(MINIMAL + "volumes: {v w: {external: true}}\n",
                 "volumes: name may not contain whitespace: 'v w'",
                 id="unused volume name"),
    pytest.param(MINIMAL + '    volumes: ["v w:/x"]\n',
                 "app.volumes: name may not contain whitespace: 'v w'",
                 id="mounted volume name"),
    pytest.param(MINIMAL + '    links: ["b:a l"]\n  b:\n    image: y\n',
                 "app.links: name may not contain whitespace: 'b:a l'",
                 id="link alias"),
    pytest.param(MINIMAL + '    ports: ["8080:80"]\n'
                 "volumes: {p_8080: {external: true}}\n",
                 "volumes.p_8080: clashes with the outer name of published "
                 "port 8080", id="external volume and host port"),
    pytest.param(MINIMAL + "networks: {n: {driver: [1, {b: c}]}}\n",
                 "networks.n.driver: expected a non-empty string, "
                 "got [1, {'b': 'c'}]", id="network driver"),
])
def test_rejections_name_their_entry(text, message):
    with pytest.raises(ComposeSyntaxError) as err:
        parse_compose(text)
    assert str(err.value) == message


def test_a_numeric_expose_and_version_are_read_as_text():
    model = parse_compose(MINIMAL.replace("'2'", "2") + "    expose: [3306]\n")
    assert model.version == "2"
    assert model.services["app"].expose == ("3306",)


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
    assert env.inner.plus(1) == {"n_front", "v_datavolume", "l_db"}
    assert env.inner.minus(1) == {"p_80", "c_wp"}
    assert env.inner.minus(2) == {"p_3306", "c_db"}

    # a link alias points at the target service's identity handle
    assert env.link[InnerName(3, "l_mysql")] == InnerName(2, "c_db")
    # publishing renames the host port onto the container port
    assert env.link[OuterName(1, "p_8080")] == InnerName(1, "p_80")
    # the two attachments of "front" share one closed link
    assert env.link[InnerName(1, "n_front")] == env.link[InnerName(2, "n_front")]
    assert env.link[InnerName(1, "n_front")] != env.link[InnerName(2, "n_back")]
    # the external volume shows through to the outer interface
    assert env.link[InnerName(1, "v_datavolume")] == OuterName(1, "datavolume")
    assert env.link[InnerName(3, "v_datavolume")] == OuterName(1, "datavolume")


def test_environment_single_service():
    from ldbig import Edge

    m = parse_compose(MINIMAL)
    env = environment_bigraph(m)
    assert env.inner.width == 1
    assert len(env.edges) == 1  # the implicit default network
    assert isinstance(env.link[InnerName(1, "n_default")], Edge)
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
                                  volumes=(VolumeMount(f"v{i}", "/data"),)))
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
    assert stub.outer.plus(1) == {"n_front", "n_back"}
    assert stub.outer.minus(1) == {"p_3306", "c_db"}
    assert stub.inner.width == 0
    assert validate(stub) == []


def test_wp_stub(wordpress_model):
    stub = container_stub("wp", wordpress_model)
    assert census(stub) == {"container": 1, "process": 1, "network": 1,
                            "volume": 1}
    assert stub.outer.plus(1) == {"n_front", "v_datavolume", "l_db"}
    assert stub.outer.minus(1) == {"p_80", "c_wp"}
    (vol,) = [v for v, c in stub.nodes.items() if c.name == "volume"]
    assert stub.attrs(vol)["read_only"] is True
    (proc,) = [v for v, c in stub.nodes.items() if c.name == "process"]
    # the single source port demands the link alias from outside
    assert stub.link[Port(proc, 0)] == OuterName(1, "l_db")


def test_a_stub_of_an_unknown_service_is_a_key_error(wordpress_model):
    with pytest.raises(KeyError, match="no service 'ghost' in the model"):
        container_stub("ghost", wordpress_model)


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
