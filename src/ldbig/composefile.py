"""docker-compose frontend: parse a YAML subset, build the environment
bigraph and per-service container stubs, and assemble the composite.  The
environment and the composite read one wiring table, ``_wiring``, so each
rule that wires the compose file is stated once.

Supported subset: version '2'; per-service keys image, links, ports, expose,
networks, volumes; top-level networks (driver recorded, ignored) and volumes
(external flag).  Services without a ``networks`` key join the implicit
``default`` network.  A key repeated within one mapping is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import yaml

from .algebra import tensor  # noqa: F401 -- perfbench's tests read composefile.tensor
from .bigraph import Bigraph, Edge, InnerName, OuterName, Port, Root
from .containers import (
    CONTAINER, NETWORK, VOLUME, ContainerSpec, VolumeMount, _boxes, _lay_out,
    build_container, default_signature, handle,
)
from .errors import (
    ComposeSyntaxError, DanglingReference, LdbError, UnsupportedKey,
)
from .interfaces import EMPTY_INTERFACE, LocalInterface, check_name
from .yamlload import load

__all__ = [
    "ServiceSpec", "NetworkDecl", "VolumeDecl",
    "ComposeModel", "parse_compose", "environment_bigraph", "container_stub",
    "stub_block", "assemble", "DEFAULT_NETWORK",
]

DEFAULT_NETWORK = "default"

_TOP_KEYS = {"version", "services", "networks", "volumes"}
_SERVICE_KEYS = {"image", "links", "ports", "expose", "networks", "volumes"}


@dataclass(frozen=True)
class ServiceSpec:
    image: str
    links: tuple[tuple[str, str], ...] = ()      # (target, alias)
    ports: tuple[tuple[str, str], ...] = ()      # (host, container)
    expose: tuple[str, ...] = ()
    networks: tuple[str, ...] = ()
    volumes: tuple[VolumeMount, ...] = ()

    def container_ports(self) -> tuple[str, ...]:
        """Exposed plus published container ports, deduplicated in order."""
        return tuple(dict.fromkeys((*self.expose, *(c for _, c in self.ports))))


@dataclass(frozen=True)
class NetworkDecl:
    driver: str | None = None
    implicit: bool = False


@dataclass(frozen=True)
class VolumeDecl:
    external: bool = False


@dataclass(frozen=True)
class ComposeModel:
    version: str
    services: dict[str, ServiceSpec] = field(default_factory=dict)
    networks: dict[str, NetworkDecl] = field(default_factory=dict)
    volumes: dict[str, VolumeDecl] = field(default_factory=dict)

    @cached_property
    def containers(self) -> dict[str, ContainerSpec]:
        """Each service's container spec, in service order: computed once,
        then read by the environment and by every stub."""
        return {name: _container_spec(name, svc)
                for name, svc in self.services.items()}


def _require_str(value, path) -> str:
    if not isinstance(value, str) or not value:
        raise ComposeSyntaxError(f"{path}: expected a non-empty string, "
                                 f"got {value!r}")
    return value


def _require_name(value, path) -> str:
    """A non-empty string that ``check_name`` accepts."""
    try:
        return check_name(_require_str(value, path))
    except ValueError as exc:
        raise ComposeSyntaxError(f"{path}: {exc}") from exc


def _section(doc: dict, key: str) -> dict:
    """A top-level section: a mapping, empty when absent or null."""
    body = doc.get(key) or {}
    if not isinstance(body, dict):
        raise ComposeSyntaxError(f"{key}: expected a mapping")
    return body


def _declarations(doc: dict, key: str, allowed: str):
    """(name, body) per entry of the ``networks`` or ``volumes`` section; a
    null body is empty, and ``allowed`` is the one key a body may hold."""
    for name, body in _section(doc, key).items():
        name = _require_name(name, key)
        if body is None:
            body = {}
        elif not isinstance(body, dict):
            raise ComposeSyntaxError(f"{key}.{name}: expected a mapping")
        for k in body:
            if k != allowed:
                raise UnsupportedKey(f"{key}.{name}.{k}")
        yield name, body


def _require_list(value, path) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise ComposeSyntaxError(f"{path}: expected a list, got {value!r}")
    return value


def _parse_port(entry, path) -> tuple[str, str]:
    if isinstance(entry, int):
        raise ComposeSyntaxError(
            f"{path}: port mappings must be quoted strings (\"host:container\")")
    text = _require_str(entry, path)
    parts = text.split(":")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ComposeSyntaxError(
            f"{path}: expected \"host:container\" with numeric ports, got {text!r}")
    return parts[0], parts[1]


def _parse_expose(entry, path) -> str:
    if isinstance(entry, int):
        entry = str(entry)
    text = _require_str(entry, path)
    if not text.isdigit():
        raise ComposeSyntaxError(f"{path}: expected a numeric port, got {text!r}")
    return text


def _parse_link(entry, path) -> tuple[str, str]:
    text = _require_name(entry, path)
    parts = text.split(":")
    if len(parts) == 1:
        return parts[0], parts[0]
    if len(parts) == 2 and all(parts):
        return parts[0], parts[1]
    raise ComposeSyntaxError(f"{path}: expected \"service\" or "
                             f"\"service:alias\", got {text!r}")


def _parse_volume(entry, path, declared) -> VolumeMount:
    """A mount; a volume name in ``declared`` was checked where it was
    declared, so only an undeclared one is checked here."""
    text = _require_str(entry, path)
    parts = text.split(":")
    if len(parts) == 2:
        name, mount = parts
        flag = ""
    elif len(parts) == 3:
        name, mount, flag = parts
    else:
        raise ComposeSyntaxError(
            f"{path}: expected \"volume:path\" or \"volume:path:ro\", got {text!r}")
    if flag not in ("", "ro", "rw"):
        raise ComposeSyntaxError(f"{path}: unknown volume flag {flag!r}")
    if not name or not mount:
        raise ComposeSyntaxError(f"{path}: empty volume name or path in {text!r}")
    if name not in declared:
        name = _require_name(name, path)
    return VolumeMount(name, mount, read_only=(flag == "ro"))


def _container_spec(name: str, svc: ServiceSpec) -> ContainerSpec:
    """The one container a service runs: its process consumes the link
    aliases and offers the container ports; the spec owns the service's
    outer names."""
    return ContainerSpec(name, svc.networks, svc.volumes,
                         tuple([a for _, a in svc.links]),
                         svc.container_ports())


# the events parse_compose reads: libyaml's parser when PyYAML has it
_EventSource = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def parse_compose(text: str) -> ComposeModel:
    """Parse and validate a docker-compose document in the supported subset."""
    try:
        doc = load(text, _EventSource)
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else None
        raise ComposeSyntaxError(f"malformed YAML: {exc.problem}", line=line) from exc
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml reads UTF-8, which cannot encode a lone surrogate
        raise ComposeSyntaxError(f"malformed YAML: {exc}") from exc

    if not isinstance(doc, dict):
        raise ComposeSyntaxError("top level must be a mapping")
    for key in doc:
        if key not in _TOP_KEYS:
            raise UnsupportedKey(str(key))

    version = doc.get("version", "2")
    if isinstance(version, (int, float)):
        version = str(version)
    if not isinstance(version, str) or not version.startswith("2"):
        raise UnsupportedKey("version", f"unsupported version {version!r} "
                             "(this tool reads the version 2 subset)")

    networks: dict[str, NetworkDecl] = {}
    for name, body in _declarations(doc, "networks", "driver"):
        driver = body.get("driver")
        if driver is not None:
            _require_str(driver, f"networks.{name}.driver")
        networks[name] = NetworkDecl(driver=driver)
    volumes: dict[str, VolumeDecl] = {}
    for name, body in _declarations(doc, "volumes", "external"):
        external = body.get("external", False)
        if not isinstance(external, bool):
            raise ComposeSyntaxError(f"volumes.{name}.external: expected a boolean")
        volumes[name] = VolumeDecl(external=external)

    if "services" not in doc:
        raise ComposeSyntaxError("a services section is required")
    services: dict[str, ServiceSpec] = {}
    wants_default = False
    for name, body in _section(doc, "services").items():
        name = _require_name(name, "services")
        if not isinstance(body, dict):
            raise ComposeSyntaxError(f"{name}: expected a mapping of service keys")
        for key in body:
            if key not in _SERVICE_KEYS:
                raise UnsupportedKey(f"{name}.{key}")
        image = _require_str(body.get("image"), f"{name}.image")
        links = tuple([_parse_link(e, f"{name}.links") for e in
                       _require_list(body.get("links"), f"{name}.links")])
        ports = tuple([_parse_port(e, f"{name}.ports") for e in
                       _require_list(body.get("ports"), f"{name}.ports")])
        expose = tuple([_parse_expose(e, f"{name}.expose") for e in
                        _require_list(body.get("expose"), f"{name}.expose")])
        vols = tuple([_parse_volume(e, f"{name}.volumes", volumes) for e in
                      _require_list(body.get("volumes"), f"{name}.volumes")])
        if "networks" in body:
            # a declared network's name was checked where it was declared;
            # an entry of another type may be unhashable, so only a str is
            # looked up
            nets = tuple([e if type(e) is str and e in networks
                          else _require_name(e, f"{name}.networks") for e in
                          _require_list(body.get("networks"), f"{name}.networks")])
        else:
            nets = (DEFAULT_NETWORK,)
            wants_default = True
        services[name] = ServiceSpec(
            image=image, links=links, ports=ports, expose=expose,
            networks=tuple(dict.fromkeys(nets)), volumes=vols)

    if wants_default and DEFAULT_NETWORK not in networks:
        networks[DEFAULT_NETWORK] = NetworkDecl(implicit=True)

    # reference resolution
    for name, svc in services.items():
        for target, alias in svc.links:
            if target not in services:
                raise DanglingReference(f"{name}.links.{target}")
        for net in svc.networks:
            if net not in networks:
                raise DanglingReference(f"{name}.networks.{net}")
        for vol in svc.volumes:
            if vol.name not in volumes:
                raise DanglingReference(
                    f"{name}.volumes.{vol.name}",
                    f"{name}.volumes: {vol.name!r} is not a declared volume "
                    "(bind mounts are outside the supported subset)")

    # clashes the interface name sets cannot represent
    published: dict[str, str] = {}
    for name, svc in services.items():
        for host, _ in svc.ports:
            if host in published:
                raise ComposeSyntaxError(
                    f"{name}.ports: host port {host} already published by "
                    f"{published[host]}")
            published[host] = name
            outer = handle("port", host)
            if outer in volumes and volumes[outer].external:
                raise ComposeSyntaxError(
                    f"volumes.{outer}: clashes with the outer name of "
                    f"published port {host}")
        aliases = [a for _, a in svc.links]
        if len(aliases) != len(set(aliases)):
            raise ComposeSyntaxError(f"{name}.links: duplicate alias")

    return ComposeModel(version=version, services=services,
                        networks=networks, volumes=volumes)


def _wiring(model: ComposeModel, top: int, own):
    """The compose file's wiring, stated once for the environment and the
    composite.

    Returns four things.  The edge ids: one per network in use, in
    ``model.networks`` order, then one per mounted closed volume, in
    ``model.volumes`` order, numbered from ``top + 1``.  ``reach(k, name)``,
    the link of the k-th service's tagged consumed ``name``: its network's
    or closed volume's edge, an external volume's ``OuterName(1, vol)``, or
    for a link alias ``own(j)``, the point of the linked j-th service's own
    name.  Each published host port's tagged name with the (k, tagged
    container port) it reaches, in service order.  And the outer interface:
    one root, which offers the external volumes and consumes the published
    host ports."""
    specs = model.containers.values()
    used = set().union(*[s.networks for s in specs])
    mounted = {m.name for s in specs for m in s.volumes}
    shared: dict = {}
    edges: list[int] = []
    for net in model.networks:
        if net in used:
            edges.append(top + len(edges) + 1)
            shared[handle(NETWORK, net)] = Edge(edges[-1])
    for vol, decl in model.volumes.items():
        if decl.external:
            shared[handle(VOLUME, vol)] = OuterName(1, vol)
        elif vol in mounted:
            edges.append(top + len(edges) + 1)
            shared[handle(VOLUME, vol)] = Edge(edges[-1])
    index = {name: j for j, name in enumerate(model.services, 1)}
    aliased = {(k, handle("link", alias)): own(index[target])
               for k, svc in enumerate(model.services.values(), 1)
               for target, alias in svc.links}
    published = {handle("port", host): (k, handle("port", container))
                 for k, svc in enumerate(model.services.values(), 1)
                 for host, container in svc.ports}

    def reach(k, name):
        return shared.get(name) or aliased[k, name]

    outer = LocalInterface.of(
        (frozenset(), frozenset()),
        ({v for v, decl in model.volumes.items() if decl.external}, published))
    return edges, reach, published, outer


def environment_bigraph(model: ComposeModel) -> Bigraph:
    """The context bigraph: one root, one site per service, and the links
    ``_wiring`` gives: each site's consumed names go to their network's or
    volume's edge, an external volume's outer name or the linked service's
    own name, and each published host port's outer name to the container
    port.

    Its edges are numbered from 1."""
    names = list(model.services)
    edges, reach, published, outer = _wiring(
        model, 0, lambda j: InnerName(j, handle(CONTAINER, names[j - 1])))
    localities = [(frozenset(), frozenset()),
                  *[spec.names() for spec in model.containers.values()]]
    link = {InnerName(k, name): reach(k, name)
            for k, (consumed, _) in enumerate(localities[1:], 1)
            for name in sorted(consumed)}
    for host, offered in published.items():
        link[OuterName(1, host)] = InnerName(*offered)
    root = Root(1)
    return Bigraph(default_signature(), LocalInterface(tuple(localities)),
                   outer, {}, edges, {k: root for k in range(1, len(names) + 1)},
                   {}, link)


def container_stub(name: str, model: ComposeModel) -> Bigraph:
    """The canonical container bigraph for one service: one process consuming
    the link aliases and offering the container ports, one network node per
    attached network, one volume node per mount."""
    if name not in model.services:
        raise KeyError(f"no service {name!r} in the model")
    return build_container(model.containers[name])


def stub_block(model: ComposeModel) -> Bigraph:
    """The tensor of all container stubs in service order, built directly
    by ``build_container`` with no stub built on its own: it equals
    ``tensor(*stubs)``, dict order included.  With no services it is the
    identity on the empty interface."""
    return build_container(*model.containers.values())


def assemble(model: ComposeModel) -> Bigraph:
    """The composite ``compose(environment_bigraph(model), stub_block(model))``,
    built in one pass over the containers.

    It reads the environment's wiring from ``_wiring``, the one table both
    builders share, and links each port to what ``compose`` chases it to
    through the shared interface: a network's or volume's port to its edge
    or, for an external volume, to its outer name, a consumed alias's to
    the linked container's port; and a published host port's outer name to
    the container port it publishes.  The edges are numbered past the
    block, as compose's refresh numbers them, so node ids, edge ids and
    dict order are those of the formula.

    The builder is trusted to be well-formed; tier-1 runs the full
    ``validate`` on every composite it assembles.  What is checked here,
    in one linear pass, is what its own maps could get wrong (see
    ``_check_assembled``): a fault raises LdbError, which the CLI reports
    as an input error.  The full ``validate`` costs too much here: in its
    place it made an in-process ``monolith-large`` seed-1 pass 13-16%
    slower, and even the one-pass ``validate`` takes 3 to 4.5 times as
    long as ``_check_assembled`` (1.16 against 0.26 ms at 290 services,
    121 against 39 ms at 25,600; CPython 3.11, 2-CPU x86-64 host).
    """
    specs = model.containers.values()
    boxes, top = _boxes(specs)
    edges, reach, published, outer = _wiring(
        model, top, lambda j: Port(boxes[j - 1], 0))
    root = Root(1)
    link: dict = {}
    offered: dict = {}
    nodes, parent, attrs = _lay_out(specs, boxes, lambda k: root, reach, link,
                                    offered)
    for host, port in published.items():
        link[OuterName(1, host)] = offered[OuterName(*port)]
    result = Bigraph(default_signature(), EMPTY_INTERFACE, outer,
                     nodes, edges, {}, parent, link, attrs)
    problems = _check_assembled(result)
    if problems:
        raise LdbError("assembled bigraph is not well-formed: "
                       + "; ".join(problems))
    return result


def _check_assembled(b: Bigraph) -> list[str]:
    """The faults of an assembled composite that its builder's maps could
    hold, in one pass over each: node and edge ids overlap, a node has no
    parent or one that is neither the root nor a node, the link map has
    more or fewer keys than there are points (the nodes' source ports and
    the outer interface's negative names; the inner interface is empty),
    or an edge or a node port a point links to does not exist."""
    nodes, edges = b.nodes, b.edges
    problems = []
    if not edges.isdisjoint(nodes):
        problems.append(f"node and edge ids {sorted(edges & nodes.keys())} "
                        "overlap")
    root = Root(1)
    parent = b.node_parent
    for v in nodes:
        above = parent.get(v)
        if above is None:
            problems.append(f"node {v} has no parent")
        elif not (above in nodes or above == root):
            problems.append(f"node {v} has an unknown parent {above}")
    points = (sum([c.plus for c in nodes.values()])
              + sum([len(minus) for _, minus in b.outer.localities]))
    if len(b.link) != points:
        problems.append(f"{len(b.link)} linked points for {points} points")
    for point, target in b.link.items():
        kind = type(target)
        if kind is Edge:
            if target.ident not in edges:
                problems.append(f"{point} links to unknown edge {target}")
        elif kind is Port:
            ctrl = nodes.get(target.node)
            if ctrl is None or not 0 <= target.index < ctrl.minus:
                problems.append(f"{point} links to unknown port {target}")
    return problems
