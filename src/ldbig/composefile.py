"""docker-compose frontend: parse a YAML subset, build the environment
bigraph and per-service container stubs, and assemble the composite.

Supported subset: version '2'; per-service keys image, links, ports, expose,
networks, volumes; top-level networks (driver recorded, ignored) and volumes
(external flag).  Services without a ``networks`` key join the implicit
``default`` network.  A key repeated within one mapping is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import yaml

from .algebra import compose, identity, tensor
from .bigraph import Bigraph, Edge, InnerName, OuterName, Root, validate
from .containers import (
    CONTAINER, NETWORK, VOLUME, ContainerSpec, VolumeMount, build_container,
    default_signature, handle, stub_size,
)
from .errors import (
    ComposeSyntaxError, DanglingReference, LdbError, UnsupportedKey,
)
from .interfaces import LocalInterface, EMPTY_INTERFACE, check_name
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


def _parse_volume(entry, path) -> VolumeMount:
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
    return VolumeMount(_require_name(name, path), mount,
                       read_only=(flag == "ro"))


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
        vols = tuple([_parse_volume(e, f"{name}.volumes") for e in
                      _require_list(body.get("volumes"), f"{name}.volumes")])
        if "networks" in body:
            nets = tuple([_require_name(e, f"{name}.networks") for e in
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


def environment_bigraph(model: ComposeModel, *, offset: int = 0) -> Bigraph:
    """The context bigraph: one root, one site per service, link wiring for
    aliases, shared networks, volumes and published-port renaming.

    Its edges are numbered ``offset + 1`` on."""
    order = list(model.services)
    site_of = {name: i + 1 for i, name in enumerate(order)}

    # one pass over the services: interface names and each resource's users
    localities = [(frozenset(), frozenset())]
    net_users: dict[str, list[str]] = {}
    vol_users: dict[str, list[str]] = {}
    for spec in model.containers.values():
        localities.append(spec.names())
        for net in spec.networks:
            net_users.setdefault(net, []).append(spec.name)
        for vol in dict.fromkeys(v.name for v in spec.volumes):
            vol_users.setdefault(vol, []).append(spec.name)
    inner = LocalInterface(tuple(localities))

    outer_plus = {v for v, decl in model.volumes.items() if decl.external}
    outer_minus = {handle("port", host) for svc in model.services.values()
                   for host, _ in svc.ports}
    outer = LocalInterface.of((frozenset(), frozenset()),
                              (outer_plus, outer_minus))

    root = Root(1)
    site_parent = {site_of[name]: root for name in order}
    edges: list[int] = []
    link: dict = {}

    def edge() -> Edge:
        edges.append(offset + len(edges) + 1)
        return Edge(edges[-1])

    # one edge per network in use joins the attached services' network names
    for net in model.networks:
        users = net_users.get(net)
        if not users:
            continue
        e = edge()
        for n in users:
            link[InnerName(site_of[n], handle(NETWORK, net))] = e

    # volumes: external ones surface on the outer interface, others close
    for vol, decl in model.volumes.items():
        users = vol_users.get(vol, [])
        inner_vol = handle(VOLUME, vol)
        if decl.external:
            for n in users:
                link[InnerName(site_of[n], inner_vol)] = OuterName(1, vol)
        elif users:
            e = edge()
            for n in users:
                link[InnerName(site_of[n], inner_vol)] = e

    # link aliases target the linked service's identity handle
    for name in order:
        for target, alias in model.services[name].links:
            link[InnerName(site_of[name], handle("link", alias))] = InnerName(
                site_of[target], handle(CONTAINER, target))

    # published ports: the outer host-port name reaches the container port
    for name in order:
        for host, container in model.services[name].ports:
            link[OuterName(1, handle("port", host))] = InnerName(
                site_of[name], handle("port", container))

    return Bigraph(default_signature(), inner, outer, {}, edges, site_parent,
                   {}, link)


def container_stub(name: str, model: ComposeModel, *,
                   offset: int = 0) -> Bigraph:
    """The canonical container bigraph for one service: one process consuming
    the link aliases and offering the container ports, one network node per
    attached network, one volume node per mount.

    Its nodes are numbered ``offset + 1`` on."""
    if name not in model.services:
        raise KeyError(f"no service {name!r} in the model")
    return build_container(model.containers[name], offset=offset)


def stub_block(model: ComposeModel) -> Bigraph:
    """The tensor of all container stubs in service order; with no services,
    the identity on the empty interface.

    Each stub is numbered as the tensor's refresh would shift it: the
    first from 1, each later one past the largest id so far or past its
    own size, whichever is larger, so that the tensor finds no id twice
    and shifts none."""
    stubs = []
    top = 0
    for name, spec in model.containers.items():
        size = stub_size(spec)
        offset = max(top, size) if stubs else 0
        stubs.append(container_stub(name, model, offset=offset))
        top = offset + size
    if not stubs:
        return identity(EMPTY_INTERFACE, default_signature())
    return tensor(*stubs)


def assemble(model: ComposeModel) -> Bigraph:
    """Compose the environment over the tensor of all container stubs.

    The environment's edges are numbered past the block's largest node id,
    the shift that ``compose`` would give them, so ``compose`` shifts
    nothing. The pipeline's one well-formedness check: an ill-formed
    composite raises LdbError, which the CLI reports as an input error.
    """
    block = stub_block(model)
    env = environment_bigraph(model, offset=max(block.nodes, default=0))
    result = compose(env, block)
    problems = validate(result)
    if problems:
        raise LdbError("assembled bigraph is not well-formed: "
                       + "; ".join(str(p) for p in problems))
    return result
