"""docker-compose frontend: parse a YAML subset, build the environment
bigraph and per-service container stubs, and assemble the composite.

Supported subset: version '2'; per-service keys image, links, ports, expose,
networks, volumes; top-level networks (driver recorded, ignored) and volumes
(external flag).  Services without a ``networks`` key join the implicit
``default`` network.  A key repeated within one mapping is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .algebra import compose, identity, tensor
from .bigraph import Bigraph, BigraphBuilder, InnerName, OuterName, Root, validate
from .containers import (
    ContainerSpec, ProcessSpec, VolumeMount, build_container,
    default_signature,
)
from .errors import (
    ComposeSyntaxError, DanglingReference, LdbError, UnsupportedKey,
)
from .interfaces import LocalInterface, EMPTY_INTERFACE

__all__ = [
    "ServiceVolume", "ServiceSpec", "NetworkDecl", "VolumeDecl",
    "ComposeModel", "parse_compose", "environment_bigraph", "container_stub",
    "stub_block", "assemble", "DEFAULT_NETWORK",
]

DEFAULT_NETWORK = "default"

_TOP_KEYS = {"version", "services", "networks", "volumes"}
_SERVICE_KEYS = {"image", "links", "ports", "expose", "networks", "volumes"}


@dataclass(frozen=True)
class ServiceVolume:
    name: str
    path: str
    read_only: bool = False


@dataclass(frozen=True)
class ServiceSpec:
    image: str
    links: tuple[tuple[str, str], ...] = ()      # (target, alias)
    ports: tuple[tuple[str, str], ...] = ()      # (host, container)
    expose: tuple[str, ...] = ()
    networks: tuple[str, ...] = ()
    volumes: tuple[ServiceVolume, ...] = ()

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


def _port_name(container_port: str) -> str:
    return f"p_{container_port}"


def _alias_name(alias: str) -> str:
    return f"l_{alias}"


def _require_str(value, path) -> str:
    if not isinstance(value, str) or not value:
        raise ComposeSyntaxError(f"{path}: expected a non-empty string, "
                                 f"got {value!r}")
    return value


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
        name = _require_str(name, key)
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
    text = _require_str(entry, path)
    parts = text.split(":")
    if len(parts) == 1:
        return parts[0], parts[0]
    if len(parts) == 2 and all(parts):
        return parts[0], parts[1]
    raise ComposeSyntaxError(f"{path}: expected \"service\" or "
                             f"\"service:alias\", got {text!r}")


def _parse_volume(entry, path) -> ServiceVolume:
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
    return ServiceVolume(name, mount, read_only=(flag == "ro"))


def _interface_names(name: str, svc: ServiceSpec):
    """The (positive, negative) name texts a service contributes; duplicates
    signal a clash the bigraph interfaces cannot represent.

    A volume mounted at several paths is one name (its nodes fan in), so
    volume names are deduplicated here.
    """
    plus = [*svc.networks, *dict.fromkeys(v.name for v in svc.volumes),
            *(_alias_name(a) for _, a in svc.links)]
    minus = [_port_name(c) for c in svc.container_ports()] + [name]
    return plus, minus


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, rejecting a key repeated within one mapping (merged
    ``<<`` keys may still be overridden)."""

    def construct_mapping(self, node, deep=False):
        own = node.value  # merging deletes the << entries from this list
        count = len(own)
        mapping = super().construct_mapping(node, deep=deep)
        if len(mapping) < count or node.value is not own:
            seen = set()
            for key_node, _ in own:
                key = self.construct_object(key_node)  # already constructed
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return mapping


def parse_compose(text: str) -> ComposeModel:
    """Parse and validate a docker-compose document in the supported subset."""
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else None
        raise ComposeSyntaxError(f"malformed YAML: {exc.problem}", line=line) from exc
    except yaml.YAMLError as exc:
        raise ComposeSyntaxError(f"malformed YAML: {exc}") from exc
    except RecursionError as exc:  # the composer recurses once per level
        raise ComposeSyntaxError("malformed YAML: nested too deeply") from exc

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

    networks = {name: NetworkDecl(driver=body.get("driver"))
                for name, body in _declarations(doc, "networks", "driver")}
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
        name = _require_str(name, "services")
        if not isinstance(body, dict):
            raise ComposeSyntaxError(f"{name}: expected a mapping of service keys")
        for key in body:
            if key not in _SERVICE_KEYS:
                raise UnsupportedKey(f"{name}.{key}")
        image = _require_str(body.get("image"), f"{name}.image")
        links = tuple(_parse_link(e, f"{name}.links") for e in
                      _require_list(body.get("links"), f"{name}.links"))
        ports = tuple(_parse_port(e, f"{name}.ports") for e in
                      _require_list(body.get("ports"), f"{name}.ports"))
        expose = tuple(_parse_expose(e, f"{name}.expose") for e in
                       _require_list(body.get("expose"), f"{name}.expose"))
        vols = tuple(_parse_volume(e, f"{name}.volumes") for e in
                     _require_list(body.get("volumes"), f"{name}.volumes"))
        if "networks" in body:
            nets = tuple(_require_str(e, f"{name}.networks") for e in
                         _require_list(body.get("networks"), f"{name}.networks"))
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
        aliases = [a for _, a in svc.links]
        if len(aliases) != len(set(aliases)):
            raise ComposeSyntaxError(f"{name}.links: duplicate alias")
        plus, minus = _interface_names(name, svc)
        for group, side in ((plus, "consumed"), (minus, "offered")):
            dupes = {n for n in group if group.count(n) > 1}
            if dupes:
                raise ComposeSyntaxError(
                    f"{name}: {side} names clash: {sorted(dupes)}")
        both = set(plus) & set(minus)
        if both:
            raise ComposeSyntaxError(f"{name}: names used with both polarities: "
                                     f"{sorted(both)}")

    return ComposeModel(version=version, services=services,
                        networks=networks, volumes=volumes)


def environment_bigraph(model: ComposeModel) -> Bigraph:
    """The context bigraph: one root, one site per service, link wiring for
    aliases, shared networks, volumes and published-port renaming."""
    order = list(model.services)
    site_of = {name: i + 1 for i, name in enumerate(order)}

    # one pass over the services: interface names and each resource's users
    localities = [(frozenset(), frozenset())]
    net_users: dict[str, list[str]] = {}
    vol_users: dict[str, list[str]] = {}
    for name in order:
        svc = model.services[name]
        plus, minus = _interface_names(name, svc)
        localities.append((frozenset(plus), frozenset(minus)))
        for net in svc.networks:
            net_users.setdefault(net, []).append(name)
        for vol in dict.fromkeys(v.name for v in svc.volumes):
            vol_users.setdefault(vol, []).append(name)
    inner = LocalInterface(tuple(localities))

    outer_plus = {v for v, decl in model.volumes.items() if decl.external}
    outer_minus = {_port_name(host) for svc in model.services.values()
                   for host, _ in svc.ports}
    outer = LocalInterface.of((frozenset(), frozenset()),
                              (outer_plus, outer_minus))

    b = BigraphBuilder(default_signature(), inner=inner, outer=outer)
    for name in order:
        b.site(site_of[name], parent=Root(1))

    # one edge per network in use joins the attached services' network names
    for net in model.networks:
        users = net_users.get(net)
        if not users:
            continue
        e = b.edge()
        for n in users:
            b.connect(InnerName(site_of[n], net), e)

    # volumes: external ones surface on the outer interface, others close
    for vol, decl in model.volumes.items():
        users = vol_users.get(vol, [])
        if decl.external:
            for n in users:
                b.connect(InnerName(site_of[n], vol), OuterName(1, vol))
        elif users:
            e = b.edge()
            for n in users:
                b.connect(InnerName(site_of[n], vol), e)

    # link aliases target the linked service's identity handle
    for name in order:
        for target, alias in model.services[name].links:
            b.connect(InnerName(site_of[name], _alias_name(alias)),
                      InnerName(site_of[target], target))

    # published ports: the outer host-port name reaches the container port
    for name in order:
        for host, container in model.services[name].ports:
            b.connect(OuterName(1, _port_name(host)),
                      InnerName(site_of[name], _port_name(container)))

    return b.build()


def container_stub(name: str, model: ComposeModel) -> Bigraph:
    """The canonical container bigraph for one service: one process consuming
    the link aliases and offering the container ports, one network node per
    attached network, one volume node per mount."""
    if name not in model.services:
        raise KeyError(f"no service {name!r} in the model")
    svc = model.services[name]
    port_names = tuple(_port_name(c) for c in svc.container_ports())
    alias_names = tuple(_alias_name(a) for _, a in svc.links)
    spec = ContainerSpec(
        name=name,
        processes=(ProcessSpec(offers=port_names, consumes=alias_names),),
        networks=svc.networks,
        volumes=tuple(VolumeMount(v.name, host_path=v.path,
                                  read_only=v.read_only)
                      for v in svc.volumes),
        exposed_ports=port_names,
    )
    return build_container(spec)


def stub_block(model: ComposeModel) -> Bigraph:
    """The tensor of all container stubs in service order; with no services,
    the identity on the empty interface."""
    stubs = [container_stub(name, model) for name in model.services]
    if not stubs:
        return identity(EMPTY_INTERFACE, default_signature())
    return tensor(*stubs)


def assemble(model: ComposeModel) -> Bigraph:
    """Compose the environment over the tensor of all container stubs.

    The pipeline's one well-formedness check: an ill-formed composite raises
    LdbError, which the CLI reports as an input error.
    """
    env = environment_bigraph(model)
    block = stub_block(model)
    result = compose(env, block)
    problems = validate(result)
    if problems:
        raise LdbError("assembled bigraph is not well-formed: "
                       + "; ".join(str(p) for p in problems))
    return result
