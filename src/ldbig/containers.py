"""Container bigraphs: the container signature and a builder that turns a
declarative container description into a well-formed bigraph.

A built container is one root holding one ``container`` node, with one
process node and the network and volume nodes nested inside it, and an
empty inner interface.  Every port links to an outer name: the process's
offers and the container's own name are offered, its consumed names and
the networks and volumes are consumed.  ``handle`` tags each outer name
with its kind, so names of two kinds never meet.

The signature keeps a ``request`` control although the builder places no
request node: every exported JSON document and every pattern file carries
it, and pattern matching rejects a pattern whose signature differs from the
host's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bigraph import Bigraph, Control, OuterName, Port, Root, Signature
from .interfaces import EMPTY_INTERFACE, LocalInterface

__all__ = [
    "CONTAINER", "PROCESS", "REQUEST", "NETWORK", "VOLUME",
    "default_signature", "handle", "VolumeMount", "ContainerSpec",
    "build_container", "census",
]

CONTAINER = "container"
PROCESS = "process"
REQUEST = "request"
NETWORK = "network"
VOLUME = "volume"

_TAGS = {NETWORK: "n", VOLUME: "v", "link": "l", "port": "p", CONTAINER: "c"}


def handle(kind: str, text: str) -> str:
    """The outer name of a container's ``kind`` handle ``text``, where kind
    is network, volume, link (a consumed alias), port (an offered port) or
    container (the container itself): ``text`` behind the kind's tag."""
    return f"{_TAGS[kind]}_{text}"


_SIGNATURE = Signature(
    fixed=(Control(CONTAINER, 0, 1), Control(REQUEST, 1, 1),
           Control(NETWORK, 1, 1), Control(VOLUME, 1, 1)),
    parametric=frozenset({PROCESS}))
_CONTROLS = {c.name: c for c in _SIGNATURE.fixed}


def default_signature() -> Signature:
    """The fixed container signature, built once (a Signature is
    immutable); process arities are per-node."""
    return _SIGNATURE


@dataclass(frozen=True)
class VolumeMount:
    """A volume mounted at ``path`` inside the container."""

    name: str
    path: str = ""
    read_only: bool = False


@dataclass(frozen=True)
class ContainerSpec:
    """One container running one process, which consumes the link aliases
    ``consumes`` and offers the ports ``offers``; a volume mounted at
    several paths is one name."""

    name: str
    networks: tuple[str, ...] = ()
    volumes: tuple[VolumeMount, ...] = ()
    consumes: tuple[str, ...] = ()
    offers: tuple[str, ...] = ()

    def names(self) -> tuple[frozenset[str], frozenset[str]]:
        """The (consumed, offered) outer names, each tagged by ``handle``."""
        return (frozenset([*(handle(NETWORK, n) for n in self.networks),
                           *(handle(VOLUME, v.name) for v in self.volumes),
                           *(handle("link", a) for a in self.consumes)]),
                frozenset([*(handle("port", p) for p in self.offers),
                           handle(CONTAINER, self.name)]))


def build_container(spec: ContainerSpec, *, names=None,
                    offset: int = 0) -> Bigraph:
    """Build the container bigraph for ``spec``: the container, its
    networks, its volumes and its process are nodes ``offset + 1`` on, in
    that order. ``names`` is ``spec.names()``, when the caller has it."""
    if names is None:
        names = spec.names()
    outer = LocalInterface.of((frozenset(), frozenset()), names)
    box = offset + 1
    nodes = {box: _CONTROLS[CONTAINER]}
    parent = {box: Root(1)}
    attrs = {box: {"name": spec.name}}
    link = {OuterName(1, handle(CONTAINER, spec.name)): Port(box, 0)}
    v = box
    for name in spec.networks:
        v += 1
        nodes[v], parent[v], attrs[v] = _CONTROLS[NETWORK], box, {"name": name}
        link[Port(v, 0)] = OuterName(1, handle(NETWORK, name))
    for mount in spec.volumes:
        v += 1
        # the attribute keeps its old key so that exported documents do not
        # change; it holds the mount point inside the container
        nodes[v], parent[v] = _CONTROLS[VOLUME], box
        attrs[v] = {"name": mount.name, "read_only": mount.read_only,
                    "host_path": mount.path}
        link[Port(v, 0)] = OuterName(1, handle(VOLUME, mount.name))

    proc = v + 1
    nodes[proc] = Control(PROCESS, len(spec.consumes), len(spec.offers))
    parent[proc] = box
    for k, alias in enumerate(spec.consumes):
        link[Port(proc, k)] = OuterName(1, handle("link", alias))
    for k, port in enumerate(spec.offers):
        link[OuterName(1, handle("port", port))] = Port(proc, k)
    return Bigraph(_SIGNATURE, EMPTY_INTERFACE, outer, nodes, (), {}, parent,
                   link, attrs)


def census(b: Bigraph) -> Counter:
    """Node counts per control name."""
    return Counter(ctrl.name for ctrl in b.nodes.values())
