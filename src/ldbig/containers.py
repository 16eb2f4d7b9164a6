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
        """The (consumed, offered) outer names, each tagged by ``handle``.

        Computed once and kept as a plain attribute: a ``cached_property``
        takes a lock and builds the instance's ``__dict__`` on its first
        read on CPython 3.11, which slowed assembly measurably."""
        names = getattr(self, "_names", None)
        if names is None:
            names = (frozenset([*(handle(NETWORK, n) for n in self.networks),
                                *(handle(VOLUME, v.name) for v in self.volumes),
                                *(handle("link", a) for a in self.consumes)]),
                     frozenset([*(handle("port", p) for p in self.offers),
                                handle(CONTAINER, self.name)]))
            object.__setattr__(self, "_names", names)
        return names


def build_container(*specs: ContainerSpec) -> Bigraph:
    """The container bigraphs of ``specs`` side by side, built in one pass:
    container k sits under root k, and its tagged names at outer locality k.

    Each container's nodes are its box, its networks, its volumes and its
    process, in that order.  The first container's are numbered from 1,
    each later one's past the largest id so far or past its own size,
    whichever is larger: the ids the tensor's refresh gives them.  So the
    result equals ``tensor`` over the one-spec builds, dict order included,
    and no specs give the unit."""
    box_control, net_control, vol_control = (
        _CONTROLS[CONTAINER], _CONTROLS[NETWORK], _CONTROLS[VOLUME])
    localities = [(frozenset(), frozenset())]
    nodes: dict = {}
    parent: dict = {}
    attrs: dict = {}
    link: dict = {}
    top = 0  # the largest node id so far
    for k, spec in enumerate(specs, 1):
        size = 2 + len(spec.networks) + len(spec.volumes)
        box = max(top, size) + 1 if nodes else 1
        top = box + size - 1
        localities.append(spec.names())
        nodes[box], parent[box] = box_control, Root(k)
        attrs[box] = {"name": spec.name}
        link[OuterName(k, handle(CONTAINER, spec.name))] = Port(box, 0)
        v = box
        for name in spec.networks:
            v += 1
            nodes[v], parent[v], attrs[v] = net_control, box, {"name": name}
            link[Port(v, 0)] = OuterName(k, handle(NETWORK, name))
        for mount in spec.volumes:
            v += 1
            # the attribute keeps its old key so that exported documents do
            # not change; it holds the mount point inside the container
            nodes[v], parent[v] = vol_control, box
            attrs[v] = {"name": mount.name, "read_only": mount.read_only,
                        "host_path": mount.path}
            link[Port(v, 0)] = OuterName(k, handle(VOLUME, mount.name))

        proc = top
        nodes[proc] = Control(PROCESS, len(spec.consumes), len(spec.offers))
        parent[proc] = box
        for i, alias in enumerate(spec.consumes):
            link[Port(proc, i)] = OuterName(k, handle("link", alias))
        for i, port in enumerate(spec.offers):
            link[OuterName(k, handle("port", port))] = Port(proc, i)
    return Bigraph(_SIGNATURE, EMPTY_INTERFACE,
                   LocalInterface(tuple(localities)), nodes, (), {}, parent,
                   link, attrs)


def census(b: Bigraph) -> Counter:
    """Node counts per control name."""
    return Counter(ctrl.name for ctrl in b.nodes.values())
