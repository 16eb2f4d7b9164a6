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
from typing import NamedTuple

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


class VolumeMount(NamedTuple):
    """A volume mounted at ``path`` inside the container."""

    name: str
    path: str = ""
    read_only: bool = False


class ContainerSpec(NamedTuple):
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


def _boxes(specs) -> tuple[list[int], int]:
    """The box id of each container of ``specs`` laid out side by side, and
    the largest node id.

    A container's nodes are numbered on from its box.  The first box is 1;
    each later one lies past the largest id so far or past its own
    container's size, whichever is larger: the ids the tensor's refresh
    gives containers built one by one."""
    boxes = []
    top = 0
    for spec in specs:
        size = 2 + len(spec.networks) + len(spec.volumes)
        box = max(top, size) + 1 if boxes else 1
        top = box + size - 1
        boxes.append(box)
    return boxes, top


def _lay_out(specs, boxes, root, reach, link, offered):
    """The nodes, parents and attributes of the containers of ``specs``,
    laid out from ``boxes``; their points are written to ``link`` and
    ``offered``.

    Container k's nodes are its box, under ``root(k)``, then its networks,
    its volumes and its process, under the box and numbered on from it in
    that order.  Each network, volume and consumed-alias port enters
    ``link`` in that order, linked to ``reach(k, name)`` for the tagged
    outer name it consumes.  Each outer name the container offers, its own
    first and then its ports', enters ``offered``, linked to the port of
    the box or of the process that it reaches."""
    box_control, net_control, vol_control = (
        _CONTROLS[CONTAINER], _CONTROLS[NETWORK], _CONTROLS[VOLUME])
    nodes: dict = {}
    parent: dict = {}
    attrs: dict = {}
    for k, (spec, box) in enumerate(zip(specs, boxes), 1):
        nodes[box], parent[box] = box_control, root(k)
        attrs[box] = {"name": spec.name}
        offered[OuterName(k, handle(CONTAINER, spec.name))] = Port(box, 0)
        v = box
        for name in spec.networks:
            v += 1
            nodes[v], parent[v], attrs[v] = net_control, box, {"name": name}
            link[Port(v, 0)] = reach(k, handle(NETWORK, name))
        for mount in spec.volumes:
            v += 1
            # the attribute keeps its old key so that exported documents do
            # not change; it holds the mount point inside the container
            nodes[v], parent[v] = vol_control, box
            attrs[v] = {"name": mount.name, "read_only": mount.read_only,
                        "host_path": mount.path}
            link[Port(v, 0)] = reach(k, handle(VOLUME, mount.name))

        proc = v + 1
        nodes[proc] = Control(PROCESS, len(spec.consumes), len(spec.offers))
        parent[proc] = box
        for i, alias in enumerate(spec.consumes):
            link[Port(proc, i)] = reach(k, handle("link", alias))
        for i, port in enumerate(spec.offers):
            offered[OuterName(k, handle("port", port))] = Port(proc, i)
    return nodes, parent, attrs


def build_container(*specs: ContainerSpec) -> Bigraph:
    """The container bigraphs of ``specs`` side by side, built in one pass:
    container k sits under root k, and its tagged names at outer locality k.

    Its node ids are those the tensor's refresh gives the one-spec builds,
    so the result equals ``tensor`` over them, dict order included, and no
    specs give the unit."""
    link: dict = {}
    nodes, parent, attrs = _lay_out(specs, _boxes(specs)[0], Root, OuterName,
                                    link, link)
    localities = [(frozenset(), frozenset()), *[s.names() for s in specs]]
    return Bigraph(_SIGNATURE, EMPTY_INTERFACE,
                   LocalInterface(tuple(localities)), nodes, (), {}, parent,
                   link, attrs)


def census(b: Bigraph) -> Counter:
    """Node counts per control name."""
    return Counter(ctrl.name for ctrl in b.nodes.values())
