"""Container bigraphs: the container signature and a builder that turns a
declarative container description into a well-formed bigraph.

A built container is one root holding one ``container`` node, with one
process node and the network and volume nodes nested inside it, and an
empty inner interface.  Every port links to an outer name: the process's
offers and the container's own name are offered, its consumed names and
the networks and volumes are consumed.

The signature keeps a ``request`` control although the builder places no
request node: every exported JSON document and every pattern file carries
it, and pattern matching rejects a pattern whose signature differs from the
host's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bigraph import (
    Bigraph, BigraphBuilder, Control, OuterName, Port, Root, Signature,
)
from .errors import UnresolvedName
from .interfaces import LocalInterface, check_name

__all__ = [
    "CONTAINER", "PROCESS", "REQUEST", "NETWORK", "VOLUME",
    "default_signature", "VolumeMount", "ContainerSpec",
    "build_container", "census",
]

CONTAINER = "container"
PROCESS = "process"
REQUEST = "request"
NETWORK = "network"
VOLUME = "volume"


def default_signature() -> Signature:
    """The fixed container signature; process arities are per-node."""
    return Signature(
        fixed=(
            Control(CONTAINER, 0, 1),
            Control(REQUEST, 1, 1),
            Control(NETWORK, 1, 1),
            Control(VOLUME, 1, 1),
        ),
        parametric=frozenset({PROCESS}),
    )


@dataclass(frozen=True)
class VolumeMount:
    """A volume mounted at ``path`` inside the container."""

    name: str
    path: str = ""
    read_only: bool = False


@dataclass(frozen=True)
class ContainerSpec:
    """One container running one process, which consumes ``consumes`` and
    offers ``offers``; a volume mounted at several paths is one name."""

    name: str
    networks: tuple[str, ...] = ()
    volumes: tuple[VolumeMount, ...] = ()
    consumes: tuple[str, ...] = ()
    offers: tuple[str, ...] = ()

    def names(self) -> tuple[frozenset[str], frozenset[str]]:
        """The (consumed, offered) outer names; raises UnresolvedName when a
        name is not a valid name, repeats on one side or is used on both."""
        plus = (*self.networks, *dict.fromkeys(v.name for v in self.volumes),
                *self.consumes)
        minus = (*self.offers, self.name)
        try:
            for n in (*plus, *minus):
                check_name(n)
        except ValueError as exc:
            raise UnresolvedName(f"{self.name}: {exc}") from exc
        consumed, offered = frozenset(plus), frozenset(minus)
        if (len(consumed) == len(plus) and len(offered) == len(minus)
                and consumed.isdisjoint(offered)):
            return consumed, offered
        for group, side in ((plus, "consumed"), (minus, "offered")):
            dupes = [n for n, k in Counter(group).items() if k > 1]
            if dupes:
                raise UnresolvedName(
                    f"{self.name}: {side} names clash: {sorted(dupes)}")
        raise UnresolvedName(f"{self.name}: names used with both polarities: "
                             f"{sorted(consumed & offered)}")


def build_container(spec: ContainerSpec) -> Bigraph:
    """Build the container bigraph for ``spec``; raises UnresolvedName as
    ``spec.names()`` does."""
    outer = LocalInterface.of((frozenset(), frozenset()), spec.names())
    b = BigraphBuilder(default_signature(), outer=outer)
    box = b.node(CONTAINER, parent=Root(1), name=spec.name)
    b.connect(OuterName(1, spec.name), Port(box, 0))
    for name in spec.networks:
        v = b.node(NETWORK, parent=box, name=name)
        b.connect(Port(v, 0), OuterName(1, name))
    for mount in spec.volumes:
        # the attribute keeps its old key so that exported documents do not
        # change; it holds the mount point inside the container
        v = b.node(VOLUME, parent=box, name=mount.name,
                   read_only=mount.read_only, host_path=mount.path)
        b.connect(Port(v, 0), OuterName(1, mount.name))

    proc = b.node(PROCESS, parent=box, plus=len(spec.consumes),
                  minus=len(spec.offers))
    for k, name in enumerate(spec.consumes):
        b.connect(Port(proc, k), OuterName(1, name))
    for k, name in enumerate(spec.offers):
        b.connect(OuterName(1, name), Port(proc, k))
    return b.build()


def census(b: Bigraph) -> Counter:
    """Node counts per control name."""
    return Counter(ctrl.name for ctrl in b.nodes.values())
