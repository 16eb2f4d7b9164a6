"""Container bigraphs: the container signature and a builder that turns a
declarative container description into a well-formed bigraph.

A built container is one root holding one ``container`` node, with process,
network and volume nodes nested inside it, and an empty inner interface.
Exposed offers route to the outer interface; consumed names resolve to
sibling network, volume or offer ports, or else to fresh outer names.

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
from .interfaces import LocalInterface

__all__ = [
    "CONTAINER", "PROCESS", "REQUEST", "NETWORK", "VOLUME",
    "default_signature", "ProcessSpec", "VolumeMount", "ContainerSpec",
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
class ProcessSpec:
    """One process: ``offers`` name its target ports, ``consumes`` say what
    each source port points at."""

    offers: tuple[str, ...] = ()
    consumes: tuple[str, ...] = ()

    def arity(self) -> tuple[int, int]:
        return len(self.consumes), len(self.offers)


@dataclass(frozen=True)
class VolumeMount:
    name: str
    host_path: str = ""
    read_only: bool = False


@dataclass(frozen=True)
class ContainerSpec:
    """Declarative description of one container bigraph."""

    name: str
    processes: tuple[ProcessSpec, ...] = ()
    networks: tuple[str, ...] = ()
    volumes: tuple[VolumeMount, ...] = ()
    exposed_ports: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "networks", tuple(self.networks))
        object.__setattr__(self, "volumes", tuple(self.volumes))
        object.__setattr__(self, "exposed_ports", tuple(self.exposed_ports))


def build_container(spec: ContainerSpec,
                    signature: Signature | None = None) -> Bigraph:
    """Build the container bigraph for ``spec``; raises UnresolvedName on a
    handle offered twice, an exposed port no process offers, or a clash of
    outer names."""
    signature = signature or default_signature()

    offers: set[str] = set()
    for proc in spec.processes:
        for name in proc.offers:
            if name in offers:
                raise UnresolvedName(
                    f"{spec.name}: handle {name!r} offered twice")
            offers.add(name)
    for port in spec.exposed_ports:
        if port not in offers:
            raise UnresolvedName(
                f"{spec.name}: exposed port {port!r} is offered by no process")

    exposed = set(spec.exposed_ports)
    resources = set(spec.networks) | {v.name for v in spec.volumes}
    # names resolved by nothing inside become demanded outer names
    link_outs = {n for proc in spec.processes for n in proc.consumes
                 if n not in resources and n not in offers}
    try:
        outer = LocalInterface.of((frozenset(), frozenset()),
                                  (resources | link_outs, exposed | {spec.name}))
    except ValueError as exc:
        raise UnresolvedName(f"{spec.name}: {exc}") from exc

    b = BigraphBuilder(signature, outer=outer)
    box = b.node(CONTAINER, parent=Root(1), name=spec.name)
    b.connect(OuterName(1, spec.name), Port(box, 0))

    nets: dict[str, Port] = {}
    for name in spec.networks:
        v = b.node(NETWORK, parent=box, name=name)
        b.connect(Port(v, 0), OuterName(1, name))
        nets[name] = Port(v, 0)
    vols: dict[str, Port] = {}
    for mount in spec.volumes:
        v = b.node(VOLUME, parent=box, name=mount.name,
                   read_only=mount.read_only, host_path=mount.host_path)
        b.connect(Port(v, 0), OuterName(1, mount.name))
        vols[mount.name] = Port(v, 0)

    procs = []
    for proc in spec.processes:
        plus, minus = proc.arity()
        procs.append(b.node(PROCESS, parent=box, plus=plus, minus=minus))
    offered = {name: Port(v, k) for v, proc in zip(procs, spec.processes)
               for k, name in enumerate(proc.offers)}

    # a consumed name is a network, else a volume, else a sibling's offer
    targets = {**offered, **vols, **nets}
    for v, proc in zip(procs, spec.processes):
        for k, name in enumerate(proc.consumes):
            b.connect(Port(v, k), targets.get(name, OuterName(1, name)))
    for port in exposed:
        b.connect(OuterName(1, port), offered[port])

    return b.build()


def census(b: Bigraph) -> Counter:
    """Node counts per control name."""
    return Counter(ctrl.name for ctrl in b.nodes.values())
