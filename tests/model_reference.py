"""Flow-check verdicts computed straight from a ``ComposeModel``.

The paper holds that docker-compose's composition *is* the composition of
bigraphs inside the environment, so each verdict on the assembled composite
must equal the same verdict read off the model.  Nothing here builds or
reads a bigraph.
"""

from __future__ import annotations


def unreachable_links(model) -> list[tuple[str, str]]:
    """(service, target) of each link between two services that share no
    network, sorted; a service linking itself forms no pair."""
    services = model.services
    return sorted({(name, target) for name, svc in services.items()
                   for target, _ in svc.links
                   if target != name
                   and not set(svc.networks) & set(services[target].networks)})


def flow_arcs(model) -> set:
    """((kind, name), (kind, name)) read and write arcs: a service reads and
    writes each network it joins and reads each volume it mounts, and writes
    that volume unless every one of its mounts of it is ``:ro``."""
    arcs = set()
    for name, svc in model.services.items():
        box = ("container", name)
        for net in svc.networks:
            arcs |= {(("network", net), box), (box, ("network", net))}
        for vol in svc.volumes:
            arcs.add((("volume", vol.name), box))
            if not vol.read_only:
                arcs.add((box, ("volume", vol.name)))
    return arcs
