"""Wiring and flow-check verdicts computed straight from a ``ComposeModel``.

The paper holds that docker-compose's composition *is* the composition of
bigraphs inside the environment, so the environment's wiring and each
verdict on the assembled composite must equal the same facts read off the
model.  Nothing here builds or reads a bigraph.
"""

from __future__ import annotations


def wiring(model) -> tuple[dict, dict]:
    """What the compose file wires to what, at the level of the model.

    Each (service, tagged name) that a service consumes maps to its target:
    ``("network", n)`` for ``n_<n>``, ``("volume", v)`` or, when ``v`` is
    declared external, ``("external", v)`` for ``v_<v>``, and
    ``("service", t)`` for the alias ``l_<alias>`` of a link to ``t``.  Each
    published host port maps to the (service, container port) it
    reaches."""
    targets, published = {}, {}
    for name, svc in model.services.items():
        for net in svc.networks:
            targets[name, "n_" + net] = ("network", net)
        for mount in svc.volumes:
            kind = "external" if model.volumes[mount.name].external else "volume"
            targets[name, "v_" + mount.name] = (kind, mount.name)
        for target, alias in svc.links:
            targets[name, "l_" + alias] = ("service", target)
        for host, container in svc.ports:
            published[host] = (name, container)
    return targets, published


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


def _reached(succ, start) -> set:
    """The nodes one or more steps from ``start``."""
    seen, todo = set(), [start]
    while todo:
        for nxt in succ.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def order_closure(pairs) -> set:
    """The (high, low) pairs of the transitive closure of ``pairs``."""
    below = {}
    for high, low in pairs:
        below.setdefault(high, set()).add(low)
    return {(high, low) for high in below for low in _reached(below, high)}


def leak_pairs(model, pairs) -> list[tuple[str, str]]:
    """(high, low) of each pair of the closed order whose high network
    reaches the low one over the flow arcs, sorted."""
    succ = {}
    for src, dst in flow_arcs(model):
        succ.setdefault(src, set()).add(dst)
    closed = order_closure(pairs)
    reach = {high: _reached(succ, ("network", high)) for high, _ in closed}
    return sorted((high, low) for high, low in closed
                  if ("network", low) in reach[high])
