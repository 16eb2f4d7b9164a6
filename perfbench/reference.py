"""Expected verdicts, derived from the generator's stack descriptions.

Nothing here asks ldbig for an answer.  Link and leak verdicts come from the
benchmark's own container/network/volume graph, occurrence counts from
counting the shapes in the description, and the export census from the
description's sizes.  The one use of ldbig is the export round trip, which
checks ldbig's ``loads`` and ``dumps`` against each other.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from generate import Stack

# occurrences of each generated pattern, counted from the description
_OCCURRENCES = {
    "any-container": lambda svcs: len(svcs),
    "nested-container": lambda svcs: 0,
    "network-and-volume":
        lambda svcs: sum(len(s.attached()) * len(s.mounts) for s in svcs),
    "twin-networks": lambda svcs: 0,
}

_DOT_LABEL = re.compile(r'label="([a-z]+)(?: [^"\\]*)?\\n\(\d+\+,\d+-\) #\d+"')


def link_violations(stack: Stack) -> set[tuple[str, str]]:
    """Linked service pairs that share no network."""
    return {(svc.name, target)
            for svc in stack.services.values() for target, _ in svc.links
            if not set(svc.attached())
            & set(stack.services[target].attached())}


def flow_arcs(stack: Stack) -> dict[tuple[str, str], set[tuple[str, str]]]:
    """Read/write arcs between containers, networks and volumes; a network
    is read and written, a volume mounted ``:ro`` is only read."""
    arcs = defaultdict(set)
    for svc in stack.services.values():
        box = ("container", svc.name)
        for net in svc.attached():
            arcs[("network", net)].add(box)
            arcs[box].add(("network", net))
        for vol, _, read_only in svc.mounts:
            arcs[("volume", vol)].add(box)
            if not read_only:
                arcs[box].add(("volume", vol))
    return arcs


def _reachable(succ, start) -> set:
    seen, todo = {start}, [start]
    while todo:
        for nxt in succ.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def order_closure(order) -> set[tuple[str, str]]:
    succ = defaultdict(set)
    for high, low in order:
        succ[high].add(low)
    return {(high, low) for high in list(succ)
            for low in _reachable(succ, high) - {high}}


def leak_pairs(stack: Stack) -> set[tuple[str, str]]:
    """Ordered pairs whose higher network reaches the lower one."""
    arcs = flow_arcs(stack)
    reach = {}
    leaks = set()
    for high, low in order_closure(stack.order):
        if high not in reach:
            reach[high] = _reachable(arcs, ("network", high))
        if ("network", low) in reach[high]:
            leaks.add((high, low))
    return leaks


def census(stack: Stack) -> dict:
    """Sizes of the assembled composite, from the description."""
    svcs = list(stack.services.values())
    nodes = Counter(container=len(svcs), process=len(svcs),
                    network=sum(len(s.attached()) for s in svcs),
                    volume=sum(len(s.mounts) for s in svcs))
    closed_volumes = {v for s in svcs for v, _, _ in s.mounts
                      if not stack.volumes[v]}
    return {
        "nodes": +nodes,
        "edges": len(stack.used_networks()) + len(closed_volumes),
        "links": sum(len(s.attached()) + len(s.mounts) + len(s.links)
                     + len(s.ports) for s in svcs),
        "outer": [{"plus": [], "minus": []},
                  {"plus": sorted(v for v, ext in stack.volumes.items() if ext),
                   "minus": sorted(f"p_{h}" for s in svcs for h, _ in s.ports)}],
    }


@dataclass(frozen=True)
class Expected:
    """Everything a verdict on one stack is checked against."""

    rejected: bool
    links: frozenset
    leaks: frozenset
    arcs: dict
    occurrences: dict
    census: dict

    @classmethod
    def of(cls, stack: Stack, pattern_names=()) -> "Expected":
        svcs = list(stack.services.values())
        return cls(rejected=stack.rejection is not None,
                   links=frozenset(link_violations(stack)),
                   leaks=frozenset(leak_pairs(stack)),
                   arcs=flow_arcs(stack),
                   occurrences={n: _OCCURRENCES[n](svcs) for n in pattern_names},
                   census=census(stack))


def _findings(text: str, rc: int):
    report = json.loads(text)
    want_rc = {"ok": 0, "violations": 1, "inputError": 2}[report["status"]]
    if rc != want_rc:
        raise ValueError(f"exit {rc} with status {report['status']}")
    return [f["payload"] for f in report["findings"]]


def _check_path(exp: Expected, high: str, low: str, path) -> str | None:
    nodes = [(p["kind"], p["name"]) for p in path]
    if nodes[0] != ("network", high) or nodes[-1] != ("network", low):
        return f"witness {nodes} does not run from {high} to {low}"
    for a, b in zip(nodes, nodes[1:]):
        if b not in exp.arcs.get(a, ()):
            return f"witness step {a} -> {b} is not a read/write arc"
    return None


def verdict_error(command: str, exp: Expected, rc: int, text: str,
                  ldbig) -> str | None:
    """Why a CLI verdict disagrees with the reference, or None if it agrees."""
    if exp.rejected:
        if rc != 2 or "inputError" not in text:
            return f"expected an input error (exit 2), got exit {rc}"
        return None
    try:
        if command == "export-json":
            return _export_json_error(exp, rc, text, ldbig)
        if command == "export-dot":
            return _export_dot_error(exp, rc, text)
        payloads = _findings(text, rc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if command == "validate":
        return None if not payloads else f"unexpected findings {payloads}"
    if command == "check-links":
        got = {tuple(p["subject"]) for p in payloads}
        return None if got == exp.links else \
            f"unreachable links {sorted(got)} != {sorted(exp.links)}"
    if command == "check-security":
        got = {tuple(p["subject"]) for p in payloads}
        if got != exp.leaks:
            return f"leaks {sorted(got)} != {sorted(exp.leaks)}"
        for p in payloads:
            bad = _check_path(exp, *p["subject"], p["path"])
            if bad:
                return bad
        return None
    if command == "check-sorts":
        got = {p["pattern"]: len(p["occurrences"]) for p in payloads}
        want = {n: c for n, c in exp.occurrences.items() if c}
        return None if got == want else f"occurrences {got} != {want}"
    raise ValueError(f"unknown command {command!r}")


def _export_json_error(exp: Expected, rc: int, text: str, ldbig) -> str | None:
    if rc != 0:
        return f"export exited {rc}"
    doc = json.loads(text)
    got = {"nodes": Counter(n["control"]["name"] for n in doc["nodes"]),
           "edges": len(doc["edges"]), "links": len(doc["links"]),
           "outer": doc["outer"]}
    if got != exp.census:
        return f"census {got} != {exp.census}"
    b = ldbig.loads(text)
    if ldbig.loads(ldbig.dumps(b)) != b or ldbig.dumps(b) + "\n" != text:
        return "loads/dumps round trip changed the document"
    return None


def _export_dot_error(exp: Expected, rc: int, text: str) -> str | None:
    if rc != 0:
        return f"export exited {rc}"
    got = {"nodes": Counter(_DOT_LABEL.findall(text)),
           "links": sum(" -> " in line for line in text.splitlines())}
    want = {"nodes": exp.census["nodes"], "links": exp.census["links"]}
    return None if got == want else f"DOT census {got} != {want}"
