"""JSON and DOT serialization of bigraphs.

The JSON document carries the signature, both interfaces, nodes with their
parents and attributes, edges, site placement and the full link map; importing
it reproduces the bigraph exactly (same identifiers); a document of the wrong
shape raises ValueError naming the offending entry by its path.  DOT output
renders the place hierarchy as nested clusters and the link map as directed
arcs.
"""

from __future__ import annotations

import json

from .bigraph import (
    Bigraph, Control, Edge, InnerName, OuterName, Port, Root, Signature,
    validate,
)
from .interfaces import LocalInterface
from .sorting import Pattern

__all__ = [
    "bigraph_to_json", "bigraph_from_json", "dumps", "loads",
    "patterns_from_json", "to_dot",
]


_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _check(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise ValueError(f"{path}: expected {_KINDS[kind]}")
    return value


def _field(obj: dict, key: str, kind: type, path: str, default=None):
    """``obj[key]``, or ``default`` when absent, which must be a ``kind``."""
    return _check(obj.get(key, default), kind, f"{path}.{key}")


def _each(obj: dict, key: str, kind: type, path: str, required=False):
    """(path, entry) for each entry of the list ``obj[key]`` (empty when
    absent unless ``required``), each of which must be a ``kind``."""
    where = f"{path}.{key}"
    items = _field(obj, key, list, path, None if required else [])
    return [(f"{where}[{i}]", _check(x, kind, f"{where}[{i}]"))
            for i, x in enumerate(items)]


def _interface_to_json(i: LocalInterface) -> list:
    return [{"plus": sorted(p), "minus": sorted(m)} for p, m in i.localities]


def _interface_from_json(data: dict, key: str, path: str) -> LocalInterface:
    return LocalInterface(tuple(
        (frozenset(t for _, t in _each(loc, "plus", str, where)),
         frozenset(t for _, t in _each(loc, "minus", str, where)))
        for where, loc in _each(data, key, dict, path, required=True)))


def _control_to_json(c: Control) -> dict:
    return {"name": c.name, "plus": c.plus, "minus": c.minus}


def _control_from_json(data: dict, path: str) -> Control:
    return Control(_field(data, "name", str, path),
                   _field(data, "plus", int, path),
                   _field(data, "minus", int, path))


def _ref_to_json(x) -> dict:
    if isinstance(x, InnerName):
        return {"kind": "inner", "locality": x.locality, "text": x.text}
    if isinstance(x, OuterName):
        return {"kind": "outer", "locality": x.locality, "text": x.text}
    if isinstance(x, Port):
        return {"kind": "port", "node": x.node, "index": x.index}
    if isinstance(x, Edge):
        return {"kind": "edge", "id": x.ident}
    raise TypeError(f"not serializable: {x!r}")


def _ref_from_json(entry: dict, key: str, path: str):
    data = _field(entry, key, dict, path)
    path = f"{path}.{key}"
    kind = _field(data, "kind", str, path)
    if kind in ("inner", "outer"):
        cls = InnerName if kind == "inner" else OuterName
        return cls(_field(data, "locality", int, path),
                   _field(data, "text", str, path))
    if kind == "port":
        return Port(_field(data, "node", int, path),
                    _field(data, "index", int, path))
    if kind == "edge":
        return Edge(_field(data, "id", int, path))
    raise ValueError(f"{path}: unknown reference kind {kind!r}")


def _parent_to_json(p) -> dict:
    return {"root": p.index} if isinstance(p, Root) else {"node": p}


def _parent_from_json(entry: dict, path: str):
    data = _field(entry, "parent", dict, path)
    path = f"{path}.parent"
    if "root" in data:
        return Root(_field(data, "root", int, path))
    return _field(data, "node", int, path)


def bigraph_to_json(b: Bigraph) -> dict:
    nodes = []
    for v in sorted(b.nodes):
        entry = {"id": v, "control": _control_to_json(b.nodes[v]),
                 "parent": _parent_to_json(b.node_parent.get(v))}
        if b.attrs(v):
            entry["attrs"] = dict(b.attrs(v))
        nodes.append(entry)
    return {
        "signature": {
            "controls": [_control_to_json(c) for c in b.signature.fixed],
            "parametric": sorted(b.signature.parametric),
        },
        "inner": _interface_to_json(b.inner),
        "outer": _interface_to_json(b.outer),
        "nodes": nodes,
        "edges": sorted(b.edges),
        "sites": [{"index": s, "parent": _parent_to_json(p)}
                  for s, p in sorted(b.site_parent.items())],
        "links": [{"point": _ref_to_json(p), "link": _ref_to_json(t)}
                  for p, t in sorted(b.link.items(), key=lambda kv: str(kv[0]))],
    }


def bigraph_from_json(data: dict, path: str = "bigraph") -> Bigraph:
    """Import a bigraph document; ``path`` names it in shape errors."""
    _check(data, dict, path)
    sig = _field(data, "signature", dict, path, {})
    where = f"{path}.signature"
    signature = Signature(
        fixed=tuple(_control_from_json(c, w)
                    for w, c in _each(sig, "controls", dict, where)),
        parametric=frozenset(t for _, t in _each(sig, "parametric", str, where)),
    )
    nodes, node_parent, attrs = {}, {}, {}
    for where, entry in _each(data, "nodes", dict, path):
        v = _field(entry, "id", int, where)
        nodes[v] = _control_from_json(_field(entry, "control", dict, where),
                                      f"{where}.control")
        node_parent[v] = _parent_from_json(entry, where)
        attrs[v] = _field(entry, "attrs", dict, where, {})
    site_parent = {_field(s, "index", int, where): _parent_from_json(s, where)
                   for where, s in _each(data, "sites", dict, path)}
    link = {_ref_from_json(e, "point", where): _ref_from_json(e, "link", where)
            for where, e in _each(data, "links", dict, path)}
    return Bigraph(signature,
                   _interface_from_json(data, "inner", path),
                   _interface_from_json(data, "outer", path),
                   nodes, {e for _, e in _each(data, "edges", int, path)},
                   site_parent, node_parent, link, attrs)


def dumps(b: Bigraph, indent: int | None = 2) -> str:
    return json.dumps(bigraph_to_json(b), indent=indent, sort_keys=True)


def loads(text: str) -> Bigraph:
    return bigraph_from_json(json.loads(text))


def patterns_from_json(text: str) -> list[Pattern]:
    """Forbidden-pattern file: a JSON list of {name, bigraph} entries, each
    bigraph well-formed."""
    try:
        data = json.loads(text)
    except RecursionError as exc:  # the decoder recurses once per level
        raise ValueError("pattern file is nested too deeply") from exc
    if not isinstance(data, list):
        raise ValueError("pattern file must be a JSON list")
    out = []
    for i, entry in enumerate(data):
        path = f"patterns[{i}]"
        _check(entry, dict, path)
        name = _field(entry, "name", str, path, f"pattern{i}")
        b = bigraph_from_json(_field(entry, "bigraph", dict, path),
                              f"{path}.bigraph")
        problems = validate(b)
        if problems:
            raise ValueError(f"{path}.bigraph: not well-formed: "
                             + "; ".join(str(p) for p in problems))
        out.append(Pattern(name, b, bool(entry.get("anchor_at_roots", False))))
    return out


# -- DOT export ---------------------------------------------------------------

def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _dot_id(x) -> str:
    # always quoted: name texts may contain characters DOT ids reject
    if isinstance(x, InnerName):
        return _quote(f"in_{x.locality}_{x.text}")
    if isinstance(x, OuterName):
        return _quote(f"out_{x.locality}_{x.text}")
    if isinstance(x, Port):
        return _quote(f"n{x.node}")
    if isinstance(x, Edge):
        return _quote(f"e{x.ident}")
    raise TypeError(x)


def to_dot(b: Bigraph, title: str = "bigraph") -> str:
    """Render nesting as clusters and the link map as directed arcs."""
    lines = [f"digraph {_quote(title)} {{", "  rankdir=TB;",
             "  node [shape=box, fontsize=10];"]

    def label(v: int) -> str:
        ctrl = b.nodes[v]
        name = b.attrs(v).get("name")
        base = f"{ctrl.name} {name}" if name else ctrl.name
        return f"{base}\\n({ctrl.plus}+,{ctrl.minus}-) #{v}"

    def open_place(place, indent: str):
        for s in b.sites_under(place):
            lines.append(f"{indent}\"site_{s}\" [label=\"site {s}\", "
                         "shape=box, style=dotted];")
        return iter(b.children(place)), indent

    def emit_place(place, indent: str):
        # depth-first with an explicit stack of (children left, indent)
        stack = [open_place(place, indent)]
        while stack:
            children, indent = stack[-1]
            for v in children:
                if b.children(v) or b.sites_under(v):
                    lines.append(f"{indent}subgraph cluster_n{v} {{")
                    lines.append(f"{indent}  label={_quote(label(v))};")
                    lines.append(f"{indent}  \"n{v}\" [label=\"\", shape=point];")
                    stack.append(open_place(v, indent + "  "))
                    break
                lines.append(f"{indent}\"n{v}\" [label={_quote(label(v))}];")
            else:
                stack.pop()
                if stack:
                    lines.append(f"{stack[-1][1]}}}")

    for r in range(1, b.outer.width + 1):
        lines.append(f"  subgraph cluster_root_{r} {{")
        lines.append(f"    label=\"root {r}\"; style=dashed;")
        emit_place(Root(r), "    ")
        lines.append("  }")

    for i in range(len(b.inner.localities)):
        for t in sorted(b.inner.plus(i)):
            lines.append(f"  {_dot_id(InnerName(i, t))} "
                         f"[label={_quote(f'{t}@{i}+')}, shape=plaintext];")
        for t in sorted(b.inner.minus(i)):
            lines.append(f"  {_dot_id(InnerName(i, t))} "
                         f"[label={_quote(f'{t}@{i}-')}, shape=plaintext];")
    for i in range(len(b.outer.localities)):
        for t in sorted(b.outer.plus(i)):
            lines.append(f"  {_dot_id(OuterName(i, t))} "
                         f"[label={_quote(f'{t}@{i}+')}, shape=plaintext];")
        for t in sorted(b.outer.minus(i)):
            lines.append(f"  {_dot_id(OuterName(i, t))} "
                         f"[label={_quote(f'{t}@{i}-')}, shape=plaintext];")
    for e in sorted(b.edges):
        lines.append(f"  {_dot_id(Edge(e))} [label=\"e{e}\", shape=diamond, "
                     "fontsize=8];")

    for p, t in sorted(b.link.items(), key=lambda kv: str(kv[0])):
        extras = []
        if isinstance(p, Port):
            extras.append(f"taillabel=\"{p.index}\"")
        if isinstance(t, Port):
            extras.append(f"headlabel=\"{t.index}\"")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        lines.append(f"  {_dot_id(p)} -> {_dot_id(t)}{suffix};")

    lines.append("}")
    return "\n".join(lines) + "\n"
