"""JSON and DOT serialization of bigraphs.

The JSON document carries the signature, both interfaces, nodes with their
parents and attributes, edges, site placement and the full link map; importing
it reproduces the bigraph exactly (same identifiers); a document of the wrong
shape raises ValueError naming the offending entry by its path.  DOT output
renders the place hierarchy as nested clusters and the link map as directed
arcs.  ``json_pieces`` and ``dot_pieces`` write a document straight from
the bigraph in pieces of bounded size, and ``dumps`` and ``to_dot`` join
them: ``dumps`` has the bytes of ``json.dumps(bigraph_to_json(b), indent=2,
sort_keys=True)``, and ``json_text`` (defined in ``jsontext``) writes the
parts it has no template for.  Reports are written by ``report``.
"""

from __future__ import annotations

import json

from .bigraph import (
    Bigraph, Control, Edge, InnerName, OuterName, Port, Root, Signature,
    validate,
)
from .interfaces import LocalInterface, check_name
from .jsontext import _NL, _chunks, _is_record, _listed, _nested, _quoted, \
    _record_texts, json_text
from .sorting import Pattern

__all__ = [
    "bigraph_to_json", "bigraph_from_json", "dumps", "json_text", "loads",
    "patterns_from_json", "to_dot",
]


_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string",
          bool: "a boolean"}


def _check(value, kind: type, path: str):
    # JSON true is no integer, though bool subclasses int
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
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


def _at(path: str, build, *args):
    """``build(*args)``, with a ValueError it raises prefixed by ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _interface_to_json(i: LocalInterface) -> list:
    return [{"plus": sorted(p), "minus": sorted(m)} for p, m in i.localities]


def _interface_from_json(data: dict, key: str, path: str) -> LocalInterface:
    return _at(f"{path}.{key}", LocalInterface, tuple(
        tuple(frozenset(_at(w, check_name, t) for w, t in _each(loc, side, str, where))
              for side in ("plus", "minus"))
        for where, loc in _each(data, key, dict, path, required=True)))


def _control_to_json(c: Control) -> dict:
    return {"name": c.name, "plus": c.plus, "minus": c.minus}


def _control_from_json(data: dict, path: str) -> Control:
    return _at(path, Control,
               _at(path, check_name, _field(data, "name", str, path)),
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


def _links(b: Bigraph) -> list:
    """The link map's items in export order: by the point's text."""
    return sorted(b.link.items(), key=lambda kv: str(kv[0]))


def _head(b: Bigraph) -> dict:
    """The document's parts other than its node and link entries."""
    return {
        "signature": {
            "controls": [_control_to_json(c) for c in b.signature.fixed],
            "parametric": sorted(b.signature.parametric),
        },
        "inner": _interface_to_json(b.inner),
        "outer": _interface_to_json(b.outer),
        "edges": sorted(b.edges),
        "sites": [{"index": s, "parent": _parent_to_json(p)}
                  for s, p in sorted(b.site_parent.items())],
    }


def bigraph_to_json(b: Bigraph) -> dict:
    nodes = [{"id": v, "control": _control_to_json(b.nodes[v]),
              "parent": _parent_to_json(b.node_parent.get(v)),
              **({"attrs": dict(b.attrs(v))} if b.attrs(v) else {})}
             for v in sorted(b.nodes)]
    return {**_head(b), "nodes": nodes,
            "links": [{"point": _ref_to_json(p), "link": _ref_to_json(t)}
                      for p, t in _links(b)]}


def bigraph_from_json(data: dict, path: str = "bigraph") -> Bigraph:
    """Import a bigraph document; ``path`` names it in shape errors."""
    _check(data, dict, path)
    sig = _field(data, "signature", dict, path, {})
    where = f"{path}.signature"
    signature = _at(where, Signature,
                    tuple(_control_from_json(c, w)
                          for w, c in _each(sig, "controls", dict, where)),
                    frozenset(_at(w, check_name, t)
                              for w, t in _each(sig, "parametric", str, where)))
    nodes, node_parent, attrs = {}, {}, {}
    for where, entry in _each(data, "nodes", dict, path):
        v = _field(entry, "id", int, where)
        nodes[v] = _control_from_json(_field(entry, "control", dict, where),
                                      f"{where}.control")
        node_parent[v] = _parent_from_json(entry, where)
        attrs[v] = dict(_field(entry, "attrs", dict, where, {}))
    site_parent = {_field(s, "index", int, where): _parent_from_json(s, where)
                   for where, s in _each(data, "sites", dict, path)}
    link = {_ref_from_json(e, "point", where): _ref_from_json(e, "link", where)
            for where, e in _each(data, "links", dict, path)}
    return Bigraph(signature,
                   _interface_from_json(data, "inner", path),
                   _interface_from_json(data, "outer", path),
                   nodes, {e for _, e in _each(data, "edges", int, path)},
                   site_parent, node_parent, link, attrs)


# json_pieces writes bigraph_to_json(b)'s text from b: a template per node
# and link entry, its braces at depth 2, fields at 3, theirs at 4; a piece's
# scalar-only attrs come from one encoder call, and a field that is no plain
# int or str, and each other part of the document, from json_text
_I1, _I2, _I3, _I4 = _NL[1], _NL[2], _NL[3], _NL[4]
_NAMES = {InnerName: "inner", OuterName: "outer"}


def _ref_text(x) -> str:
    """``_ref_to_json(x)`` written at depth 3, by a template per class."""
    kind = type(x)
    if kind is Port and type(x[1]) is int is type(x[2]):
        return f'{{{_I4}"index": {x[2]},{_I4}"kind": "port",{_I4}"node": {x[1]}{_I3}}}'
    if kind is Edge and type(x[1]) is int:
        return f'{{{_I4}"id": {x[1]},{_I4}"kind": "edge"{_I3}}}'
    if kind in _NAMES and type(x[1]) is int and type(x[2]) is str:
        return (f'{{{_I4}"kind": "{_NAMES[kind]}",{_I4}"locality": {x[1]},'
                f'{_I4}"text": {_quoted(x[2])}{_I3}}}')
    return _nested(_ref_to_json(x), 3)


def _control_text(c: Control) -> str:
    if type(c.name) is str and type(c.plus) is int is type(c.minus):
        return (f'{{{_I4}"minus": {c.minus},{_I4}"name": {_quoted(c.name)},'
                f'{_I4}"plus": {c.plus}{_I3}}}')
    return _nested(_control_to_json(c), 3)


def _node_texts(b: Bigraph):
    """The texts at depth 2 of the node entries, a list per piece; the
    attrs that are a record in a piece are written by one encoder call."""
    controls = {}
    for vs in _chunks(sorted(b.nodes)):
        records = {v: a for v in vs if _is_record(a := b.node_attrs.get(v))}
        attrs = dict(zip(records, _record_texts(list(records.values()), 3)))
        texts = []
        for v in vs:
            c, parent, a = b.nodes[v], b.node_parent.get(v), b.node_attrs.get(v)
            control = controls.get(c) or controls.setdefault(c, _control_text(c))
            parent = f'{{{_I4}"node": {parent}{_I3}}}' if type(parent) is int \
                else _nested(_parent_to_json(parent), 3)
            head = f'{{{_I3}"attrs": {attrs.get(v) or _nested(dict(a), 3)},' \
                if a else "{"
            v = v if type(v) is int else json_text(v)
            texts.append(f'{head}{_I3}"control": {control},{_I3}"id": {v},'
                         f'{_I3}"parent": {parent}{_I2}}}')
        yield texts


def json_pieces(b: Bigraph):
    """The text of ``dumps(b)``, in pieces made one at a time, each of at
    most ``_PIECE`` node or link entries."""
    links, parts = {}, _head(b)
    parts["links"] = (
        [f'{{{_I3}"link": {links.get(t) or links.setdefault(t, _ref_text(t))},'
         f'{_I3}"point": {_ref_text(p)}{_I2}}}' for p, t in chunk]
        for chunk in _chunks(_links(b)))
    parts["nodes"] = _node_texts(b)
    sep = "{"
    for key in sorted(parts):
        yield f"{sep}{_I1}{_quoted(key)}: "
        if key in ("links", "nodes"):
            yield from _listed(parts[key])
        else:
            yield _nested(parts[key], 1)
        sep = ","
    yield "\n}"


def dumps(b: Bigraph) -> str:
    """Exactly ``json_text(bigraph_to_json(b))``, written with no document
    tree."""
    return "".join(json_pieces(b))


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
        out.append(Pattern(name, b,
                           _field(entry, "anchor_at_roots", bool, path, False)))
    return out


# -- DOT export ---------------------------------------------------------------

def _quote(s: str) -> str:
    """A DOT string: backslashes and quotes escaped, a newline as ``\\n``."""
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


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


def dot_pieces(b: Bigraph, title: str):
    """The text of ``to_dot(b, title)``, in pieces made one at a time, each
    of at most ``_PIECE`` lines."""
    return ("\n".join(lines) + "\n" for lines in _chunks(_dot_lines(b, title)))


def to_dot(b: Bigraph, title: str = "bigraph") -> str:
    """Render nesting as clusters and the link map as directed arcs."""
    return "".join(dot_pieces(b, title))


def _dot_lines(b: Bigraph, title: str):
    yield f"digraph {_quote(title)} {{"
    yield "  rankdir=TB;"
    yield "  node [shape=box, fontsize=10];"

    def label(v: int) -> str:
        ctrl = b.nodes[v]
        name = b.attrs(v).get("name")
        base = f"{ctrl.name} {name}" if name else ctrl.name
        return f"{base}\n({ctrl.plus}+,{ctrl.minus}-) #{v}"

    def sites(place, indent: str):
        return (f"{indent}\"site_{s}\" [label=\"site {s}\", shape=box, "
                "style=dotted];" for s in b.sites_under(place))

    for r in range(1, b.outer.width + 1):
        yield f"  subgraph cluster_root_{r} {{"
        yield f"    label=\"root {r}\"; style=dashed;"
        yield from sites(Root(r), "    ")
        # depth-first with an explicit stack of (children left, indent)
        stack = [(iter(b.children(Root(r))), "    ")]
        while stack:
            children, indent = stack[-1]
            for v in children:
                if b.children(v) or b.sites_under(v):
                    yield f"{indent}subgraph cluster_n{v} {{"
                    yield f"{indent}  label={_quote(label(v))};"
                    yield f"{indent}  \"n{v}\" [label=\"\", shape=point];"
                    yield from sites(v, indent + "  ")
                    stack.append((iter(b.children(v)), indent + "  "))
                    break
                yield f"{indent}\"n{v}\" [label={_quote(label(v))}];"
            else:
                stack.pop()
                if stack:
                    yield f"{stack[-1][1]}}}"
        yield "  }"

    for interface, cls in ((b.inner, InnerName), (b.outer, OuterName)):
        for i, sides in enumerate(interface.localities):
            for texts, sign in zip(sides, "+-"):
                for t in sorted(texts):
                    yield (f"  {_dot_id(cls(i, t))} [label="
                           f"{_quote(f'{t}@{i}{sign}')}, shape=plaintext];")
    for e in sorted(b.edges):
        yield (f"  {_dot_id(Edge(e))} [label=\"e{e}\", shape=diamond, "
               "fontsize=8];")

    for p, t in _links(b):
        extras = []
        if isinstance(p, Port):
            extras.append(f"taillabel=\"{p.index}\"")
        if isinstance(t, Port):
            extras.append(f"headlabel=\"{t.index}\"")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        yield f"  {_dot_id(p)} -> {_dot_id(t)}{suffix};"
    yield "}"
