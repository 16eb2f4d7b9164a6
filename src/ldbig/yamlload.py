"""Python values straight from a YAML loader's parse events.

``load(text, source)`` gives what ``yaml.load(text, Loader=source)`` gives
for a safe loader, with a key repeated within one mapping refused, but it
builds the values in one pass over the events, with an explicit stack and
no ``Node`` graph: nothing recurses, and more than ``MAX_DEPTH`` open
collections is an error.

It keeps what PyYAML's composer and ``SafeConstructor`` do: scalars are
resolved by the loader and built by the loader's own constructors, an
alias gives the same object, ``<<`` merges a mapping or a list of mappings
(earlier list entries win, merged keys come first and may be overridden),
an ``=`` key reads as ``'='``, and only one document is read. Each error
keeps PyYAML's problem and mark; where a scalar constructor raises no YAML
error (``!!bool x`` raises ``KeyError``), a ``ConstructorError`` at the
scalar's mark takes its place. The constructor builds nodes breadth
first, so when a document holds several construction errors the one it
meets first is not always the first in the text; ``_first_fault`` walks
the built values in that order to raise the same one.

Two documents PyYAML reads are refused: an alias to a collection that is
still open (``a: &x [*x]``), and a collection tagged other than ``!!seq``
or ``!!map`` (``!!set``, ``!!omap``, ``!!pairs``), which gets the
constructor's "could not determine a constructor" error.
"""

from __future__ import annotations

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import (
    AliasEvent, MappingEndEvent, MappingStartEvent, ScalarEvent,
    SequenceEndEvent, SequenceStartEvent, StreamEndEvent,
)
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

__all__ = ["MAX_DEPTH", "load"]

# open collections, the outermost counted as the first; PyYAML's recursive
# composer stopped at about 492, and a repr of a value this deep still works
MAX_DEPTH = 500

_YAML_TAG = "tag:yaml.org,2002:"
_STR = "tag:yaml.org,2002:str"
_SEQ = "tag:yaml.org,2002:seq"
_MAP = "tag:yaml.org,2002:map"
_MERGE = "tag:yaml.org,2002:merge"
_VALUE = "tag:yaml.org,2002:value"
_SEQUENCE, _MAPPING = "sequence", "mapping"   # PyYAML's Node.id
_OPEN = object()   # the value of an anchor whose collection is still open


class _Frame:
    """A collection, open and then closed: its node kind, start mark,
    anchor and, unless its tag is its kind's own, that tag. ``flat`` holds
    each child's value followed by its node (a ``_Frame``, or the start
    mark of a scalar); ``odd`` says a child needs ``_close_mapping``."""

    __slots__ = ("kind", "mark", "anchor", "tag", "flat", "odd", "value")

    def __init__(self, kind, mark, anchor, tag):
        self.kind, self.mark, self.anchor, self.tag = kind, mark, anchor, tag
        self.flat = []
        self.odd = False
        self.value = None


class _Fault:
    """A node the constructor raises ``error`` on: when it first reaches
    the node or, if ``deferred``, when its queued generator runs. An ``=``
    key's node reads as ``'='`` once a mapping holding it is flattened."""

    __slots__ = ("error", "tag", "deferred", "healed")

    def __init__(self, error, tag, deferred=False):
        self.error, self.tag, self.deferred = error, tag, deferred
        self.healed = False


def _mark(node):
    return node.mark if type(node) is _Frame else node


def _construct(loader, node, construct=None):
    """What the loader's constructor makes of ``node``: a value, or the
    ``_Fault`` it raises. Any exception is kept, as PyYAML raises it only
    where its constructor reaches the node. A scalar constructor's
    exception that is no YAML error (``!!bool x`` raises ``KeyError``)
    becomes one at the scalar's mark."""
    try:
        value = (construct or loader.construct_object)(node)
    except yaml.YAMLError as exc:
        return _Fault(exc, node.tag)
    except Exception as exc:
        if type(node) is ScalarNode:
            error = ConstructorError(
                None, None, f"invalid {node.tag.replace(_YAML_TAG, '!!')} "
                f"value {node.value!r}", node.start_mark)
            error.__cause__ = exc
            exc = error
        return _Fault(exc, node.tag)
    queued = loader.state_generators
    if queued:   # a collection constructor: it yields first and fills later
        try:
            for _ in queued.pop():
                pass
        except Exception as exc:
            return _Fault(exc, node.tag, deferred=True)
    return value


def _tag_fault(loader, frame):
    """The fault of a collection tagged other than its kind's own tag."""
    node = (MappingNode if frame.kind is _MAPPING else SequenceNode)(
        frame.tag, [], frame.mark, None)
    if frame.tag in (_SEQ, _MAP):
        return _construct(loader, node)   # the other kind's constructor
    return _construct(loader, node, loader.construct_undefined)


def _hashable(key) -> bool:
    """Whether the constructed key is hashable (a deferred fault constructs
    as an empty collection first)."""
    if type(key) is _Fault:
        return not key.deferred
    return type(key) is not dict and type(key) is not list


def _dict_key(key):
    return "=" if type(key) is _Fault and key.tag == _VALUE else key


def _entries(frame, irregular):
    """A closed mapping's entries as its constructor processes them:
    (key, value, key mark), merged entries first."""
    record = irregular.get(id(frame.value))
    if record is None:
        return [(k, v, None) for k, v in frame.value.items()]
    return record[3]


def _merge(merged, node, mark, irregular):
    """Extend ``merged`` with what the ``<<`` value ``node`` brings, as
    ``SafeConstructor.flatten_mapping`` does; return its error, if any."""
    if type(node) is not _Frame:
        return ConstructorError(
            "while constructing a mapping", mark, "expected a mapping or list "
            "of mappings for merging, but found scalar", node)
    items = [node] if node.kind is _MAPPING else node.flat[1::2]
    sources = []
    for item in items:
        if type(item) is not _Frame or item.kind is not _MAPPING:
            kind = item.kind if type(item) is _Frame else "scalar"
            return ConstructorError(
                "while constructing a mapping", mark,
                f"expected a mapping for merging, but found {kind}", _mark(item))
        record = irregular.get(id(item.value))
        if record is not None and record[2] is not None:
            return record[2]
        sources.append(_entries(item, irregular))
    for entries in reversed(sources):   # earlier list entries win
        merged.extend(entries)
    return None


def _close_mapping(frame, irregular):
    """The dict of a mapping that merges, repeats a key, has an unhashable
    or ``=`` key or holds a fault. Unless its entries are its dict's items,
    ``irregular`` records (the dict, which keeps its id from being reused,
    start mark, merge error, entries, repeated-key error) under its id.
    Also says whether the mapping holds an error."""
    flat = frame.flat
    merged, own = [], []
    merge_error = None
    for i in range(0, len(flat), 4):
        key, key_node, value, node = flat[i:i + 4]
        if type(key) is _Fault and key.tag == _MERGE:
            if merge_error is None:
                merge_error = _merge(merged, node, frame.mark, irregular)
        else:
            own.append((key, value, _mark(key_node)))
    entries = merged + own
    mapping = {_dict_key(k): v for k, v, _ in entries if _hashable(k)}
    seen = set()
    repeated = None
    for key, _, key_mark in own:
        if not _hashable(key):
            continue
        key = _dict_key(key)
        if key in seen:
            repeated = ConstructorError(
                "while constructing a mapping", frame.mark,
                f"found duplicate key {key!r}", key_mark)
            break
        seen.add(key)
    unhashable = not all(_hashable(k) for k, _, _ in entries)
    bad = merge_error is not None or repeated is not None or unhashable
    if bad or merged or any(type(k) is _Fault and k.tag == _VALUE
                            for k, _, _ in own):
        irregular[id(mapping)] = (mapping, frame.mark, merge_error, entries,
                                  repeated)
    return mapping, bad


def _first_fault(root, irregular):
    """Raise the error the constructor meets first, reaching the values in
    its order: breadth first, each mapping's merge error, then its entries
    (key, hashability, value), then its repeated key. Without one, return
    ``root`` with each healed ``=`` node read as ``'='``."""
    reached = set()
    queue = []

    def reach(x):
        if type(x) is _Fault:
            if x.healed:
                return "="
            if not x.deferred:
                raise x.error
        elif type(x) is not dict and type(x) is not list:
            return x
        if id(x) not in reached:
            reached.add(id(x))
            queue.append(x)
        return x

    root = reach(root)
    for x in queue:   # grows while it is read
        if type(x) is _Fault:
            raise x.error
        if type(x) is list:
            for i, v in enumerate(x):
                w = reach(v)
                if w is not v:
                    x[i] = w
            continue
        _, mark, merge_error, entries, repeated = irregular.get(id(x)) or (
            x, None, None, [(k, v, None) for k, v in x.items()], None)
        if merge_error is not None:
            raise merge_error
        for k, _, _ in entries:   # flattening retags every `=` key as str
            if type(k) is _Fault and k.tag == _VALUE:
                k.healed = True
        for k, v, key_mark in entries:
            reach(k)
            if not _hashable(k):
                raise ConstructorError("while constructing a mapping", mark,
                                       "found unhashable key", key_mark)
            w = reach(v)
            if w is not v and x.get(_dict_key(k)) is v:
                x[_dict_key(k)] = w
        if repeated is not None:
            raise repeated
    return root


def _define(anchors, anchor, event):
    """Refuse a second node under ``anchor``, as PyYAML's composer does."""
    if anchor in anchors:
        raise ComposerError(f"found duplicate anchor {anchor!r}; first "
                            "occurrence", _mark(anchors[anchor][1]),
                            "second occurrence", event.start_mark)


def _build(loader):
    """The value of the loader's one document, or None for no document."""
    loader.get_event()   # stream start
    if loader.check_event(StreamEndEvent):
        loader.get_event()
        return None
    loader.get_event()   # document start
    get, resolve = loader.get_event, loader.resolve
    plain, quoted = {}, {}   # the tag of each scalar seen, by its text
    anchors = {}      # name -> (value, node)
    irregular = {}    # see _close_mapping
    faulty = False    # whether some value holds an error
    doc = _Frame("document", None, None, None)
    stack = [doc]
    frame, top = doc, doc.flat
    while True:
        event = get()
        cls = event.__class__
        if cls is ScalarEvent:
            value, tag = event.value, event.tag
            if tag is None or tag == "!":
                implicit = event.implicit
                tags = plain if implicit[0] else quoted
                tag = tags.get(value)
                if tag is None:
                    tag = tags[value] = resolve(ScalarNode, value, implicit)
            if tag != _STR:
                key = frame.kind is _MAPPING and not len(top) & 3
                if tag == _VALUE and key and event.anchor is None:
                    value = "="   # flattening retags an `=` key as str
                else:
                    value = _construct(loader, ScalarNode(
                        tag, value, event.start_mark, event.end_mark,
                        style=event.style))
                    if type(value) is _Fault:
                        frame.odd = True
                        faulty = faulty or not key or tag != _MERGE
            node = event.start_mark
            if event.anchor is not None:
                _define(anchors, event.anchor, event)
                anchors[event.anchor] = (value, node)
        elif cls is MappingStartEvent or cls is SequenceStartEvent:
            if len(stack) > MAX_DEPTH:
                raise yaml.YAMLError("nested too deeply")
            if cls is MappingStartEvent:
                kind, node_class, own_tag = _MAPPING, MappingNode, _MAP
            else:
                kind, node_class, own_tag = _SEQUENCE, SequenceNode, _SEQ
            tag = event.tag
            if tag is None or tag == "!":
                tag = resolve(node_class, None, event.implicit)
            frame = _Frame(kind, event.start_mark, event.anchor,
                           None if tag == own_tag else tag)
            if frame.anchor is not None:
                _define(anchors, frame.anchor, event)
                anchors[frame.anchor] = (_OPEN, frame)
            stack.append(frame)
            top = frame.flat
            continue
        elif cls is MappingEndEvent or cls is SequenceEndEvent:
            node = stack.pop()
            flat = node.flat
            if cls is SequenceEndEvent:
                value = flat[0::2]
            else:
                try:
                    value = dict(zip(flat[0::4], flat[2::4]))
                except TypeError:   # an unhashable key
                    node.odd = True
                if node.odd or len(value) << 2 != len(flat):
                    value, bad = _close_mapping(node, irregular)
                    faulty = faulty or bad
                node.flat = None   # merges read a mapping's value
            node.value = value
            if node.tag is not None:
                value = _tag_fault(loader, node)
                faulty = True
            if node.anchor is not None:
                anchors[node.anchor] = (value, node)
            frame = stack[-1]
            top = frame.flat
            if type(value) is _Fault:
                frame.odd = True
        elif cls is AliasEvent:
            try:
                value, node = anchors[event.anchor]
            except KeyError:
                raise ComposerError(None, None, "found undefined alias "
                                    f"{event.anchor!r}", event.start_mark) from None
            if value is _OPEN:
                raise ComposerError(None, None, "found recursive alias "
                                    f"{event.anchor!r}", event.start_mark)
            if type(value) is _Fault:
                frame.odd = faulty = True
        else:   # document end
            break
        top.append(value)
        top.append(node)
    root, node = doc.flat
    if not loader.check_event(StreamEndEvent):
        event = loader.get_event()
        raise ComposerError("expected a single document in the stream",
                            _mark(node), "but found another document",
                            event.start_mark)
    loader.get_event()
    return _first_fault(root, irregular) if faulty else root


def load(text, source):
    """The value of the one YAML document in ``text``, read through the
    events of the loader class ``source`` (``yaml.CSafeLoader`` or
    ``yaml.SafeLoader``)."""
    loader = source(text)
    try:
        return _build(loader)
    finally:
        loader.dispose()
