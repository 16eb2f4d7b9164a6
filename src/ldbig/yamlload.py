"""Python values straight from a YAML loader's parse events.

``load(text, source)`` gives what ``yaml.load(text, Loader=source)`` gives
for a safe loader, with a key repeated within one mapping refused, but it
builds the values in one pass over the events, with an explicit stack and
no ``Node`` graph: nothing recurses, and a collection that opens with
``MAX_DEPTH`` already open is a composer error at its start.

It keeps what PyYAML's composer and ``SafeConstructor`` do: scalars are
resolved by the loader and built by the loader's own constructors, an
alias gives the same object, ``<<`` merges a mapping or a list of mappings
(earlier list entries win, merged keys come first and may be overridden),
a key tagged ``!!value`` (``=``) reads as its own text, and only one
document is read.

A composer error (an undefined or duplicate anchor, a second document) is
raised where it is met. Every construction error is kept as it is found,
and once the document has ended the one whose mark comes first in the text
is raised, with PyYAML's words; where a scalar constructor raises no YAML
error (``!!bool x`` raises ``KeyError``), a ``ConstructorError`` at the
scalar's mark takes its place. PyYAML's constructor builds breadth first,
so on a document with several errors it may report a later one.

Documents PyYAML reads that are refused: an alias to a collection that is
still open (``a: &x [*x]``); a collection tagged other than its kind's own
tag, also where it is only a merge source (``!!set``, ``!!omap``,
``!foo``, ``{<<: !!seq {a: 1}}``), refused once it closes in place of the
errors found inside it, at the earliest mark of those, of its items and
of its start, which is an earlier node's when an alias names one; a key
repeated within a merge source;
and an anchored ``=``, which PyYAML reads as ``'='`` or refuses depending
on the order it constructs in.
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
    """A collection, open and then closed: its node kind, start mark and
    anchor. ``flat`` holds each child's value followed by its node (a
    ``_Frame``, or the start mark of a scalar); ``odd`` says a key of a
    mapping is ``<<`` or unhashable; ``tag`` is a tag other than its
    kind's own, refused once it closes, and ``first`` the number of errors
    found before it opened."""

    __slots__ = ("kind", "mark", "anchor", "flat", "odd", "value", "tag",
                 "first")

    def __init__(self, kind, mark, anchor):
        self.kind, self.mark, self.anchor = kind, mark, anchor
        self.flat = []
        self.odd = False
        self.value = self.tag = None


class _Fault:
    """The value of a scalar the constructor raises ``error`` on, of an
    anchored ``=`` or of a recursive alias. A ``<<`` is one, with the merge
    tag, whose error counts only where it is not a key."""

    __slots__ = ("error", "tag")

    def __init__(self, error, tag):
        self.error, self.tag = error, tag


def _mark(node):
    return node.mark if type(node) is _Frame else node


def _place(mark):
    return mark.line, mark.column


def _construct(loader, node, construct=None):
    """What the loader's constructor makes of ``node``: a value, or the
    ``_Fault`` it raises, its queued generator run at once. An exception
    that is no YAML error (``!!bool x`` raises ``KeyError``) becomes one at
    the node's mark."""
    try:
        value = (construct or loader.construct_object)(node)
        queued = loader.state_generators
        if queued:   # a collection constructor: it yields first and fills later
            list(queued.pop())  # runs the rest, which fills value
        return value
    except yaml.YAMLError as exc:
        return _Fault(exc, node.tag)
    except Exception as exc:
        error = ConstructorError(
            None, None, f"invalid {node.tag.replace(_YAML_TAG, '!!')} "
            f"value {node.value!r}", node.start_mark)
        error.__cause__ = exc
        return _Fault(error, node.tag)


def _merged(node, mark, faults):
    """The entries the ``<<`` value ``node`` brings, as
    ``SafeConstructor.flatten_mapping`` orders them (earlier list entries
    win); its errors go to ``faults``."""
    if type(node) is not _Frame:
        faults.append(ConstructorError(
            "while constructing a mapping", mark, "expected a mapping or list "
            "of mappings for merging, but found scalar", node))
        return []
    entries = []
    for item in reversed([node] if node.kind is _MAPPING else node.flat[1::2]):
        if type(item) is _Frame and item.kind is _MAPPING:
            entries += item.value.items()
        else:
            kind = item.kind if type(item) is _Frame else "scalar"
            faults.append(ConstructorError(
                "while constructing a mapping", mark,
                f"expected a mapping for merging, but found {kind}", _mark(item)))
    return entries


def _close_mapping(frame, faults):
    """The dict of a mapping that merges, repeats a key or has an
    unhashable key: merged entries first, own keys overriding them. Its
    errors go to ``faults``."""
    flat = frame.flat
    merged, own = [], {}
    for i in range(0, len(flat), 4):
        key, key_node, value, node = flat[i:i + 4]
        if type(key) is _Fault and key.tag == _MERGE:
            merged += _merged(node, frame.mark, faults)
            continue
        if type(key) is dict or type(key) is list:
            problem = "found unhashable key"
        elif key in own:
            problem = f"found duplicate key {key!r}"
        else:
            own[key] = value
            continue
        faults.append(ConstructorError("while constructing a mapping",
                                       frame.mark, problem, _mark(key_node)))
    return dict([*merged, *own.items()])


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
    faults = []       # every construction error, as it is found
    doc = _Frame("document", None, None)
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
            node = event.start_mark
            if tag == _VALUE and event.anchor is not None:
                value = _Fault(ConstructorError(
                    None, None, "found an anchored '='", node), tag)
            elif tag != _STR and (tag != _VALUE or frame.kind is not _MAPPING
                                  or len(top) & 3):   # a `!!value` key is str
                value = _construct(loader, ScalarNode(
                    tag, value, node, event.end_mark, style=event.style))
            if event.anchor is not None:
                _define(anchors, event.anchor, event)
                anchors[event.anchor] = (value, node)
        elif cls is MappingStartEvent or cls is SequenceStartEvent:
            if len(stack) > MAX_DEPTH:
                raise ComposerError(None, None, "nested too deeply",
                                    event.start_mark)
            if cls is MappingStartEvent:
                kind, node_class, own_tag = _MAPPING, MappingNode, _MAP
            else:
                kind, node_class, own_tag = _SEQUENCE, SequenceNode, _SEQ
            tag = event.tag
            if tag is None or tag == "!":
                tag = resolve(node_class, None, event.implicit)
            frame = _Frame(kind, event.start_mark, event.anchor)
            if tag != own_tag:
                frame.tag, frame.first = tag, len(faults)
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
                    value = _close_mapping(node, faults)
                node.flat = None   # merges read a mapping's value
            if node.tag is not None:
                # the other kind's constructor, or none, refuses it in place
                # of the errors found inside it, at the earliest mark of
                # those, of its items and of its start: an alias may name
                # an earlier node
                inside = [e.problem_mark for e in faults[node.first:]]
                del faults[node.first:]
                mark = min((node.mark, *map(_mark, flat[1::2]), *inside),
                           key=_place)
                faults.append(_construct(
                    loader, (MappingNode if node.kind is _MAPPING else
                             SequenceNode)(node.tag, [], mark, None),
                    None if node.tag in (_SEQ, _MAP)
                    else loader.construct_undefined).error)
            node.value = value
            if node.anchor is not None:
                anchors[node.anchor] = (value, node)
            frame = stack[-1]
            top = frame.flat
        elif cls is AliasEvent:
            try:
                value, node = anchors[event.anchor]
            except KeyError:
                raise ComposerError(None, None, "found undefined alias "
                                    f"{event.anchor!r}", event.start_mark) from None
            if value is _OPEN:
                node = event.start_mark
                value = _Fault(ComposerError(None, None, "found recursive alias "
                                             f"{event.anchor!r}", node), None)
        else:   # document end
            break
        if type(value) is _Fault:
            if value.tag == _MERGE and frame.kind is _MAPPING \
                    and not len(top) & 3:
                frame.odd = True
            else:
                faults.append(value.error)
        top.append(value)
        top.append(node)
    root, node = doc.flat
    if not loader.check_event(StreamEndEvent):
        event = loader.get_event()
        raise ComposerError("expected a single document in the stream",
                            _mark(node), "but found another document",
                            event.start_mark)
    loader.get_event()
    if faults:
        raise min(faults, key=lambda e: _place(e.problem_mark))
    return root


def load(text, source):
    """The value of the one YAML document in ``text``, read through the
    events of the loader class ``source`` (``yaml.CSafeLoader`` or
    ``yaml.SafeLoader``)."""
    loader = source(text)
    try:
        return _build(loader)
    finally:
        loader.dispose()
