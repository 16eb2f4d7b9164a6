"""Indented JSON text: ``json_text`` returns exactly what
``json.dumps(value, indent=2, sort_keys=True)`` returns, with no recursion.

CPython has no C path for ``json.dumps`` with ``indent``, so it runs the
pure-Python generator encoder.  Here a container that holds only scalars
is written in one step, by string joins when small and otherwise by one C
encoder call whose item separator carries that depth's indent; so is a
list of such dicts.  Python walks only the containers above them.  It
knows nothing of bigraphs or reports: ``serialize.json_pieces`` and
``report.report_pieces`` write their documents from templates, a list at a
time in pieces of at most ``_PIECE`` entries (``_chunks``, ``_listed``),
and hand it, through ``_nested``, only the parts they have no template for.
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii as _quoted

__all__ = ["json_text"]

_SCALARS = frozenset({str, int, float, bool, type(None)})
_JOINED = 4  # a scalar-only container this small is joined, a larger one encoded
_CACHED = 64  # depths whose indent and encoder are kept once made
_PIECE = 256  # the most entries (nodes, links, findings, lines) in a piece
_ENCODE_SCALAR = json.JSONEncoder(check_circular=False).encode


class _PerDepth(dict):
    """``make(depth)`` for each depth, made on first use and kept for the
    shallow depths, so importing builds nothing and a deep tree keeps
    nothing."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, depth: int):
        value = self.make(depth)
        if depth < _CACHED:
            self[depth] = value
        return value


# the line break before an item at a depth, and the C encoder that writes a
# scalar-only container whose items sit at that depth
_NL = _PerDepth(lambda depth: "\n" + "  " * depth)
_ENCODER = _PerDepth(lambda depth: json.JSONEncoder(
    sort_keys=True, check_circular=False, separators=("," + _NL[depth], ": ")))


def _key(k) -> str:
    """A dict key's text, converted as ``json.dumps`` converts it."""
    if isinstance(k, str):
        return _quoted(k)
    if isinstance(k, (int, float)) or k is None:  # bool is an int
        return _quoted(_ENCODE_SCALAR(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


def _scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return _quoted(value)
    if kind is int:
        return int.__repr__(value)
    return _ENCODE_SCALAR(value)  # float, bool, None; TypeError for others


def _nested(value, depth: int) -> str:
    """``json_text(value)`` at ``depth``; exact, as it escapes newlines in text."""
    return json_text(value).replace("\n", _NL[depth])


def _is_record(x) -> bool:
    return type(x) is dict and len(x) > 0 \
        and _SCALARS.issuperset(map(type, x.values()))


def _record_texts(records: list, depth: int) -> list:
    """The text at ``depth`` of each record (a non-empty scalar-only dict):
    one encoder call writes them all, split where one ends and the next
    begins; it escapes every newline in a string, so "},\n" and that indent
    occur only there."""
    inner = _NL[depth + 1]
    body = _ENCODER[depth + 1].encode(records)[2:-2]
    return ["{" + inner + text + _NL[depth] + "}"
            for text in body.split("}," + inner + "{")] if records else []


def _chunks(items):
    """``items`` in lists of at most ``_PIECE``, each made when asked for."""
    it = iter(items)
    return iter(lambda: list(islice(it, _PIECE)), [])


def _listed(chunks):
    """The text at depth 1 of a list, a piece per list of its items' texts
    at depth 2, each list emptied before the next is made."""
    sep = "[" + _NL[2]
    for texts in chunks:
        texts[0] = sep + texts[0]
        sep = "," + _NL[2]
        yield sep.join(texts)
        texts.clear()
    yield _NL[1] + "]" if sep[0] == "," else "[]"


def _one_step(value, depth: int):
    """The text of ``value`` written at ``depth``, when it takes one step: a
    scalar, an empty or scalar-only container, or a list of records
    (non-empty scalar-only dicts).  None for any other container."""
    if isinstance(value, dict):
        values, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        values, brackets = value, "[]"
    else:
        return _scalar(value)
    if not value:
        return brackets
    inner, outer = _NL[depth + 1], _NL[depth]
    if _SCALARS.issuperset(map(type, values)):
        if len(value) <= _JOINED:
            try:
                items = [f"{_quoted(k)}: {_scalar(v)}"
                         for k, v in sorted(value.items())] \
                    if brackets == "{}" else [_scalar(v) for v in value]
                return brackets[0] + inner + ("," + inner).join(items) \
                    + outer + brackets[1]
            except TypeError:
                pass  # a key that is not a str: the encoder converts it
        text = _ENCODER[depth + 1].encode(value)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if brackets == "[]" and all(map(_is_record, value)):
        return "[" + inner + ("," + inner).join(_record_texts(value, depth + 1)) \
            + outer + "]"
    return None


def json_text(value) -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``.

    ``value`` is a fresh tree (there is no cycle check) of dicts with str
    keys, lists, tuples, str, int, float (NaN and infinities included), bool
    and None, which is all ``bigraph_to_json`` builds and a report holds.
    int, float, bool and None keys are converted as ``json.dumps`` converts
    them, and any other value raises the TypeError ``json.dumps`` raises.
    The tree is walked with an explicit stack, so no depth raises
    RecursionError, and each scalar-only container or list of records is
    written in one step.
    """
    text = _one_step(value, 0)
    if text is not None:
        return text
    out = []
    # one frame per open container: its items left, its depth, whether it
    # is a dict, and the separator to write once it closes; each item is
    # written with the separator after it, and a container's closing
    # replaces the last one
    stack = [_open(value, 0, "", out)]
    while stack:
        items, depth, keyed, after = stack[-1]
        sep = "," + _NL[depth + 1]
        for x in items:
            if keyed:
                k, x = x
                out.append(_key(k) + ": ")
            text = _one_step(x, depth + 1)
            if text is None:
                stack.append(_open(x, depth + 1, sep, out))
                break
            out += (text, sep)
        else:
            stack.pop()
            out[-1] = _NL[depth] + ("}" if keyed else "]")
            out.append(after)
    return "".join(out)


def _open(value, depth: int, after: str, out: list) -> tuple:
    """Write a non-empty container's opening; its frame for ``json_text``."""
    keyed = isinstance(value, dict)
    out.append(("{" if keyed else "[") + _NL[depth + 1])
    return iter(sorted(value.items()) if keyed else value), depth, keyed, after
