"""Reports produced by the CLI: a status plus a list of findings, and the
text of a report as JSON."""

from __future__ import annotations

from dataclasses import dataclass, field

from .jsontext import _NL, _chunks, _is_record, _listed, _nested, _quoted, \
    _record_texts

OK = "ok"
VIOLATIONS = "violations"
INPUT_ERROR = "inputError"


@dataclass(frozen=True)
class Finding:
    kind: str
    severity: str  # "warning" | "error"
    message: str
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Report:
    status: str
    findings: tuple[Finding, ...] = ()

    def __post_init__(self):
        if self.status == OK and self.findings:
            raise ValueError("an ok report carries no findings")
        if self.status != OK and not self.findings:
            raise ValueError(f"a {self.status} report needs findings")
        object.__setattr__(self, "findings", tuple(self.findings))

    @property
    def exit_code(self) -> int:
        return {OK: 0, VIOLATIONS: 1, INPUT_ERROR: 2}[self.status]


def ok() -> Report:
    return Report(OK)


def violations(findings) -> Report:
    findings = tuple(findings)
    return Report(VIOLATIONS, findings) if findings else Report(OK)


def input_error(message: str, **payload) -> Report:
    return Report(INPUT_ERROR,
                  (Finding("inputError", "error", message, payload),))


# report_json writes a template per finding: its braces at depth 2, its
# fields at 3, the payload's at 4 and the items of a payload value at 5;
# what has no template goes via json_text
_I1, _I2, _I3, _I4, _I5 = (_NL[depth] for depth in range(1, 6))
_STR, _DICT = frozenset({str}), frozenset({dict})
# the values of the records that repeat, a leak's path nodes: only records
# of str keys and such values are cached
_KEYABLE = frozenset({str, type(None)})


def _text(value, depth: int) -> str:
    return _quoted(value) if type(value) is str else _nested(value, depth)


def _cacheable(record: dict) -> bool:
    return _STR.issuperset(map(type, record)) \
        and _KEYABLE.issuperset(map(type, record.values()))


def _records(value: list, cache: dict):
    """The texts at depth 5 of a list of dicts that are all records, else
    None.  Records of str keys and str or None values, such as a leak's
    path nodes, repeat as one object: each is looked up in ``cache`` by its
    id (the report holds it, so no id is reused), and those it lacks are
    written by one encoder call and kept.  A list whose first record is of
    another kind, such as a shape's occurrences, which do not repeat, is
    written by one encoder call."""
    if not _cacheable(value[0]):
        return _record_texts(value, 5) if all(map(_is_record, value)) else None
    texts = list(map(cache.get, map(id, value)))
    if None in texts:
        missing = [x for x, text in zip(value, texts) if text is None]
        if not all(map(_is_record, missing)):
            return None
        made = iter(_record_texts(missing, 5))
        for i, x in enumerate(value):
            if texts[i] is None:
                texts[i] = next(made)
                if _cacheable(x):
                    cache[id(x)] = texts[i]
    return texts


def _value(value, cache: dict) -> str:
    """A payload value's text at depth 4: a list of str or of records by
    one join of its items' texts."""
    if type(value) is list and value:
        if _STR.issuperset(map(type, value)):
            texts = map(_quoted, value)
        elif _DICT.issuperset(map(type, value)):
            texts = _records(value, cache)
        else:
            texts = None
        if texts is None:
            return _nested(value, 4)
        return "[" + _I5 + ("," + _I5).join(texts) + _I4 + "]"
    return _text(value, 4)


def _payload(payload, cache: dict) -> str:
    if type(payload) is not dict or not payload \
            or not _STR.issuperset(map(type, payload)):
        return _nested(payload, 3)
    return "{" + _I4 + ("," + _I4).join(
        [f"{_quoted(k)}: {_value(payload[k], cache)}" for k in sorted(payload)]) \
        + _I3 + "}"


def report_pieces(report: Report):
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)`` of the report's
    document ``{"status": ..., "findings": [{"kind": ..., "severity": ...,
    "message": ..., "payload": ...}, ...]}``, written with no document tree,
    in pieces made one at a time, each of at most ``_PIECE`` findings.

    A record object's text is made once per call: the CLI's leak reports
    share one record per network or container node among the paths of
    their findings.
    """
    cache: dict = {}
    yield f'{{{_I1}"findings": '
    yield from _listed([f'{{{_I3}"kind": {_text(f.kind, 3)},'
                        f'{_I3}"message": {_text(f.message, 3)},'
                        f'{_I3}"payload": {_payload(f.payload, cache)},'
                        f'{_I3}"severity": {_text(f.severity, 3)}{_I2}}}'
                        for f in findings]
                       for findings in _chunks(report.findings))
    yield f',{_I1}"status": {_text(report.status, 1)}\n}}'


def report_json(report: Report) -> str:
    """The text of ``report_pieces(report)`` as one string."""
    return "".join(report_pieces(report))
