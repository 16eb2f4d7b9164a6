"""Reports produced by the CLI: a status plus a list of findings."""

from __future__ import annotations

from dataclasses import dataclass, field

OK = "ok"
VIOLATIONS = "violations"
INPUT_ERROR = "inputError"


@dataclass(frozen=True)
class Finding:
    kind: str
    severity: str  # "warning" | "error"
    message: str
    payload: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "severity": self.severity,
                "message": self.message, "payload": dict(self.payload)}


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

    def to_json(self) -> dict:
        return {"status": self.status,
                "findings": [f.to_json() for f in self.findings]}


def ok() -> Report:
    return Report(OK)


def violations(findings) -> Report:
    findings = tuple(findings)
    return Report(VIOLATIONS, findings) if findings else Report(OK)


def input_error(message: str, **payload) -> Report:
    return Report(INPUT_ERROR,
                  (Finding("inputError", "error", message, payload),))
