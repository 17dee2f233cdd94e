"""Structured compiler diagnostics.

Analysis facts that previously surfaced as ad-hoc prints or were lost
entirely (a degenerate partitioning space, arrays that resist
duplication, elimination that finds nothing to eliminate) are recorded
as :class:`Diagnostic` records on the pipeline context.  The CLI renders
them to stderr so machine-readable stdout stays stable; ``report.py``
folds them into its diagnostics section.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` gives the worst."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding: ``severity`` + stable ``code`` + prose.

    ``loc`` names what the finding is about (a loop, an array, a pass);
    it is free-form because the mini-language has no file/line spans.
    """

    severity: Severity
    code: str
    message: str
    loc: Optional[str] = None

    def render(self) -> str:
        where = f" at {self.loc}" if self.loc else ""
        return f"{self.severity.label}[{self.code}]{where}: {self.message}"


class DiagnosticBag:
    """An ordered collection of diagnostics with query helpers."""

    def __init__(self) -> None:
        self._records: list[Diagnostic] = []

    def emit(
        self,
        severity: Severity,
        code: str,
        message: str,
        loc: Optional[str] = None,
    ) -> Diagnostic:
        diag = Diagnostic(severity=severity, code=code, message=message, loc=loc)
        self._records.append(diag)
        return diag

    def note(self, code: str, message: str, loc: Optional[str] = None) -> Diagnostic:
        return self.emit(Severity.NOTE, code, message, loc)

    def warning(self, code: str, message: str, loc: Optional[str] = None) -> Diagnostic:
        return self.emit(Severity.WARNING, code, message, loc)

    def error(self, code: str, message: str, loc: Optional[str] = None) -> Diagnostic:
        return self.emit(Severity.ERROR, code, message, loc)

    def extend(self, other: "DiagnosticBag") -> None:
        self._records.extend(other._records)

    # -- queries ----------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    @property
    def records(self) -> tuple[Diagnostic, ...]:
        return tuple(self._records)

    def with_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self._records if d.code == code]

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self._records if d.severity >= severity]

    def has_errors(self) -> bool:
        return any(d.severity >= Severity.ERROR for d in self._records)

    def render(self) -> str:
        return "\n".join(d.render() for d in self._records)


# Stable diagnostic codes (kept in one place so tests and renderers can
# refer to them without string drift).
DEGENERATE_PSI = "degenerate-psi"
FULLY_PARALLEL = "fully-parallel"
PARTIAL_DUPLICATION = "partial-duplication"
NO_REDUNDANCY = "no-redundancy"
REDUNDANCY_FOUND = "redundancy-found"
NONUNIFORM_REFERENCES = "nonuniform-references"
