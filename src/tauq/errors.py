"""Error hierarchy shared across the library and the CLI.

Every error carries enough structure for the CLI to emit a single-line
machine-parsable record and pick the right exit code.
"""
from __future__ import annotations


class TauqError(Exception):
    """Base class for all library errors."""

    def record(self) -> dict:
        """Machine-parsable description of the error."""
        return {"error": type(self).__name__, "detail": str(self)}


class MomentParseError(TauqError):
    """A moment specification is malformed; names the offending field."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"field {field!r}: {detail}")
        self.field = field

    def record(self) -> dict:
        rec = super().record()
        rec["field"] = self.field
        return rec


class UsageError(TauqError):
    """Invalid CLI arguments or unsupported option combinations."""


class SupportError(TauqError):
    """An operation that needs a finite support window got an infinite one."""


class ResourceBoundError(TauqError):
    """A computation exceeded its configured work bound."""


class OutputClosedError(TauqError):
    """The reader of the output closed it before the result was written."""


class DegenerateTauError(TauqError):
    """A required tau value is zero; carries the offending indices."""

    def __init__(self, detail: str, **indices):
        super().__init__(f"{detail} at {indices}" if indices else detail)
        self.indices = indices

    def record(self) -> dict:
        rec = super().record()
        rec.update(self.indices)
        return rec
