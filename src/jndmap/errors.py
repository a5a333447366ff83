"""Exception types shared across the pipeline."""

from __future__ import annotations


class JndmapError(Exception):
    """Base class for all domain errors raised by this package."""


class CorpusError(JndmapError):
    """Raised when an input table is malformed or internally inconsistent.

    Carries optional file/line/column context so callers (and the CLI) can
    point at the offending cell.  ``row`` is set by the cross-row checks of
    :class:`jndmap.corpus.Corpus`: the ``(field, index)`` of the row at fault,
    which :func:`jndmap.corpus.load_corpus` turns into its file and line.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        line: int | None = None,
        column: str | None = None,
        row: tuple[str, int] | None = None,
    ) -> None:
        self.message = message
        self.path = path
        self.line = line
        self.column = column
        self.row = row
        prefix_parts = [p for p in (path, None if line is None else f"line {line}", column) if p]
        prefix = ":".join(str(p) for p in prefix_parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class FitError(JndmapError):
    """Raised when a mapping-function fit cannot be produced or used."""
