"""Strict CSV and JSON helpers used by every artifact reader/writer in the package.

All interchange tables are plain comma-separated files with an exact header
row.  Each table that is read back is declared once, next to its row type, as
a :data:`Schema`: an ordered mapping from column name to a cell parser, which
returns the cell's value or raises ``ValueError``.  The declarations are built
from ``int``, :func:`text`, :func:`ident` and the :func:`checked` parsers
:data:`number`, :func:`within` and :func:`one_of`.  :func:`read_table` is the
one CSV reader: it checks the header against the schema, skips blank lines,
and reports a wrong field count or a parser's ``ValueError`` as a :class:`CorpusError`
naming the file, line and column.  It returns a :class:`Table`, the values
column by column, whose :meth:`Table.error` names the line of a row that a
check across rows rejects.  Writers take their header from the same
schema and pass the cells to ``csv.writer`` as they are; it writes a float as
its shortest round-trip ``repr``, so a value survives a write/read round trip
bit-for-bit.  JSON artifacts and inputs go through :func:`write_json` /
:func:`read_json` only.

A table held in memory is its columns, the one form the pipeline's stages
and writers take.  Only the rating and pair tables keep a row view, a
:class:`RowSequence` built from the columns when it is iterated or indexed:
the benchmark under ``perfbench/`` reads them as rows (its study writer
relabels each rating, its tracer counts significant pairs), and its files are
held fixed so that runs of two commits compare.  The views go once the
benchmark reads columns.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import Any, TypeVar

from .errors import CorpusError

T = TypeVar("T")

#: Column name -> cell parser, in column order.
Schema = dict[str, Callable[[str], Any]]


def checked(parse: Callable[[str], T], ok: Callable[[T], bool], message: str) -> Callable[[str], T]:
    """A cell parser: ``parse`` the cell, then raise
    ``ValueError(message.format(value))`` unless ``ok(value)``."""

    def parse_checked(cell: str) -> T:
        value = parse(cell)
        if not ok(value):
            raise ValueError(message.format(value))
        return value

    return parse_checked


def text(cell: str) -> str:
    """A non-empty string; most cells are text, and :func:`checked` costs two more calls."""
    if not cell:
        raise ValueError("empty value")
    return cell


def ident(cell: str) -> str:
    """An id: non-empty text without ``:``, the separator of the ids in a pair id."""
    if ":" in cell:
        raise ValueError(f"id {cell!r} contains ':'")
    return text(cell)


#: A finite float.
number = checked(float, math.isfinite, "non-finite value {!r}")


def within(parse: Callable[[str], float], lo: float, hi: float) -> Callable[[str], float]:
    """``parse``, then require ``lo <= value <= hi``."""
    return checked(parse, lambda value: lo <= value <= hi, f"{{!r}} outside [{lo}, {hi}]")


def one_of(*allowed: str) -> Callable[[str], str]:
    """One of the ``allowed`` strings."""
    return checked(str, allowed.__contains__, f"{{!r}} is not one of {allowed}")


class RowSequence(Sequence[T]):
    """Columns that read as a sequence of row objects.

    A subclass defines ``__len__`` and ``_build``, which makes the row
    objects from the columns; they are built on first use and cached in
    ``_rows``.
    """

    _rows: tuple | None = None

    def _build(self) -> tuple:
        raise NotImplementedError

    def _materialized(self) -> tuple:
        if self._rows is None:
            self._rows = self._build()
        return self._rows

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self) -> Iterator[T]:
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._materialized() == tuple(other)


@dataclasses.dataclass
class Table:
    """The data rows of a CSV file read by :func:`read_table`."""

    name: str  #: the file's name, for errors
    lines: list[int]  #: the 1-based file line each data row starts on
    columns: list[list]  #: the parsed values, one list per schema column

    def rows(self) -> Iterator[tuple]:
        return zip(*self.columns)

    def error(self, message: str, index: int, column: str | None = None) -> CorpusError:
        """A :class:`CorpusError` naming the line of data row ``index``."""
        return CorpusError(message, path=self.name, line=self.lines[index], column=column)


def _not_utf8(path: Path) -> CorpusError:
    """The error for a file whose bytes are not UTF-8: it names the file and
    the line of the first bad byte.  The whole file is decoded here, because a
    decoder that reads in chunks reports an offset within its chunk."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # line ends as universal newlines count them
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return CorpusError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                           path=path.name, line=line)
    return CorpusError("not UTF-8", path=path.name)


def read_table(path: str | Path, schema: Schema) -> Table:
    """The data rows of a strict CSV, their values parsed by ``schema``.

    The header must equal the schema's columns exactly (same names, same
    order).  The first data row is line 2.  A fault raises at the first row
    that has one, at its first bad column.  Each distinct cell of a column is
    parsed once and its value shared by the cells that repeat it, as ids and
    scores do.
    """
    path = Path(path)
    names = list(schema)
    width = len(names)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusError("empty file (missing header)", path=path.name) from None
            if header != names:
                raise CorpusError(f"bad header {header!r}, expected {names!r}",
                                  path=path.name, line=1)
            table = Table(path.name, [], [])
            cells: list[str] = []  # row by row: a row list is dropped once copied
            short = None
            end = reader.line_num
            add_line = table.lines.append
            for raw in reader:
                # a quoted cell may hold line breaks: a row starts after the last one ends
                lineno, end = end + 1, reader.line_num
                if not raw:
                    continue  # tolerate a trailing blank line
                add_line(lineno)
                if len(raw) != width:
                    short = table.error(f"expected {width} fields, got {len(raw)}", -1)
                    break
                cells += raw
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    faults = []
    for i, parse in enumerate(schema.values()):
        column = cells[i::width]
        values = {}
        for cell in set(column):
            try:
                values[cell] = parse(cell)
            except ValueError as exc:
                faults.append((column.index(cell), i, str(exc)))
        table.columns.append(list(map(values.get, column)))
    if faults:
        index, i, message = min(faults)
        raise table.error(message, index, names[i])
    if short:
        raise short
    return table


def rows_to_csv_text(columns: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """Serialize rows to CSV text with a fixed header and ``\\n`` line endings.

    Quoting is minimal (range ids carry commas), so output bytes are a pure
    function of the cell values.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def json_text(obj: object) -> str:
    """Canonical JSON text: 2-space indent, sorted keys, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, obj: object) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8", newline="")


def read_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """``parse`` a JSON file's data and ``validate()`` the result where it can;
    any failure raises :class:`CorpusError` naming the file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusError(
            exc.msg, path=path.name, line=exc.lineno, column=f"column {exc.colno}"
        ) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    try:
        obj = parse(data)
        if hasattr(obj, "validate"):
            obj.validate()
    except KeyError as exc:
        raise CorpusError(f"missing key {exc.args[0]!r}", path=path.name) from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CorpusError(str(exc), path=path.name) from None
    return obj


def string_list(value: object, key: str) -> list[str]:
    """``value`` if it is a JSON list of strings, else a ValueError naming
    ``key``; a bare string would otherwise pass for its characters."""
    if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
        raise ValueError(f"{key}: expected a list of strings, got {value!r}")
    return value


#: JSON types accepted for a dataclass field, by the type of its default.
_JSON_SCALARS = {float: (int, float), int: (int,), str: (str,), bool: (bool,)}


def dataclass_from_json(cls: type[T], data: dict, **convert: Callable) -> T:
    """``cls(**data)`` for a dataclass of settings, with ``convert[key]`` applied
    to the value of ``key``.  Any other field with a number, string or bool
    default must hold that kind of value; a wrong one or an unknown key raises
    an error naming the key."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in defaults:
            raise ValueError(f"unknown key {key!r}; expected one of {list(defaults)}")
        kinds = _JSON_SCALARS.get(type(defaults[key]))
        if key in convert:
            try:
                value = convert[key](value)
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from None
        elif kinds and type(value) not in kinds:
            raise TypeError(f"{key}: expected {type(defaults[key]).__name__}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)
