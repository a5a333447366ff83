"""Strict CSV and JSON helpers used by every artifact reader/writer in the package.

All interchange tables are plain comma-separated files with an exact header
row.  Each table that is read back is declared once, next to its row type, as
a :data:`Schema`: an ordered mapping from column name to a cell parser, which
returns the cell's value or raises ``ValueError``.  The declarations are built
from ``int``, :func:`text` and the :func:`checked` parsers :data:`number`,
:func:`within` and :func:`one_of`.  :func:`read_table` is the one CSV reader:
it checks the header against the schema, skips blank lines, and reports a
wrong field count or a parser's ``ValueError`` as a :class:`CorpusError`
naming the file, line and column.  It returns a :class:`Table`, the values
column by column, whose :meth:`Table.error` names the line of a row that a
check across rows rejects.  Writers take their header from the same
schema and pass the cells to ``csv.writer`` as they are; it writes a float as
its shortest round-trip ``repr``, so a value survives a write/read round trip
bit-for-bit.  JSON artifacts and inputs go through :func:`write_json` /
:func:`read_json` only.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from collections.abc import Callable, Iterable, Iterator
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


#: A finite float.
number = checked(float, math.isfinite, "non-finite value {!r}")


def within(parse: Callable[[str], float], lo: float, hi: float) -> Callable[[str], float]:
    """``parse``, then require ``lo <= value <= hi``."""
    return checked(parse, lambda value: lo <= value <= hi, f"{{!r}} outside [{lo}, {hi}]")


def one_of(*allowed: str) -> Callable[[str], str]:
    """One of the ``allowed`` strings."""
    return checked(str, allowed.__contains__, f"{{!r}} is not one of {allowed}")


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
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusError("empty file (missing header)", path=path.name) from None
        if header != names:
            raise CorpusError(f"bad header {header!r}, expected {names!r}", path=path.name, line=1)
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
    try:
        obj = parse(data)
        if hasattr(obj, "validate"):
            obj.validate()
    except KeyError as exc:
        raise CorpusError(f"missing key {exc.args[0]!r}", path=path.name) from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CorpusError(str(exc), path=path.name) from None
    return obj


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
