"""Strict CSV and JSON helpers used by every artifact reader/writer in the package.

All interchange tables are plain comma-separated files with an exact header
row.  Each table that is read back is declared once, next to its row type, as
a :data:`Schema`: an ordered mapping from column name to a cell parser, which
returns the cell's value or raises ``ValueError``.  The declarations are built
from ``int``, :func:`text` and the :func:`checked` parsers :data:`number`,
:func:`within` and :func:`one_of`.  :func:`read_table` is the one CSV reader:
it checks the header against the schema, skips blank lines, and reports a
wrong field count or a parser's ``ValueError`` as a :class:`CorpusError`
naming the file, line and column.  Writers take their header from the same
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


def read_table(path: str | Path, schema: Schema) -> Iterator[tuple[int, list]]:
    """Yield ``(line_number, values)`` for each data row of a strict CSV, the
    values parsed by ``schema`` in column order.

    The header must equal the schema's columns exactly (same names, same
    order).  A row's line number is the 1-based file line it starts on, so
    the first data row is line 2.
    """
    path = Path(path)
    columns = list(schema)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusError("empty file (missing header)", path=path.name) from None
        if header != columns:
            raise CorpusError(
                f"bad header {header!r}, expected {columns!r}", path=path.name, line=1
            )
        end = reader.line_num
        for raw in reader:
            # a quoted cell may hold line breaks: a row starts after the last one ends
            lineno, end = end + 1, reader.line_num
            if not raw:
                continue  # tolerate a trailing blank line
            if len(raw) != len(columns):
                raise CorpusError(
                    f"expected {len(columns)} fields, got {len(raw)}",
                    path=path.name,
                    line=lineno,
                )
            values: list = []
            try:
                for parse, cell in zip(schema.values(), raw):
                    values.append(parse(cell))
            except ValueError as exc:
                # the parsed values so far index the column that failed
                raise CorpusError(
                    str(exc), path=path.name, line=lineno, column=columns[len(values)]
                ) from None
            yield lineno, values


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
