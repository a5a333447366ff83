"""Strict CSV and JSON helpers used by every artifact reader/writer in the package.

All interchange tables are plain comma-separated files with an exact header
row.  Readers reject unknown or missing columns up front and report the file,
line, and column of the first bad cell; writers format floats with ``repr`` so
a value survives a write/read round trip bit-for-bit.  JSON artifacts and
inputs go through :func:`write_json` / :func:`read_json` only.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import TypeVar

from .errors import CorpusError

T = TypeVar("T")


def read_rows(path: str | Path, columns: list[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield ``(line_number, row_dict)`` for each data row of a strict CSV.

    The header must equal ``columns`` exactly (same names, same order).  Line
    numbers are 1-based file lines, so the first data row is line 2.
    """
    path = Path(path)
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
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue  # tolerate a trailing blank line
            if len(raw) != len(columns):
                raise CorpusError(
                    f"expected {len(columns)} fields, got {len(raw)}",
                    path=path.name,
                    line=lineno,
                )
            yield lineno, dict(zip(columns, raw))


def parse_float(row: dict[str, str], column: str, *, path: str, line: int) -> float:
    try:
        value = float(row[column])
    except ValueError:
        raise CorpusError(
            f"not a number: {row[column]!r}", path=path, line=line, column=column
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise CorpusError(f"non-finite value {row[column]!r}", path=path, line=line, column=column)
    return value


def parse_int(row: dict[str, str], column: str, *, path: str, line: int) -> int:
    try:
        return int(row[column])
    except ValueError:
        raise CorpusError(
            f"not an integer: {row[column]!r}", path=path, line=line, column=column
        ) from None


def require_nonempty(row: dict[str, str], column: str, *, path: str, line: int) -> str:
    value = row[column]
    if not value:
        raise CorpusError("empty value", path=path, line=line, column=column)
    return value


def fmt_cell(value: object) -> str:
    """Render a cell deterministically (floats via repr, everything else via str)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv_text(columns: list[str], rows: Iterable[Iterable[object]]) -> str:
    """Serialize rows to CSV text with a fixed header and ``\\n`` line endings.

    Quoting is minimal (range ids carry commas), so output bytes are a pure
    function of the cell values.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt_cell(cell) for cell in row])
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
