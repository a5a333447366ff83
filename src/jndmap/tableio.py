"""Strict CSV and JSON helpers used by every artifact reader/writer in the package.

All interchange tables are plain comma-separated files with an exact header
row.  Each table is declared once, as its record type: a dataclass whose
fields, in order, are the table's columns, each declared with :func:`cell`
and the cell parser of its column, which returns the cell's value or raises
``ValueError``.  The parsers are built from ``int``, :func:`text`,
:func:`ident` and the :func:`checked` parsers :data:`number`, :func:`within`
and :func:`one_of`; :func:`cell_rule` reads one back.  :func:`read_table` is
the one CSV reader: it checks the header against the record's fields, skips
blank lines, and reports a wrong field count, a cell over
``csv.field_size_limit()`` or a parser's ``ValueError`` as a
:class:`CorpusError` naming the file, line and column.  It splits a text
without quotes or carriage returns itself, block by block, and hands any
other text to ``csv.reader``.  It returns a :class:`Table`, the values
column by column under the field names, each a :class:`Column` of the
distinct values and one code per row, whose :meth:`Table.error` names the
line of a row that a check across rows rejects.  A table held in memory is a
:class:`Columns`: one array per field of its record, under the field's
name.  :meth:`Columns.csv_text` is the one CSV writer: the record's fields
are the header, and :func:`csv_text` writes the bytes ``csv.writer`` would,
a float as its shortest round-trip ``repr``, so a value survives a
write/read round trip bit-for-bit; it also quotes a cell holding a carriage
return.  JSON artifacts go through :func:`write_json` and JSON inputs
through :func:`read_json`, whose parsers read a file's decoded data with
:func:`from_json` as a type expression, most often a dataclass: the type is
the schema of a JSON input, as the record type is of a table, and an error
names the key path.  The writer side is its inverse, :func:`to_json`: each
JSON artifact is one record type, a dataclass or a dict of them, turned into
JSON data by its fields, so that ``from_json(T, to_json(x)) == x`` and the
record's class is the one statement of the artifact's shape.

Only the rating and pair tables keep a row view, a :class:`RowSequence`
built from the columns when it is iterated or indexed: the benchmark under
``perfbench/`` reads them as rows (its study writer relabels each rating,
its tracer counts significant pairs), and its files are held fixed so that
runs of two commits compare.  The views go once the benchmark reads columns.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import UnionType
from typing import Any, ClassVar, NamedTuple, TypeVar, get_args, get_origin, get_type_hints

import numpy as np

from .errors import CorpusError

T = TypeVar("T")


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


def cell(parse: Callable[[str], Any]) -> Any:
    """A record field whose column's cells ``parse`` reads."""
    return dataclasses.field(metadata={"parse": parse})


def cell_rule(record: type, name: str) -> Callable[[str], Any]:
    """The cell parser of the field ``name`` of ``record``."""
    return record.__dataclass_fields__[name].metadata["parse"]


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


class Column(NamedTuple):
    """A column as its distinct values and each row's index into them.

    ``values`` holds one parsed value per distinct cell and ``codes`` one
    index into ``values`` per row.  Cells that differ may parse to equal
    values (``5`` and ``05``)."""

    values: list
    codes: np.ndarray

    @classmethod
    def of(cls, items: Sequence) -> Column:
        """The column of the values ``items``, each distinct value once."""
        index = dict.fromkeys(items)
        for code, value in enumerate(index):
            index[value] = code
        return cls(list(index), np.fromiter(map(index.__getitem__, items), np.intp, len(items)))

    def tolist(self) -> list:
        return list(map(self.values.__getitem__, self.codes.tolist()))


class Columns:
    """A table held as one array per field of its record type, under the
    field's name.

    ``Columns[R]`` is the table type of the dataclass ``R``: it is built from
    one sequence per field, by the field's name, and holds a ``str`` field's
    values as an object array and an ``int``, ``float`` or ``bool`` field's as
    an array of that type (an ``int`` column beyond int64, as a ``level``
    may be, as an object array).
    """

    record: ClassVar[type]
    names: ClassVar[tuple[str, ...]]  #: the record's field names, in order

    def __class_getitem__(cls, record: type) -> type[Columns]:
        return _columns_type(record)

    def __init__(self, **columns: Sequence) -> None:
        if columns.keys() != set(self.names):
            raise TypeError(f"{type(self).__name__} takes the columns {list(self.names)}, "
                            f"got {list(columns)}")
        kinds = _type_hints(self.record)
        for name in self.names:
            kind = kinds[name]
            try:
                column = np.asarray(columns[name], object if kind is str else kind)
            except OverflowError:
                column = np.asarray(columns[name], object)
            setattr(self, name, column)

    @classmethod
    def of(cls, rows: Iterable) -> Columns:
        """The table of the record objects ``rows``."""
        rows = list(rows)
        return cls(**{name: [getattr(row, name) for row in rows] for name in cls.names})

    @classmethod
    def concat(cls, tables: Sequence[Columns]) -> Columns:
        """The rows of ``tables``, one table after another."""
        return cls(**{name: np.concatenate([getattr(t, name) for t in tables]) if tables else ()
                      for name in cls.names})

    def __len__(self) -> int:
        return len(getattr(self, self.names[0]))

    def rows(self) -> Iterator:
        """The rows as record objects holding Python scalars."""
        return map(self.record, *(getattr(self, name).tolist() for name in self.names))

    def csv_text(self) -> str:
        """The table's CSV text: the field names are the header, and
        :func:`csv_text` writes the columns, a ``bool`` column as 0 and 1."""
        columns = [getattr(self, name) for name in self.names]
        return csv_text(self.names, [c.astype(int) if c.dtype == bool else c for c in columns])


@functools.cache
def _columns_type(record: type) -> type[Columns]:
    """``Columns[record]``, one class per record type."""
    names = tuple(f.name for f in dataclasses.fields(record))
    return type(f"Columns[{record.__name__}]", (Columns,), {"record": record, "names": names})


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a NaN-free array, as ``np.unique(values)``
    gives them.  numpy 2.4's ``np.unique`` without options imports
    ``numpy.ma``, about 10 ms in a fresh process; this imports nothing."""
    ordered = np.sort(values, axis=None)
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


@dataclasses.dataclass(eq=False)
class Table:
    """The data rows of a CSV file read by :func:`read_table`."""

    record: type  #: the record type of a row
    name: str  #: the file's name, for errors
    lines: list[int]  #: the 1-based file line each data row starts on
    coded: dict[str, Column]  #: the parsed values, one column per field, by name

    @functools.cached_property
    def columns(self) -> dict[str, list]:
        """The parsed values as one list per field, by name."""
        return {name: column.tolist() for name, column in self.coded.items()}

    def records(self) -> Iterator:
        """The rows as record objects."""
        return map(self.record, *self.columns.values())

    def error(self, message: str, index: int, column: str | None = None) -> CorpusError:
        """A :class:`CorpusError` naming the line of data row ``index``."""
        return CorpusError(message, path=self.name, line=self.lines[index], column=column)


def _not_utf8(path: Path) -> CorpusError:
    """The error for a file whose bytes are not UTF-8: it names the file and
    the line of the first bad byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # line ends as universal newlines count them
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return CorpusError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                           path=path.name, line=line)
    return CorpusError("not UTF-8", path=path.name)


#: A block of data rows: the file line each row starts on, the cells of each
#: column, and the fault that ends the reading after these rows, as
#: ``(line, message)``, or None.
Block = tuple[Sequence[int], list[list[str]], tuple[int, str] | None]

#: Characters per block of the split reader, a few thousand rating rows.
BLOCK_CHARS = 1 << 16
#: Rows per block of the CSV writer.
BLOCK_ROWS = 4096


def read_table(path: str | Path, record: type) -> Table:
    """The data rows of a strict CSV whose rows are ``record``s, each cell
    parsed by its field's :func:`cell` parser.

    The header must equal the record's field names exactly (same names, same
    order).  The first data row is line 2.  A fault raises at the first row
    that has one, at its first bad column: a cell its parser rejects, a row
    whose field count is not the record's, or a cell longer than
    ``csv.field_size_limit()``.  Each distinct cell of a column is parsed once
    and its value shared by the cells that repeat it, as ids and scores do.

    A text with no ``"`` and no carriage return is split on its line breaks
    and commas, a block of about :data:`BLOCK_CHARS` characters at a time; a
    block that holds a blank line, a row of another width or a line over the
    field limit goes through ``csv.reader``, which decides those.  Any other
    text goes through ``csv.reader`` whole, as quoted cells need.  Either way
    the rows are those ``csv.reader`` reads from the file.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    names = list(Columns[record].names)
    if '"' in text or "\r" in text:
        reader = csv.reader(io.StringIO(text, newline=""))
        _check_header(reader, path.name, names)
        blocks = [_csv_block(reader, 0, len(names))]
    else:
        end = text.find("\n")
        end = len(text) if end < 0 else end
        _check_header(csv.reader([text[:end]] if text else []), path.name, names)
        blocks = _split_blocks(text, end + 1, len(names))
    return _parse(path.name, blocks, record)


def _check_header(reader: Iterator[list[str]], name: str, names: list[str]) -> None:
    """Read the header row from ``reader``; it must be ``names``."""
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError("empty file (missing header)", path=name) from None
    except csv.Error as exc:
        raise CorpusError(str(exc), path=name, line=1) from None
    if header != names:
        raise CorpusError(f"bad header {header!r}, expected {names!r}", path=name, line=1)


def _csv_block(reader: Any, offset: int, width: int) -> Block:
    """The rows that ``reader`` (a ``csv.reader``) reads, as one block; its
    line 1 is file line ``offset + 1``.  Blank rows are skipped, and a row of
    another width or a ``csv.Error`` (a cell over the field limit) ends the
    reading."""
    numbers: list[int] = []
    cells: list[str] = []
    stop = None
    end = reader.line_num
    try:
        for row in reader:
            # a quoted cell may hold line breaks: a row starts after the last one ends
            number, end = offset + end + 1, reader.line_num
            if not row:
                continue
            if len(row) != width:
                stop = (number, f"expected {width} fields, got {len(row)}")
                break
            numbers.append(number)
            cells += row
    except csv.Error as exc:
        stop = (offset + end + 1, str(exc))
    return numbers, [cells[i::width] for i in range(width)], stop


def _split_blocks(text: str, start: int, width: int) -> Iterator[Block]:
    """The rows of a text without quotes or carriage returns from index
    ``start`` (line 2) on, cut at line breaks into blocks of about
    :data:`BLOCK_CHARS` characters.

    A block's line breaks become ``,\\n,`` and the block is split on commas,
    so each line ends in a ``\\n`` token.  The block's rows all have
    ``width`` cells exactly when the text has ``width + 1`` tokens per line
    and every ``width + 1``-th token is a line break; then column ``i`` is
    every ``width + 1``-th token from ``i``.  Any other block, and one with a
    cell over the field limit (looked for only in a block longer than the
    limit), goes through :func:`_csv_block`.
    """
    limit = csv.field_size_limit()
    last = len(text) - text.endswith("\n")  # the final line break ends no row
    line = 2
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS, last)
        end = last if end < 0 else end
        block = text[start:end]
        breaks = block.count("\n")
        tokens = block.replace("\n", ",\n,").split(",")
        if (width > 1 and (len(block) <= limit or max(map(len, tokens)) <= limit)
                and len(tokens) == (breaks + 1) * (width + 1) - 1
                and tokens[width::width + 1].count("\n") == breaks):
            yield range(line, line + breaks + 1), [tokens[i::width + 1] for i in range(width)], None
        else:
            yield _csv_block(csv.reader(block.split("\n")), line - 1, width)
        line += breaks + 1
        start = end + 1


def _parse(name: str, blocks: Iterable[Block], record: type) -> Table:
    """The :class:`Table` of ``blocks``: each new distinct cell of a column is
    parsed once and given the next free code; the first block with a fault
    raises its first fault in row order."""
    names = Columns[record].names
    parsers = [cell_rule(record, column) for column in names]
    index: list[dict[str, int]] = [{} for _ in names]  # cell -> code
    values: list[list] = [[] for _ in names]  # code -> parsed value
    codes: list[list[np.ndarray]] = [[] for _ in names]
    table = Table(record, name, [], {})
    for numbers, columns, stop in blocks:
        first = len(table.lines)
        table.lines += numbers
        faults = []
        for i, (parse, known, parsed, cells) in enumerate(zip(parsers, index, values, columns)):
            for cell in set(cells).difference(known):
                try:
                    parsed.append(parse(cell))
                except ValueError as exc:
                    faults.append((first + cells.index(cell), i, str(exc)))
                else:
                    known[cell] = len(known)
        if faults:
            row, i, message = min(faults)
            raise table.error(message, row, names[i])
        for known, cells, parts in zip(index, columns, codes):
            parts.append(np.fromiter(map(known.__getitem__, cells), np.intp, len(cells)))
        if stop:
            raise CorpusError(stop[1], path=name, line=stop[0])
    table.coded = {column: Column(parsed, np.concatenate(parts) if parts else np.empty(0, np.intp))
                   for column, parsed, parts in zip(names, values, codes)}
    return table


def csv_text(header: Iterable[str], columns: Sequence[Sequence]) -> str:
    """CSV text of ``columns`` under a fixed header, with ``\\n`` line endings:
    the bytes ``csv.writer(lineterminator="\\n")`` writes for their rows,
    except that a cell holding a carriage return is quoted, as ``csv.writer``
    quotes it under its default ``\\r\\n``, so that ``csv.reader`` reads it
    back.

    The rows are written :data:`BLOCK_ROWS` at a time.  In a block, each
    column is made text in one pass, ``str(value)`` for a value that is not a
    string, and each distinct text that needs it is quoted once.  Quoting is
    minimal (range ids carry commas), so output bytes are a pure function of
    the cell values.
    """
    parts = [",".join(_csv_cells(list(header)))]
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        cells = [_csv_cells(column[start:start + BLOCK_ROWS]) for column in columns]
        parts.append("\n".join(map(",".join, zip(*cells))))
    parts.append("")
    return "\n".join(parts)


def _csv_cells(column: Sequence) -> list[str]:
    """The cells of one CSV column, as ``csv.writer`` writes them: quoted,
    with quotes doubled, when they hold a comma, a quote, a line feed or a
    carriage return.

    A numeric array's distinct values are made text once each, a float's by
    its bits, so that ``-0.0`` and ``0.0`` stay apart."""
    if isinstance(column, np.ndarray) and (column.dtype.kind in "iu" or column.dtype == float):
        keys = column.view(np.int64) if column.dtype == float else column
        distinct, codes = np.unique(keys, return_inverse=True)
        texts = list(map(str, distinct.view(column.dtype).tolist()))
        return list(map(texts.__getitem__, codes.tolist()))
    values = column.tolist() if isinstance(column, np.ndarray) else column
    cells = list(map(str, values))
    probe = "".join(cells)
    if "," in probe or '"' in probe or "\n" in probe or "\r" in probe:
        quoted = {cell: '"' + cell.replace('"', '""') + '"' for cell in set(cells)
                  if "," in cell or '"' in cell or "\n" in cell or "\r" in cell}
        cells = list(map(quoted.get, cells, cells))
    return cells


def write_csv_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def json_text(obj: object) -> str:
    """Canonical JSON text: 2-space indent, sorted keys, trailing newline.

    The text is ``json.dumps(obj, indent=2, sort_keys=True)`` for objects with
    string keys.  Objects and arrays are laid out here, so that an array of
    strings, such as a range's pair ids in ``ranges.json``, goes through the
    C string encoder in one pass rather than item by item through the
    indenting encoder, which is pure Python.
    """
    return _json(obj, "\n") + "\n"


def _json(obj: object, newline: str) -> str:
    """``obj`` as :func:`json_text` lays it out, its lines after the first
    starting with ``newline``."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{encode_basestring_ascii(key)}: {_json(value, inner)}"
                 for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {str}:
            items = map(encode_basestring_ascii, obj)
        else:
            items = (_json(item, inner) for item in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj)


def write_json(path: str | Path, obj: object) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8", newline="")


def read_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """``parse`` a JSON file's data and ``validate()`` the result where it can;
    any failure raises :class:`CorpusError` naming the file."""
    path = Path(path)
    try:
        obj = parse(json.loads(path.read_text(encoding="utf-8")))
        if hasattr(obj, "validate"):
            obj.validate()
    except json.JSONDecodeError as exc:
        raise CorpusError(
            exc.msg, path=path.name, line=exc.lineno, column=f"column {exc.colno}"
        ) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except ValueError as exc:  # a failed check, or an integer of too many digits to convert
        raise CorpusError(str(exc), path=path.name) from None
    return obj


def from_json(kind: Any, value: object, key: str = "") -> Any:
    """The decoded JSON ``value`` read as the type expression ``kind``: a
    dataclass from an object by its field annotations (no unknown key, and no
    missing one but where the field has a default), ``tuple[X, ...]`` or
    ``tuple[X, Y]`` from a list, ``dict[str, X]`` from an object, ``A | B | …``
    (dataclasses that each name themselves in a ``strategy`` class variable)
    from an object whose ``strategy`` key picks one, ``A`` when it is missing,
    ``float`` (any number but a bool), ``int``, ``bool`` or ``str``.  A value of
    another shape raises ``ValueError`` naming its key path: the keys and list
    indexes from ``key`` down to it, joined by ``/``."""
    at, path = (f"{key}: ", f"{key}/") if key else ("", "")
    origin, args = get_origin(kind), get_args(kind)
    if dataclasses.is_dataclass(kind) or origin in (dict, UnionType):
        if type(value) is not dict:
            raise ValueError(f"{at}expected an object, got {value!r}")
        if origin is dict:
            return {name: from_json(args[1], item, path + name) for name, item in value.items()}
        if origin is UnionType:
            value = dict(value)
            name = from_json(str, value.pop("strategy", args[0].strategy), path + "strategy")
            kinds = {member.strategy: member for member in args}
            if name not in kinds:
                raise ValueError(f"{path}strategy: expected one of {list(kinds)}, got {name!r}")
            kind = kinds[name]
        types = _type_hints(kind)
        unknown = sorted(value.keys() - types.keys())
        if unknown:
            raise ValueError(f"{at}unknown key {unknown[0]!r}; expected one of {list(types)}")
        missing = [f.name for f in dataclasses.fields(kind) if f.name not in value
                   and f.default is dataclasses.MISSING is f.default_factory]
        if missing:
            raise ValueError(f"{at}missing key {missing[0]!r}")
        return kind(**{name: from_json(types[name], item, path + name)
                       for name, item in value.items()})
    if origin is tuple:
        if type(value) is not list:
            raise ValueError(f"{at}expected a list, got {value!r}")
        if args[-1] is Ellipsis and set(map(type, value)) <= {args[0]}:
            return tuple(value)  # every item has the item type already, as pair ids do
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(kinds):
            raise ValueError(f"{at}expected a list of {len(kinds)}, got {value!r}")
        return tuple(from_json(k, item, f"{path}{i}")
                     for i, (k, item) in enumerate(zip(kinds, value)))
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{at}integer too large for a float") from None
    raise ValueError(f"{at}expected {kind.__name__}, got {value!r}")


#: A dataclass's field types, its string annotations resolved once.
_type_hints = functools.cache(get_type_hints)


#: The types of a JSON scalar; :func:`to_json` copies a list of them in one call.
_SCALARS = {str, int, float, bool, type(None)}


def to_json(value: object) -> Any:
    """``value`` as the JSON data that :func:`from_json` reads back as its type:
    a dataclass as an object of its fields, led by the ``strategy`` that its
    class names, if any, and without a field that holds its empty default
    (``()`` or ``{}``); a dict with each value turned; a tuple or list as a
    list; anything else as it is."""
    if dataclasses.is_dataclass(value):
        kind = type(value)
        out = {"strategy": kind.strategy} if hasattr(kind, "strategy") else {}
        for f in dataclasses.fields(kind):
            item = getattr(value, f.name)
            if item in ((), {}) and (f.default == () or f.default_factory is dict):
                continue  # from_json fills the empty default back in
            out[f.name] = to_json(item)
        return out
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        if set(map(type, value)) <= _SCALARS:
            return list(value)
        return [to_json(item) for item in value]
    return value
