"""The table reader's two paths, and the CSV and JSON writers, against the
standard library's own reader and writers."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from collections.abc import Callable
from typing import Any, ClassVar

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jndmap import tableio
from jndmap.config import RunConfig
from jndmap.errors import CorpusError
from jndmap.mapping import FitReport, _FitJson
from jndmap.ranges import Explicit, FixedWidth, _RangesJson
from jndmap.screening import ObserverStats, ScreeningReport
from jndmap.simulate import SimSpec

#: Every fault a row can have: an empty text cell, a non-integer or an
#: out-of-range level, and an id with a colon.
SCHEMA: dict[str, Callable[[str], Any]] = {
    "a": tableio.text,
    "b": tableio.within(int, 0, 9),
    "c": tableio.ident,
}


@dataclasses.dataclass(frozen=True)
class Row:
    """A row of the drawn tables: its fields carry the rules of :data:`SCHEMA`."""

    a: str = tableio.cell(SCHEMA["a"])
    b: int = tableio.cell(SCHEMA["b"])
    c: str = tableio.cell(SCHEMA["c"])


#: The field limit while reading drawn files, so that a short cell can pass it.
LIMIT = 8


def _outcome(read, path) -> tuple:
    """The table's lines and columns, or the error's message, line and column."""
    try:
        table = read(path, Row)
    except CorpusError as exc:
        return ("error", exc.message, exc.line, exc.column)
    return ("table", table.lines, list(table.columns.values()))


def _read_by_csv_reader(path, record) -> tableio.Table:
    """``read_table`` with the text after the header read by ``csv.reader``,
    whether or not it could be split."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableio, "_split_blocks", lambda text, start, width: [tableio._csv_block(
            csv.reader(io.StringIO(text[start:], newline="")), 1, width)])
        return tableio.read_table(path, record)


def _reference(data: bytes) -> tuple:
    """What reading ``data`` gives with the field limit at ``LIMIT``, from the
    rows ``csv.reader`` reads at its default limit: the first row with a
    fault raises it (a cell over ``LIMIT``, a field count that is not the
    schema's, or its first cell that does not parse), and blank rows are
    skipped."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ("error", f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", line, None)
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        return ("error", "empty file (missing header)", None, None)
    if max(map(len, header), default=0) > LIMIT:
        return ("error", f"field larger than field limit ({LIMIT})", 1, None)
    if header != list(SCHEMA):
        return ("error", f"bad header {header!r}, expected {list(SCHEMA)!r}", 1, None)
    lines, rows, end = [], [], reader.line_num
    for row in reader:
        line, end = end + 1, reader.line_num
        if not row:
            continue
        if max(map(len, row)) > LIMIT:
            return ("error", f"field larger than field limit ({LIMIT})", line, None)
        if len(row) != len(SCHEMA):
            return ("error", f"expected {len(SCHEMA)} fields, got {len(row)}", line, None)
        for (name, parse), cell in zip(SCHEMA.items(), row):
            try:
                parse(cell)
            except ValueError as exc:
                return ("error", str(exc), line, name)
        lines.append(line)
        rows.append([parse(cell) for parse, cell in zip(SCHEMA.values(), row)])
    return ("table", lines, [list(column) for column in zip(*rows)] or [[]] * len(SCHEMA))


#: Cells a plain file may hold: good and bad values of every column, and
#: cells over the field limit.
PLAIN_CELLS = st.sampled_from(["x", "y", "0", "7", "10", "-1", "", "p:q", "é", " 3", "\x00",
                               "x" * LIMIT, "x" * (LIMIT + 1), "1" * (LIMIT + 3)])
#: Cells that only a quoted field can hold.
QUOTED_CELLS = st.sampled_from(["a,b", 'say ""hi""', "two\nlines", "cr\rhere", "crlf\r\n", ","])


@st.composite
def csv_files(draw) -> bytes:
    """A table's bytes: a header, then rows of one to five cells and blank
    lines, in a plain file or one with quoted cells, CRLF line ends or both,
    sometimes with a byte that is not UTF-8."""
    quoted, crlf = draw(st.booleans()), draw(st.booleans())
    end = "\r\n" if crlf else "\n"
    cells = st.one_of(PLAIN_CELLS, QUOTED_CELLS) if quoted else PLAIN_CELLS
    lines = [draw(st.sampled_from(["a,b,c", "a,b,c", "a,c,b", ""]))]
    for row in draw(st.lists(st.lists(cells, min_size=0, max_size=5), max_size=12)):
        lines.append(",".join(
            f'"{cell.replace(chr(34), 2 * chr(34))}"'
            if any(ch in cell for ch in ',"\r\n') or (quoted and draw(st.booleans())) else cell
            for cell in row))
    text = end.join(lines) + end * draw(st.integers(0, 2))
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_files(), block_chars=st.integers(1, 40))
# a short row and a long row whose cells add up to two full rows
@example(data=b"a,b,c\nx,1\ny,2,z,w\nv,3,u\n", block_chars=40)
# a cell over the limit in a block that splits cleanly
@example(data=b"a,b,c\nx,1,y\n" + b"x" * (LIMIT + 1) + b",2,z\n", block_chars=40)
def test_split_and_csv_reader_paths_read_the_same_table(tmp_path, data, block_chars):
    """Both paths give the table, or the error, that the rows ``csv.reader``
    reads give, whatever the blocks' size."""
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    expected = _reference(data)
    limit = csv.field_size_limit(LIMIT)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tableio, "BLOCK_CHARS", block_chars)
            assert _outcome(tableio.read_table, path) == expected
            assert _outcome(_read_by_csv_reader, path) == expected
    finally:
        csv.field_size_limit(limit)


def test_split_reader_reads_a_large_table_in_blocks(tmp_path):
    """A table of several blocks reads as ``csv.reader`` reads it, and a bad
    cell far down names its own line."""
    rows = [f"c{i % 97},{i % 10},o:{i}" if i == 9000 else f"c{i % 97},{i % 10},o{i}"
            for i in range(12000)]
    path = tmp_path / "table.csv"
    path.write_text("a,b,c\n" + "\n".join(rows[:9000]) + "\n", encoding="utf-8")
    table = tableio.read_table(path, Row)
    assert _outcome(tableio.read_table, path) == _outcome(_read_by_csv_reader, path)
    assert table.lines == list(range(2, 9002))
    assert table.columns["c"][8999] == "o8999"
    assert len(table.coded["a"].values) == 97
    path.write_text("a,b,c\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^table.csv:line 9002:c: id 'o:9000' contains ':'$"):
        tableio.read_table(path, Row)


CELLS = st.one_of(
    st.text(alphabet=',"\n\r aé€\\x0', max_size=6),
    st.sampled_from(["", ","]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32).map(np.float64),
    st.integers(-10**20, 10**20),
    st.integers(-5, 5).map(np.int64),
    st.text(alphabet='a,"\n', max_size=3).map(np.str_),
)


@settings(max_examples=300, deadline=None)
@given(header=st.lists(st.text(alphabet='ab,"\n\r', min_size=1, max_size=3), min_size=2,
                       max_size=4), data=st.data())
def test_csv_text_writes_what_csv_writer_writes(header, data):
    columns = [data.draw(st.lists(CELLS, min_size=n, max_size=n))
               for n in [data.draw(st.integers(0, 6))] * len(header)]
    # the one exception to csv.writer(lineterminator="\n"): a cell holding a
    # carriage return is quoted, as csv.writer quotes it under its default
    # "\r\n", so each row is written that way and ended by "\n" instead
    expected = ""
    for row in [header, *zip(*columns)]:
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        expected += buf.getvalue().removesuffix("\r\n") + "\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableio, "BLOCK_ROWS", data.draw(st.integers(1, 4)))
        assert tableio.csv_text(header, columns) == expected
        arrays = [np.array(column, dtype=object) for column in columns]
        assert tableio.csv_text(header, arrays) == expected


@settings(max_examples=200, deadline=None)
@given(floats=st.lists(st.floats(), min_size=1, max_size=12), data=st.data())
def test_csv_text_writes_number_arrays_as_csv_writer_writes_their_values(floats, data):
    """A float64 or int64 array is written as ``csv.writer`` writes its
    values, ``-0.0`` and ``0.0`` apart."""
    ints = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=len(floats),
                              max_size=len(floats)))
    zeros = [(0.0, -0.0)[i % 2] for i in range(len(floats))]
    columns = [np.array(floats), np.array(ints, dtype=np.int64), np.array(zeros)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "n", "z"])
    writer.writerows(zip(*(column.tolist() for column in columns)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableio, "BLOCK_ROWS", data.draw(st.integers(1, 4)))
        assert tableio.csv_text(["x", "n", "z"], columns) == buf.getvalue()


@dataclasses.dataclass(frozen=True)
class _Record:
    name: str
    n: int
    x: float
    flag: bool


def test_columns_hold_a_records_fields_by_name():
    """``Columns[R]`` takes one column per field of ``R``, by name, holds each
    as an array of the field's type (an int beyond int64 as objects), gives
    the records back, and writes a bool as 0 or 1."""
    rows = [_Record("a", 1, 0.5, True), _Record("b,c", 2**70, -0.0, False)]
    table = tableio.Columns[_Record].of(rows)
    assert type(table) is tableio.Columns[_Record]
    assert [getattr(table, name).dtype.kind for name in table.names] == ["O", "O", "f", "b"]
    assert list(table.rows()) == rows
    assert table.csv_text() == 'name,n,x,flag\na,1,0.5,1\n"b,c",1180591620717411303424,-0.0,0\n'
    assert list(tableio.Columns[_Record].concat([table, table]).rows()) == rows * 2
    assert len(tableio.Columns[_Record].concat([])) == 0
    with pytest.raises(TypeError, match=r"takes the columns \['name', 'n', 'x', 'flag'\], got"):
        tableio.Columns[_Record](name=["a"], n=[1], x=[0.5])


IDS = st.text(alphabet='ab:"\\/é€\x01\n', max_size=5)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), IDS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(IDS, max_size=4).map(tuple),
                            st.dictionaries(IDS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(obj=JSON)
def test_json_text_is_json_dumps(obj):
    assert tableio.json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_ranges_json_layout_of_pair_ids():
    ids = ['c"1:r0:r1', "c\\2:r0:r1", "cé:r0:r1", "c€:r0:r1"]
    data = {"assignments": {"(0,50]": ids, "(50,100]": []}, "bounds": [0.0, 50.0, math.pi],
            "strategy": "explicit"}
    assert tableio.json_text(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


@dataclasses.dataclass(frozen=True)
class _Inner:
    x: float
    flag: bool = False


@dataclasses.dataclass(frozen=True)
class _Dot:
    strategy: ClassVar[str] = "dot"


@dataclasses.dataclass(frozen=True)
class _Span:
    strategy: ClassVar[str] = "span"
    lo: float = 0.0
    hi: float = 1.0


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    pairs: tuple[tuple[str, int], ...] = ()
    named: dict[str, tuple[float, ...]] = dataclasses.field(default_factory=dict)
    shape: _Dot | _Span = dataclasses.field(default_factory=_Dot)


def test_from_json_reads_the_type_it_is_given():
    value = {"inner": {"x": 1}, "pairs": [["a", 2]], "named": {"k": [1, 2.5]}, "shape": {}}
    assert tableio.from_json(_Outer, value) == _Outer(_Inner(1.0), (("a", 2),), {"k": (1.0, 2.5)})
    assert type(tableio.from_json(_Outer, value).inner.x) is float
    assert tableio.from_json(_Outer, {"inner": {"x": 0.5, "flag": True},
                                      "shape": {"strategy": "span", "hi": 3}}) == _Outer(
        _Inner(0.5, True), shape=_Span(hi=3.0))
    assert tableio.from_json(_Outer, {"inner": {"x": 1}, "shape": {"strategy": "dot"}}) == _Outer(
        _Inner(1.0))


@pytest.mark.parametrize(("value", "message"), [
    ([], "expected an object, got []"),
    ({"inner": {"x": True}}, "inner/x: expected float, got True"),
    ({"inner": {"x": 1, "flag": 0}}, "inner/flag: expected bool, got 0"),
    ({"inner": {"x": 1, "y": 2}}, "inner: unknown key 'y'; expected one of ['x', 'flag']"),
    ({"inner": {}}, "inner: missing key 'x'"),
    ({"inner": {"x": 10**400}}, "inner/x: integer too large for a float"),
    ({"inner": {"x": 1}, "pairs": [["a", 1, 2]]}, "pairs/0: expected a list of 2, got ['a', 1, 2]"),
    ({"inner": {"x": 1}, "pairs": [["a"]]}, "pairs/0: expected a list of 2, got ['a']"),
    ({"inner": {"x": 1}, "pairs": [["a", 1.0]]}, "pairs/0/1: expected int, got 1.0"),
    ({"inner": {"x": 1}, "pairs": {}}, "pairs: expected a list, got {}"),
    ({"inner": {"x": 1}, "named": {"k": ["1"]}}, "named/k/0: expected float, got '1'"),
    ({"inner": {"x": 1}, "named": []}, "named: expected an object, got []"),
    ({"inner": {"x": 1}, "shape": "x"}, "shape: expected an object, got 'x'"),
    # the strategy key picks the member, and the other members' keys are unknown
    ({"inner": {"x": 1}, "shape": {"strategy": 1}}, "shape/strategy: expected str, got 1"),
    ({"inner": {"x": 1}, "shape": {"strategy": "ring"}},
     "shape/strategy: expected one of ['dot', 'span'], got 'ring'"),
    ({"inner": {"x": 1}, "shape": {"hi": 2}}, "shape: unknown key 'hi'; expected one of ['strategy']"),
], ids=["not-object", "bool-for-float", "int-for-bool", "unknown-key", "missing-key",
        "huge-int", "long-pair", "short-pair", "float-for-int", "object-for-list",
        "string-for-float-item", "list-for-object", "string-for-union", "number-for-strategy",
        "unknown-strategy", "key-of-another-strategy"])
def test_from_json_names_the_key_path(value, message):
    with pytest.raises(ValueError) as info:
        tableio.from_json(_Outer, value)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        tableio.from_json(_Outer, value, "top")
    assert str(info.value) == ("top: " if message.startswith("expected") else "top/") + message


def test_to_json_writes_what_from_json_reads():
    """A dataclass is an object of its fields, led by the strategy its class
    names; a field that holds its empty default is left out; tuples are lists."""
    value = _Outer(_Inner(0.5, True), (("a", 2),), {"k": (1.0, 2.5)}, _Span(hi=3.0))
    data = {"inner": {"x": 0.5, "flag": True}, "pairs": [["a", 2]], "named": {"k": [1.0, 2.5]},
            "shape": {"strategy": "span", "lo": 0.0, "hi": 3.0}}
    assert tableio.to_json(value) == data
    assert tableio.from_json(_Outer, data) == value
    bare = _Outer(_Inner(1.0))
    assert tableio.to_json(bare) == {"inner": {"x": 1.0, "flag": False},
                                     "shape": {"strategy": "dot"}}
    assert tableio.from_json(_Outer, tableio.to_json(bare)) == bare


_STATS = {"o1": ObserverStats(3, 1, 0.2, 0.5), "o2": ObserverStats(0, 0, 0.0, 0.0)}


@pytest.mark.parametrize("value", [
    RunConfig(),
    RunConfig(alpha=0.01, decomposition=FixedWidth(20.0), families=("glm",), chain_orders=False),
    RunConfig(decomposition=Explicit((40.0, 80.0, 90.0, 100.0)), thresholds=(0.5,)),
    ScreeningReport("none", (), _STATS),
    ScreeningReport("bt500", ("o1",), _STATS),
    SimSpec(),
    SimSpec(n_contents=3, ladder=(("r1", 90.0), ("r2", 80.0), ("r3", 70.0)), seed=7),
    _FitJson((-3.0, 0.5), (0.0, 14.0), FitReport(0.1, True, 3)),
    _FitJson((1.0, 2.0), (0.0, 9.5), FitReport(0.25, False, 7, ("budget", "flat"),
                                                {"deviance": 1.5})),
    _RangesJson("explicit", (0.0, 50.0, 100.0), {"(0,50]": ("c:a:b",), "(50,100]": ()}),
    _RangesJson("balanced", (10.0, 100.0)),
], ids=["config-balanced", "config-fixed-width", "config-explicit", "screening-none",
        "screening-removed", "spec-default", "spec-small", "fit-plain", "fit-flags-extras",
        "ranges", "ranges-no-assignments"])
def test_each_record_reads_back_from_its_json(value):
    data = tableio.to_json(value)
    assert tableio.from_json(type(value), data) == value
    assert tableio.from_json(type(value), json.loads(tableio.json_text(data))) == value
