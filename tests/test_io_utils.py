"""Sample-CSV ingestion against the row-by-row reference parser.

`load_sample_csv` parses a file in one vectorized pass and falls back to
a row loop only to report a bad cell.  The reference below is that row
loop as a standalone function: for every file the two must return the
same array bit for bit or raise the same exception with the same
message.
"""
import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochord import DataError
from stochord import io_utils
from stochord.io_utils import load_sample_csv


def reference_load(path, header=False):
    """The row-by-row parser of the first column, one cell at a time
    through ``float``."""
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        start_line = 1
        if header:
            try:
                next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            start_line = 2
        for lineno, row in enumerate(reader, start=start_line):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            cell = row[0].strip()
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: cannot parse {cell!r} as a float") from None
            if not np.isfinite(v):
                raise DataError(f"{path}:{lineno}: non-finite value {cell!r}")
            values.append(v)
    if not values:
        raise DataError(f"{path}: no data rows")
    return np.asarray(values, dtype=float)


def outcome(load, *args, **kwargs):
    """A comparable summary: the array's dtype, shape and bytes, or the
    exception's type and message."""
    try:
        arr = load(*args, **kwargs)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("array", arr.dtype.str, arr.shape, arr.tobytes())


EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                2.225073858507201e-308, 1.7976931348623157e308, 1e-300,
                0.1, 1 / 3, -123456789.123456789]
doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from(EDGE_DOUBLES),
).map(repr)
# numbers written otherwise than by repr (leading zeros, long digit
# strings, exponents): both parsers round them correctly
digits = st.text(alphabet="0123456789", min_size=1, max_size=20)
decimals = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "+", "-"]),
    digits,
    st.one_of(st.just(""), st.just("."), digits.map(".{}".format)),
    st.one_of(st.just(""), st.builds("{}{:+d}".format,
                                     st.sampled_from(["e", "E"]),
                                     st.integers(-340, 280))),
)
pads = st.sampled_from(["", " ", "  ", "\t", " \t"])
exotic_pads = st.sampled_from(["\x0b", "\x0c", "\xa0", "\u2003", "\u2028",
                               "\x1c", "\x85", "\ufeff"])
GARBAGE = [
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e500", "-1e400",
    "1_0", "1__0", "_1", "#", "# 1", "", "abc", "1.5x", "1.5 2", "0x10",
    "0x1p3", "\u0661\u0662", "1,5", "\x00", '"', '""', '"1"5', '1"5',
    '"1.5', '"1,5"', '"1\n2"', '"\r"', "1e", "e5", ".", "+", "--1",
]
garbage = st.sampled_from(GARBAGE)


@st.composite
def clean_cells(draw):
    """A finite number as a writer might emit it: padded, maybe quoted."""
    number = draw(st.one_of(doubles, decimals))
    cell = draw(pads) + number + draw(pads)
    return f'"{cell}"' if draw(st.booleans()) else cell


@st.composite
def odd_cells(draw):
    """A cell that may or may not parse: garbage, arbitrary text, or a
    clean cell with unusual padding or quoting."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(garbage)
    if kind == 1:
        return draw(st.text(max_size=6))
    cell = draw(clean_cells())
    pad = draw(exotic_pads)
    return draw(st.sampled_from([cell + pad, pad + cell,
                                 f' "{cell}"', f'"{cell}" ']))


@st.composite
def csv_files(draw, odd_cells_per_file, blank_lines):
    """(text, header): rows of clean cells joined by commas, a few of
    them replaced by odd cells, with blank lines, line endings and an
    optional header row."""
    width = draw(st.integers(1, 3))
    names = [f"c{j}" for j in range(width)]
    rows = [[draw(clean_cells())
             for _ in range(width + draw(st.integers(0, 1)))]
            for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(odd_cells_per_file) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.sampled_from([0, len(row) - 1]))] = draw(odd_cells())
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank_lines))
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(names))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if draw(st.integers(0, 19)) == 0:
        text = "\ufeff" + text
    return text, header


def _write(directory, text):
    path = directory / "sample.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=200, deadline=None)
@given(csv_files(st.integers(0, 2),
                 st.sampled_from(["", " ", "\t", "  \t", '""'])))
def test_parser_matches_row_loop(scratch, case):
    text, header = case
    path = _write(scratch, text)
    assert (outcome(load_sample_csv, path, header)
            == outcome(reference_load, path, header))


@settings(max_examples=100, deadline=None)
@given(csv_files(st.just(0), st.just("")))
def test_valid_files_skip_the_row_loop(scratch, case):
    text, header = case
    path = _write(scratch, text)
    expected = outcome(reference_load, path, header)
    rows_loop = mock.patch.object(io_utils, "_parse_rows",
                                  side_effect=AssertionError("row loop ran"))
    if expected[0] == "array":
        with rows_loop:
            got = outcome(load_sample_csv, path, header)
    else:       # no data rows: only the row loop reports that
        got = outcome(load_sample_csv, path, header)
    assert got == expected


@pytest.mark.parametrize("cell", GARBAGE)
def test_each_garbage_cell_between_valid_rows(tmp_path, cell):
    path = _write(tmp_path, f"1.5,x\n{cell}\n2.5\n")
    assert outcome(load_sample_csv, path) == outcome(reference_load, path)


def test_bad_cell_reports_its_line(tmp_path):
    path = _write(tmp_path, "x,y\n1,2\n\nabc,3\n")
    with pytest.raises(DataError, match=r"sample\.csv:4: cannot parse 'abc'"):
        load_sample_csv(path, header=True)
    path = _write(tmp_path, "1.5\r\n2.5\r\ninf\r\n")
    with pytest.raises(DataError, match=r"sample\.csv:3: non-finite value 'inf'"):
        load_sample_csv(path)


def test_quoted_cells_and_extra_columns(tmp_path):
    path = _write(tmp_path, 'value,name\n"1.25","a",x\n\n 2e-3 ,"b",y,z')
    got = load_sample_csv(path, header=True)
    assert got.tolist() == [1.25, 0.002]


def test_undecodable_bytes_raise_data_error(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_bytes(b"1.5\n\xff\xfe\n")
    with pytest.raises(DataError,
                       match=r"sample\.csv: unreadable CSV: .* decode"):
        load_sample_csv(path)


def test_field_over_csv_limit_with_bad_cell_raises_data_error(tmp_path):
    # loadtxt reads the long field; the bad cell then sends the file to
    # the csv-module row loop, which rejects the field
    path = _write(tmp_path, "1.0\n" + "1" * 140_000 + "\nabc\n")
    with pytest.raises(DataError, match="field larger than field limit"):
        load_sample_csv(path)
