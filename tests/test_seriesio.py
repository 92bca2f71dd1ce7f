import csv
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlvsim import seriesio
from qlvsim.errors import DomainError
from qlvsim.protocols import Series
from qlvsim.seriesio import (format_value, read_series, serialize_series,
                             write_series)

BLOCK = seriesio._BLOCK_VALUES // 2     # rows a block of a 2-column table
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, sys.float_info.min,
               sys.float_info.max, -sys.float_info.max, 1.0 / 3.0, -1e-300]


def per_value_csv(names, columns, precision):
    """The CSV text of format_value applied to every value, row by row."""
    lines = [",".join(names)]
    for row in zip(*columns):
        lines.append(",".join(format_value(float(v), precision) for v in row))
    return "\n".join(lines) + "\n"


def sample_series():
    t = np.linspace(0.0, 1.0, 5)
    return Series(times=t, columns={"stress": np.sin(t) / 3.0,
                                    "strain": t ** 2})


class TestWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        series = sample_series()
        write_series(path, series)
        back = read_series(path)
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.columns["stress"],
                              series.columns["stress"])
        assert np.array_equal(back.columns["strain"],
                              series.columns["strain"])

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        series = sample_series()
        write_series(a, series)
        write_series(b, series)
        assert a.read_bytes() == b.read_bytes()

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series(path, sample_series())
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_precision_truncation(self):
        series = Series(times=np.array([0.0]),
                        columns={"x": np.array([1.0 / 3.0])})
        text = serialize_series(series, precision=6)
        assert "0.333333" in text and "0.3333333" not in text

    @pytest.mark.parametrize("precision, message", [
        (0, "precision must be >= 1, got 0"),
        (-1, "precision must be >= 1, got -1"),
        (2.5, "precision must be an int, got 2.5"),
        (float("nan"), "precision must be finite, got nan")],
        ids=["zero", "negative", "fraction", "nan"])
    def test_precision_is_an_int_of_at_least_one(self, tmp_path, precision,
                                                 message):
        # %.0g would write 1.5 as 2, and the others fail in the formatter
        series = Series(times=np.array([0.0, 1.0]),
                        columns={"x": np.array([1.5, 2.25])})
        with pytest.raises(DomainError, match=f"^{message}$"):
            serialize_series(series, precision=precision)
        with pytest.raises(DomainError, match=f"^{message}$"):
            write_series(tmp_path / "s.csv", series, precision=precision)
        assert not (tmp_path / "s.csv").exists()

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            format_value(float("nan"))

    def test_negative_zero_normalized(self):
        assert format_value(-0.0) == "0"

    def test_nan_rejected_by_series_writer(self, tmp_path):
        series = Series(times=np.array([0.0, 1.0]),
                        columns={"x": np.array([1.0, np.nan])})
        with pytest.raises(DomainError, match="NaN"):
            write_series(tmp_path / "s.csv", series)
        assert not (tmp_path / "s.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), precision=st.integers(1, 17),
           block=st.integers(1, 8), rows=st.integers(0, 9),
           width=st.integers(1, 3))
    def test_blocks_equal_per_value_formatting(self, data, precision, block,
                                               rows, width):
        values = st.one_of(st.floats(allow_nan=False),
                           st.sampled_from(EDGE_VALUES))
        columns = [np.array(data.draw(st.lists(values, min_size=rows,
                                               max_size=rows)), dtype=float)
                   for _ in range(width)]
        names = ["time"] + [f"c{i}" for i in range(1, width)]
        series = Series(times=columns[0],
                        columns=dict(zip(names[1:], columns[1:])))
        # values a block: a row or more, so 1 to 8 rows of 1 to 3 columns
        with mock.patch.object(seriesio, "_BLOCK_VALUES", block):
            text = serialize_series(series, precision)
        assert text == per_value_csv(names, columns, precision)

    def test_writer_copies_one_block_not_the_table(self, tmp_path):
        # 5e4 rows x 2 columns: a stacked copy of the table and its NaN mask
        # would take 0.9 MB, a block of 1024 rows (and its text) much less
        t = np.arange(50_000) * 0.01
        series = Series(times=t, columns={"x": np.sin(t)})
        tracemalloc.start()
        try:
            with mock.patch.object(seriesio, "_BLOCK_VALUES", 2048):
                write_series(tmp_path / "s.csv", series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (t.nbytes + series.columns["x"].nbytes)

    def test_a_wide_table_is_written_in_blocks_of_values(self):
        # 205 columns, as the bench network's table: 8192 // 205 = 39 rows
        # a block, where a block of 8192 rows held its whole 101 rows
        rng = np.random.default_rng(5)
        columns = [np.arange(101) * 0.01, *rng.standard_normal((204, 101))]
        names = ["time"] + [f"c{i}" for i in range(1, 205)]
        blocks = list(seriesio._csv_blocks(names, columns, 17))
        assert [b.count("\n") for b in blocks[1:]] == [39, 39, 23]
        assert "".join(blocks) == per_value_csv(names, columns, 17)

    def test_blocks_equal_per_value_formatting_at_full_size(self):
        rng = np.random.default_rng(3)
        n = 2 * BLOCK + 3
        t = np.arange(n) * 0.01
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        x[[0, BLOCK - 1, BLOCK, n - 1]] = [-0.0, np.inf, -np.inf, 5e-324]
        series = Series(times=t, columns={"x": x})
        for precision in (1, 6, 17):
            assert serialize_series(series, precision) == \
                per_value_csv(["time", "x"], [t, x], precision)


class TestRead:
    def write(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return path

    def test_three_rows(self, tmp_path):
        path = self.write(tmp_path, "time,x\n0,1\n1,2\n2,3\n")
        series = read_series(path)
        assert series.times.size == 3
        assert np.array_equal(series.columns["x"], [1.0, 2.0, 3.0])

    def test_duplicate_timestamp_line_number(self, tmp_path):
        path = self.write(tmp_path, "time,x\n0,1\n1,2\n1,3\n")
        with pytest.raises(DomainError, match="line 4"):
            read_series(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DomainError, match="empty"):
            read_series(path)

    def test_no_data_rows(self, tmp_path):
        path = self.write(tmp_path, "time,x\n")
        with pytest.raises(DomainError, match="no data rows"):
            read_series(path)

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "time,x\n0,1\n1,oops\n")
        with pytest.raises(DomainError, match="line 3"):
            read_series(path)

    def test_missing_time_header(self, tmp_path):
        path = self.write(tmp_path, "t,x\n0,1\n")
        with pytest.raises(DomainError, match="line 1"):
            read_series(path)

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "time,x\n0,1\n1\n")
        with pytest.raises(DomainError, match="line 3"):
            read_series(path)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = self.write(tmp_path, "time,x\n0,1\n\n1,2\n1,3\n")
        with pytest.raises(DomainError, match="line 5"):
            read_series(path)

    def test_first_error_in_file_order(self, tmp_path):
        # a bad cell before a ragged row in the same block
        path = self.write(tmp_path, "time,x\n0,1\n1,oops\n2\n")
        with pytest.raises(DomainError, match="line 3: could not convert"):
            read_series(path)

    def test_field_over_the_csv_limit(self, tmp_path):
        big = '"' + "9" * 140_000 + '"'
        path = self.write(tmp_path, f"time,x\n0,1\n1,{big}\n2,3\n")
        with pytest.raises(DomainError,
                           match=r"in\.csv: line 3: field larger than"):
            read_series(path)

    def test_bytes_that_are_not_text(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"time,x\n0,1\n\xff\xfe,2\n")
        with pytest.raises(DomainError, match=r"in\.csv: not utf-8 text"):
            read_series(path)


class TestReadPastFirstBlock:
    """Errors in later blocks report the line they are on, counting a
    blank line in the first block."""

    def write(self, tmp_path, bad_row, at):
        rows = [f"{i},{i % 7}" for i in range(2 * BLOCK)]
        rows[at] = bad_row
        rows.insert(10, "")
        path = tmp_path / "big.csv"
        path.write_text("time,x\n" + "\n".join(rows) + "\n")
        # header, the blank line, then rows[0:at]
        return path, at + 3

    @pytest.mark.parametrize("bad_row, message", [
        ("1,5", "time must be strictly increasing "
                "\\(got 1.0 after {prev}.0\\)"),
        ("{i},oops", "could not convert string to float: 'oops'"),
        ("{i}", "expected 2 fields, got 1"),
        ("{i},inf", "non-finite value"),
    ])
    def test_line_number(self, tmp_path, bad_row, message):
        at = BLOCK + 100
        path, line = self.write(tmp_path, bad_row.format(i=at), at)
        with pytest.raises(DomainError, match=f"line {line}: "
                           + message.format(prev=at - 1)):
            read_series(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "big.csv"
        t = np.arange(2 * BLOCK + 1) / 3.0
        series = Series(times=t, columns={"x": np.cos(t)})
        write_series(path, series)
        back = read_series(path)
        assert np.array_equal(back.times, t)
        assert np.array_equal(back.columns["x"], series.columns["x"])


def reference_read(path):
    """The specified reading of a CSV series, one row at a time with
    csv.reader and float(): the (rows, width) array and the header, or the
    DomainError text."""
    rows, lines = [], []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for lineno, row in enumerate(reader, 1):
                if lineno == 1:
                    header = [h.strip() for h in row]
                    if not header or header[0] != "time":
                        return (f"{path}: line 1: first column must be "
                                f"'time', got "
                                f"{header[0] if header else '(none)'!r}")
                    if len(set(header)) != len(header):
                        return f"{path}: line 1: duplicate column names"
                elif row:
                    if len(row) != len(header):
                        return (f"{path}: line {lineno}: expected "
                                f"{len(header)} fields, got {len(row)}")
                    try:
                        rows.append([float(v) for v in row])
                    except ValueError as exc:
                        return f"{path}: line {lineno}: {exc}"
                    lines.append(lineno)
        except csv.Error as exc:
            return f"{path}: line {reader.line_num}: {exc}"
    if reader.line_num == 0:
        return f"{path}: empty file"
    if not rows:
        return f"{path}: no data rows"
    for i, row in enumerate(rows):
        if not all(np.isfinite(row)):
            return f"{path}: line {lines[i]}: non-finite value"
    for i in range(1, len(rows)):
        if rows[i][0] <= rows[i - 1][0]:
            return (f"{path}: line {lines[i]}: time must be strictly "
                    f"increasing (got {np.float64(rows[i][0])} after "
                    f"{np.float64(rows[i - 1][0])})")
    return np.array(rows, dtype=float), header


def read_outcome(path):
    """read_series in the form of reference_read."""
    try:
        series = read_series(path)
    except DomainError as exc:
        return str(exc)
    data = np.column_stack([series.times, *series.columns.values()])
    return data, ["time", *series.columns]


def same_outcome(a, b) -> bool:
    """Equal error texts, or bit-identical arrays under equal headers."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (a[1] == b[1] and a[0].shape == b[0].shape
            and a[0].tobytes() == b[0].tobytes())


LIMIT = csv.field_size_limit()
ODD_CELLS = st.one_of(
    # read by csv.reader and float(), some of them not by numpy
    st.sampled_from(['"1"', '" 2"', "1_0", "\uff11", "\u0661", "+9", ".5",
                     "5.", "3\u00a0", "4\x0c", "\t7", "8 ", "1e5"]),
    # rejected by csv.reader or float(), or not finite
    st.sampled_from(['"3,4"', '"5\n6"', '""', '"', "1__0", "_1", "#", "1#2",
                     "", " ", "1 2", "0x1", "1d2", "7\x00", "x", "inf",
                     "-inf", "nan", "1e400", "-1e400", "Infinity"]),
    # ASCII separators, which numpy strips as whitespace
    st.sampled_from(["5\x1c", "\x1d6", "7\x1e", "\x1f8"]),
    # fields at and over the CSV limit (over it half the time), quoted and not
    st.sampled_from([LIMIT - 1, LIMIT, LIMIT + 1, LIMIT + 1]).map(
        lambda n: "0" * n), st.just(f'"{"0" * (LIMIT + 1)}"'))
HEADERS = st.sampled_from(["time,x"] * 6 + [
    "time", "time,x,y", " time , x ", '"time",x', "time,time", "t,x", "",
    "time,x,"])
ODD_ENDS = st.sampled_from(["\n\n", "\r\n\r\n", "\n \n", "\n\t\n",
                            "\r\r\n", "\r\n\n"])


@st.composite
def csv_texts(draw):
    """CSV-like texts: a well-formed series of finite numbers with one line
    end throughout, and up to two faults or odd forms: a cell from
    ODD_CELLS, a repeated or falling time, a ragged row, a blank or
    whitespace-only line."""
    header = draw(HEADERS)
    width = header.count(",") + 1
    rows = [[str(t)] + [repr(draw(st.floats(allow_nan=False,
                                            allow_infinity=False)))
                        for _ in range(width - 1)]
            for t in range(draw(st.integers(0, 5)))]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"]))] * (len(rows) + 1)
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["cell", "cell", "time", "ragged",
                                      "end"]))
        if fault == "end":
            ends[draw(st.integers(0, len(rows)))] = draw(ODD_ENDS)
            continue
        k = draw(st.integers(0, len(rows) - 1)) if rows else None
        if k is None or not rows[k]:
            continue
        if fault == "cell":
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(ODD_CELLS)
        elif fault == "time":
            rows[k][0] = str(k - draw(st.integers(1, 2)))
        elif draw(st.booleans()):
            rows[k].pop()
        else:
            rows[k].append("1")
    text = header + "".join(e + ",".join(r) for e, r in zip(ends, rows))
    return text + (ends[-1] if draw(st.booleans()) else "")


class TestReadMatchesTheRowByRowReference:
    """numpy's parser reads a well-formed file; anything else is read or
    rejected exactly as the row-by-row reference does."""

    def read_both(self, tmp_path, text):
        path = tmp_path / "in.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return read_outcome(path), reference_read(path)

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_property(self, tmp_path_factory, text):
        got, want = self.read_both(tmp_path_factory.mktemp("csv"), text)
        assert same_outcome(got, want), (text[:200], got, want)

    def test_single_data_row(self, tmp_path):
        got, want = self.read_both(tmp_path, "time,x\n0,1\n")
        assert same_outcome(got, want)
        assert got[0].tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("text, rows", [
        ('time,x\n"0","1.5"\n1,"2"\n', [[0, 1.5], [1, 2]]),
        ("time,x\n0,1_0\n1_0,2\n", [[0, 10], [10, 2]]),
        ("time,x\r0,1\r1,2\r", [[0, 1], [1, 2]]),
        ("time,x\n\uff10,\uff11\n\uff11,2\n", [[0, 1], [1, 2]]),
    ], ids=["quoted", "underscore", "cr-only", "fullwidth"])
    def test_valid_forms_loadtxt_rejects(self, tmp_path, text, rows):
        # np.loadtxt rejects each in a text stream; the CR-only file still
        # takes the one pass, as the open file splits its lines at CR
        got, want = self.read_both(tmp_path, text)
        assert same_outcome(got, want)
        assert got[0].tolist() == rows

    def test_unquoted_field_over_the_limit(self, tmp_path):
        # numpy's parser would read it as 1e-140001
        big = "0." + "0" * 140_000 + "1"
        got, want = self.read_both(tmp_path, f"time,x\n0,1\n1,{big}\n")
        assert got == want
        assert got.endswith("in.csv: line 3: field larger than field limit "
                            f"({LIMIT})")

    def test_ascii_separator_is_not_whitespace(self, tmp_path):
        # numpy's parser strips \x1c-\x1f as whitespace; float() does not
        got, want = self.read_both(tmp_path, "time,x\n0,1\n1,2\x1c\n")
        assert got == want
        assert got.endswith("line 3: could not convert string to float: "
                            "'2\\x1c'")

    def test_no_data_rows_warns_nothing(self, tmp_path, recwarn):
        got, want = self.read_both(tmp_path, "time,x\n\n")
        assert got == want and got.endswith("in.csv: no data rows")
        assert not recwarn.list

    def test_well_formed_file_skips_the_row_loop(self, tmp_path):
        path = tmp_path / "s.csv"
        series = sample_series()
        write_series(path, series)
        with mock.patch.object(seriesio, "_read_rows",
                               side_effect=AssertionError("row loop used")):
            back = read_series(path)
        assert np.array_equal(back.columns["stress"], series.columns["stress"])
