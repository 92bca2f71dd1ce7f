import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlvsim import seriesio
from qlvsim.errors import DomainError
from qlvsim.protocols import Series
from qlvsim.seriesio import (format_value, read_series, serialize_series,
                             write_series)

BLOCK = seriesio._BLOCK_ROWS
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
           block=st.integers(1, 4), rows=st.integers(0, 9),
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
        with mock.patch.object(seriesio, "_BLOCK_ROWS", block):
            text = serialize_series(series, precision)
        assert text == per_value_csv(names, columns, precision)

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
