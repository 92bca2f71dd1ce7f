"""Deterministic CSV time-series reading and writing.

Files have a single header row naming the columns (the first must be
``time``), LF line endings, and values formatted with a fixed precision so
identical data always serializes to identical bytes.  Rows are formatted
and parsed in blocks of ``_BLOCK_ROWS``, which bounds the memory of the
text held at once.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, islice

import numpy as np

from .errors import DomainError
from .protocols import Series

_DEFAULT_PRECISION = 17
_BLOCK_ROWS = 8192


def format_value(x: float, precision: int = _DEFAULT_PRECISION) -> str:
    """Shortest-round-trip style formatting at a fixed significant-digit
    budget; the output is a pure function of the float bits.  This is the
    rule the block formatter applies to every value."""
    if x != x:
        raise DomainError("cannot serialize NaN")
    s = f"{x:.{precision}g}"
    # normalize negative zero for byte-stable output
    return "0" if s == "-0" else s


def _csv_blocks(names, columns, precision: int):
    """Header line, then blocks of rows, of equal-length columns as CSV
    text.  Checks the data before returning, so a caller can open its
    output afterwards."""
    data = np.column_stack(columns).astype(float, copy=False)
    if np.isnan(data).any():
        raise DomainError("cannot serialize NaN")
    data += 0.0     # -0 becomes 0; '%g' then equals format_value per value
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(names)
    row = ",".join([f"%.{precision}g"] * data.shape[1]) + "\n"
    blocks = (data[i:i + _BLOCK_ROWS]
              for i in range(0, len(data), _BLOCK_ROWS))
    return chain([header.getvalue()],
                 ((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks))


def _table(series: Series):
    return (["time", *series.columns],
            [series.times, *series.columns.values()])


def serialize_series(series: Series, precision: int = _DEFAULT_PRECISION) -> str:
    """Render a series as CSV text with LF newlines."""
    return "".join(_csv_blocks(*_table(series), precision))


def write_table(path, names, columns,
                precision: int = _DEFAULT_PRECISION) -> None:
    """Write equal-length columns under a header row of ``names`` to
    ``path`` as deterministic CSV."""
    blocks = _csv_blocks(names, columns, precision)
    with open(path, "w", newline="") as fh:
        fh.writelines(blocks)


def write_series(path, series: Series, precision: int = _DEFAULT_PRECISION) -> None:
    """Write a series to ``path`` as deterministic CSV."""
    write_table(path, *_table(series), precision)


def _parse_block(path, records, first_line: int, width: int):
    """Values and line numbers of the non-blank records of a block whose
    first record is on ``first_line``.  One pass converts a well-formed
    block; otherwise row by row, raising at the first malformed record."""
    lines = [n for n, row in enumerate(records, first_line) if row]
    rows = [row for row in records if row]
    if all(len(row) == width for row in rows):
        try:
            return np.fromiter(map(float, chain.from_iterable(rows)), float,
                               len(rows) * width), lines
        except ValueError:
            pass
    values = []
    for lineno, row in zip(lines, rows):
        if len(row) != width:
            raise DomainError(f"{path}: line {lineno}: expected "
                              f"{width} fields, got {len(row)}")
        try:
            values += [float(v) for v in row]
        except ValueError as exc:
            raise DomainError(f"{path}: line {lineno}: {exc}") from exc
    return np.array(values), lines


def read_series(path) -> Series:
    """Read a CSV series; malformed content raises DomainError with the
    offending line number where it is known."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DomainError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if not header or header[0] != "time":
                raise DomainError(
                    f"{path}: line 1: first column must be 'time', "
                    f"got {header[0] if header else '(none)'!r}")
            if len(set(header)) != len(header):
                raise DomainError(f"{path}: line 1: duplicate column names")
            values, linenos = [], []
            first_line = 2
            while records := list(islice(reader, _BLOCK_ROWS)):
                block, lines = _parse_block(path, records, first_line,
                                            len(header))
                values.append(block)
                linenos += lines
                first_line += len(records)
        except csv.Error as exc:
            raise DomainError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not {exc.encoding} text: "
                              f"{exc.reason}") from exc
    if not linenos:
        raise DomainError(f"{path}: no data rows")
    data = np.concatenate(values).reshape(-1, len(header))
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.isfinite(data))[0][0])
        raise DomainError(f"{path}: line {linenos[bad]}: non-finite value")
    times = data[:, 0]
    decreasing = np.flatnonzero(times[1:] <= times[:-1])
    if decreasing.size:
        i = decreasing[0] + 1
        raise DomainError(
            f"{path}: line {linenos[i]}: time must be strictly "
            f"increasing (got {times[i]} after {times[i - 1]})")
    columns = {name: data[:, i] for i, name in enumerate(header) if i > 0}
    return Series(times=times, columns=columns)
