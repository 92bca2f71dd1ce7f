"""Deterministic CSV time-series reading and writing.

Files have a single header row naming the columns (the first must be
``time``), LF line endings, and values formatted with a fixed precision so
identical data always serializes to identical bytes.  Rows are written
in blocks of ``_BLOCK_VALUES`` values and read by numpy's C parser; only a
file it fails on is read again, row by row with ``csv.reader``.
"""

from __future__ import annotations

import csv
import io
import warnings
from itertools import chain

import numpy as np

from .errors import DomainError, check_range
from .protocols import Series

_DEFAULT_PRECISION = 17
_BLOCK_VALUES = 8192


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
    text, at ``precision`` (an int >= 1) significant digits.  Checks the
    precision and the data before returning, so a caller can open its
    output afterwards; only one block of rows is copied at a time."""
    check_range("precision", precision, low=1, strict=False, integer=True)
    columns = [np.asarray(c, dtype=float) for c in columns]
    if any(np.isnan(c).any() for c in columns):
        raise DomainError("cannot serialize NaN")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(names)
    row = ",".join([f"%.{precision}g"] * len(columns)) + "\n"
    rows = max(1, _BLOCK_VALUES // len(columns))

    def blocks():
        for i in range(0, len(columns[0]), rows):
            data = np.column_stack([c[i:i + rows] for c in columns])
            data += 0.0     # -0 becomes 0; '%g' then equals format_value
            yield (row * len(data)) % tuple(data.ravel().tolist())
    return chain([header.getvalue()], blocks())


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


def _bad_row(data: np.ndarray):
    """(index, message) of the first row with a non-finite value, else of
    the first whose time does not increase; None if there is neither."""
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        return int(np.argmin(finite)), "non-finite value"
    times = data[:, 0]
    decreasing = np.flatnonzero(times[1:] <= times[:-1])
    if decreasing.size:
        i = decreasing[0] + 1
        return i, (f"time must be strictly increasing "
                   f"(got {times[i]} after {times[i - 1]})")


def _loadtxt(path, fh, header: list[str]):
    """The rows after the header, read by numpy's C parser; None where the
    row loop must read the file: an invalid header, a failed check, a field
    over csv's size limit (its line holds a whole chunk of half the limit),
    or an ASCII separator \\x1c-\\x1f, which numpy strips as whitespace."""
    if header[:1] != ["time"] or len(set(header)) < len(header):
        return None
    size = csv.field_size_limit() // 2
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(size), b""):
            if (len(chunk) == size and b"\n" not in chunk) or \
                    any(c in chunk for c in b"\x1c\x1d\x1e\x1f"):
                return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy warns on no rows
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return data if data.shape[1] == len(header) and _bad_row(data) is None \
        else None


def _read_rows(path):
    """The header and rows, one record at a time with csv.reader and
    float(); DomainError at the first fault, with its line if known."""
    rows, lines = [], []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if (header := next(reader, None)) is None:
                raise DomainError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if not header or header[0] != "time":
                raise DomainError(
                    f"{path}: line 1: first column must be 'time', "
                    f"got {header[0] if header else '(none)'!r}")
            if len(set(header)) != len(header):
                raise DomainError(f"{path}: line 1: duplicate column names")
            for n, row in enumerate(reader, 2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DomainError(f"{path}: line {n}: expected "
                                      f"{len(header)} fields, got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise DomainError(f"{path}: line {n}: {exc}") from exc
                lines.append(n)
        except csv.Error as exc:
            raise DomainError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not {exc.encoding} text: "
                              f"{exc.reason}") from exc
    if not rows:
        raise DomainError(f"{path}: no data rows")
    data = np.array(rows)
    if (bad := _bad_row(data)) is not None:
        raise DomainError(f"{path}: line {lines[bad[0]]}: {bad[1]}")
    return header, data


def read_series(path) -> Series:
    """Read a CSV series; malformed content raises DomainError with the
    offending line number where it is known."""
    try:
        with open(path, "r", newline="") as fh:
            header = [h.strip() for h in next(csv.reader(fh), [])]
            data = _loadtxt(path, fh, header)
    except (csv.Error, UnicodeDecodeError):    # the row loop names them
        data = None
    if data is None:
        header, data = _read_rows(path)
    return Series(times=data[:, 0], columns=dict(zip(header[1:], data[:, 1:].T)))
