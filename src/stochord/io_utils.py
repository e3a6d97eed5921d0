"""File ingestion and report serialization helpers.

All output files are written via a temp-file-then-rename sequence so a
crash never leaves a half-written report, and floats are serialized with
round-trip precision so reruns can be compared byte for byte.  numpy
is imported only by the sample reader, so the writers load nothing
beyond the standard library.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "load_sample_csv",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_csv",
    "canonical_json",
    "config_hash",
    "fmt_float",
]


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def load_sample_csv(path: str | os.PathLike, column: int | str = 0,
                    header: bool = False) -> np.ndarray:
    """Read one numeric column from a CSV file.

    ``column`` is a zero-based index, or a column name when ``header`` is
    true.  Fields are comma-separated and may be double-quoted; blank
    lines are skipped.  Raises DataError with the offending line number
    for anything that is not a finite float, and without one for
    negative column indices, empty files, bytes that do not decode and
    rows the csv module rejects (such as a field over its size limit).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"sample file not found: {path}")
    if not isinstance(column, str) and int(column) < 0:
        raise DataError(f"column index must be nonnegative, got {column}")
    try:
        return _read_column(path, column, header)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None


def _read_column(path: Path, column: int | str, header: bool) -> np.ndarray:
    with open(path, newline="") as fh:
        col_idx = _column_index(path, csv.reader(fh), column, header)
        values = _parse_column(fh, col_idx)
        if values is not None:
            return values
        # some cell is not a finite float: rescan row by row to report
        # the first one with its line number
        fh.seek(0)
        reader = csv.reader(fh)
        if header:
            next(reader)
        return _parse_rows(path, reader, col_idx, 2 if header else 1)


def _column_index(path: Path, reader, column: int | str, header: bool) -> int:
    """Resolve ``column`` to an index, consuming the header row if any."""
    if header:
        try:
            head = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if isinstance(column, str):
            try:
                return [h.strip() for h in head].index(column)
            except ValueError:
                raise DataError(
                    f"{path}: no column named {column!r} in header") from None
    elif isinstance(column, str):
        raise DataError("named column selection requires header=True")
    return int(column)


def _parse_column(lines, col_idx: int) -> np.ndarray | None:
    """Field ``col_idx`` of every remaining row in one vectorized pass.

    Returns None, leaving the verdict to `_parse_rows`, when there are
    no data rows or some field is not a finite float.  numpy rejects
    every cell that ``float`` would reject, and both convert decimals
    with correct rounding, so a returned array is bit-identical to the
    row loop's.
    """
    import numpy as np

    for first in lines:
        # loadtxt warns on input without data; leading blank lines
        # carry none
        if first.strip("\r\n"):
            break
    else:
        return None
    try:
        values = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                            usecols=col_idx, comments=None, quotechar='"',
                            ndmin=1)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_rows(path: Path, reader, col_idx: int,
                start_line: int) -> np.ndarray:
    """The row loop: the values, or DataError at the first bad row."""
    import numpy as np

    values: list[float] = []
    for lineno, row in enumerate(reader, start=start_line):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if col_idx >= len(row):
            raise DataError(
                f"{path}:{lineno}: row has {len(row)} fields, "
                f"need column {col_idx}")
        cell = row[col_idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: cannot parse {cell!r} as a float") from None
        if not math.isfinite(v):
            raise DataError(f"{path}:{lineno}: non-finite value {cell!r}")
        values.append(v)
    if not values:
        raise DataError(f"{path}: no data rows")
    return np.asarray(values, dtype=float)


def _atomic_write(path: str | os.PathLike, writer) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text))


def atomic_write_json(path: str | os.PathLike, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def atomic_write_csv(path: str | os.PathLike, header: list[str],
                     rows: list[list]) -> None:
    def write(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_float(c) if isinstance(c, float) else c for c in row])

    _atomic_write(path, write)


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for hashing configurations."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
