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


def load_sample_csv(path: str | os.PathLike,
                    header: bool = False) -> np.ndarray:
    """Read the first column of a CSV file, skipping a header row when
    ``header`` is true.

    Fields are comma-separated and may be double-quoted; blank lines are
    skipped.  Raises DataError with the offending line number for
    anything that is not a finite float, and without one for empty
    files, bytes that do not decode, rows the csv module rejects (such
    as a field over its size limit) and paths that cannot be read (such
    as a directory).
    """
    path = Path(path)
    try:
        return _read_column(path, header)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None


def _read_column(path: Path, header: bool) -> np.ndarray:
    with open(path, newline="") as fh:
        if header and next(csv.reader(fh), None) is None:
            raise DataError(f"{path}: file is empty")
        values = _parse_column(fh)
        if values is not None:
            return values
        # some cell is not a finite float: rescan row by row to report
        # the first one with its line number
        fh.seek(0)
        reader = csv.reader(fh)
        if header:
            next(reader)
        return _parse_rows(path, reader, 2 if header else 1)


def _parse_column(lines) -> np.ndarray | None:
    """Field 0 of every remaining row in one vectorized pass.

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
                            usecols=0, comments=None, quotechar='"',
                            ndmin=1)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_rows(path: Path, reader, start_line: int) -> np.ndarray:
    """The row loop over field 0: the values, or DataError at the first
    bad row."""
    import numpy as np

    values: list[float] = []
    for lineno, row in enumerate(reader, start=start_line):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        cell = row[0].strip()
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
