"""Reproducible CSV/JSON emission.

Tables ({name: column}) are written ``_CHUNK_ROWS`` rows at a time in either
format: each chunk builds one row template, with ``%.15g`` for a float
ndarray column in CSV (15 significant digits, '.' decimal separator), ``%r``
of its ``.15g`` rounding in JSON, and ``%s`` for cells formatted beforehand,
and applies it to each row's values, with '\\n' line endings.  The CSV is
byte for byte what ``csv.writer(lineterminator="\\n")`` writes, and the JSON
what ``json.dump(rows, indent=2)`` writes for the list of row dicts.  Output
is identical across platforms for identical inputs.  ``_kind`` is the one rule
for how an output path is written (a file open on stdout or stderr through that
stream, a replaced file never cut short), and ``check_writable`` judges a path
by it before any work.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys
from typing import Mapping

import numpy as np

_CHUNK_ROWS = 1024  # rows formatted and written at a time
# procfs's device: none of its directories, as /dev/stdout's /proc/self/fd, takes a new file
_PROCFS = {os.stat("/proc").st_dev} if os.path.isdir("/proc") else set()


def format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.15g}"


def _csv_field(text: str) -> str:
    """``text`` under csv.writer's minimal quoting with a '\\n' line end."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _field(column, fmt: str, empty_row: str) -> tuple:
    """A chunk of ``column`` as its field of the row template and the values
    the field takes: floats under ``%.15g`` in CSV, and in JSON their ``.15g``
    rounding under ``%r`` when all of it is finite (the largest float rounds
    to inf); other cells as their text, under ``%s``."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        if fmt == "csv":
            return "%.15g", column.tolist()
        values = list(map(float, map("%.15g".__mod__, column.tolist())))
        if all(map(math.isfinite, values)):
            return "%r", values
        return "%s", list(map(json.dumps, values))  # NaN, Infinity, -Infinity
    if fmt == "json":
        return "%s", [json.dumps(v if isinstance(v, (int, str)) else float(format_number(v)))
                      for v in column]
    cells = [_csv_field(v) if isinstance(v, str) else format_number(v) for v in column]
    return "%s", [cell or empty_row for cell in cells]


def _kind(path: str) -> tuple:
    """``path``'s kind, with the stream for "stream" and else its lstat mode
    (None when new): "stream" for "-" (stdout, None when closed) or the file
    open on stdout's or stderr's descriptor, whose ``>>`` offset only it keeps;
    "in place" for another path that exists and is not a regular file (a link,
    device or FIFO); "replaced" for a regular file or a path "not found"."""
    if path == "-":
        return "stream", sys.stdout
    try:
        status = os.lstat(path)
    except FileNotFoundError:
        return "replaced", None
    if (stream := _standard_stream(path, status)) is not None:
        return "stream", stream
    return ("replaced" if stat.S_ISREG(status.st_mode) else "in place"), status.st_mode


def _standard_stream(path: str, status: os.stat_result):
    """stdout or stderr if its descriptor holds the file ``path`` names
    (``status`` its lstat, followed for a link), else None."""
    for stream in (sys.stdout, sys.stderr):
        try:
            status = os.stat(path) if stat.S_ISLNK(status.st_mode) else status
            if os.path.samestat(os.fstat(stream.fileno()), status):
                return stream
        except (AttributeError, OSError, ValueError):  # no stream, a captured one, or no file
            pass
    return None


def check_writable(path: str) -> None:
    """Raise OSError, opening and creating nothing, unless ``write_rows`` can
    write ``path`` as ``_kind`` says: a stream if open; in place, a writable
    non-directory (a link judged by the file it names); a new file, in a writable
    directory not on procfs; a replaced file, if writable too (a read-only one is kept)."""
    try:
        kind, mode = _kind(path)  # the stream itself for a stream
        parent = os.path.dirname(path) or "."
        if kind == "in place" and stat.S_ISLNK(mode):
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:  # a new file where the link points
                mode, parent = None, os.path.dirname(os.path.realpath(path))
        if kind == "stream":
            usable = mode is not None
        elif mode is None:
            usable = os.access(parent, os.W_OK | os.X_OK) and os.stat(parent).st_dev not in _PROCFS
        else:
            usable = (not stat.S_ISDIR(mode) and os.access(path, os.W_OK)
                      and (kind == "in place" or os.access(parent, os.W_OK | os.X_OK)))
    except OSError:  # a link loop, a name too long, a component that is no directory
        usable = False
    if not usable:
        raise OSError("cannot write the output to stdout: its descriptor is closed"
                      if path == "-" else f"cannot write the output file {path!r}")


@contextlib.contextmanager
def _opened(path: str):
    """A text handle on the stream ``_kind`` names, on ``path`` if it is
    written in place, and otherwise on a new file beside it (the umask's mode,
    a fixed-length name), renamed onto the path when the block ends and
    removed if it raises (Ctrl-C included): no prefix is left."""
    kind, stream = _kind(path)
    if kind != "replaced":
        with (contextlib.nullcontext(stream) if kind == "stream"
              else open(path, "w", encoding="utf-8", newline="\n")) as handle:
            yield handle
        return
    temp = os.path.join(os.path.dirname(path), f".qbat-{os.urandom(6).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def write_rows(table: Mapping, fmt: str, path: str) -> None:
    """Write ``table`` as CSV or JSON rows into the file ``path``, or stdout for
    "-".  Columns of differing length raise ValueError before any output."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    n_rows, *ragged = {len(column) for column in table.values()} or {0}
    if ragged:
        raise ValueError("table columns differ in length")
    # csv.writer writes a row of one empty field as "" to tell it from no field
    empty_row = '""' if len(table) == 1 else ""
    keys = [json.dumps(key).replace("%", "%%") + ": " for key in table]
    with _opened(path) as handle:
        if fmt == "csv":
            handle.write((",".join(map(_csv_field, table)) or empty_row) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):  # one row template per chunk
            specs, columns = zip(*(_field(column[start:start + _CHUNK_ROWS], fmt, empty_row)
                                   for column in table.values()))
            if fmt == "csv":
                handle.write("".join(map((",".join(specs) + "\n").__mod__, zip(*columns))))
            else:  # the chunk's objects; the list's "[" opens the first, "," the rest
                row = "\n  {\n    " + ",\n    ".join(map(str.__add__, keys, specs)) + "\n  }"
                handle.write(("," if start else "[") + ",".join(map(row.__mod__, zip(*columns))))
            # freed before the next chunk is formatted: kept through it, the
            # chunk's values raise a long-running process's peak memory
            del specs, columns
        if fmt == "json":
            handle.write("\n]\n" if n_rows else "[]\n")
