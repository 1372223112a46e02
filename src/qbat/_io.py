"""Reproducible CSV/JSON emission.

Tables ({name: column}) are written by column, each float ndarray column in
one ``.15g`` pass: 15 significant digits, '.' decimal separator, '\\n' line
endings, written ``_CHUNK_ROWS`` rows at a time in either format.  The CSV is
byte for byte what ``csv.writer(lineterminator="\\n")`` writes, and the JSON
what ``json.dump(rows, indent=2)`` writes for the list of row dicts.  Output
is identical across platforms for identical inputs.  An output file is
replaced whole or left as it was, never cut short.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from typing import Mapping

import numpy as np

_CHUNK_ROWS = 1024  # rows formatted and written at a time


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


def _cells(column, fmt: str) -> list:
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        text = map("{:.15g}".format, column.tolist())
        return list(text) if fmt == "csv" else list(map(float, text))
    if fmt == "csv":
        return [_csv_field(v) if isinstance(v, str) else format_number(v) for v in column]
    return [v if isinstance(v, (int, str)) else float(format_number(v)) for v in column]


def replaced_whole(path: str) -> bool:
    """Whether writing ``path`` replaces it whole: it is new or a regular
    file.  Any other path that exists is written in place: a symlink (such as
    /dev/stdout, which may name the descriptor of a shell's ``>>``), a device
    such as /dev/null, or a FIFO."""
    try:
        return stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # new, or under a path that is not a directory, where no write works
        return True


def _is_stdout(path: str) -> bool:
    """Whether ``path`` is the file open on ``sys.stdout``'s descriptor: a
    shell's ``>>`` there keeps its append offset only through that descriptor."""
    try:
        held, named = os.fstat(sys.stdout.fileno()), os.stat(path)
    except (AttributeError, OSError, ValueError):  # no stdout, a captured one, or no file
        return False
    return (held.st_dev, held.st_ino) == (named.st_dev, named.st_ino)


@contextlib.contextmanager
def _opened(path: str):
    """A text handle on stdout for "-" or the file stdout holds, on ``path`` if
    it is written in place, and otherwise on a new file beside it, with the
    mode a new file gets under the umask: renamed onto the path when the block
    ends, removed if it raises (Ctrl-C included), so the path never holds a
    prefix of the output."""
    if path == "-" or not replaced_whole(path):
        with (contextlib.nullcontext(sys.stdout) if path == "-" or _is_stdout(path)
              else open(path, "w", encoding="utf-8", newline="\n")) as handle:
            yield handle
        return
    head, name = os.path.split(path)
    temp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
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
    with _opened(path) as handle:
        if fmt == "csv":
            handle.write((",".join(map(_csv_field, table)) or empty_row) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            rows = zip(*(_cells(column[start:start + _CHUNK_ROWS], fmt)
                         for column in table.values()), strict=True)
            if fmt == "csv":
                handle.write("".join((",".join(row) or empty_row) + "\n" for row in rows))
            else:  # the chunk's objects; the list's "[" opens the first, "," the rest
                text = json.dumps([dict(zip(table, row)) for row in rows], indent=2)
                handle.write(("," if start else "[") + text[1:-2])
        if fmt == "json":
            handle.write("\n]\n" if n_rows else "[]\n")
