"""Reproducible CSV/JSON emission.

Numbers are written with 15 significant digits, '.' decimal separator and
'\\n' line endings; the JSON form carries the same rounded values so both
formats are byte-identical across platforms for identical inputs.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from typing import Mapping, Sequence


def format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.15g}"


def _json_value(value):
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    return float(f"{float(value):.15g}")


def write_rows(rows: Sequence[Mapping], fmt: str, path: str) -> None:
    """Stream ``rows`` as CSV or JSON into the file ``path``, or stdout for "-"."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    with contextlib.ExitStack() as stack:
        handle = sys.stdout if path == "-" else stack.enter_context(
            open(path, "w", encoding="utf-8", newline="\n"))
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(rows[0].keys() if rows else ())
            for row in rows:
                writer.writerow(v if isinstance(v, str) else format_number(v)
                                for v in row.values())
        else:
            json.dump([{k: _json_value(v) for k, v in row.items()} for row in rows],
                      handle, indent=2)
            handle.write("\n")
