"""The column writer against the row writer it replaced.

``_reference_write`` is the earlier writer, kept here as the oracle: one
``csv.writer(lineterminator="\\n")`` row per table row with ``format_number``
cells, and a ``json.dump`` of one dict per row.  ``qbat._io.write_rows`` must
write the same bytes for every table of one row or more.  (A table with
columns but no rows is not compared: the row writer had no row to take the
header from, so it wrote an empty line.)
"""

import csv
import io
import json
import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbat import _io


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.15g}"


def _json_value(value):
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    return float(f"{float(value):.15g}")


def _reference_write(rows, fmt, path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(rows[0].keys() if rows else ())
            for row in rows:
                writer.writerow(v if isinstance(v, str) else _format_number(v)
                                for v in row.values())
        else:
            json.dump([{k: _json_value(v) for k, v in row.items()} for row in rows],
                      handle, indent=2)
            handle.write("\n")


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308)
TEXT = st.text(alphabet=st.sampled_from(["a", " ", ",", '"', "\n", "\r", "é"]), max_size=4)
CELLS = st.one_of(st.integers(-10**20, 10**20), st.booleans(), TEXT,
                  st.floats(), st.sampled_from(EDGE_FLOATS))


@st.composite
def tables(draw):
    n_rows = draw(st.integers(1, 12))
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    float_cells = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
    table = {}
    for name in names:
        if draw(st.booleans()):
            table[name] = np.array(draw(st.lists(float_cells, min_size=n_rows, max_size=n_rows)))
        else:
            table[name] = draw(st.lists(CELLS, min_size=n_rows, max_size=n_rows))
    return table


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


@settings(max_examples=200, deadline=None)
@given(table=tables(), chunk_rows=st.integers(1, 5))
@example(table={"": [""]}, chunk_rows=1)
@example(table={"s": ["", "a\rb", 'x"y', "a,b", "l\nm"], "x": np.array(EDGE_FLOATS[:5])},
         chunk_rows=2)
def test_writer_matches_the_row_writer(out_dir, table, chunk_rows):
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    for fmt in ("csv", "json"):
        with mock.patch.object(_io, "_CHUNK_ROWS", chunk_rows):
            _io.write_rows(table, fmt, str(out_dir / f"new.{fmt}"))
        _reference_write(rows, fmt, out_dir / f"old.{fmt}")
        assert (out_dir / f"new.{fmt}").read_bytes() == (out_dir / f"old.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ragged_table_raises_before_output(tmp_path, fmt):
    path = tmp_path / "out"
    for table in ({"a": np.zeros(3), "b": [1, 2]}, {"a": [], "b": np.zeros(2049)}):
        with pytest.raises(ValueError, match="differ in length"):
            _io.write_rows(table, fmt, str(path))
        assert not path.exists()


def test_a_table_without_rows_writes_an_empty_list_or_its_header(tmp_path):
    table = {"a": np.zeros(0), "b": []}
    for fmt, text in (("csv", "a,b\n"), ("json", "[]\n")):
        _io.write_rows(table, fmt, str(tmp_path / fmt))
        assert (tmp_path / fmt).read_text(encoding="utf-8") == text


def test_json_is_written_a_chunk_at_a_time(tmp_path):
    # 16,384 rows of 6 float columns, 16 chunks: the rows held at once are one
    # chunk's (a writer that dumps the whole list at once peaks near 7.4 MiB)
    table = {f"c{k}": np.linspace(k, k + 1, 2**14) for k in range(6)}
    tracemalloc.start()
    try:
        _io.write_rows(table, "json", str(tmp_path / "out.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    rows = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert len(rows) == 2**14 and rows[-1] == {f"c{k}": k + 1.0 for k in range(6)}


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("old", [None, "old output\n"], ids=["new", "existing"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_write_leaves_the_old_file_or_none(tmp_path, fmt, old, error):
    # the second chunk fails after the first was written: the path keeps its
    # old content, or stays absent, and no temporary file is left beside it
    path = tmp_path / "out"
    if old is not None:
        path.write_text(old, encoding="utf-8")
    cells, formatted = _io._cells, []

    def failing(column, fmt):
        formatted.append(column)
        if len(formatted) > 2:  # two columns per chunk
            raise error("write failed")
        return cells(column, fmt)

    with mock.patch.object(_io, "_CHUNK_ROWS", 2), mock.patch.object(_io, "_cells", failing):
        with pytest.raises(error):
            _io.write_rows({"a": np.zeros(5), "b": np.ones(5)}, fmt, str(path))
    assert os.listdir(tmp_path) == ([] if old is None else ["out"])
    if old is not None:
        assert path.read_text(encoding="utf-8") == old


def test_a_symlink_is_written_in_place(tmp_path):
    # it may name an open descriptor, as /dev/stdout does, which a rename
    # onto the file it resolves to would cut off
    (tmp_path / "real").write_text("old output\n", encoding="utf-8")
    (tmp_path / "link").symlink_to("real")
    inode = (tmp_path / "real").stat().st_ino
    _io.write_rows({"a": [1]}, "csv", str(tmp_path / "link"))
    assert (tmp_path / "link").is_symlink() and (tmp_path / "real").stat().st_ino == inode
    assert (tmp_path / "real").read_text(encoding="utf-8") == "a\n1\n"
    assert sorted(os.listdir(tmp_path)) == ["link", "real"]


def test_a_path_to_the_file_on_stdout_is_written_through_stdout(tmp_path, monkeypatch):
    # a shell's `>>` keeps its append offset only on its own descriptor; a
    # captured stdout has none, so the path is then opened in place
    path = tmp_path / "log"
    path.write_text("prior\n", encoding="utf-8")
    (tmp_path / "link").symlink_to("log")
    with open(path, "a", encoding="utf-8") as held:
        monkeypatch.setattr(sys, "stdout", held)
        _io.write_rows({"a": [1]}, "csv", str(tmp_path / "link"))
    assert path.read_text(encoding="utf-8") == "prior\na\n1\n"
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    _io.write_rows({"a": [2]}, "csv", str(tmp_path / "link"))
    assert path.read_text(encoding="utf-8") == "a\n2\n"


def test_a_regular_file_is_replaced(tmp_path):
    path = tmp_path / "out"
    path.write_text("old output\n", encoding="utf-8")
    inode = path.stat().st_ino
    _io.write_rows({"a": [1]}, "csv", str(path))
    assert path.read_text(encoding="utf-8") == "a\n1\n" and path.stat().st_ino != inode
    assert os.listdir(tmp_path) == ["out"]


def test_a_new_file_gets_the_mode_open_gives_it(tmp_path):
    _io.write_rows({"a": [1]}, "csv", str(tmp_path / "written"))
    (tmp_path / "opened").open("w").close()
    assert (tmp_path / "written").stat().st_mode == (tmp_path / "opened").stat().st_mode


def test_a_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    # a FIFO, as /dev/null or /dev/stdout, cannot be replaced by a rename
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open it
    try:
        _io.write_rows({"a": [1]}, "csv", str(fifo))
        assert os.read(reader, 64) == b"a\n1\n"
    finally:
        os.close(reader)
    assert fifo.is_fifo() and os.listdir(tmp_path) == ["fifo"]
