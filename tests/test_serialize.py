"""The column-wise CSV writer against the per-cell formatter it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oqmarkov import serialize
from oqmarkov.serialize import write_csv


def per_cell_csv(header, rows) -> str:
    """The former row-wise writer: each cell formatted on its own."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.17g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
           1e300, -1e-300, 1.0, -3.0, 2.0 ** 53, 1e16, 123456789.0, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                   st.integers(-10 ** 6, 10 ** 6).map(float))
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
TEXT = st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)),
               max_size=6)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "float32", "int", "str"]),
                          min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "str":
            columns.append(draw(st.lists(TEXT, min_size=n_rows, max_size=n_rows)))
        elif kind == "int":
            columns.append(np.array(draw(st.lists(INTS, min_size=n_rows, max_size=n_rows)),
                                    dtype=np.int64))
        else:
            values = draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows))
            dtype = np.float32 if kind == "float32" else np.float64
            with np.errstate(over="ignore"):
                columns.append(np.array(values, dtype=dtype))
    header = [f"c{i}" for i in range(len(columns))]
    return header, columns


@settings(max_examples=200, deadline=None)
@given(table=tables())
@example(table=(["x", "n", "s"], [np.array(SPECIAL), np.arange(len(SPECIAL)),
                                  [str(v) for v in SPECIAL]]))
def test_column_writer_matches_per_cell_formatter(table, tmp_path_factory):
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, columns)
    rows = [list(row) for row in zip(*columns)]
    assert path.read_bytes() == per_cell_csv(header, rows).encode()


def test_python_float_lists_are_float_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[0.1, -0.0], [1, 2]])
    assert path.read_text() == "a,b\n0.10000000000000001,1\n-0,2\n"


@pytest.mark.parametrize("n_rows", [0, 1, 3, 4, 5, 9])
def test_row_blocks_match_per_cell_formatter(n_rows, tmp_path, monkeypatch):
    """Row counts around the block size of 4: none, one, B-1, B, B+1, 2B+1."""
    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 4)
    floats = np.array(SPECIAL[:n_rows])
    ints = np.arange(n_rows, dtype=np.int64) - 2 ** 62
    text = [["", "a b", "\x00", "é", "1.5"][i % 5] for i in range(n_rows)]
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "n", "s"], [floats, ints, text])
    rows = [list(row) for row in zip(floats, ints, text)]
    assert path.read_bytes() == per_cell_csv(["x", "n", "s"], rows).encode()


def test_blocks_keep_the_whole_column_type(tmp_path, monkeypatch):
    """A Python list is typed once for its whole column: a block holding only
    its int or bool entries is still written as floats."""
    columns = [[0.5, 2 ** 60, True], ["a", "\x00", "b"], [1, 2, 3]]
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    write_csv(whole, ["f", "s", "n"], columns)
    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 1)
    write_csv(blocks, ["f", "s", "n"], columns)
    assert whole.read_text() == "f,s,n\n0.5,a,1\n1.152921504606847e+18,\x00,2\n1,b,3\n"
    assert blocks.read_bytes() == whole.read_bytes()


def test_repeated_floats_over_two_blocks_match_per_cell_formatter(tmp_path):
    """Columns that repeat 0.0, -0.0 and nan (two payloads) past the first
    block: each distinct bit pattern keeps its own cell, in float64 and
    float32 alike."""
    n_rows = serialize.CSV_BLOCK_ROWS + 905
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    cycle = [0.0, -0.0, math.nan, 0.1, other_nan, -math.nan, 1e30, -0.0, 0.0]
    repeated = np.array([cycle[i % len(cycle)] for i in range(n_rows)])
    distinct = np.random.default_rng(3).standard_normal(n_rows)
    single = repeated.astype(np.float32)
    ints = np.arange(n_rows, dtype=np.int64) % 7
    header = ["r", "x", "f32", "n"]
    columns = [repeated, distinct, single, ints]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    rows = [list(row) for row in zip(*columns)]
    assert path.read_bytes() == per_cell_csv(header, rows).encode()
