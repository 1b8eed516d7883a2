"""Deterministic serialization: canonical JSON with fixed key order and
17-significant-digit floats (lossless round trip for doubles), plus
column-wise CSV writing with the same float convention: rows go out in
blocks of CSV_BLOCK_ROWS, and within a block each distinct float bit pattern
of a column is formatted once. Identical inputs always produce
byte-identical output."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CSV_BLOCK_ROWS = 4096


def _fmt_float(x: float) -> str:
    if x != x:
        return "null"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    if x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps_canonical(obj, indent: int = 2, _level: int = 0) -> str:
    pad = " " * (indent * (_level + 1))
    closing = " " * (indent * _level)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return dumps_canonical({"re": obj.real, "im": obj.imag}, indent, _level)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_canonical(v, indent, _level + 1) for v in list(obj)]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(pad + it for it in items) + "\n" + closing + "]"
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj.keys()):
            items.append(pad + json.dumps(str(k)) + ": "
                         + dumps_canonical(obj[k], indent, _level + 1))
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + closing + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj) + "\n")


def _float_cells(values: np.ndarray) -> list:
    """Each float with 17 significant digits. A value is formatted once per
    distinct bit pattern, so repeats, -0.0 against 0.0 and every NaN payload
    keep their own cells; a long double, which has no unsigned integer of its
    width, is formatted cell by cell."""
    if values.itemsize > 8:
        return list(map("{:.17g}".format, values.tolist()))
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    cells = np.array(list(map("{:.17g}".format, bits.view(values.dtype).tolist())),
                     dtype=object)
    return cells[inverse].tolist()


def _csv_cells(column) -> list:
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return _float_cells(values)
    # A numpy unicode array drops trailing NULs, so text cells come from the
    # caller's own sequence rather than from ``values``.
    if values.dtype.kind == "U" and not isinstance(column, np.ndarray):
        return list(map(str, column))
    return list(map(str, values.tolist()))


def _block_source(column):
    """The column in a form whose row blocks format exactly as the whole
    column does: an array typed once for the whole column, or its str cells."""
    values = np.asarray(column)
    if values.dtype.kind == "U" and not isinstance(column, np.ndarray):
        return list(map(str, column))
    return values


def write_csv(path, header, columns) -> None:
    """One line per row; each column is one type, floats written with 17
    significant digits and everything else with ``str``. Rows are formatted
    and written CSV_BLOCK_ROWS at a time."""
    sources = [_block_source(col) for col in columns]
    n_rows = min(map(len, sources), default=0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            cells = [_csv_cells(src[start:start + CSV_BLOCK_ROWS]) for src in sources]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def load_schema() -> dict:
    here = Path(__file__).parent
    return json.loads((here / "report_schema.json").read_text())
