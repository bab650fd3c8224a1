"""Bit-stable file formats: complex matrices as JSON, curve tables as CSV.

Matrices are serialized as nested arrays of [re, im] pairs (row-major)
with an explicit dims header.  Floats go through ``repr``, the shortest
decimal that round-trips IEEE doubles exactly, so matrices written and
read back compare bit-equal and reruns produce byte-identical files.
Every file goes through ``write_text``, which translates no newline, so
the bytes are those of Linux on every platform; ``json_text`` is the one
JSON layout, of files and of the CLI's answers alike, and writes a
non-finite float as its ``repr`` string ("inf", "-inf" or "nan").
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from .rlinalg import finite_number, is_number


def format_float(x):
    """Exact-round-trip decimal text for a double ("inf" and "-inf" included)."""
    return repr(float(x))


def matrix_to_json_obj(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    rows, cols = M.shape
    return {
        "type": "complex_matrix",
        "rows": rows,
        "cols": cols,
        "data": [[[float(M[i, j].real), float(M[i, j].imag)] for j in range(cols)]
                 for i in range(rows)],
    }


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def matrix_from_json_obj(obj):
    """Matrix of a complex_matrix JSON object; ValueError if it is malformed.

    Every entry must be an [re, im] pair of two finite JSON numbers.
    """
    if not isinstance(obj, dict) or obj.get("type") != "complex_matrix":
        raise ValueError("not a complex_matrix JSON object")
    rows, cols, data = obj.get("rows"), obj.get("cols"), obj.get("data")
    if not (_is_count(rows) and _is_count(cols)):
        raise ValueError("rows and cols must be nonnegative integers")
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in data)):
        raise ValueError("matrix data does not match the dims header")
    M = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        for j, pair in enumerate(row):
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_number, pair))):
                raise ValueError(f"entry [{i}][{j}] is not an [re, im] pair of numbers")
            if not all(map(finite_number, pair)):
                raise ValueError(
                    f"entry [{i}][{j}] is non-finite (NaN, Infinity or beyond double range)"
                )
            M[i, j] = complex(*pair)
    return M


def write_text(path, text):
    """Write ``text`` to ``path`` as it is, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _strict(obj):
    """``obj`` with each non-finite float replaced by its repr string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return format_float(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def json_text(obj):
    """The JSON layout of every file and answer: indent 1, one final newline.

    A non-finite float is written as its repr, the string "inf", "-inf" or
    "nan", so every text is strict JSON (no ``Infinity`` or ``NaN``).
    """
    return json.dumps(_strict(obj), indent=1, allow_nan=False) + "\n"


def write_matrix(path, M):
    write_json(path, matrix_to_json_obj(M))


def read_json(path):
    """Parsed JSON file; invalid JSON raises a ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:       # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {err}") from err


def read_matrix(path):
    obj = read_json(path)
    try:
        return matrix_from_json_obj(obj)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def write_json(path, obj):
    write_text(path, json_text(obj))


CSV_HEADER = "strategy,delta_deg,psnr_db,relative_bound,relative_bound_db,trials"


def curve_table_csv(table):
    """Render a curve table as CSV text, rows sorted by (strategy, delta, psnr)."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in table.sorted_rows():
        if row.relative_bound > 0 and math.isfinite(row.relative_bound):
            in_db = format_float(10.0 * math.log10(row.relative_bound))
        else:
            in_db = "inf" if row.relative_bound > 0 else "-inf"
        buf.write(
            f"{row.strategy},{format_float(row.delta_deg)},{format_float(row.psnr_db)},"
            f"{format_float(row.relative_bound)},{in_db},{row.trials}\n"
        )
    return buf.getvalue()


def write_curve_table(path, table):
    write_text(path, curve_table_csv(table))


def gnuplot_script(csv_path, table):
    """Plotting script (gnuplot syntax) for a curve-table CSV."""
    curves = sorted({(r.strategy, r.delta_deg) for r in table.rows})
    lines = [
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'pSNR (dB)'",
        "set ylabel 'relative MSE lower bound (dB)'",
        "set grid",
    ]
    plots = []
    for strategy, delta in curves:
        cond = f"(stringcolumn(1) eq '{strategy}' && column(2) == {format_float(delta)})"
        title = f"{strategy} (delta={format_float(delta)} deg)"
        plots.append(
            f"'{csv_path}' using ($3):({cond} ? $5 : 1/0) with linespoints title '{title}'"
        )
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    lines.append("pause -1 'press return to close'")
    return "\n".join(lines) + "\n"
