"""Machine-readable result emission: CSV, JSON, and gnuplot-ready data.

Column order is fixed; floats are written with round-trip precision so a
parse of any emitted file reproduces the values exactly (the readers that
check this live in ``tests/oracles.py``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

COLUMNS = (
    "scenario",
    "d",
    "t",
    "statistic",
    "distance_name",
    "distance",
    "stderr",
    "bound",
    "bound_form",
    "rate_pred",
    "seed",
)

FORMATS = ("csv", "json", "gnuplot-dat")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _row_values(row) -> list:
    return [getattr(row, c) for c in COLUMNS]


def emit(rows, fmt: str, path) -> Path:
    """Write rows to path in the requested format and return the path."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; pick one of {FORMATS}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            for row in rows:
                writer.writerow([_cell(v) for v in _row_values(row)])
    elif fmt == "json":
        payload = [
            dict(zip(COLUMNS, _row_values(row)))
            for row in rows
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:  # gnuplot-dat
        with open(path, "w") as fh:
            fh.write("# " + " ".join(COLUMNS) + "\n")
            for row in rows:
                cells = [_cell(v) for v in _row_values(row)]
                cells = [c.replace(" ", "_") if c else "nan" for c in cells]
                fh.write(" ".join(cells) + "\n")
    return path

