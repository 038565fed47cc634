"""Deterministic serialization for result files.

CSV floats are written with 17 significant digits and JSON floats in their
shortest round-trip form, so both read back as exactly the doubles that were
written, and two runs that compute identical numbers produce byte-identical
files. Non-finite floats become empty CSV cells and JSON nulls, and a CSV
cell holding a comma, a quote or a line break is quoted. Dict
insertion order is preserved and no timestamps or environment details are
ever written.

`write_csv` writes the small result tables a cell at a time. The cleaned
panel, the one large file, is written by `panel.write_panel` a unit at a
time; it keeps this module's CSV contract (`csv_cell` text, `fmt_float`'s
17 digits and empty non-finite cells), so both writers give the same bytes,
and it adds a binary sidecar that `panel.ingest_panel` loads in place of
the CSV while the CSV's SHA-256 matches (see the `panel` module).
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form of a float; empty for non-finite."""
    if not math.isfinite(x):
        return ""
    return format(float(x), ".17g")


def _finite_or_null(obj: object) -> object:
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(path: str, obj: object) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, ensure_ascii=False, allow_nan=False)
        fh.write("\n")


def csv_cell(value: object) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(csv_cell, row)) + "\n")
