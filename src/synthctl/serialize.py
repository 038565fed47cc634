"""Deterministic serialization for result files.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, so two runs that compute identical numbers produce
byte-identical files. Dict insertion order is preserved and no timestamps or
environment details are ever written.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form of a float; empty for non-finite."""
    if not math.isfinite(x):
        return ""
    return format(float(x), ".17g")


def _json_scalar(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return fmt_float(value)
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_string(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def dumps_json(obj: object, indent: int = 0) -> str:
    """JSON text with deterministic float formatting and insertion order."""
    pad = " " * indent
    child = indent + 2
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{' ' * child}{_json_string(str(k))}: {dumps_json(v, child).lstrip()}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{' ' * child}{dumps_json(v, child).lstrip()}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(obj)


def write_json(path: str, obj: object) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))
        fh.write("\n")


def csv_cell(value: object) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(csv_cell, row)) + "\n")
