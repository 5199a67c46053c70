"""Deterministic JSON and CSV emission.

All floats are rendered with 17 significant digits (enough to round-trip
IEEE doubles exactly), dictionary keys are sorted, and no locale- or
time-dependent formatting is used, so identical inputs yield identical
bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized: %r" % x)
    s = format(float(x), ".17g")
    # "1e+20" style is valid JSON; nothing further to normalize.
    return s


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Render ``obj`` as deterministic JSON text with 17-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("JSON object keys must be strings, got %r" % key)
            items.append(
                "%s  %s: %s"
                % (pad, json.dumps(key), canonical_json(obj[key], indent + 2).lstrip())
            )
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [canonical_json(v, indent + 2) for v in seq]
        if all("\n" not in p for p in parts) and sum(len(p) for p in parts) < 72:
            return "[" + ", ".join(parts) + "]"
        return (
            "[\n"
            + ",\n".join(pad + "  " + p for p in parts)
            + "\n"
            + pad
            + "]"
        )
    raise ValueError("cannot serialize %r" % type(obj))


def csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_table(header: list[str], rows: list[list[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
