"""Deterministic JSON/number rendering used by reports and the CLI.

Numbers are printed with 17 significant digits so every double round-trips
bit-exactly; key order is insertion order, never hash order.
"""

from __future__ import annotations

import json

# 17 significant digits: enough for every double to round-trip.
_FLOAT_SPEC = ".17g"


def format_number(x: float | int) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, _FLOAT_SPEC)


def format_rows(*columns) -> list[str]:
    """CSV data rows from equal-length float arrays, one row per index, each
    number printed as :func:`format_number` prints a float: ``%`` and
    ``format`` render a float with one spec through the same conversion, and
    ``%`` takes each row's tuple without a call."""
    row = ",".join(["%" + _FLOAT_SPEC] * len(columns))
    return [row % values for values in zip(*(c.tolist() for c in columns))]


def render_json(doc) -> str:
    """Render dicts/lists/str/float/int/bool/None with stable formatting."""
    out: list[str] = []
    _render(doc, out, 0)
    out.append("\n")
    return "".join(out)


def _render(node, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(node.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _render(value, out, level + 1)
            out.append(",\n" if i + 1 < len(node) else "\n")
        out.append(f"{close_pad}}}")
    elif isinstance(node, (list, tuple)):
        if not len(node):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(node):
            out.append(pad)
            _render(value, out, level + 1)
            out.append(",\n" if i + 1 < len(node) else "\n")
        out.append(f"{close_pad}]")
    elif isinstance(node, str):
        out.append(json.dumps(node))
    elif node is None:
        out.append("null")
    elif isinstance(node, (bool, int, float)):
        out.append(format_number(node))
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")
