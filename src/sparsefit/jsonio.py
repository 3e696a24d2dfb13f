"""Deterministic JSON serialization with round-trip-safe floats.

Floats are written with 17 significant digits, which is enough to
reconstruct any IEEE double exactly; non-finite values use the
``Infinity`` / ``NaN`` spellings that ``json.loads`` accepts.  Nonempty
containers put one member per line, indented by two spaces per level.
"""

import json


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def dumps(obj, _level: int = 0) -> str:
    pad = "  " * (_level + 1)
    end_pad = "  " * _level
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{pad}{json.dumps(str(k))}: {dumps(v, _level + 1)}" for k, v in obj.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = (f"{pad}{dumps(v, _level + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + end_pad + "]"
    # numpy scalars and arrays
    if hasattr(obj, "tolist"):
        return dumps(obj.tolist(), _level)
    raise TypeError(f"cannot serialize {type(obj)!r}")
