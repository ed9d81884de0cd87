"""Deterministic JSON emission: fixed float formatting, insertion-ordered keys.

Floats are written with 17 significant digits so emitted numbers re-parse
to the exact same binary value; infinities are written as the string
"inf" (the schemas here never produce NaN).
"""

from __future__ import annotations

import json
import math


def _format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 2) -> str:
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out) + "\n"


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int,)):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)!r}")
            out.append(f"{pad}{json.dumps(key)}: ")
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def loads(text: str):
    return json.loads(text)
