"""Deterministic output formatting shared by the CLI commands.

All floating-point output carries 17 significant digits, enough for an
exact round trip, and never depends on locale.  Infinite strip heights
serialize as the strings "inf" / "-inf" since JSON has no infinities.
Dictionaries keep insertion order, so repeated runs emit identical bytes.
"""

from __future__ import annotations

import json
import math

__all__ = ["dumps17", "fmt17"]


def fmt17(value: float) -> str:
    """Render one float at 17 significant digits; infinities by name."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("NaN has no place in serialized output")
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".17g")


def _emit(obj, pad: str, step: str) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return json.dumps(fmt17(obj))
        return fmt17(obj)
    if isinstance(obj, complex):
        return _emit([obj.real, obj.imag], pad, step)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + step
        items = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {_emit(value, inner, step)}"
            for key, value in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + step
        items = ",\n".join(f"{inner}{_emit(value, inner, step)}" for value in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps17(obj) -> str:
    """JSON text with fmt17 floats, insertion-ordered keys, no NaN, indent 2."""
    return _emit(obj, "", "  ")
