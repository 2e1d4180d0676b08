"""Report emission: line-oriented key=value records and a JSON tree."""

from __future__ import annotations

import dataclasses
import json
from typing import Any


def to_jsonable(obj: Any) -> Any:
    """Recursively convert values (complex, dataclasses, containers) to plain
    JSON-friendly structures.  Complex numbers become {"re": ..., "im": ...}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def _scalar(v: Any) -> str:
    if isinstance(v, complex):
        return f"{v.real!r},{v.imag!r}"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def kv_line(record: dict[str, Any]) -> str:
    """One record as space-separated key=value pairs on a single line."""
    return " ".join(f"{k}={_scalar(v)}" for k, v in record.items())


def tree_doc(payload: Any) -> str:
    """Machine-readable tree rendering (JSON, stable key order preserved)."""
    return json.dumps(to_jsonable(payload), indent=2) + "\n"
