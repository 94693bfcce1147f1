"""Deterministic serialization helpers: floats carry 17 significant digits
(enough to round-trip any 64-bit value), and JSON objects are emitted with
sorted keys so identical inputs give identical bytes.

_FLOAT is the one template for a printed or saved float. format_float renders
one value; _format_rows renders rows of values, which cli matrices, the sweep
CSV and float arrays in JSON go through. JSON keys and strings are quoted by
json.encoder.encode_basestring_ascii, the function json.dumps applies to a
str, so they are json.dumps's bytes."""

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import InputError


# For a finite 64-bit float x, _FLOAT % x == format(x, ".17g").
_FLOAT = "%.17g"
_NON_FINITE = "cannot serialize a non-finite float"


def format_float(x):
    """Render a finite 64-bit float with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(_NON_FINITE)
    return _FLOAT % x


def _format_rows(rows, sep):
    """One string per row of rows, a 2-D float array or a list of equal-length
    tuples of floats: the row's entries as format_float renders each, joined
    by sep. The entries are checked for finiteness in one pass, and every row
    goes through one template of its width, so a matrix costs one formatting
    call per row rather than one per entry."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise InputError(_NON_FINITE)
    template = sep.join([_FLOAT] * len(rows[0])) if rows else ""
    return [template % tuple(row) for row in rows]


def _encode(value):
    # Floats and strings first, the values a sweep sidecar holds most; json.dumps
    # itself quotes a str with _quote.
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{_quote(str(k))}: {_encode(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.ndim in (1, 2):
            rows = [f"[{row}]" for row in _format_rows(np.atleast_2d(value), ", ")]
            return rows[0] if value.ndim == 1 else "[" + ", ".join(rows) + "]"
        return _encode(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def dumps_json(value):
    """JSON text with 17-significant-digit floats and sorted object keys."""
    return _encode(value)
